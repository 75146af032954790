"""The record classes keep the contract they had as frozen dataclasses: the
hash is the hash of the field tuple, equality holds only within one class,
fields cannot be reassigned, and the repr is the dataclass repr."""

import pytest

from ordq import logic, oracles, reductions, tam, universe
from ordq.ordcalc import OMEGA, ZERO
from ordq.universe import EMPTY_SET

# (class, constructor arguments, the repr a dataclass with these fields prints)
RECORDS = [
    (tam.OracleCall, ("o", ("input",), "r"),
     "OracleCall(slot='o', arg=('input',), register='r')"),
    (tam.ScanFirstHit, ("deccard", ("input",), "r"),
     "ScanFirstHit(slot='deccard', above=('input',), register='r')"),
    (tam.ScanLastHitAtMost, ("deccard", ("input",), "r"),
     "ScanLastHitAtMost(slot='deccard', bound=('input',), register='r', "
     "charge_closed=True)"),
    (tam.ScanFlagToggleUntil, ("deccard", ("input",), (0, 1), "r"),
     "ScanFlagToggleUntil(slot='deccard', start=('input',), "
     "flags=(0, 1), register='r')"),
    (tam.GuessCheckLoop, ("deccard", len, "r"),
     "GuessCheckLoop(slot='deccard', guesses=<built-in function len>, register='r')"),
    (tam.ComputableSubroutine, ("sq", len, (("reg", "x"),), "r"),
     "ComputableSubroutine(name='sq', fn=<built-in function len>, "
     "args=(('reg', 'x'),), register='r')"),
    (tam.SeparationScan, ("truth", "r"), "SeparationScan(slot='truth', register='r')"),
    (tam.IfFinite, (("input",), (tam.Halt(("input",)),)),
     "IfFinite(value=('input',), "
     "then_branch=(Halt(output=('input',)),), else_branch=())"),
    (tam.Halt, (("reg", "r"),), "Halt(output=('reg', 'r'))"),
    (tam.Program, ("p", (tam.Halt(("input",)),)),
     "Program(name='p', body=(Halt(output=('input',)),))"),
    (tam.RunResult, ("halted", OMEGA, "ledger"),
     "RunResult(status='halted', output=Ordinal('w'), ledger='ledger')"),
    (oracles.SingleEntry, ("DecCard", OMEGA, 1),
     "SingleEntry(oracle='DecCard', query=Ordinal('w'), response=1)"),
    (oracles.RunEntry, ("DecCard", ZERO, OMEGA, OMEGA, "all-0"),
     "RunEntry(oracle='DecCard', from_query=Ordinal('0'), "
     "to_query=Ordinal('w'), order_type=Ordinal('w'), pattern='all-0', exit=None)"),
    (reductions.BoundForm, ("const", OMEGA),
     "BoundForm(kind='const', value=Ordinal('w'), left=None, right=None)"),
    (reductions.Approximator, ("direct-descent", len),
     "Approximator(name='direct-descent', chain_for=<built-in function len>)"),
    (reductions.Row, ("w", "halted", "w", "w", True, "1", "2", True, None),
     "Row(input_text='w', status='halted', output_text='w', expected_text='w', "
     "correct=True, order_type='1', bound_text='2', within=True, replay_ok=None, "
     "product_note='')"),
    (reductions.Report, ("flagtrick", "omega-powers", "2", ()),
     "Report(reduction='flagtrick', structure='omega-powers', bound='2', rows=())"),
    (universe.CardinalStructure, ("omega-powers", OMEGA * 2),
     "CardinalStructure(kind='omega-powers', bound=Ordinal('w*2'), cardinals=())"),
    (universe.SetCode, (2, frozenset({1}), 1),
     "SetCode(domain=2, edges=frozenset({1}), root=1)"),
    (logic.Formula, (("E",), ("eq", ("var", 0), ("param", 0))),
     "Formula('E v0 (v0 = #0)')"),
    (logic.TruthEnv, (2, (EMPTY_SET,)), "TruthEnv(rank=2, params=(HFSet({}),))"),
]

IDS = [cls.__name__ for cls, _, _ in RECORDS]


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


@pytest.mark.parametrize("cls,args,text", RECORDS, ids=IDS)
class TestRecordContract:
    def test_hash_is_the_field_tuple_hash(self, cls, args, text):
        record = cls(*args)
        assert hash(record) == hash(fields(record))
        assert hash(record) == hash(cls(*args))

    def test_repr_is_unchanged(self, cls, args, text):
        assert repr(cls(*args)) == text

    def test_equal_only_within_its_class(self, cls, args, text):
        record = cls(*args)
        assert record == cls(*args) and not record != cls(*args)
        other = type("Other", (cls,), {})(*args)
        assert fields(other) == fields(record)
        assert record != other and other != record and not record == other
        assert record != fields(record) and not record == fields(record)

    def test_fields_cannot_be_reassigned(self, cls, args, text):
        record = cls(*args)
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert repr(record) == text


def test_records_of_two_classes_with_equal_fields_differ():
    pairs = [
        (reductions.Approximator("x", 1), tam.SeparationScan("x", 1)),
        (tam.OracleCall("s", ("input",), "r"), tam.ScanFirstHit("s", ("input",), "r")),
        (tam.ComputableSubroutine("const", ZERO, OMEGA, "all-0"),
         reductions.BoundForm("const", ZERO, OMEGA, "all-0")),
        (tam.IfFinite("s", ("input",), "r"), tam.OracleCall("s", ("input",), "r")),
    ]
    for a, b in pairs:
        assert fields(a) == fields(b)
        assert a != b and not a == b


def test_replace_gives_a_new_record():
    entry = oracles.SingleEntry("DecCard", OMEGA, 1)
    moved = entry._replace(query=ZERO)
    assert moved.query == ZERO and entry.query == OMEGA
    assert type(moved) is oracles.SingleEntry


def test_report_rows_default_to_a_fresh_list():
    a, b = reductions.Report("r", "-", "2"), reductions.Report("r", "-", "2")
    a.rows.append(1)
    assert b.rows == []


def test_formula_and_truth_env_stay_hashable_keys():
    f = logic.parse_formula("E v0 (v0 = #0)")
    env = logic.TruthEnv(2, (EMPTY_SET,))
    seen = {(f, env): 1}
    assert seen[(logic.parse_formula("E v0 (v0 = #0)"), logic.TruthEnv(2, [EMPTY_SET]))] == 1
    assert f.num_params == 1
