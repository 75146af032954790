"""Machine semantics: closed-form scans vs event-level reference, scripted
replay, budgets, and the statement catalog plumbing."""

import pytest

from ordq import universe as u
from ordq.logic import formula_index, parse_formula
from ordq.oracles import (
    DEC_CARD,
    TRUTH,
    FiniteOrdinalSet,
    OmegaMultiplesSet,
    PATTERN_ALL_ZERO,
    PATTERN_ORACLE_HITS,
    QueryLedger,
    RunEntry,
    ScriptMismatch,
    SingleEntry,
    make_effectivizer,
)
from ordq.ordcalc import OMEGA, ONE, ZERO, Ordinal, add, left_sub, omega_power, parse_ordinal as P, render, successor
from ordq.tam import (
    INPUT,
    ApproximatorContractError,
    ComputableSubroutine,
    GuessCheckLoop,
    Halt,
    IfFinite,
    OracleCall,
    Program,
    ProgramError,
    RunResult,
    ScanFirstHit,
    ScanFlagToggleUntil,
    ScanLastHitAtMost,
    SeparationScan,
    reg,
    replay,
    run,
)

import tuple_model as tm
from reference_machine import ref_first_hit, ref_flag_scan, ref_last_hit
from reference_sets import HitsBetween, bit_oracle, flag_value_after
from test_universe import STRUCTURES, W3, multiples_card, powers_card

WIDE = omega_power(P("w*2"))

FIRST_HIT = Program("first-hit-above-input", (
    ScanFirstHit(slot="check", above=INPUT, register="r"),
    Halt(reg("r")),
))

LAST_HIT = Program("last-hit-at-most-input", (
    ScanLastHitAtMost(slot="check", bound=INPUT, register="r"),
    Halt(reg("r")),
))

FLAG_SCAN = Program("flag-scan-two-bank", (
    ScanFlagToggleUntil(slot="check", start=INPUT,
                        flags=(0, 1), register="r"),
    Halt(reg("r")),
))


def dec(structure):
    return {"check": make_effectivizer(DEC_CARD, structure=structure)}


def hits(*members):
    """A scripted oracle over the given hit set, bound to the slot "check"."""
    return {"check": bit_oracle(FiniteOrdinalSet(members))}


def recorded(*entries):
    """A diverged result whose ledger holds the given entries, for replay."""
    ledger = QueryLedger()
    for entry in entries:
        ledger.append(entry)
    return RunResult("diverged", None, ledger)


def anchors():
    return [t for t in tm.grid(2)]


class TestFirstHitScan:
    def test_finite_successor_pin(self):
        res = run(FIRST_HIT, P("5"), dec(u.omega_powers(WIDE)))
        assert res.halted and render(res.output) == "6"
        assert render(res.ledger.total_order_type()) == "1"
        assert res.ledger.to_json() == [
            {"kind": "run", "oracle": "DecCard", "from": "5", "to": "6",
             "order_type": "1", "response": "all-0-then-final-1"}]

    def test_limit_target_pin(self):
        res = run(FIRST_HIT, P("w*2+1"), dec(u.omega_powers(WIDE)))
        assert render(res.output) == "w^2"
        assert res.ledger.total_order_type() == left_sub(P("w*2+1"), P("w^2"))

    @pytest.mark.parametrize("name,cs,pred,_", STRUCTURES, ids=[r[0] for r in STRUCTURES])
    def test_agrees_with_event_reference(self, name, cs, pred, _):
        for t in anchors():
            res = run(FIRST_HIT, tm.to_ordinal(t), dec(cs))
            want = ref_first_hit(pred, t)
            if want is None:
                assert res.status == "diverged", t
                continue
            hit, charged = want
            assert res.halted and res.output == tm.to_ordinal(hit), t
            assert res.ledger.total_order_type() == tm.to_ordinal(charged), t
            assert res.halt_time == res.ledger.total_order_type()

    def test_divergence_sweeps_the_rest_of_the_world(self):
        cs = u.explicit_list([P("w*2")], omega_power(3))
        res = run(FIRST_HIT, P("w*2"), dec(cs))
        assert res.status == "diverged" and res.output is None
        assert res.halt_time is None
        assert res.ledger.to_json() == [
            {"kind": "run", "oracle": "DecCard", "from": "w*2", "to": "w^3",
             "order_type": "w^3", "response": "all-0"}]


class TestLastHitScan:
    def test_bound_pin(self):
        res = run(LAST_HIT, P("w*2+1"), dec(u.omega_powers(WIDE)))
        assert render(res.output) == "w"
        assert render(res.ledger.total_order_type()) == "w*2+2"

    def test_declared_charge_drops_the_closing_step(self):
        prog = Program("last-hit-declared", (
            ScanLastHitAtMost(slot="check", bound=INPUT, register="r",
                              charge_closed=False),
            Halt(reg("r")),
        ))
        res = run(prog, P("w*2+1"), dec(u.omega_powers(WIDE)))
        assert render(res.output) == "w"
        assert render(res.ledger.total_order_type()) == "w*2+1"

    def test_declared_scan_up_to_zero_is_ledgered_and_replays(self):
        # charged 0, the window is still ledgered, so that replay finds the
        # exit the live scan read instead of diverging
        prog = Program("declared", (
            ScanLastHitAtMost("deccard", INPUT, "r", charge_closed=False),
            Halt(reg("r")),
        ))
        bindings = {"deccard": make_effectivizer(DEC_CARD, structure=u.omega_powers(W3))}
        res = run(prog, ZERO, bindings)
        assert res.halted and res.output == ZERO
        assert res.ledger.to_json() == [
            {"kind": "run", "oracle": "DecCard", "from": "0", "to": "0",
             "order_type": "0", "response": "oracle-hits"}]
        assert res.ledger.total_order_type() == ZERO
        again = replay(prog, ZERO, res)
        assert again.halted and again.output == ZERO
        assert again.same_as(res)

    @pytest.mark.parametrize("name,cs,pred,_", STRUCTURES, ids=[r[0] for r in STRUCTURES])
    def test_agrees_with_event_reference(self, name, cs, pred, _):
        for t in anchors():
            res = run(LAST_HIT, tm.to_ordinal(t), dec(cs))
            hit, charged = ref_last_hit(pred, t)
            assert res.halted and res.output == tm.to_ordinal(hit), t
            assert res.ledger.total_order_type() == tm.to_ordinal(charged), t

    def test_no_hit_in_window_diverges_after_the_sweep(self):
        bits = bit_oracle(FiniteOrdinalSet([P("w")]))
        res = run(LAST_HIT, P("5"), {"check": bits})
        assert res.status == "diverged"
        assert render(res.ledger.total_order_type()) == "6"


# hit sets for the flag scan: the cardinals of each structure kind, and two
# declared hit sets behind a scripted oracle
FLAG_ORACLES = [(name, make_effectivizer(DEC_CARD, structure=cs))
                for name, cs, _, _ in STRUCTURES] + [
    ("omega-powers-wide", make_effectivizer(DEC_CARD, structure=u.omega_powers(WIDE))),
    ("omega-multiples", bit_oracle(OmegaMultiplesSet())),
    ("finite", bit_oracle(FiniteOrdinalSet(
        [P(a) for a in ("3", "w+2", "w*2", "w^2+w", "w^2*3+4")]))),
]
FLAG_STAGES = [(t, tm.to_ordinal(t)) for t in tm.grid(4)]


def bank_reads_zero(bank, hits, start, stage) -> bool:
    """Every flag of the bank reads 0 at the stage by the lim-inf reference,
    fed only the hits strictly above the start: either at the stage's
    lim-inf, before its own toggle (the hits below the stage), or after it.
    A limit of hits that is itself a hit reads 0 before its toggle."""
    views = (HitsBetween(hits, start, stage), HitsBetween(hits, start))
    return any(all(flag_value_after(b, view, stage) == 0 for b in set(bank))
               for view in views)


class TestFlagScan:
    def test_multiples_pin(self):
        res = run(FLAG_SCAN, OMEGA, dec(u.multiples_of_omega(WIDE)))
        assert render(res.output) == "w^2"
        assert render(res.ledger.total_order_type()) == "w^2"
        assert render(res.halt_time) == "w^2"

    def test_powers_needs_the_next_limit_exponent(self):
        res = run(FLAG_SCAN, OMEGA, dec(u.omega_powers(WIDE)))
        assert render(res.output) == "w^(w)"
        assert res.ledger.total_order_type() == left_sub(OMEGA, omega_power(OMEGA))

    @pytest.mark.parametrize("cs", [u.omega_powers(WIDE), u.multiples_of_omega(WIDE)],
                             ids=["omega-powers", "multiples-of-omega"])
    def test_from_three_halts_at_omega(self, cs):
        res = run(FLAG_SCAN, P("3"), dec(cs))
        assert render(res.output) == "w"
        assert render(res.ledger.total_order_type()) == "w"

    def test_all_ones_bank_exits_at_the_first_hit(self):
        prog = Program("flag-all-ones", (
            ScanFlagToggleUntil(slot="check", start=INPUT,
                                flags=(1, 1), register="r"),
            Halt(reg("r")),
        ))
        res = run(prog, P("w+3"), dec(u.omega_powers(WIDE)))
        assert render(res.output) == "w^2"
        assert res.ledger.entries[0].pattern == "all-0-then-final-1"

    def test_all_zero_bank_exits_immediately_for_free(self):
        prog = Program("flag-all-zero", (
            ScanFlagToggleUntil(slot="check", start=INPUT,
                                flags=(0,), register="r"),
            Halt(reg("r")),
        ))
        res = run(prog, P("w+3"), dec(u.omega_powers(WIDE)))
        assert render(res.output) == "w+3"
        assert len(res.ledger) == 0 and render(res.halt_time) == "0"

    @pytest.mark.parametrize("bank", [(), (0, 2), (1, "1")], ids=str)
    def test_a_bank_that_is_not_a_nonempty_tuple_of_bits_is_refused(self, bank):
        prog = Program("bad-bank", (
            ScanFlagToggleUntil(slot="check", start=INPUT, flags=bank, register="r"),
            Halt(reg("r")),
        ))
        with pytest.raises(ProgramError, match="nonempty tuple of bits"):
            run(prog, P("3"), dec(u.omega_powers(WIDE)))

    def test_agrees_with_event_reference_on_multiples(self):
        cs = u.multiples_of_omega(W3)
        for t in anchors():
            res = run(FLAG_SCAN, tm.to_ordinal(t), dec(cs))
            want = ref_flag_scan(multiples_card, t, (0, 1))
            assert want is not None and res.halted, t
            exit_point, charged = want
            assert res.output == tm.to_ordinal(exit_point), t
            assert res.ledger.total_order_type() == tm.to_ordinal(charged), t

    def test_agrees_with_event_reference_on_powers(self):
        cs = u.omega_powers(W3)
        for t in anchors():
            res = run(FLAG_SCAN, tm.to_ordinal(t), dec(cs))
            want = ref_flag_scan(powers_card, t, (0, 1))
            if want is None:
                assert res.status == "diverged", t
            else:
                exit_point, charged = want
                assert res.output == tm.to_ordinal(exit_point), t
                assert res.ledger.total_order_type() == tm.to_ordinal(charged), t

    @pytest.mark.parametrize("bank", [(1,), (1, 1), (0, 1)], ids=str)
    @pytest.mark.parametrize("oracle", [o for _, o in FLAG_ORACLES],
                             ids=[name for name, _ in FLAG_ORACLES])
    def test_stops_where_the_lim_inf_reference_zeroes_the_bank(self, oracle, bank):
        prog = Program("flag-bank", (
            ScanFlagToggleUntil(slot="check", start=INPUT, register="r",
                                flags=bank),
            Halt(reg("r")),
        ))
        hits = oracle.hit_set
        horizon = hits.scan_horizon() or W3      # every grid stage lies below w^3
        for t in anchors():
            start = tm.to_ordinal(t)
            res = run(prog, start, {"check": oracle})
            first = next((a for s, a in FLAG_STAGES if s > t and a <= horizon
                          and bank_reads_zero(bank, hits, start, a)), None)
            if res.halted and res.output < W3:
                assert res.output == first, (t, res.output, first)
            else:
                # diverged, or halted past the w^3 grid: no stage of the grid
                # up to the horizon zeroes the bank
                assert res.status in ("diverged", "halted"), t
                assert first is None, (t, first)


class TestGuessCheck:
    def prog(self, chain):
        return Program("guess-check", (
            GuessCheckLoop(slot="check", guesses=lambda i: iter(chain),
                           register="r"),
            Halt(reg("r")),
        ))

    def test_stops_at_first_positive_check(self):
        res = run(self.prog([P("w^2+3"), P("w+7"), OMEGA]), P("w^2+5"),
                  dec(u.omega_powers(WIDE)))
        assert render(res.output) == "w"
        assert len(res.ledger) == 3
        assert all(e.to_json()["kind"] == "single" for e in res.ledger)
        assert render(res.halt_time) == "3"

    def test_immediate_hit(self):
        res = run(self.prog([OMEGA]), OMEGA, dec(u.omega_powers(WIDE)))
        assert render(res.output) == "w" and len(res.ledger) == 1

    def test_increasing_guesses_are_rejected(self):
        with pytest.raises(ApproximatorContractError):
            run(self.prog([P("w+1"), P("w+2")]), OMEGA, dec(u.omega_powers(WIDE)))

    def test_consecutive_repeats_collapse(self):
        res = run(self.prog([P("5"), P("5"), P("3")]), P("9"),
                  dec(u.omega_powers(WIDE)))
        assert render(res.output) == "5" and len(res.ledger) == 1

    def test_exhausted_source_diverges(self):
        res = run(self.prog([P("w+1")]), P("w+5"), dec(u.omega_powers(WIDE)))
        assert res.status == "diverged" and len(res.ledger) == 1


SEP_PROG = Program("separate-by-truth", (
    SeparationScan(slot="truth", register="r"),
    Halt(reg("r")),
))


def sep_input(s, formula, params=()):
    return (u.encode_hf(s), formula_index(parse_formula(formula)),
            tuple(u.encode_hf(p) for p in params))


class TestSeparationScan:
    TRUTH_BINDING = {"truth": make_effectivizer(TRUTH, level=2, rank=3)}

    def test_memberless_filter(self):
        s = u.hf(u.hf(), u.hf(u.hf()))
        res = run(SEP_PROG, sep_input(s, "A v0 (!(v0 in #0))"), self.TRUTH_BINDING)
        assert u.decode_set(res.output) == u.hf(u.hf())
        assert len(res.ledger) == 2 and render(res.halt_time) == "2"

    def test_empty_set_makes_no_calls(self):
        res = run(SEP_PROG, sep_input(u.hf(), "A v0 (!(v0 in #0))"), self.TRUTH_BINDING)
        assert u.decode_set(res.output) == u.hf() and len(res.ledger) == 0

    def test_always_true_keeps_everything(self):
        s = u.hf(u.hf(), u.hf(u.hf()), u.hf(u.hf(u.hf())))
        res = run(SEP_PROG, sep_input(s, "E v0 (v0 = #0)"), self.TRUTH_BINDING)
        assert u.decode_set(res.output) == s and len(res.ledger) == 3

    def test_arity_mismatch_outputs_empty_with_zero_calls(self):
        s = u.hf(u.hf())
        res = run(SEP_PROG, sep_input(s, "E v0 (v0 in #0 & v0 in #1)"),
                  self.TRUTH_BINDING)
        assert u.decode_set(res.output) == u.hf() and len(res.ledger) == 0

    def test_bad_input_shape_is_a_program_error(self):
        with pytest.raises(ProgramError):
            run(SEP_PROG, P("3"), self.TRUTH_BINDING)


class TestControlFlow:
    def test_if_branches_on_finiteness(self):
        prog = Program("finite-shortcut", (
            IfFinite(INPUT,
               then_branch=(Halt(INPUT),),
               else_branch=(ComputableSubroutine("succ", successor, (INPUT,), "r"),
                            Halt(reg("r")))),
        ))
        assert render(run(prog, P("7"), {}).output) == "7"
        assert render(run(prog, P("w"), {}).output) == "w+1"

    def test_subroutine_reads_the_input(self):
        prog = Program("shift-by-w", (
            ComputableSubroutine("add", lambda a: OMEGA + a, (INPUT,), "r"),
            Halt(reg("r")),
        ))
        assert render(run(prog, P("3"), {}).output) == "w+3"

    def test_unbound_slot(self):
        with pytest.raises(ProgramError):
            run(FIRST_HIT, P("3"), {})

    def test_register_read_before_assignment(self):
        prog = Program("bad-register", (Halt(reg("never")),))
        with pytest.raises(ProgramError):
            run(prog, P("0"), {})

    def test_missing_halt(self):
        prog = Program("no-halt", (ComputableSubroutine("one", lambda: P("1"), (), "r"),))
        with pytest.raises(ProgramError):
            run(prog, P("0"), {})

    def test_budget_must_be_positive(self):
        with pytest.raises(ProgramError):
            run(FIRST_HIT, P("3"), dec(u.omega_powers(WIDE)), budget=0)


class TestScripted:
    def test_pointwise_first_hit(self):
        assert render(run(FIRST_HIT, P("5"), hits(6)).output) == "6"
        res = run(FIRST_HIT, P("5"), hits(8))
        assert render(res.output) == "8"
        assert render(res.ledger.total_order_type()) == "3"

    def test_empty_script_at_a_scan_diverges(self):
        # the ledger of a scan that found no hit and had no horizon is empty;
        # a scan whose next script item is a single entry reads it the same way
        for script in [(), (SingleEntry("DecCard", P("6"), 1),)]:
            res = replay(FIRST_HIT, P("5"), recorded(*script))
            assert res.status == "diverged" and res.output is None
            assert len(res.ledger) == 0

    @pytest.mark.parametrize("prog", [FIRST_HIT, FLAG_SCAN], ids=lambda p: p.name)
    def test_replay_of_a_scan_that_diverges_without_a_sweep(self, prog):
        res = run(prog, P("w+1"), hits(OMEGA))
        assert res.status == "diverged" and len(res.ledger) == 0
        assert replay(prog, P("w+1"), res).same_as(res)

    def test_pointwise_last_hit_on_a_finite_bound(self):
        res = run(LAST_HIT, P("3"), hits(0, 3))
        assert render(res.output) == "3"
        assert render(res.ledger.total_order_type()) == "4"

    def test_pointwise_flag_scan_all_ones(self):
        prog = Program("flag-all-ones", (
            ScanFlagToggleUntil(slot="check", start=INPUT,
                                flags=(1,), register="r"),
            Halt(reg("r")),
        ))
        res = run(prog, P("4"), hits(6))
        assert render(res.output) == "6"
        assert render(res.ledger.total_order_type()) == "2"

    def test_single_call_consumes_one_value(self):
        prog = Program("one-call", (
            OracleCall(slot="check", arg=INPUT, register="r"),
            Halt(reg("r")),
        ))
        res = replay(prog, P("w"), recorded(SingleEntry("NextCard", OMEGA, P("w^2"))))
        assert render(res.output) == "w^2" and len(res.ledger) == 1
        assert replay(prog, P("w"), recorded()).status == "script-exhausted"

    def test_recorded_scan_rejected_at_another_window_start(self):
        source = run(FIRST_HIT, P("5"), dec(u.omega_powers(WIDE)))
        with pytest.raises(ScriptMismatch):
            replay(FIRST_HIT, P("6"), source)

    def test_run_segment_rejected_by_pointwise_call(self):
        prog = Program("one-call", (
            OracleCall(slot="check", arg=INPUT, register="r"),
            Halt(reg("r")),
        ))
        source = run(FIRST_HIT, P("w*2+1"), dec(u.omega_powers(WIDE)))
        with pytest.raises(ScriptMismatch):
            replay(prog, P("w"), source)


class TestReplay:
    def runs(self):
        powers, mults = u.omega_powers(WIDE), u.multiples_of_omega(WIDE)
        yield FIRST_HIT, P("5"), run(FIRST_HIT, P("5"), dec(powers))
        yield FIRST_HIT, P("w*2+1"), run(FIRST_HIT, P("w*2+1"), dec(powers))
        yield LAST_HIT, P("w*2+1"), run(LAST_HIT, P("w*2+1"), dec(powers))
        yield FLAG_SCAN, OMEGA, run(FLAG_SCAN, OMEGA, dec(mults))
        yield FLAG_SCAN, OMEGA, run(FLAG_SCAN, OMEGA, dec(powers))
        ex = u.explicit_list([P("w*2")], omega_power(3))
        yield FLAG_SCAN, OMEGA, run(FLAG_SCAN, OMEGA, dec(ex))      # diverges
        gc = Program("guess-check", (
            GuessCheckLoop(slot="check",
                           guesses=lambda i: iter([P("w^2+3"), P("w+7"), OMEGA]),
                           register="r"),
            Halt(reg("r")),
        ))
        yield gc, P("w^2+5"), run(gc, P("w^2+5"), dec(powers))
        s = u.hf(u.hf(), u.hf(u.hf()))
        inp = sep_input(s, "A v0 (!(v0 in #0))")
        yield SEP_PROG, inp, run(SEP_PROG, inp,
                                 {"truth": make_effectivizer(TRUTH, level=2, rank=3)})
        yield LAST_HIT, P("3"), run(LAST_HIT, P("3"), hits(0, 3))

    def test_replaying_the_recorded_script_reproduces_the_run(self):
        for prog, inp, res in self.runs():
            again = replay(prog, inp, res)
            assert again.same_as(res), (prog.name, again.status, res.status)

    def test_budget_increase_never_changes_a_result(self):
        powers = u.omega_powers(WIDE)
        a = run(FIRST_HIT, P("w*2+1"), dec(powers), budget=3)
        b = run(FIRST_HIT, P("w*2+1"), dec(powers), budget=3000)
        assert a.same_as(b)

    def test_ledger_time_coherence(self):
        # the halt time is the clock at the halt: the entries' order types
        # added up in ledger order
        for prog, inp, res in self.runs():
            total = ZERO
            for entry in res.ledger:
                total = add(total, entry.length())
            assert res.halt_time == (total if res.halted else None), prog.name

    def test_replay_asks_no_structure(self, monkeypatch):
        recorded = list(self.runs())

        def refuse(*args):
            raise AssertionError("a replay asked the cardinal structure")

        for query in ("is_cardinal", "card_of", "next_card_of",
                      "next_limit_of_cardinals_above"):
            monkeypatch.setattr(u, query, refuse)
        for prog, inp, res in recorded:
            assert replay(prog, inp, res).same_as(res), prog.name

    def test_an_edited_exit_fails_the_replay(self):
        edited = 0
        for prog, inp, res in self.runs():
            entries = res.ledger.entries
            for i, e in enumerate(entries):
                if isinstance(e, RunEntry):
                    exit = e.to_query if e.exit is None else successor(e.exit)
                    entries[i] = e._replace(exit=exit)
                    assert not replay(prog, inp, res).same_as(res), prog.name
                    entries[i] = e
                    assert replay(prog, inp, res).same_as(res), prog.name
                    edited += 1
        assert edited == 7

    def test_same_as_compares_what_the_json_shows_and_the_exit(self):
        single = SingleEntry("DecCard", OMEGA, 1)
        scan = RunEntry("DecCard", OMEGA, P("w*2"), OMEGA, PATTERN_ORACLE_HITS, P("w+3"))
        base = recorded(single, scan)
        seen = [
            (single._replace(oracle="NextCard"), scan),
            (single._replace(query=P("w+1")), scan),
            (single._replace(response=0), scan),
            (single._replace(response=True), scan),     # shows "True", not "1"
            (RunEntry("DecCard", OMEGA, OMEGA, ONE, "1"), scan),  # the class
            (single, scan._replace(oracle="NextCard")),
            (single, scan._replace(from_query=P("w+1"))),
            (single, scan._replace(to_query=P("w*3"))),
            (single, scan._replace(order_type=P("w*2"))),
            (single, scan._replace(pattern=PATTERN_ALL_ZERO)),
            (single, scan._replace(exit=None)),         # the exit replay reads
            (single,),
        ]
        for entries in seen:
            assert not base.same_as(recorded(*entries)), entries
            assert not recorded(*entries).same_as(base), entries
        unseen = [
            (single._replace(query=P("w")), scan),      # equal, built apart
            (single._replace(response=ONE), scan),      # shows "1" too
        ]
        for entries in unseen:
            assert base.same_as(recorded(*entries)), entries


def edited(result, index, **fields):
    """result with the fields of its ledger entry at index replaced."""
    ledger = QueryLedger()
    for i, entry in enumerate(result.ledger):
        ledger.append(entry._replace(**fields) if i == index else entry)
    return result._replace(ledger=ledger)


class TestRawComparison:
    """same_as compares the values ledger entries hold, not their text."""

    def test_a_separation_query_with_another_element_fails(self):
        s = u.hf(u.hf(), u.hf(u.hf()))
        inp = sep_input(s, "A v0 (!(v0 in #0))")
        res = run(SEP_PROG, inp, {"truth": make_effectivizer(TRUTH, level=2, rank=3)})
        again = replay(SEP_PROG, inp, res)
        # the replay decodes from the same code, so it queries the same objects
        for live, replayed in zip(res.ledger, again.ledger):
            assert replayed.query[1][0] is live.query[1][0]
        k, (x,) = res.ledger.entries[0].query
        other = next(m for m in (u.hf(), u.hf(u.hf()), u.hf(u.hf(u.hf()))) if m != x)
        changed = edited(again, 0, query=(k, (other,)))
        assert not changed.same_as(res) and not res.same_as(changed)
        assert edited(again, 0, query=(k, (u.HFSet(x),))).same_as(res)

    def test_an_edited_ordinal_query_fails(self):
        count = 0
        for prog, inp, res in TestReplay().runs():
            for i, entry in enumerate(res.ledger):
                if isinstance(entry, SingleEntry) and isinstance(entry.query, Ordinal):
                    changed = edited(res, i, query=successor(entry.query))
                    assert not changed.same_as(res), prog.name
                    assert edited(res, i).same_as(res), prog.name
                    count += 1
        assert count == 3

    def test_a_pot_query_with_other_edges_fails(self):
        from ordq.reductions import catalog
        spec = catalog("powercard_via_pot", count_only=True)
        code = u.encode_hf(u.parse_hf("{{},{{{}}}}"))
        # the same domain, root and edge count, other edges
        lookalike = u.encode_hf(u.parse_hf("{{{},{{}}}}"))
        assert (code.domain, code.root, len(code.edges)) == \
            (lookalike.domain, lookalike.root, len(lookalike.edges))
        assert code != lookalike
        res = run(spec.make_program(), code, spec.make_bindings(None))
        assert res.ledger.entries[0].query is code
        changed = edited(res, 0, query=lookalike)
        # the text comparison let this pair pass: the JSON is the same
        assert changed.ledger.to_json() == res.ledger.to_json()
        assert not changed.same_as(res) and not res.same_as(changed)
        assert edited(res, 0, query=u.encode_hf(u.parse_hf("{{},{{{}}}}"))).same_as(res)


class TestFlagValueAfter:
    def test_cofinal_toggles_read_zero_at_the_limit(self):
        assert flag_value_after(1, OmegaMultiplesSet(), omega_power(2)) == 0

    def test_even_parity(self):
        assert flag_value_after(0, FiniteOrdinalSet([10, 20]), 30) == 0

    def test_no_toggles_is_constant(self):
        assert flag_value_after(0, FiniteOrdinalSet([]), OMEGA) == 0
        assert flag_value_after(1, FiniteOrdinalSet([]), OMEGA) == 1
