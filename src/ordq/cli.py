"""Command line front end.

Four subcommands:

  calc EXPR        evaluate an ordinal arithmetic expression
  reduce NAME ...  run one catalog reduction instance, optionally
                   writing the query ledger as JSON
  run SCENARIO     verify a JSON batch and print/write the report
  selftest         exercise the invariant suites and exit 0 on success

Exit codes: 0 success, 1 failed checks or an unexpected error, 2 usage or
validation problems, 3 the run diverged, 4 the run exceeded its budget.
All file output is written atomically and is byte-stable for a given input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import List, Optional

from . import tam
from . import universe as u
from .logic import RankError, formula_index, parse_formula
from .oracles import OracleTypeError, QueryLedger, extract_script
from .ordcalc import (
    OMEGA,
    Ordinal,
    OrdinalDomainError,
    OrdinalParseError,
    add,
    left_sub,
    mul,
    opow,
    parse_ordinal,
    render,
)
from .reductions import BoundForm, CATALOG_NAMES, Report, catalog, verify

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_BUDGET = 4

DEFAULT_BOUND = "w^(w*2)"


class CliError(Exception):
    """Validation problem that should surface as exit code 2."""


# -- calc --------------------------------------------------------------------


class _ExprParser:
    """Infix ordinal arithmetic: +, *, right-associative ^, parentheses,
    the constant w, and leftsub(a, b)."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> Ordinal:
        value = self._sum()
        self._skip_ws()
        if self.pos != len(self.text):
            raise CliError(f"trailing input at position {self.pos}: "
                           f"{self.text[self.pos:]!r}")
        return value

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _eat(self, symbol: str) -> bool:
        self._skip_ws()
        if self.text.startswith(symbol, self.pos):
            self.pos += len(symbol)
            return True
        return False

    def _sum(self) -> Ordinal:
        value = self._product()
        while self._eat("+"):
            value = add(value, self._product())
        return value

    def _product(self) -> Ordinal:
        value = self._power()
        while self._eat("*"):
            value = mul(value, self._power())
        return value

    def _power(self) -> Ordinal:
        base = self._atom()
        if self._eat("^"):
            return opow(base, self._power())
        return base

    def _atom(self) -> Ordinal:
        self._skip_ws()
        if self.pos >= len(self.text):
            raise CliError("unexpected end of expression")
        ch = self.text[self.pos]
        if ch == "(":
            self.pos += 1
            value = self._sum()
            if not self._eat(")"):
                raise CliError(f"expected ')' at position {self.pos}")
            return value
        if self.text.startswith("leftsub", self.pos):
            self.pos += len("leftsub")
            if not self._eat("("):
                raise CliError("leftsub needs parenthesised arguments")
            a = self._sum()
            if not self._eat(","):
                raise CliError("leftsub takes two arguments")
            b = self._sum()
            if not self._eat(")"):
                raise CliError(f"expected ')' at position {self.pos}")
            return left_sub(a, b)
        if ch == "w":
            self.pos += 1
            return OMEGA
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            return Ordinal.from_int(int(self.text[start:self.pos]))
        raise CliError(f"unexpected character {ch!r} at position {self.pos}")


def _cmd_calc(args) -> int:
    try:
        value = _ExprParser(" ".join(args.expression)).parse()
    except OrdinalDomainError as e:
        raise CliError(str(e))
    print(render(value))
    return EXIT_OK


# -- shared builders ---------------------------------------------------------


def _build_structure(kind: str, bound_text: str,
                     cardinal_texts: Optional[List[str]]) -> u.CardinalStructure:
    bound = _parse_ordinal_arg(bound_text, "bound")
    if kind == u.OMEGA_POWERS:
        return u.omega_powers(bound)
    if kind == u.MULTIPLES_OF_OMEGA:
        return u.multiples_of_omega(bound)
    if kind == u.EXPLICIT_LIST:
        if not cardinal_texts:
            raise CliError("an explicit-list structure needs --cardinals")
        cards = [_parse_ordinal_arg(c, "cardinal") for c in cardinal_texts]
        return u.explicit_list(cards, bound)
    raise CliError(f"unknown structure kind {kind!r}; pick one of {', '.join(u.KINDS)}")


def _parse_ordinal_arg(text: str, what: str) -> Ordinal:
    try:
        return parse_ordinal(text)
    except OrdinalParseError as e:
        raise CliError(f"bad {what} {text!r}: {e}")


def _parse_set_arg(text: str, what: str) -> u.SetCode:
    try:
        return u.encode_hf(u.parse_hf(text))
    except ValueError as e:
        raise CliError(f"bad {what} {text!r}: {e}")


def _parse_formula_arg(text: str) -> int:
    try:
        return formula_index(parse_formula(text))
    except ValueError as e:
        raise CliError(f"bad formula {text!r}: {e}")


def _needs_structure(name: str) -> bool:
    return name not in ("powercard_via_pot", "sep_via_truth")


def _parse_instance(name: str, args) -> object:
    if name == "powercard_via_pot":
        return _parse_set_arg(args.input, "input set")
    if name == "sep_via_truth":
        if not args.formula:
            raise CliError("sep_via_truth needs --formula")
        code = _parse_set_arg(args.input, "input set")
        params = tuple(_parse_set_arg(p, "parameter") for p in args.param)
        return (code, _parse_formula_arg(args.formula), params)
    return _parse_ordinal_arg(args.input, "input")


def _check_in_window(instance: Ordinal, structure: u.CardinalStructure):
    if instance >= structure.bound:
        raise CliError(f"instance {render(instance)} is not below the "
                       f"structure bound {render(structure.bound)}")


def _check_budget(budget: int):
    if budget <= 0:
        raise CliError(f"the budget must be positive, got {budget}")


def _status_exit(status: str) -> int:
    if status == tam.HALTED:
        return EXIT_OK
    if status == tam.DIVERGED:
        return EXIT_DIVERGED
    if status == tam.BUDGET_EXCEEDED:
        return EXIT_BUDGET
    return EXIT_FAIL


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ordq-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _ledger_json(program_name: str, instance, result: tam.RunResult) -> dict:
    from .oracles import summarize_query
    return {
        "program": program_name,
        "input": summarize_query(instance),
        "output": None if result.output is None else summarize_query(result.output),
        "halt_time": render(result.halt_time) if result.halt_time is not None
        else result.status,
        "entries": result.ledger.to_json(),
        "total_order_type": render(result.ledger.total_order_type()),
    }


# -- reduce ------------------------------------------------------------------


def _cmd_reduce(args) -> int:
    if args.name not in CATALOG_NAMES:
        raise CliError(f"unknown reduction {args.name!r}; pick one of "
                       f"{', '.join(CATALOG_NAMES)}")
    spec = catalog(args.name, count_only=args.count_only,
                   level=args.level, rank=args.rank)
    structure = None
    if _needs_structure(args.name):
        structure = _build_structure(args.structure, args.bound, args.cardinals)
    instance = _parse_instance(args.name, args)
    if structure is not None:
        _check_in_window(instance, structure)
    _check_budget(args.budget)

    program = spec.make_program()
    result = tam.run(program, instance, spec.make_bindings(structure),
                     args.budget)
    print(f"status: {result.status}")
    if result.output is not None:
        from .oracles import summarize_query
        print(f"output: {summarize_query(result.output)}")
    print(f"total order type: {render(result.ledger.total_order_type())}")
    if args.ledger:
        blob = _ledger_json(program.name, instance, result)
        _atomic_write(args.ledger, json.dumps(blob, indent=1) + "\n")
    return _status_exit(result.status)


# -- run ---------------------------------------------------------------------


_BOUND_KINDS = {
    "const": lambda v: BoundForm.const(parse_ordinal(v)),
    "input": lambda v: BoundForm.input_itself(),
    "succ-of-input": lambda v: BoundForm.succ_of_input(),
    "next-card-succ": lambda v: BoundForm.next_card_succ(),
    "finite": lambda v: BoundForm.finite(),
    "set-size": lambda v: BoundForm.set_size(),
    "next-limit-interval": lambda v: BoundForm.next_limit_interval(),
}


def _scenario_field(blob: dict, key: str, kind, required=False, default=None):
    if key not in blob:
        if required:
            raise CliError(f"scenario is missing the {key!r} field")
        return default
    value = blob[key]
    if not isinstance(value, kind):
        raise CliError(f"scenario field {key!r} should be "
                       f"{getattr(kind, '__name__', kind)}, got {type(value).__name__}")
    return value


def _load_scenario(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as e:
        raise CliError(f"cannot read scenario {path!r}: {e}")
    except json.JSONDecodeError as e:
        raise CliError(f"scenario {path!r} line {e.lineno}: {e.msg}")


def _scenario_instances(name: str, raw_instances: list, structure):
    instances = []
    for i, raw in enumerate(raw_instances):
        where = f"instance #{i}"
        if name == "powercard_via_pot":
            if not isinstance(raw, str):
                raise CliError(f"{where} should be a set literal string")
            instances.append(_parse_set_arg(raw, where))
        elif name == "sep_via_truth":
            if not isinstance(raw, dict):
                raise CliError(f"{where} should be an object with "
                               "set/formula/params")
            code = _parse_set_arg(_scenario_field(raw, "set", str, required=True),
                                  f"{where} set")
            k = _parse_formula_arg(_scenario_field(raw, "formula", str,
                                                   required=True))
            params = tuple(_parse_set_arg(p, f"{where} parameter")
                           for p in _scenario_field(raw, "params", list,
                                                    default=[]))
            instances.append((code, k, params))
        else:
            if not isinstance(raw, str):
                raise CliError(f"{where} should be an ordinal string")
            a = _parse_ordinal_arg(raw, where)
            if structure is not None:
                try:
                    _check_in_window(a, structure)
                except CliError as e:
                    raise CliError(f"{where}: {e}")
            instances.append(a)
    return instances


def _cmd_run(args) -> int:
    blob = _load_scenario(args.scenario)
    name = _scenario_field(blob, "reduction", str, required=True)
    if name not in CATALOG_NAMES:
        raise CliError(f"scenario names unknown reduction {name!r}")
    level = _scenario_field(blob, "level", int, default=2)
    rank = _scenario_field(blob, "rank", int, default=3)
    count_only = _scenario_field(blob, "count_only", bool, default=False)
    spec = catalog(name, count_only=count_only, level=level, rank=rank)

    structure = None
    if _needs_structure(name):
        desc = _scenario_field(blob, "structure", dict, required=True)
        structure = _build_structure(
            _scenario_field(desc, "kind", str, required=True),
            _scenario_field(desc, "bound", str, default=DEFAULT_BOUND),
            _scenario_field(desc, "cardinals", list))

    raw_instances = _scenario_field(blob, "instances", list, required=True)
    if not raw_instances:
        raise CliError("scenario has no instances")
    instances = _scenario_instances(name, raw_instances, structure)
    budget = _scenario_field(blob, "budget", int, default=tam.DEFAULT_BUDGET)
    _check_budget(budget)

    override = None
    if "bound_override" in blob:
        desc = _scenario_field(blob, "bound_override", dict)
        kind = _scenario_field(desc, "kind", str, required=True)
        if kind not in _BOUND_KINDS:
            raise CliError(f"unknown bound form {kind!r}")
        override = _BOUND_KINDS[kind](_scenario_field(desc, "value", str,
                                                      default="0"))

    report = verify(spec, structure, instances, budget,
                    bound_override=override)
    print(report.render_table())
    out_path = args.output or _scenario_field(blob, "output", str)
    if out_path:
        _atomic_write(out_path, json.dumps(report.to_json(), indent=1) + "\n")
    return EXIT_OK if report.passed else EXIT_FAIL


# -- selftest ----------------------------------------------------------------


def _suite_arithmetic():
    samples = [parse_ordinal(s) for s in
               ("0", "1", "5", "w", "w+3", "w*2", "w*2+1", "w^2", "w^2+w",
                "w^3+w^2*2+4", "w^(w)")]
    for a in samples:
        for b in samples:
            s = add(a, b)
            assert s >= b, "addition dropped below its right operand"
            assert left_sub(a, s) == left_sub(a, s)
            assert add(a, left_sub(a, s)) == s, "left subtraction round trip"
            assert render(parse_ordinal(render(s))) == render(s)
    assert render(add(1, OMEGA)) == "w"
    assert render(opow(OMEGA, OMEGA)) == "w^(w)"


def _suite_oracles():
    from .oracles import OmegaMultiplesSet, flag_value_after
    hits = OmegaMultiplesSet()
    assert hits.least_above(parse_ordinal("w*3+5")) == parse_ordinal("w*4")
    assert hits.greatest_at_most(parse_ordinal("w*3+5")) == parse_ordinal("w*3")
    assert hits.next_limit_above(parse_ordinal("5")) == parse_ordinal("w^2")
    assert flag_value_after(1, hits, parse_ordinal("w^2")) == 0
    sup, attained = hits.sup_below(parse_ordinal("w^2"))
    assert render(sup) == "w^2" and not attained


def _suite_ledger():
    ledger = QueryLedger()
    from .oracles import SingleEntry
    ledger.append(SingleEntry(parse_ordinal("0"), "X", "q", "1", 1))
    assert render(ledger.total_order_type()) == "1"
    assert extract_script(ledger)[0].value == 1


def _suite_reductions():
    cs = u.omega_powers(parse_ordinal("w^3"))
    report = verify(catalog("nextcard_via_deccard"), cs,
                    [parse_ordinal(s) for s in ("5", "w", "w*2+1")])
    assert report.passed, "next-cardinal reduction failed"
    report = verify(catalog("flagtrick"), u.multiples_of_omega(parse_ordinal("w^3")),
                    [parse_ordinal(s) for s in ("3", "w", "w+5")])
    assert report.passed, "flag toggling reduction failed"
    code = u.encode_hf(u.hf(u.EMPTY_SET))
    report = verify(catalog("powercard_via_pot"), None, [code])
    assert report.passed, "power cardinality reduction failed"


_SELFTEST_SUITES = (
    ("ordinal arithmetic", _suite_arithmetic),
    ("ranked oracles", _suite_oracles),
    ("query ledgers", _suite_ledger),
    ("reduction catalog", _suite_reductions),
)


def _cmd_selftest(_args) -> int:
    failures = 0
    for name, suite in _SELFTEST_SUITES:
        try:
            suite()
        except AssertionError as e:
            failures += 1
            print(f"FAIL - {name}: {e}")
        else:
            print(f"ok - {name}")
    if failures:
        print(f"selftest: {failures} of {len(_SELFTEST_SUITES)} suites failed")
        return EXIT_FAIL
    print(f"selftest: {len(_SELFTEST_SUITES)} suites passed")
    return EXIT_OK


# -- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordq",
        description="symbolic ordinal computations with query ledgers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calc", help="evaluate an ordinal expression")
    p.add_argument("expression", nargs="+",
                   help="infix expression over +, *, ^, leftsub(a,b), w")
    p.set_defaults(fn=_cmd_calc)

    p = sub.add_parser("reduce", help="run one reduction instance")
    p.add_argument("name", help="catalog entry, e.g. nextcard_via_deccard")
    p.add_argument("--input", required=True,
                   help="ordinal, or a brace set literal for set-typed entries")
    p.add_argument("--structure", default=u.OMEGA_POWERS,
                   help="cardinal structure kind (default omega-powers)")
    p.add_argument("--bound", default=DEFAULT_BOUND,
                   help=f"structure window bound (default {DEFAULT_BOUND})")
    p.add_argument("--cardinals", action="append",
                   help="explicit-list cardinal (repeatable)")
    p.add_argument("--formula", help="separation filter formula")
    p.add_argument("--param", action="append", default=[],
                   help="separation side parameter set (repeatable)")
    p.add_argument("--count-only", action="store_true",
                   help="power cardinality without the relation search")
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--rank", type=int, default=3)
    p.add_argument("--budget", type=int, default=tam.DEFAULT_BUDGET)
    p.add_argument("--ledger", help="write the query ledger JSON here")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("run", help="verify a scenario batch")
    p.add_argument("scenario", help="scenario JSON path")
    p.add_argument("--output", help="write the report JSON here")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("selftest", help="run the invariant suites")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (OrdinalParseError, OrdinalDomainError, OracleTypeError,
            u.OutOfStructureError, u.NoSuchCardinalError,
            u.InvalidCodeError, u.PowersetCapError, RankError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
