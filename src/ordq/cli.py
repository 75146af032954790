"""Command line front end.

Four subcommands:

  calc EXPR        evaluate an ordinal arithmetic expression
  reduce NAME ...  run one catalog reduction instance, optionally
                   writing the query ledger as JSON
  run SCENARIO     verify a JSON batch and print/write the report
  selftest         exercise the invariant suites and exit 0 on success

Exit codes: 0 success, 1 failed checks, an unexpected error or a closed
stdout pipe, 2 usage or validation problems, 3 the run diverged, 4 the run
exceeded its budget.
All file output is written atomically and is byte-stable for a given input.

Each subcommand imports what it needs when it runs: calc loads only
ordcalc, and a run or reduce loads logic only for separation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import List, Optional

from .ordcalc import (
    OMEGA,
    InputError,
    _echo,
    add,
    evaluate,
    left_sub,
    opow,
    parse_ordinal,
    render,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_BUDGET = 4

DEFAULT_BOUND = "w^(w*2)"
DEFAULT_STRUCTURE = "omega-powers"


class CliError(Exception):
    """Validation problem that should surface as exit code 2."""


# -- calc --------------------------------------------------------------------


def _cmd_calc(args) -> int:
    print(render(evaluate(" ".join(args.expression))))
    return EXIT_OK


# -- shared builders ---------------------------------------------------------


def _build_structure(kind: str, bound_text: str, cardinal_texts: Optional[List[str]]):
    from . import universe as u
    bound = _parse_arg(parse_ordinal, bound_text, "bound")
    if kind == u.OMEGA_POWERS:
        return u.omega_powers(bound)
    if kind == u.MULTIPLES_OF_OMEGA:
        return u.multiples_of_omega(bound)
    if kind == u.EXPLICIT_LIST:
        if not cardinal_texts:
            raise CliError("an explicit-list structure needs --cardinals")
        cards = [_parse_arg(parse_ordinal, c, "cardinal") for c in cardinal_texts]
        return u.explicit_list(cards, bound)
    raise CliError(f"unknown structure kind {_echo(kind)}; pick one of {', '.join(u.KINDS)}")


def _parse_arg(parse, text: str, what: str):
    """parse(text), for an ordinal, set or formula parser; its ValueError
    becomes a usage error that names what and quotes text."""
    try:
        return parse(text)
    except ValueError as e:
        raise CliError(f"bad {what} {_echo(text)}: {e}")


def _parse_instance(spec, raw, where: str, structure):
    """One instance of spec, named `where` in errors: an ordinal, which must
    lie below the bound of `structure`, a set literal, or an object with
    set/formula/params for a separation."""
    if spec.shape == "ordinal":
        if not isinstance(raw, str):
            raise CliError(f"{where} should be an ordinal string")
        a = _parse_arg(parse_ordinal, raw, where)
        if a >= structure.bound:
            raise CliError(f"{where} {_echo(render(a))} is not below the "
                           f"structure bound {render(structure.bound)}")
        return a
    from . import universe as u
    if spec.shape == "set":
        if not isinstance(raw, str):
            raise CliError(f"{where} should be a set literal string")
        return u.encode_hf(_parse_arg(u.parse_hf, raw, where))
    from .logic import formula_index, free_variables, parse_formula
    if not isinstance(raw, dict):
        raise CliError(f"{where} should be an object with set/formula/params")
    text = _scenario_field(raw, "set", str, required=True)
    code = u.encode_hf(_parse_arg(u.parse_hf, text, f"{where} set"))
    text = _scenario_field(raw, "formula", str, required=True)
    f = _parse_arg(parse_formula, text, "formula")
    free = free_variables(f)
    if free:
        raise CliError(f"bad formula {_echo(text)}: free variable "
                       f"{', '.join(f'v{i}' for i in free)}")
    k = formula_index(f)
    params = tuple(u.encode_hf(_parse_arg(u.parse_hf, p, f"{where} parameter"))
                   for p in _scenario_field(raw, "params", list, default=[], items=str))
    return (code, k, params)


def _check_budget(budget: int):
    if budget <= 0:
        raise CliError(f"the budget must be positive, got {budget}")


def _status_exit(status: str) -> int:
    from . import tam
    return {tam.HALTED: EXIT_OK, tam.DIVERGED: EXIT_DIVERGED,
            tam.BUDGET_EXCEEDED: EXIT_BUDGET}.get(status, EXIT_FAIL)


def _atomic_write(path: str, text: str):
    """Write a fresh file beside path, then rename it over path."""
    stem = os.path.join(os.path.dirname(os.path.abspath(path)), f".ordq-{os.getpid()}-")
    for n in itertools.count():
        tmp = f"{stem}{n}"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            break
        except FileExistsError:
            pass
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _ledger_json(program_name: str, instance, result) -> dict:
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
    from . import tam
    from .oracles import summarize_query
    from .reductions import CATALOG_NAMES, catalog
    if args.name not in CATALOG_NAMES:
        raise CliError(f"unknown reduction {_echo(args.name)}; pick one of "
                       f"{', '.join(CATALOG_NAMES)}")
    spec = catalog(args.name, count_only=args.count_only,
                   level=args.level, rank=args.rank)
    structure = None
    if spec.shape == "ordinal":
        structure = _build_structure(args.structure, args.bound, args.cardinals)
    raw = args.input
    if spec.shape == "separation":
        if not args.formula:
            raise CliError(f"{args.name} needs --formula")
        raw = {"set": args.input, "formula": args.formula, "params": args.param}
    instance = _parse_instance(spec, raw, "input", structure)
    budget = tam.DEFAULT_BUDGET if args.budget is None else args.budget
    _check_budget(budget)

    program = spec.make_program()
    result = tam.run(program, instance, spec.make_bindings(structure), budget)
    print(f"status: {result.status}")
    if result.output is not None:
        print(f"output: {summarize_query(result.output)}")
    print(f"total order type: {render(result.ledger.total_order_type())}")
    if args.ledger:
        blob = _ledger_json(program.name, instance, result)
        _atomic_write(args.ledger, json.dumps(blob, indent=1) + "\n")
    return _status_exit(result.status)


# -- run ---------------------------------------------------------------------


def _scenario_field(blob: dict, key: str, kind, required=False, default=None,
                    items=None):
    """blob[key], which must be a kind (a list of items, if items is given)."""
    if key not in blob:
        if required:
            raise CliError(f"scenario is missing the {key!r} field")
        return default
    value = blob[key]
    if not isinstance(value, kind) or kind is int and isinstance(value, bool):
        raise CliError(f"scenario field {key!r} should be "
                       f"{getattr(kind, '__name__', kind)}, got {type(value).__name__}")
    if items and not all(isinstance(v, items) for v in value):
        raise CliError(f"scenario field {key!r} should be a list of {items.__name__}")
    return value


def _load_scenario(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            blob = json.load(handle)
    except (OSError, UnicodeDecodeError) as e:
        raise CliError(f"cannot read scenario {path!r}: {e}")
    except json.JSONDecodeError as e:
        raise CliError(f"scenario {path!r} line {e.lineno}: {e.msg}")
    if not isinstance(blob, dict):
        raise CliError(f"scenario {path!r} should hold a JSON object, "
                       f"got {type(blob).__name__}")
    return blob


def _cmd_run(args) -> int:
    from . import tam
    from .reductions import BOUND_KINDS, CATALOG_NAMES, BoundForm, catalog, verify
    blob = _load_scenario(args.scenario)
    name = _scenario_field(blob, "reduction", str, required=True)
    if name not in CATALOG_NAMES:
        raise CliError(f"scenario names unknown reduction {_echo(name)}")
    level = _scenario_field(blob, "level", int, default=2)
    rank = _scenario_field(blob, "rank", int, default=3)
    count_only = _scenario_field(blob, "count_only", bool, default=False)
    spec = catalog(name, count_only=count_only, level=level, rank=rank)

    structure = None
    if spec.shape == "ordinal":
        desc = _scenario_field(blob, "structure", dict, required=True)
        structure = _build_structure(
            _scenario_field(desc, "kind", str, required=True),
            _scenario_field(desc, "bound", str, default=DEFAULT_BOUND),
            _scenario_field(desc, "cardinals", list, items=str))

    raw_instances = _scenario_field(blob, "instances", list, required=True)
    if not raw_instances:
        raise CliError("scenario has no instances")
    instances = [_parse_instance(spec, raw, f"instance #{i}", structure)
                 for i, raw in enumerate(raw_instances)]
    budget = _scenario_field(blob, "budget", int, default=tam.DEFAULT_BUDGET)
    _check_budget(budget)

    override = None
    if "bound_override" in blob:
        desc = _scenario_field(blob, "bound_override", dict)
        kind = _scenario_field(desc, "kind", str, required=True)
        # a product's operands cannot be written in a scenario
        kinds = [k for k in BOUND_KINDS if k != "product"]
        if kind not in kinds:
            raise CliError(f"bad bound_override kind {_echo(kind)}; "
                           f"pick one of {', '.join(kinds)}")
        reads = BOUND_KINDS[kind][1]
        if reads not in (None, spec.shape):
            raise CliError(f"bound_override.kind {kind!r} reads {reads} instances, "
                           f"but {name} takes {spec.shape} instances")
        value = _scenario_field(desc, "value", str, default="0")
        override = BoundForm(kind, value=_parse_arg(parse_ordinal, value, "bound_override value")
                             if kind == "const" else None)

    report = verify(spec, structure, instances, budget,
                    bound_override=override)
    print(report.render_table())
    out_path = args.output or _scenario_field(blob, "output", str)
    if out_path:
        _atomic_write(out_path, json.dumps(report.to_json(), indent=1) + "\n")
    return EXIT_OK if report.passed else EXIT_FAIL


# -- selftest ----------------------------------------------------------------


class SelftestFailure(Exception):
    """A selftest check that did not hold."""


def _check(ok: bool, what: str):
    # an explicit check, so that python -O cannot strip it as it does assert
    if not ok:
        raise SelftestFailure(what)


def _suite_arithmetic():
    samples = [parse_ordinal(s) for s in
               ("0", "1", "5", "w", "w+3", "w*2", "w*2+1", "w^2", "w^2+w",
                "w^3+w^2*2+4", "w^(w)")]
    for a in samples:
        for b in samples:
            s = add(a, b)
            _check(s >= b, "addition dropped below its right operand")
            _check(left_sub(a, s) == left_sub(a, s), "left subtraction is not deterministic")
            _check(add(a, left_sub(a, s)) == s, "left subtraction round trip")
            _check(render(parse_ordinal(render(s))) == render(s), "render/parse round trip")
    _check(render(add(1, OMEGA)) == "w", "1 + w is not w")
    _check(render(opow(OMEGA, OMEGA)) == "w^(w)", "w^w renders wrongly")


def _suite_oracles():
    from .oracles import OmegaMultiplesSet
    hits = OmegaMultiplesSet()
    _check(hits.least_above(parse_ordinal("w*3+5")) == parse_ordinal("w*4"), "least_above")
    _check(hits.greatest_at_most(parse_ordinal("w*3+5")) == parse_ordinal("w*3"),
           "greatest_at_most")
    _check(hits.next_limit_above(parse_ordinal("5")) == parse_ordinal("w^2"),
           "next_limit_above")


def _suite_ledger():
    from .oracles import QueryLedger, ScriptedEffectivizer, SingleEntry
    ledger = QueryLedger()
    ledger.append(SingleEntry("X", 0, 1))
    _check(render(ledger.total_order_type()) == "1", "total order type of one entry")
    _check(ScriptedEffectivizer(ledger).call(0) == 1,
           "a replayed entry's answer")


def _suite_reductions():
    from . import universe as u
    from .reductions import catalog, verify
    cs = u.omega_powers(parse_ordinal("w^3"))
    report = verify(catalog("nextcard_via_deccard"), cs,
                    [parse_ordinal(s) for s in ("5", "w", "w*2+1")])
    _check(report.passed, "next-cardinal reduction failed")
    report = verify(catalog("flagtrick"), u.multiples_of_omega(parse_ordinal("w^3")),
                    [parse_ordinal(s) for s in ("3", "w", "w+5")])
    _check(report.passed, "flag toggling reduction failed")
    code = u.encode_hf(u.hf(u.EMPTY_SET))
    report = verify(catalog("powercard_via_pot"), None, [code])
    _check(report.passed, "power cardinality reduction failed")
    # count-only: the second Pot answer stays pending, numbered by nothing
    code = u.encode_hf(u.hf(u.EMPTY_SET, u.hf(u.EMPTY_SET)))
    report = verify(catalog("powercard_via_pot", count_only=True), None, [code])
    _check(report.passed and report.rows[0].output_text == "4",
           "count-only power cardinality reduction failed")


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
        except SelftestFailure as e:
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
    p.add_argument("--structure", default=DEFAULT_STRUCTURE,
                   help=f"cardinal structure kind (default {DEFAULT_STRUCTURE})")
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
    p.add_argument("--budget", type=int)
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
        code = args.fn(args)
        sys.stdout.flush()      # a reader that has gone shows here, not at exit
        return code
    except (CliError, InputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # stdout's reader closed the pipe; point stdout at devnull so that
        # the interpreter's flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
