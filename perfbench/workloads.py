"""The four workloads: set-up, one verdict, and the checks on it.

In-process workloads (scan-mix, powercard, separation) hand ordq one
instance per ``verify(spec, structure, [instance])`` call.  cli-run starts
one ``ordq`` process per instance.  Every generated instance is a valid
input to a correct reduction, so the known answer is always "pass"; a
verdict that is not "pass" is a failure, counted by cause.

Inputs that reproduce ordq's documented defects are kept out of the timed
streams and verdicted apart (``Workload.defects``): there a failure with
the documented cause is counted as the defect showing, and a failure with
any other cause fails the run.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import os
from typing import Any, Callable, Dict, Iterator, List, Optional

import gen

# Cause strings of failures that reproduce documented defects.
KNOWN_DEFECTS = {
    "separation": ("verdict:wrong-output", "sep_via_truth false FAIL for a "
                   "formula above the oracle's level"),
    "scan-mix": ("raise:RuntimeError", "composed spec whose inner run "
                 "diverges over an explicit-list structure raises out of verify"),
}


@dataclasses.dataclass
class Case:
    item: dict
    spec: Any
    structure: Any
    instance: Any


@dataclasses.dataclass
class Workload:
    name: str
    why: str
    stream: Callable[[int], Iterator[dict]]
    prefix: int          # instances whose outputs are digested and traced
    ledger_prefix: int = 0  # of those, instances whose ledgers are digested
    in_process: bool = True
    fixed: bool = False  # a run is exactly the prefix, whatever --seconds says
    context: Callable[[int], dict] = lambda seed: {}
    setup: Optional[Callable] = None
    parse: Optional[Callable] = None
    is_known: Callable[[dict, str], bool] = lambda item, cause: False
    defects: Optional[Callable[[int, int], List[dict]]] = None  # (seed, count)


# -- scan-mix ---------------------------------------------------------------------


def _scan_context(seed: int) -> dict:
    return {"structures": gen.scan_structures()}


def _scan_setup(ordq, context: dict) -> dict:
    from ordq.oracles import DEC_CARD, NEXT_CARD, make_effectivizer
    structures = []
    for d in context["structures"]:
        bound = ordq.parse_ordinal(d["bound"])
        if d["kind"] == "omega-powers":
            structures.append(ordq.omega_powers(bound))
        elif d["kind"] == "multiples-of-omega":
            structures.append(ordq.multiples_of_omega(bound))
        else:
            structures.append(ordq.explicit_list(
                [ordq.parse_ordinal(c) for c in d["cardinals"]], bound))

    def deccard(cs):
        return make_effectivizer(DEC_CARD, structure=cs)

    specs = {name: ordq.catalog(name) for name in gen.SCAN_REDUCTIONS}
    outer = ordq.delegate_spec(
        NEXT_CARD, NEXT_CARD, lambda cs: make_effectivizer(NEXT_CARD, structure=cs),
        lambda cs, a: ordq.next_card_of(cs, a))
    specs["nextcard-over-deccard-scan"] = ordq.compose(
        outer, ordq.catalog("nextcard_via_deccard"))
    probe = ordq.delegate_spec("Probe", DEC_CARD, deccard,
                               lambda cs, a: ordq.is_cardinal(cs, a), calls=3)
    inner = ordq.delegate_spec(DEC_CARD, DEC_CARD, deccard,
                               lambda cs, a: ordq.is_cardinal(cs, a), calls=2)
    specs["probe3-over-deccard2"] = ordq.compose(probe, inner)
    return {"structures": structures, "specs": specs}


def _scan_parse(ordq, ctx: dict, item: dict) -> Case:
    return Case(item, ctx["specs"][item["reduction"]],
                ctx["structures"][item["structure"]],
                ordq.parse_ordinal(item["input"]))


def _scan_known(item: dict, cause: str) -> bool:
    return (cause == KNOWN_DEFECTS["scan-mix"][0]
            and item["reduction"] == "nextcard-over-deccard-scan"
            and item["structure"] % len(gen.STRUCTURE_KINDS) == 2)


# -- powercard --------------------------------------------------------------------


def _powercard_setup(ordq, context: dict) -> dict:
    return {"full": ordq.catalog("powercard_via_pot"),
            "count": ordq.catalog("powercard_via_pot", count_only=True)}


def _powercard_parse(ordq, ctx: dict, item: dict) -> Case:
    return Case(item, ctx[item["mode"]], None,
                ordq.encode_hf(ordq.parse_hf(item["set"])))


# -- separation -------------------------------------------------------------------


def _separation_setup(ordq, context: dict) -> dict:
    for rank in gen.SEP_RANKS:
        ordq.universe_of(rank)
    return {rank: ordq.catalog("sep_via_truth", level=gen.SEP_LEVEL, rank=rank)
            for rank in gen.SEP_RANKS}


def _separation_parse(ordq, ctx: dict, item: dict) -> Case:
    code = ordq.encode_hf(ordq.parse_hf(item["set"]))
    k = ordq.formula_index(ordq.parse_formula(item["formula"]))
    params = tuple(ordq.encode_hf(ordq.parse_hf(p)) for p in item["params"])
    return Case(item, ctx[item["rank"]], None, (code, k, params))


def _separation_known(item: dict, cause: str) -> bool:
    return item["above_level"] and cause == KNOWN_DEFECTS["separation"][0]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "scan-mix",
        "the five DecCard scans and two compositions over all three structure "
        "kinds: ordinal arithmetic, cardinal queries, ranked oracles, scan "
        "dispatch, replay and bounds do the work; no set or formula code runs",
        gen.scan_stream, prefix=2000, ledger_prefix=200,
        context=_scan_context, setup=_scan_setup, parse=_scan_parse,
        is_known=_scan_known, defects=gen.scan_defects),
    Workload(
        "powercard",
        "powercard_via_pot on seeded sets: HFSet, SetCode encode/decode/validate "
        "and host subroutines re-run by replay dominate; ordinals idle",
        gen.powercard_stream, prefix=3002, ledger_prefix=40, fixed=True,
        setup=_powercard_setup, parse=_powercard_parse),
    Workload(
        "separation",
        "sep_via_truth at ranks 3 and 4 over every 1-3 quantifier prefix within "
        "the oracle's level: formula evaluation and pointwise oracle calls "
        "dominate; codes recur",
        gen.separation_stream, prefix=270, ledger_prefix=54,
        setup=_separation_setup, parse=_separation_parse,
        is_known=_separation_known, defects=gen.separation_defects),
    Workload(
        "cli-run",
        "one ordq process per instance (run, reduce --ledger, calc): "
        "interpreter start, import and the cli layer dominate",
        gen.cli_stream, prefix=50, in_process=False),
)}


# -- verdicts ---------------------------------------------------------------------


def row_cause(report) -> Optional[str]:
    """None for a single passing row, else what went wrong."""
    rows = report.rows
    if len(rows) != 1:
        return "verdict:row-count"
    row = rows[0]
    if row.ok:
        return None
    reasons = []
    if not row.correct:
        reasons.append("wrong-output")
    if not row.within:
        reasons.append("bound")
    if row.replay_ok is False:
        reasons.append("replay")
    return "verdict:" + "+".join(reasons)


def ledger_text(ordq, case: Case):
    """(ledger JSON text, entry count) of one live run of the instance."""
    from ordq.oracles import summarize_query
    spec = case.spec
    try:
        res = ordq.tam.run(spec.make_program(), case.instance,
                           spec.make_bindings(case.structure))
    except Exception as e:  # a raising instance is part of the record
        return f"raise {type(e).__name__}: {e}\n", 0
    blob = {"status": res.status,
            "output": None if res.output is None else summarize_query(res.output),
            "entries": res.ledger.to_json(),
            "total_order_type": ordq.render(res.ledger.total_order_type())}
    return json.dumps(blob, indent=1) + "\n", len(res.ledger)


# -- cli-run ----------------------------------------------------------------------


def cli_argv(item: dict, work: str) -> List[str]:
    return [a.replace("{work}", work) for a in item["argv"]]


def write_cli_inputs(item: dict, work: str) -> None:
    if "scenario" in item:
        path = cli_argv(item, work)[1]
        with open(path, "w") as out:
            json.dump(item["scenario"], out)


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return None


def cli_check(item: dict, work: str, code: int, stdout: str):
    """(cause or None, bytes the invocation produced) for one CLI call."""
    argv = cli_argv(item, work)
    kind = item["kind"]
    written = ""
    if kind in ("shipped", "scenario", "reduce"):
        written = _read(argv[-1]) or ""
    produced = stdout + written
    if code != 0:
        return f"exit:{code}", produced
    if kind in ("shipped", "scenario"):
        lines = stdout.rstrip("\n").split("\n")
        try:
            report = json.loads(written)
        except ValueError:
            return "output:report-json", produced
        if (not lines[-1].endswith(": all checks passed") or not report.get("passed")
                or len(report.get("instances", ())) != item["instances"]):
            return "output:report", produced
        return None, produced
    if kind == "reduce":
        expected = (f"status: halted\noutput: {item['output']}\n"
                    f"total order type: {item['total']}\n")
        try:
            ledger = json.loads(written)
        except ValueError:
            return "output:ledger-json", produced
        if stdout != expected:
            return "output:reduce", produced
        if (ledger.get("program") != item["name"] or ledger.get("input") != item["input"]
                or ledger.get("output") != item["output"]
                or ledger.get("total_order_type") != item["total"]
                or ledger.get("halt_time") != item["total"]):
            return "output:ledger", produced
        return None, produced
    if stdout != item["output"] + "\n":
        return "output:calc", produced
    return None, produced


def cli_ledger_entries(item: dict, work: str) -> Optional[int]:
    if item["kind"] != "reduce":
        return None
    text = _read(cli_argv(item, work)[-1])
    return len(json.loads(text)["entries"]) if text else None


def remove_outputs(item: dict, work: str) -> None:
    argv = cli_argv(item, work)
    paths = [argv[-1]] if item["kind"] != "calc" else []
    if "scenario" in item:
        paths.append(argv[1])
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


# -- input properties -------------------------------------------------------------


def _share_repeated(values: List) -> float:
    return 1 - len(set(values)) / len(values) if values else 0.0


def _histogram(values: List) -> Dict[str, int]:
    return dict(sorted(collections.Counter(map(str, values)).items()))


def input_properties(name: str, items: List[dict]) -> dict:
    """Properties of the digested prefix that caching claims can cite."""
    if name == "scan-mix":
        return {"repeated_ordinals": _share_repeated([i["input"] for i in items]),
                "cnf_terms": _histogram([i["terms"] for i in items]),
                "cnf_nesting": _histogram([i["depth"] for i in items]),
                "composed_share": sum(i["kind"] == "composed" for i in items) / len(items)}
    if name == "powercard":
        return {"repeated_set_codes": _share_repeated([(i["mode"], i["set"]) for i in items]),
                "set_sizes": _histogram([f"{i['mode']}-{i['size']}" for i in items])}
    if name == "separation":
        pairs = [(i["rank"], i["formula"], tuple(i["params"])) for i in items]
        return {"repeated_set_codes": _share_repeated([i["set"] for i in items]),
                "repeated_formula_params": _share_repeated(pairs),
                "above_level_share": sum(i["above_level"] for i in items) / len(items),
                "ranks": _histogram([i["rank"] for i in items])}
    generated = [json.dumps(i.get("scenario") or i["argv"][1:4], sort_keys=True)
                 for i in items if i["kind"] != "shipped"]
    return {"kinds": _histogram([i["kind"] for i in items]),
            "repeated_generated_inputs": _share_repeated(generated)}
