"""Layer-boundary spans and counters for the traced benchmark pass.

ordq's modules bind each other's functions by name (``from .ordcalc import
add``) as well as through module attributes (``u.next_card_of``), so a
wrapper is installed in every ordq module namespace that binds a public
function, not only in the module that defines it.  Each wrapper counts the
call; it opens a span only when the call crosses into another group, i.e.
when the innermost open span belongs to a different layer.  Calls a layer
makes into itself (recursive ``compare``, ``decode_set`` calling
``validate_code``) are counted but open no span.  A few hot dunders
(``HFSet.__init__``, ``HFSet.__eq__``) are counted only.

The benchmark adds two kinds of span of its own: one root span per
instance ("bench.instance"), so that self times add up to the instance's
time, and one around each spec's reference ("reductions.reference"), which
verify calls from inside the reductions layer.

Spans are kept in memory as parallel lists (name, start, end, parent,
instance id) and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, List, Optional

perf = time.perf_counter

# Public functions and methods get a group; a call opens a span iff the
# innermost open span has another group.  Module functions default to their
# layer.  Methods are listed explicitly.
METHODS = (
    # (module, class, method, span name, group)
    ("oracles", "Effectivizer", "call", "oracles.pointwise", "oracles"),
    ("oracles", "ScriptedEffectivizer", "call", "oracles.pointwise", "oracles"),
    ("oracles", "QueryLedger", "append", "oracles.ledger.append", "oracles"),
    ("oracles", "QueryLedger", "to_json", "oracles.ledger.to_json", "oracles"),
    ("oracles", "QueryLedger", "total_order_type", "oracles.ledger.total", "oracles"),
    ("tam", "RunResult", "same_as", "tam.same_as", "tam"),
    ("reductions", "CompositeEffectivizer", "call", "reductions.composite.call",
     "reductions"),
    ("reductions", "Report", "to_json", "reductions.report.to_json",
     "reductions.report"),
    ("reductions", "Report", "render_table", "reductions.report.render_table",
     "reductions.report"),
) + tuple(
    ("oracles", cls, m, f"oracles.ranked.{m}", "oracles")
    for cls in ("CardinalClassSet", "FiniteOrdinalSet", "OmegaMultiplesSet")
    for m in ("contains", "least_above", "greatest_at_most", "next_limit_above",
              "sup_below", "scan_horizon")
) + tuple(
    ("reductions", "BoundForm", m, f"reductions.bound.{m}", "reductions.bound")
    for m in ("evaluate", "within", "product_note", "describe")
)

# Counted, never spanned: too hot for a span each.
COUNTED_ONLY = (
    ("universe", "HFSet", "__init__", "universe.hfset.new"),
    ("universe", "HFSet", "__eq__", "universe.hfset.eq"),
)

# Calls whose distinct arguments are recorded, for repeat ratios.
KEYED = {
    "universe.validate_code": lambda code: code,
    "logic.eval_formula": lambda f, env: (f, env),
}

LAYERS = ("ordcalc", "universe", "logic", "oracles", "tam", "reductions", "cli")


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.s_name: List[str] = []
        self.s_start: List[float] = []
        self.s_end: List[float] = []
        self.s_parent: List[int] = []
        self.s_inst: List[int] = []
        self.current = -1
        self.group: Optional[str] = None
        self.instance = -1
        self.counts: Dict[str, List[int]] = {}
        self.keys: Dict[str, set] = {}
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def _span(self, fn, name, group, args, kwargs):
        parent, outer = self.current, self.group
        idx = len(self.s_name)
        self.s_name.append(name)
        self.s_parent.append(parent)
        self.s_inst.append(self.instance)
        self.s_start.append(0.0)
        self.s_end.append(0.0)
        self.current, self.group = idx, group
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            self.s_end[idx] = perf()
            self.s_start[idx] = start
            self.current, self.group = parent, outer

    def wrap(self, fn: Callable, name: str, group: str) -> Callable:
        """A counting wrapper that spans calls crossing into `group`."""
        cell = self.counts.setdefault(name, [0])
        key = KEYED.get(name)
        seen = self.keys.setdefault(name, set()) if key else None
        span = self._span
        tracer = self

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if seen is not None:
                seen.add(key(*args, **kwargs))
            if tracer.group == group:
                return fn(*args, **kwargs)
            return span(fn, name, group, args, kwargs)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def counter(self, fn: Callable, name: str) -> Callable:
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    # -- installing ----------------------------------------------------------

    def _patch(self, target, attr: str, value):
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def install(self, package) -> None:
        """Wrap every public function of every layer module in every ordq
        namespace that binds it, plus the listed methods and dunders."""
        import importlib
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (name.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(obj, f"{layer}.{name}", layer))
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])
        for layer, cls_name, attr, name, group in METHODS:
            cls = getattr(modules[layer], cls_name)
            if attr in cls.__dict__:        # inherited methods are wrapped once, in the base
                self._patch(cls, attr, self.wrap(cls.__dict__[attr], name, group))
        for layer, cls_name, attr, name in COUNTED_ONLY:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, attr, self.counter(cls.__dict__[attr], name))

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- reading -------------------------------------------------------------

    def self_times(self) -> List[float]:
        dur = [e - s for s, e in zip(self.s_start, self.s_end)]
        own = list(dur)
        for i, p in enumerate(self.s_parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent, instance."""
        t0 = self.s_start[0] if self.s_start else 0.0
        with open(path, "w") as out:
            for i, name in enumerate(self.s_name):
                out.write(json.dumps([i, name, round(self.s_start[i] - t0, 9),
                                      round(self.s_end[i] - t0, 9),
                                      self.s_parent[i], self.s_inst[i]]) + "\n")


def wrap_plain(tracer: Tracer, fn: Callable, name: str, group: str) -> Callable:
    """A span wrapper for a callable the benchmark holds (such as a spec's
    reference); it records only while its tracer is installed."""
    traced = tracer.wrap(fn, name, group)

    def wrapper(*args, **kwargs):
        if tracer.installed:
            return traced(*args, **kwargs)
        return fn(*args, **kwargs)

    return wrapper


# -- per-layer metrics ------------------------------------------------------------

CARDQ = ("is_cardinal", "card_of", "next_card_of", "next_limit_of_cardinals_above",
         "sup_of_cardinals_below")
SETCODE = ("encode_hf", "decode_set", "decode_element", "code_elements",
           "validate_code")


def layer_metrics(tracer: Tracer, rows: int) -> Dict[str, tuple]:
    """Per-layer numbers from one traced pass: {name: (value, unit)}.  The
    benchmark adds the few that do not come from spans and counters."""
    own = tracer.self_times()
    spans: Dict[str, List[float]] = {}      # name -> [spans, self, inclusive]
    under_verify: Dict[str, float] = {}     # name -> inclusive, parent verify
    for i, name in enumerate(tracer.s_name):
        agg = spans.setdefault(name, [0, 0.0, 0.0])
        dur = tracer.s_end[i] - tracer.s_start[i]
        agg[0] += 1
        agg[1] += own[i]
        agg[2] += dur
        p = tracer.s_parent[i]
        if p >= 0 and tracer.s_name[p] == "reductions.verify":
            under_verify[name] = under_verify.get(name, 0.0) + dur

    def total(pred, field):
        return sum(a[field] for n, a in spans.items() if pred(n))

    def self_of(pred):
        return total(pred, 1)

    def incl_of(pred):
        return total(pred, 2)

    def named(*full):
        return lambda n: n in full

    def calls(*full):
        return sum(tracer.count(n) for n in full)

    def per_row(x):
        return x / rows if rows else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    cardq = tuple(f"universe.{n}" for n in CARDQ)
    setcode = tuple(f"universe.{n}" for n in SETCODE)

    def ranked(n):
        return n.startswith("oracles.ranked.") or n == "oracles.flag_value_after"

    def prefix(p):
        return lambda n: n.startswith(p)

    return {
        "ordcalc.calls": (total(prefix("ordcalc."), 0), "count"),
        "ordcalc.self_s": (self_of(prefix("ordcalc.")), "s"),
        "ordcalc.compare.calls": (calls("ordcalc.compare"), "count"),
        "ordcalc.add.calls": (calls("ordcalc.add"), "count"),
        "ordcalc.left_sub.calls": (calls("ordcalc.left_sub"), "count"),
        "ordcalc.mul.calls": (calls("ordcalc.mul"), "count"),
        "ordcalc.successor.calls": (calls("ordcalc.successor"), "count"),
        "ordcalc.parse.s": (incl_of(named("ordcalc.parse_ordinal")), "s"),
        "ordcalc.render.s": (incl_of(named("ordcalc.render")), "s"),
        "universe.cardq.calls": (calls(*cardq), "count"),
        "universe.cardq.self_s": (self_of(named(*cardq)), "s"),
        "universe.cardq.per_row": (per_row(calls(*cardq)), "calls/row"),
        "universe.setcode.self_s": (self_of(named(*setcode)), "s"),
        "universe.encode_hf.s": (incl_of(named("universe.encode_hf")), "s"),
        "universe.decode_set.calls": (calls("universe.decode_set"), "count"),
        "universe.decode_element.calls": (calls("universe.decode_element"), "count"),
        "universe.validate_code.calls": (calls("universe.validate_code"), "count"),
        "universe.validate_code.repeat_ratio": (
            ratio(calls("universe.validate_code"),
                  len(tracer.keys.get("universe.validate_code", ()))), "ratio"),
        "universe.hf_powerset.s": (incl_of(named("universe.hf_powerset")), "s"),
        "universe.hfset.new": (calls("universe.hfset.new"), "count"),
        "universe.hfset.eq_calls": (calls("universe.hfset.eq"), "count"),
        "logic.eval_formula.calls": (calls("logic.eval_formula"), "count"),
        "logic.eval_formula.self_s": (self_of(named("logic.eval_formula")), "s"),
        "logic.eval_formula.repeat_ratio": (
            ratio(calls("logic.eval_formula"),
                  len(tracer.keys.get("logic.eval_formula", ()))), "ratio"),
        "logic.formula_from_index.calls": (calls("logic.formula_from_index"), "count"),
        "logic.universe_of.s": (incl_of(named("logic.universe_of")), "s"),
        "oracles.pointwise.calls": (calls("oracles.pointwise"), "count"),
        "oracles.pointwise.self_s": (self_of(named("oracles.pointwise")), "s"),
        "oracles.ranked.calls": (sum(c[0] for n, c in tracer.counts.items()
                                     if ranked(n)), "count"),
        "oracles.ranked.self_s": (self_of(ranked), "s"),
        "oracles.ledger.append.calls": (calls("oracles.ledger.append"), "count"),
        "oracles.ledger.to_json.s": (incl_of(named("oracles.ledger.to_json")), "s"),
        "oracles.extract_script.s": (incl_of(named("oracles.extract_script")), "s"),
        "tam.run.calls": (calls("tam.run"), "count"),
        "tam.run.self_s": (self_of(named("tam.run")), "s"),
        "tam.replay.self_s": (self_of(named("tam.replay")), "s"),
        "tam.replay_share": (ratio(incl_of(named("tam.replay")),
                                   incl_of(named("reductions.verify"))), "ratio"),
        "reductions.run_s": (under_verify.get("tam.run", 0.0), "s"),
        "reductions.reference_s": (incl_of(named("reductions.reference")), "s"),
        "reductions.bound_s": (incl_of(prefix("reductions.bound.")), "s"),
        "reductions.replay_s": (under_verify.get("tam.replay", 0.0), "s"),
        "reductions.verify.self_s": (self_of(named("reductions.verify")), "s"),
        "reductions.bound.evals_per_row": (per_row(calls("reductions.bound.evaluate")),
                                           "calls/row"),
        "reductions.report.render_s": (incl_of(prefix("reductions.report.")), "s"),
        "cli.main.self_s": (self_of(named("cli.main")), "s"),
    }
