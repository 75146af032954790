"""Catalog of oracle reductions with declared query-count bounds.

The catalog is one table keyed by entry name.  Each row names what the
entry computes (source), what it calls (oracle), a symbolic bound on the
ledger's total order type as a function of the input, the shape of its
instances, its program, and an independent reference for the expected
output.  verify() runs a batch of instances and reports, per instance:
correctness against the reference, the charged order type, the evaluated
bound, and whether replaying the run's ledger reproduces the run (composed
rows and error rows are not replayed).

compose() chains two entries when the outer's oracle is the inner's source:
every pointwise call the outer program makes is expanded into a full run of
the inner program, and only the inner's own oracle traffic is ledgered.
Scan statements need a ranked oracle and therefore cannot drive a composed
slot; the machine rejects that at run time.  The composed bound is the
ordinal product of the two bounds, checked in both operand orders since
ordinal multiplication does not commute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from ._record import Record, _set, same_class_eq
from .ordcalc import (
    OMEGA,
    ZERO,
    InputError,
    Ordinal,
    _coerce,
    _coerce_opt,
    left_sub,
    mul,
    render,
    successor,
)
from . import universe as u
from .universe import CardinalStructure
from .oracles import (
    DEC_CARD,
    POT,
    TRUTH,
    Effectivizer,
    NotRankedError,
    _module,
    make_effectivizer,
    summarize_query,
)
from . import tam
from .tam import (
    GuessCheckLoop,
    Halt,
    IfFinite,
    INPUT,
    OracleCall,
    Program,
    ScanFirstHit,
    ScanFlagToggleUntil,
    ScanLastHitAtMost,
    SeparationScan,
    ComputableSubroutine,
    reg,
)


class ReductionTypeError(TypeError):
    """Composition attempted between entries whose types do not chain."""


# -- symbolic bounds ---------------------------------------------------------


@same_class_eq
class BoundForm(NamedTuple):
    """Symbolic per-input bound on the ledger's total order type."""

    kind: str
    value: Optional[Ordinal] = None
    left: Optional["BoundForm"] = None
    right: Optional["BoundForm"] = None

    @staticmethod
    def const(c) -> "BoundForm":
        return BoundForm("const", value=_coerce(c))

    @staticmethod
    def product(left: "BoundForm", right: "BoundForm") -> "BoundForm":
        return BoundForm("product", left=left, right=right)

    def evaluate(self, structure: Optional[CardinalStructure],
                 input_value) -> Optional[Ordinal]:
        """The bound's value at this input; None when the form is the bare
        finiteness promise or the input leaves the structure."""
        entry = BOUND_KINDS.get(self.kind)
        if entry is None:
            raise ValueError(f"unknown bound form {self.kind!r}")
        return entry[2](self, structure, input_value)

    def check(self, total: Ordinal, structure, input_value) -> "BoundCheck":
        """Evaluate the bound (a product form's two operands) once and judge
        the total against it.  A finite form holds for any finite total; a
        product holds in either operand order, and with an operand that has
        no value (an "unbounded factor") it holds for any finite total."""
        if self.kind != "product":
            value = self.evaluate(structure, input_value)
            if self.kind == "finite":
                return BoundCheck(value, total < OMEGA, "")
            return BoundCheck(value, value is not None and total <= value, "")
        l = self.left.evaluate(structure, input_value)
        r = self.right.evaluate(structure, input_value)
        if l is None or r is None:
            return BoundCheck(None, total < OMEGA, "unbounded factor")
        fg = mul(l, r)
        holds = [order for order, prod in (("f*g", fg), ("g*f", mul(r, l)))
                 if total <= prod]
        return BoundCheck(fg, bool(holds), "+".join(holds) or "neither")

    def describe(self) -> str:
        if self.kind == "product":
            return f"({self.left.describe()})*({self.right.describe()})"
        return BOUND_KINDS[self.kind][0] or render(self.value)


def _next_card_succ(form, cs, a) -> Optional[Ordinal]:
    card = u.next_card_of(cs, a)
    return None if card is None else successor(card)


def _next_limit_interval(form, cs, a) -> Optional[Ordinal]:
    lam = u.next_limit_of_cardinals_above(cs, a)
    return None if lam is None else left_sub(a, lam)


# bound kind -> (text, the instance shape it reads or None, value rule).  A
# rule takes the form, the structure and the input, and answers None where
# the bound has no value.  A const form's text is its value, and a product's
# joins its operands' texts; a product's value is the f*g its check works
# out, whatever the total.
BOUND_KINDS = {
    "const": (None, None, lambda form, cs, a: form.value),
    "input": ("a", "ordinal", lambda form, cs, a: _coerce(a)),
    "succ-of-input": ("a+1", "ordinal", lambda form, cs, a: successor(a)),
    "next-card-succ": ("nextcard(a)+1", "ordinal", _next_card_succ),
    "finite": ("finite", None, lambda form, cs, a: None),
    "set-size": ("|S|", "separation",
                 lambda form, cs, a: Ordinal.from_int(
                     len(_module("hfsets").code_elements(a[0])))),
    "next-limit-interval": ("leftsub(a, next limit of cardinals)", "ordinal",
                            _next_limit_interval),
    "product": (None, None, lambda form, cs, a: form.check(ZERO, cs, a).value),
}


class BoundCheck(NamedTuple):
    """One row's bound: its value (None when it has none), whether the total
    is within it, and for product forms which operand order bounds it."""

    value: Optional[Ordinal]
    within: bool
    product_note: str


# -- approximators -----------------------------------------------------------


@same_class_eq
class Approximator(NamedTuple):
    """Pull-based guess source.  The distinct values it emits must strictly
    decrease, and any emitted cardinal must be the input's cardinality.  Its
    chain depends on the input alone, not on the oracle the machine hands
    it."""

    name: str
    chain_for: Callable[[Ordinal], Sequence[Ordinal]]

    def __call__(self, input_value, oracle):
        return iter(self.chain_for(input_value))


def direct_descent(structure: CardinalStructure) -> Approximator:
    """Two-step default: the input itself, then its cardinality.  An input
    that is no ordinal is guessed as it is, for the machine to refuse."""

    def chain(a):
        b = _coerce_opt(a)
        if b is None:
            return (a,)
        c = u.card_of(structure, b)
        return (b,) if c == b else (b, c)

    return Approximator("direct-descent", chain)


def _bound_descent(a, oracle):
    """ordcard_guesscheck's default guess source: direct descent over the
    structure of the DecCard oracle bound to its slot (a composed oracle
    keeps the hit set of the one it stands in for, and a replay hands the
    source the live run's oracle when it is given the run's bindings)."""
    if oracle.hit_set is None:
        raise tam.ProgramError("direct descent reads the structure of a ranked oracle")
    return direct_descent(oracle.hit_set.structure)(a, oracle)


# -- catalog entries ---------------------------------------------------------


@dataclass(frozen=True)
class ReductionSpec:
    name: str
    source: str
    oracle: str
    bound: BoundForm
    make_program: Callable[[], Program]
    make_bindings: Callable[[Optional[CardinalStructure]], Dict[str, Effectivizer]]
    reference: Callable[[Optional[CardinalStructure], Any], Any]
    composite: bool = False   # composed runs are not replayed
    shape: str = "ordinal"    # the instances it takes: ordinal, set or separation


# -- references --------------------------------------------------------------


def _ref_separation(level: int, rank: int):
    sep = _module("logic")._sep_fn(level, rank)         # the SepSigma oracle's filter
    return lambda _structure, triple: sep(triple)


# -- catalog -----------------------------------------------------------------


class _Options(NamedTuple):
    """catalog()'s options, as the rows that depend on them read them."""

    approximator: Approximator
    count_only: bool
    level: int
    rank: int


class _Row(NamedTuple):
    """One catalog entry.  oracle is what the program's one slot is bound
    to; shape names the instances the entry takes.  The program and the
    reference are functions of catalog()'s options."""

    source: str
    oracle: str
    bound: BoundForm
    shape: str                  # "ordinal", "set" or "separation"
    program: Callable[[_Options], Program]
    reference: Callable[[_Options], Callable]


_HALT_R = Halt(reg("r"))


def _powercard(count_only: bool) -> Program:
    """Two oracle calls bracketing free host work.  catalog() builds it once
    per call, and the spec it returns hands out that one program.  The
    full mode points the second call at the square of the power set, so
    every binary relation on it, well-orderings included, comes back; the
    count-only mode keeps the call count but aims the second call at the
    power set itself, since the square of anything bigger overflows the
    host powerset cap."""
    h = _module("hfsets")
    if count_only:
        return Program("powercard_via_pot_count", (
            OracleCall(slot="pot", arg=INPUT, register="pow1"),
            OracleCall(slot="pot", arg=reg("pow1"), register="pow2"),
            ComputableSubroutine("count-power", h._count_power, (reg("pow1"), reg("pow2")), "n"),
            Halt(reg("n")),
        ))
    return Program("powercard_via_pot", (
        OracleCall(slot="pot", arg=INPUT, register="pow1"),
        ComputableSubroutine("square-code", h._square_code, (reg("pow1"),), "sq"),
        OracleCall(slot="pot", arg=reg("sq"), register="rels"),
        ComputableSubroutine("minimal-well-order-length", h._minimal_well_order_length,
                             (reg("pow1"), reg("rels")), "n"),
        Halt(reg("n")),
    ))


_CATALOG = {
    "nextcard_via_deccard": _Row(
        "NextCard", DEC_CARD, BoundForm("next-card-succ"), "ordinal",
        lambda o: Program("nextcard_via_deccard", (
            ScanFirstHit(slot="deccard", above=INPUT, register="r"), _HALT_R)),
        lambda o: u.next_card_of),
    "ordcard_scan_naive": _Row(
        "OrdCard", DEC_CARD, BoundForm("succ-of-input"), "ordinal",
        lambda o: Program("ordcard_scan_naive", (
            ScanLastHitAtMost(slot="deccard", bound=INPUT, register="r"), _HALT_R)),
        lambda o: u.card_of),
    "ordcard_scan_improved": _Row(
        "OrdCard", DEC_CARD, BoundForm("input"), "ordinal",
        lambda o: Program("ordcard_scan_improved", (
            IfFinite(INPUT, then_branch=(Halt(INPUT),), else_branch=(
                ScanLastHitAtMost(slot="deccard", bound=INPUT, register="r",
                                  charge_closed=False),
                _HALT_R)),)),
        lambda o: u.card_of),
    "ordcard_guesscheck": _Row(
        "OrdCard", DEC_CARD, BoundForm("finite"), "ordinal",
        lambda o: Program("ordcard_guesscheck", (
            GuessCheckLoop(slot="deccard", guesses=o.approximator, register="r"),
            _HALT_R)),
        lambda o: u.card_of),
    "flagtrick": _Row(
        "NextLimitOfCardinals", DEC_CARD, BoundForm("next-limit-interval"), "ordinal",
        lambda o: Program("flagtrick", (
            ScanFlagToggleUntil(slot="deccard", start=INPUT, register="r"),
            _HALT_R)),
        lambda o: u.next_limit_of_cardinals_above),
    "powercard_via_pot": _Row(
        "PowerCard", POT, BoundForm.const(2), "set",
        lambda o: _powercard(o.count_only),
        lambda o: _module("hfsets")._ref_powercard),
    "sep_via_truth": _Row(
        "Separation", TRUTH, BoundForm("set-size"), "separation",
        lambda o: Program("sep_via_truth", (
            SeparationScan(slot="truth", register="r"), _HALT_R)),
        lambda o: _ref_separation(o.level, o.rank)),
}

CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str, approximator: Optional[Approximator] = None,
            count_only: bool = False, level: int = 2,
            rank: int = 3) -> ReductionSpec:
    """Build a catalog entry by its stable name.  approximator reaches
    ordcard_guesscheck (by default, direct descent over the structure of
    the oracle each run is bound to), count_only powercard_via_pot, and
    level and rank sep_via_truth's truth oracle and reference."""
    row = _CATALOG.get(name)
    if row is None:
        raise ValueError(f"unknown reduction name {name!r}")
    options = _Options(approximator or _bound_descent, count_only, level, rank)
    program = row.program(options)
    slot, = program.slots()
    oracle, env = ((f"{TRUTH}{level}", {"level": level, "rank": rank})
                   if row.oracle == TRUTH else (row.oracle, {}))

    def make_bindings(structure):
        return {slot: make_effectivizer(row.oracle, structure=structure, **env)}

    return ReductionSpec(name, row.source, oracle, row.bound, lambda: program,
                         make_bindings, row.reference(options), shape=row.shape)


def delegate_spec(source: str, oracle_name: str,
                  make_oracle: Callable[[Optional[CardinalStructure]], Effectivizer],
                  reference: Callable, calls: int = 1) -> ReductionSpec:
    """A straight-line entry that answers by making `calls` pointwise calls
    and returning the last response; the one-call case is the unit reduction."""
    program = Program(f"{source.lower()}-delegate",
                      (OracleCall(slot="o", arg=INPUT, register="r"),) * calls
                      + (Halt(reg("r")),))
    return ReductionSpec(
        name=f"{source.lower()}_delegate_{calls}call",
        source=source, oracle=oracle_name,
        bound=BoundForm.const(calls),
        make_program=lambda: program,
        make_bindings=lambda cs: {"o": make_oracle(cs)},
        reference=reference)


# -- verification ------------------------------------------------------------


@same_class_eq
class Row(NamedTuple):
    input_text: str
    status: str
    output_text: Optional[str]
    expected_text: Optional[str]
    correct: bool
    order_type: Optional[str]
    bound_text: str
    within: Optional[bool]      # None: no halt, and the bound has no value
    replay_ok: Optional[bool]
    product_note: str = ""

    @property
    def ok(self) -> bool:
        return (self.correct and self.within is not False
                and self.replay_ok is not False)

    def to_json(self) -> dict:
        return {"input": self.input_text, "status": self.status,
                "output": self.output_text, "expected": self.expected_text,
                "correct": self.correct, "order_type": self.order_type,
                "bound": self.bound_text, "within_bound": self.within,
                "replay_ok": self.replay_ok,
                **({"product_note": self.product_note} if self.product_note else {})}


class Report(Record):
    __slots__ = _fields = ("reduction", "structure", "bound", "rows")

    def __init__(self, reduction: str, structure: str, bound: str,
                 rows: Optional[List[Row]] = None):
        _set(self, "reduction", reduction)
        _set(self, "structure", structure)
        _set(self, "bound", bound)
        _set(self, "rows", [] if rows is None else rows)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_json(self) -> dict:
        return {"reduction": self.reduction, "structure": self.structure,
                "bound": self.bound, "passed": self.passed,
                "instances": [r.to_json() for r in self.rows]}

    def render_table(self) -> str:
        headers = ("input", "status", "output", "expected", "order type",
                   "bound", "ok")
        body = [(r.input_text, r.status, r.output_text or "-",
                 r.expected_text or "-", r.order_type or "-", r.bound_text,
                 "pass" if r.ok else "FAIL") for r in self.rows]
        widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h)
                  for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        verdict = "all checks passed" if self.passed else "FAILURES present"
        lines.append(f"{self.reduction} over {self.structure}: {verdict}")
        return "\n".join(lines)


def _text(value) -> Optional[str]:
    return None if value is None else summarize_query(value)


def verify(spec: ReductionSpec, structure: Optional[CardinalStructure],
           instances: Sequence, budget: int = tam.DEFAULT_BUDGET,
           bound_override: Optional[BoundForm] = None) -> Report:
    """Run every instance, check output, bound, and replayability.  An
    instance whose run or reference raises an input or program error gets
    a failing row whose status names the error."""
    bound = bound_override if bound_override is not None else spec.bound
    report = Report(reduction=spec.name,
                    structure=structure.kind if structure else "-",
                    bound=bound.describe())
    for instance in instances:
        program = spec.make_program()
        bindings = spec.make_bindings(structure)
        try:
            res = tam.run(program, instance, bindings, budget)
            expected = spec.reference(structure, instance)
        except (InputError, tam.ProgramError) as e:
            # this instance fails its own row; the batch goes on
            report.rows.append(Row(summarize_query(instance),
                                   f"error: {type(e).__name__}: {e}", None, None,
                                   False, None, bound.describe(), None, None))
            continue
        correct = (res.halted and res.output == expected) or \
                  (not res.halted and expected is None)
        total = res.ledger.total_order_type()
        checked = bound.check(total, structure, instance)
        if spec.composite:
            replay_ok = None
        else:
            replay_ok = tam.replay(program, instance, res, budget, bindings).same_as(res)
        report.rows.append(Row(
            input_text=summarize_query(instance),
            status=res.status,
            output_text=_text(res.output),
            expected_text=_text(expected),
            correct=correct,
            order_type=render(total),
            bound_text=bound.describe() if checked.value is None
            else render(checked.value),
            within=checked.within if res.halted or checked.value is not None
            else None,
            replay_ok=replay_ok,
            product_note=checked.product_note))
    return report


# -- composition -------------------------------------------------------------


class CompositeEffectivizer(Effectivizer):
    """Answers each pointwise call by running an inner reduction program,
    appending the inner oracle traffic, entry by entry, to the caller's
    ledger.  An inner run that does not halt stops the caller's run with
    its status, after its traffic is appended.  It keeps the hit set of the
    oracle it stands in for, which a guess source may read, but a scan
    cannot drive it."""

    def __init__(self, name: str, inner_program_factory, inner_bindings, hit_set=None):
        super().__init__(name, answer_fn=None, hit_set=hit_set)
        self._factory = inner_program_factory
        self._bindings = inner_bindings

    def scan(self, start, query, point):
        raise NotRankedError(f"{self.name} is composed, so no scan can drive it")

    def call(self, query, ledger=None):
        res = tam.run(self._factory(), query, self._bindings)
        if ledger is not None:
            for entry in res.ledger:
                ledger.append(entry)
        if not res.halted:
            raise tam.Stopped(res.status)
        return res.output


def compose(outer: ReductionSpec, inner: ReductionSpec) -> ReductionSpec:
    """Chain two entries; the composed ledger carries only the inner oracle's
    calls and the composed bound is checked as a product in both orders."""
    if outer.oracle != inner.source:
        raise ReductionTypeError(
            f"{outer.name} calls {outer.oracle} but {inner.name} computes {inner.source}")

    def make_bindings(structure):
        inner_bindings = inner.make_bindings(structure)
        # the outer entry's own bindings name its slots, and each composed
        # oracle keeps the hit set of the one it stands in for, whose
        # structure direct descent reads
        return {slot: CompositeEffectivizer(inner.name, inner.make_program,
                                            inner_bindings, own.hit_set)
                for slot, own in outer.make_bindings(structure).items()}

    return ReductionSpec(
        name=f"{outer.name}+{inner.name}",
        source=outer.source,
        oracle=inner.oracle,
        bound=BoundForm.product(outer.bound, inner.bound),
        make_program=outer.make_program,
        make_bindings=make_bindings,
        reference=outer.reference,
        composite=True,
        shape=outer.shape)
