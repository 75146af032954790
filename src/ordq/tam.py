"""A small transfinite machine evaluated in closed form.

Programs are flat statement lists over named registers.  Plain computation
between oracle calls is free: it costs no time and leaves no ledger trace.
The clock advances only when an oracle is consulted, one step per answered
call.  The clock is the ledger's total order type, which the ledger keeps
as a running sum (see ordq.oracles): each entry is appended at the stage
the entries before it add up to, and a halting run's halt time is the
ledger's total, re-summed nowhere.

The scan statements are where the transfinite content lives.  Instead of
stepping through limit stages, each scan is one call of the bound oracle's
scan(), which answers the one rank query the statement asks of its hit set
(the scan's exit) and the hit set's horizon:

  first-hit       probes every ordinal strictly above an anchor until the
                  first positive answer; charged the interval's order type.
  last-hit        sweeps all ordinals up to a bound and keeps the greatest
                  positive position.
  flag-toggle     toggles a pair of flags, set to (0, 1), at every positive
                  answer and stops at the first stage where both read 0.
                  A toggle never zeroes the pair; at limit stages a flag
                  reads its lim-inf, 0 whenever toggles are cofinal, so the
                  pair reads 0 only at a limit of hits.
  guess-check     pulls strictly decreasing guesses from a source, which is
                  handed the bound oracle, and makes one pointwise call per
                  distinct guess until a positive answer.
  member-filter   one pointwise truth call per element of a coded set,
                  keeping the satisfying elements.

A scan with no satisfying point diverges; if the oracle declares a world
boundary, the fruitless sweep up to it is still ledgered before the run is
reported as divergent.

Budgets cap interpreter events (statement executions plus one per guess
and one per separated element), not ordinal time: a scan of length w^2 is
one event, live or replayed.

A run stops by raising Stopped, which carries its status (halted,
diverged or budget-exceeded), and a halt's output, out of the statement
that stopped it; a composed oracle raises it for an inner run that did
not halt.  A replay whose script runs out stops on ScriptExhausted instead.
The first-hit and flag-toggle scans share one helper, which asks the
oracle its rank query, ledgers the scan and writes the exit.

replay re-runs a program against a previous run's ledger instead of live
oracles.  It runs the same scan code as a live run: a scripted oracle's
scan() answers each scan with the exit and the window end its recorded
run entry holds.  Replaying a run's own ledger reproduces the run exactly,
ledger included, whether or not it halted, and asks no oracle.  A guess
source is handed the oracle bound to its slot; a replay given the live
run's bindings hands it the live oracle instead of the scripted one, so a
source that reads its oracle's structure guesses as in the run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, Union

from ._record import Record, _set, same_class_eq
from .ordcalc import ZERO, Ordinal, _coerce, left_sub, successor
from .oracles import (
    PATTERN_ALL_ZERO,
    PATTERN_FINAL_ONE,
    PATTERN_ORACLE_HITS,
    Effectivizer,
    QueryLedger,
    RunEntry,
    ScriptExhausted,
    ScriptedEffectivizer,
    _module,
    entries_agree,
)

__all__ = [
    "HALTED", "DIVERGED", "BUDGET_EXCEEDED", "SCRIPT_EXHAUSTED",
    "DEFAULT_BUDGET", "ProgramError", "Stopped", "ApproximatorContractError",
    "INPUT", "reg", "OracleCall", "ScanFirstHit", "ScanLastHitAtMost",
    "ScanFlagToggleUntil", "GuessCheckLoop", "ComputableSubroutine",
    "SeparationScan", "IfFinite", "Halt", "Program", "RunResult",
    "run", "replay",
]

HALTED = "halted"
DIVERGED = "diverged"
BUDGET_EXCEEDED = "budget-exceeded"
SCRIPT_EXHAUSTED = "script-exhausted"

DEFAULT_BUDGET = 10_000


class ProgramError(RuntimeError):
    """Ill-formed program or run setup: unbound slot, unset register,
    missing halt, malformed input shape."""


class ApproximatorContractError(RuntimeError):
    """A guess source emitted a non-decreasing distinct value."""


# -- expressions -------------------------------------------------------------
#
# Expressions are tagged tuples: ("input",) ("reg", name)

INPUT = ("input",)


def reg(name: str) -> tuple:
    return ("reg", name)


# -- statements --------------------------------------------------------------


@same_class_eq
class OracleCall(NamedTuple):
    slot: str
    arg: tuple
    register: str


@same_class_eq
class ScanFirstHit(NamedTuple):
    """Least positive position strictly above the anchor."""

    slot: str
    above: tuple
    register: str


@same_class_eq
class ScanLastHitAtMost(NamedTuple):
    """Greatest positive position at most the bound.  The naive form is
    charged bound+1 (the closed sweep); the declared form is charged just
    the bound, and is ledgered even when that is 0, so that replay reads
    its exit."""

    slot: str
    bound: tuple
    register: str
    charge_closed: bool = True


@same_class_eq
class ScanFlagToggleUntil(NamedTuple):
    """Toggle the flag pair (0, 1) at every hit strictly above the start;
    stop at the first stage where both flags read 0, a limit of hits."""

    slot: str
    start: tuple
    register: str


@same_class_eq
class GuessCheckLoop(NamedTuple):
    """guesses(input, oracle) yields candidates, where oracle is the one
    bound to the slot; consecutive repeats collapse and the distinct values
    must strictly decrease."""

    slot: str
    guesses: Callable[[Any, Any], Any]
    register: str


@same_class_eq
class ComputableSubroutine(NamedTuple):
    name: str
    fn: Callable
    args: Tuple[tuple, ...]
    register: str


@same_class_eq
class SeparationScan(NamedTuple):
    """Input (code(S), formula index, coded side parameters): one truth call
    per element of S, output the code of the satisfying subset.  A formula
    whose parameter count does not fit gets the empty set with zero calls."""

    slot: str
    register: str


@same_class_eq
class IfFinite(NamedTuple):
    value: tuple
    then_branch: Tuple[Any, ...]
    else_branch: Tuple[Any, ...] = ()


@same_class_eq
class Halt(NamedTuple):
    output: tuple


Statement = Union[OracleCall, ScanFirstHit, ScanLastHitAtMost,
                  ScanFlagToggleUntil, GuessCheckLoop, ComputableSubroutine,
                  SeparationScan, IfFinite, Halt]


class Program(Record):
    __slots__ = ("name", "body", "_slot_names")
    _fields = ("name", "body")

    def __init__(self, name: str, body: Tuple[Statement, ...]):
        _set(self, "name", name)
        _set(self, "body", body)
        found: Dict[str, None] = {}

        def walk(statements):
            for st in statements:
                if isinstance(st, IfFinite):
                    walk(st.then_branch)
                    walk(st.else_branch)
                elif hasattr(st, "slot"):
                    found.setdefault(st.slot)

        walk(body)
        _set(self, "_slot_names", tuple(found))

    def slots(self) -> Tuple[str, ...]:
        """The oracle slots the body names, in order of first use; the body
        is walked once, when the program is built."""
        return self._slot_names


@same_class_eq
class RunResult(NamedTuple):
    status: str
    output: Any
    ledger: QueryLedger

    @property
    def halted(self) -> bool:
        return self.status == HALTED

    @property
    def halt_time(self) -> Optional[Ordinal]:
        """The clock reading at the halt, None if the run did not halt."""
        return self.ledger.total_order_type() if self.status == HALTED else None

    def same_as(self, other: "RunResult") -> bool:
        """Whether other has this status and output, and ledger entries that
        agree (oracles.entries_agree): the class, oracle, query or window,
        order type, response or pattern, and a scan's exit.  Equal entries
        have equal totals, so the halt times agree too."""
        return (self.status == other.status and self.output == other.output
                and len(self.ledger) == len(other.ledger)
                and all(map(entries_agree, self.ledger, other.ledger)))


# -- interpreter -------------------------------------------------------------


class Stopped(Exception):
    """The run stopped with this status, and this output if it halted."""

    def __init__(self, status: str, output=None):
        self.status = status
        self.output = output


class _Machine:
    def __init__(self, program: Program, input_value, bindings, budget: int,
                 sources=None):
        if budget <= 0:
            raise ProgramError("budget must be positive")
        for slot in program.slots():
            if slot not in bindings:
                raise ProgramError(f"oracle slot {slot!r} is unbound")
        self.program = program
        self.input = input_value
        self.bindings = bindings
        self.sources = bindings if sources is None else sources    # what guess sources read
        self.budget = budget
        self.events = 0
        self.registers: Dict[str, Any] = {}
        self.ledger = QueryLedger()

    # -- plumbing ----------------------------------------------------------

    def _tick(self):
        self.events += 1
        if self.events > self.budget:
            raise Stopped(BUDGET_EXCEEDED)

    def _eval(self, expr: tuple):
        tag = expr[0]
        if tag == "input":
            return self.input
        if tag == "reg":
            if expr[1] not in self.registers:
                raise ProgramError(f"register {expr[1]!r} read before assignment")
            return self.registers[expr[1]]
        raise ProgramError(f"unknown expression tag {tag!r}")

    def _ord(self, value) -> Ordinal:
        if isinstance(value, (Ordinal, int)) and not isinstance(value, bool):
            return _coerce(value)
        raise ProgramError(f"expected an ordinal, got {value!r}")

    def _scan(self, st, start_expr: tuple, query: str, pattern: str):
        """Ask the slot's oracle the rank query of its hits above the start,
        ledger the scan from the start to its exit and write the exit to the
        register.  With no exit, ledger the fruitless sweep up to the
        horizon, if there is one, and diverge."""
        start = self._ord(self._eval(start_expr))
        oracle_name, end, horizon = self.bindings[st.slot].scan(start, query, start)
        stop = end if end is not None else horizon
        if end is None and pattern == PATTERN_FINAL_ONE:
            pattern = PATTERN_ALL_ZERO                  # the sweep found no hit
        if stop is not None and stop > start:
            self.ledger.append(RunEntry(oracle_name, start, stop, left_sub(start, stop),
                                        pattern, end))
        if end is None:
            raise Stopped(DIVERGED)
        self.registers[st.register] = end

    # -- statements ----------------------------------------------------------

    def _execute(self, statements):
        for st in statements:
            self._tick()
            handler = self._HANDLERS[type(st)]
            handler(self, st)

    def _do_halt(self, st: Halt):
        raise Stopped(HALTED, self._eval(st.output))

    def _do_if(self, st: IfFinite):
        finite = self._ord(self._eval(st.value)).is_finite()
        self._execute(st.then_branch if finite else st.else_branch)

    def _do_subroutine(self, st: ComputableSubroutine):
        values = [self._eval(a) for a in st.args]
        self.registers[st.register] = st.fn(*values)

    def _do_oracle_call(self, st: OracleCall):
        self.registers[st.register] = self.bindings[st.slot].call(
            self._eval(st.arg), self.ledger)

    def _do_first_hit(self, st: ScanFirstHit):
        self._scan(st, st.above, "least_above", PATTERN_FINAL_ONE)

    def _do_last_hit(self, st: ScanLastHitAtMost):
        bound = self._ord(self._eval(st.bound))
        name, result, _ = self.bindings[st.slot].scan(ZERO, "greatest_at_most", bound)
        charged = successor(bound) if st.charge_closed else bound
        self.ledger.append(RunEntry(name, ZERO, bound, charged, PATTERN_ORACLE_HITS, result))
        if result is None:
            raise Stopped(DIVERGED)
        self.registers[st.register] = result

    def _do_flag_scan(self, st: ScanFlagToggleUntil):
        self._scan(st, st.start, "next_limit_above", PATTERN_ORACLE_HITS)

    def _do_guess_check(self, st: GuessCheckLoop):
        oracle = self.bindings[st.slot]
        source = st.guesses(self.input, self.sources[st.slot])
        last = None
        for raw in source:
            value = self._ord(raw)
            if last is not None and value == last:
                continue
            if last is not None and value > last:
                raise ApproximatorContractError(
                    f"guess {value} does not decrease below {last}")
            last = value
            self._tick()
            if oracle.call(value, self.ledger) == 1:
                self.registers[st.register] = value
                return
        raise Stopped(DIVERGED)

    def _do_separation(self, st: SeparationScan):
        h = _module("hfsets")
        shape = self.input
        if not (isinstance(shape, tuple) and len(shape) == 3
                and isinstance(shape[0], h.SetCode) and type(shape[1]) is int
                and isinstance(shape[2], tuple)
                and all(isinstance(p, h.SetCode) for p in shape[2])):
            raise ProgramError("input must be (set code, formula index, parameter codes)")
        code, k, param_codes = shape
        params = tuple(map(h.decode_set, param_codes))
        if _module("logic").formula_from_index(k).num_params != len(params) + 1:
            self.registers[st.register] = h.encode_hf(h.EMPTY_SET)
            return
        oracle = self.bindings[st.slot]
        decode_element = h.decode_element
        kept = []
        for node in h.code_elements(code):
            self._tick()
            x = decode_element(code, node)
            if oracle.call((k, (x,) + params), self.ledger) == 1:
                kept.append(x)
        self.registers[st.register] = h.encode_hf(h.HFSet(kept))

    _HANDLERS = {
        Halt: _do_halt,
        IfFinite: _do_if,
        ComputableSubroutine: _do_subroutine,
        OracleCall: _do_oracle_call,
        ScanFirstHit: _do_first_hit,
        ScanLastHitAtMost: _do_last_hit,
        ScanFlagToggleUntil: _do_flag_scan,
        GuessCheckLoop: _do_guess_check,
        SeparationScan: _do_separation,
    }


def _run_machine(m: _Machine) -> RunResult:
    try:
        m._execute(m.program.body)
    except Stopped as s:
        return RunResult(s.status, s.output, m.ledger)
    except ScriptExhausted:
        return RunResult(SCRIPT_EXHAUSTED, None, m.ledger)
    raise ProgramError(f"program {m.program.name} ended without halting")


def run(program: Program, input_value, bindings: Dict[str, Effectivizer],
        budget: int = DEFAULT_BUDGET) -> RunResult:
    """Evaluate a program against live oracles."""
    return _run_machine(_Machine(program, input_value, bindings, budget))


def replay(program: Program, input_value, result: RunResult,
           budget: int = DEFAULT_BUDGET, bindings: Optional[Dict[str, Effectivizer]] = None
           ) -> RunResult:
    """Re-run a program with every oracle slot answered from the ledger of
    a previous result; the scans run their live code, on the recorded
    exits and horizons ScriptedEffectivizer.scan() answers.  A guess source
    is handed the scripted oracle, or, when the live run's bindings are
    given, its slot's live oracle, which it may read but which answers no
    call."""
    oracle = ScriptedEffectivizer(result.ledger)
    scripted = {slot: oracle for slot in program.slots()}
    return _run_machine(_Machine(program, input_value, scripted, budget, bindings))
