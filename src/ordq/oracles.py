"""Oracles, ranked ordinal sets, query ledgers and response scripts.

An Effectivizer is a deterministic oracle: a name plus an answer function.
Oracles whose queries are ordinals and whose answers are bits additionally
expose their hit set through the OrdinalSet contract below, which is what
lets the machine evaluate transfinite scans in closed form.  Those ranked
calls are interpreter machinery and are never ledgered; the ledger records
the order type of the pointwise calls they stand for.

A QueryLedger mixes two entry shapes.  Single entries log one call at one
time.  Run entries compress a whole scan: the window of queries it swept,
the order type of that window (which is what the ledger totals), and a
response pattern.  Two patterns cover hit-terminated scans ("all-0",
"all-0-then-final-1"); scans that sweep across many positive answers, such
as a last-hit search, use the pattern "oracle-hits", whose pointwise
responses are the oracle's hit set restricted to the window.  Run entries
keep that restriction as a descriptor so a recorded run can be replayed
exactly.

ScriptedEffectivizer replaces an oracle with recorded responses.  Its
script is a previous run's ledger entries, as extract_script() returns
them, or bare values, each of which answers one pointwise call; the two
can mix.  A single entry answers with its response value under its oracle
name, and a run entry hands a scan the hit set its pattern records.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

from ._record import same_class_eq
from .ordcalc import (
    OMEGA,
    ONE,
    ZERO,
    InputError,
    Ordinal,
    OrdinalLike,
    _coerce,
    add,
    finite_part,
    limit_part,
    omega_power,
    render,
    successor,
)
from . import universe as _u
from .universe import (
    CardinalStructure,
    HFSet,
    OutOfStructureError,
    SetCode,
    decode_set,
    encode_hf,
    render_hf,
)

PATTERN_ALL_ZERO = "all-0"
PATTERN_FINAL_ONE = "all-0-then-final-1"
PATTERN_ORACLE_HITS = "oracle-hits"


class OracleTypeError(InputError, TypeError):
    """Query shape does not match the oracle."""


class NotRankedError(TypeError):
    """Ranked scan support requested from a non-ranked oracle."""


class ScriptExhausted(RuntimeError):
    """A scripted oracle ran out of recorded responses."""


class ScriptMismatch(RuntimeError):
    """A recorded scan does not fit the call the machine is making."""


# -- ranked ordinal sets -----------------------------------------------------


class OrdinalSet:
    """A set of ordinals supporting closed-form rank queries.

    least_above is strict; greatest_at_most is inclusive and answers only
    when the members at most the argument have a maximum; next_limit_above
    is the least ordinal above the argument in which members are cofinal.
    sup_below reports the supremum of members strictly below the argument
    plus an attained bit (True iff that supremum is itself a member).
    None always means "no such point"; CardinalClassSet passes on the None
    of the universe queries as it comes (see ordq.universe).
    """

    def contains(self, a: OrdinalLike) -> bool:
        raise NotImplementedError

    def least_above(self, a: OrdinalLike) -> Optional[Ordinal]:
        raise NotImplementedError

    def greatest_at_most(self, a: OrdinalLike) -> Optional[Ordinal]:
        raise NotImplementedError

    def next_limit_above(self, a: OrdinalLike) -> Optional[Ordinal]:
        raise NotImplementedError

    def sup_below(self, a: OrdinalLike) -> Optional[Tuple[Ordinal, bool]]:
        raise NotImplementedError

    def scan_horizon(self) -> Optional[Ordinal]:
        """Upper end of the window a diverging scan sweeps before giving up,
        when the set has a declared world boundary; None otherwise."""
        return None


class CardinalClassSet(OrdinalSet):
    """The cardinals of a structure, finite ordinals included."""

    def __init__(self, structure: CardinalStructure):
        self.structure = structure

    def contains(self, a):
        return bool(_u.is_cardinal(self.structure, a))

    def least_above(self, a):
        return _u.next_card_of(self.structure, a)

    def greatest_at_most(self, a):
        return _u.card_of(self.structure, a)

    def next_limit_above(self, a):
        return _u.next_limit_of_cardinals_above(self.structure, a)

    def sup_below(self, a):
        return _u.sup_of_cardinals_below(self.structure, a)

    def scan_horizon(self):
        return self.structure.bound


class FiniteOrdinalSet(OrdinalSet):
    """An explicit finite set; every rank query is a list walk."""

    def __init__(self, members):
        self.members = tuple(sorted({_coerce(m) for m in members}))

    def contains(self, a):
        return _coerce(a) in self.members

    def least_above(self, a):
        a = _coerce(a)
        for m in self.members:
            if m > a:
                return m
        return None

    def greatest_at_most(self, a):
        a = _coerce(a)
        best = None
        for m in self.members:
            if m <= a:
                best = m
        return best

    def next_limit_above(self, a):
        return None

    def sup_below(self, a):
        a = _coerce(a)
        below = [m for m in self.members if m < a]
        return (below[-1], True) if below else None


class OmegaMultiplesSet(OrdinalSet):
    """{w*n : n >= 1}; its single limit point is w^2."""

    W2 = omega_power(2)

    def contains(self, a):
        a = _coerce(a)
        return len(a.terms) == 1 and a.terms[0][0] == ONE

    def least_above(self, a):
        a = _coerce(a)
        if a < OMEGA:
            return OMEGA
        if a >= self.W2:
            return None
        return add(limit_part(a), OMEGA)

    def greatest_at_most(self, a):
        a = _coerce(a)
        if a < OMEGA:
            return None
        if a >= self.W2:
            return None  # members are cofinal under w^2: no maximum
        return limit_part(a)

    def next_limit_above(self, a):
        a = _coerce(a)
        return self.W2 if a < self.W2 else None

    def sup_below(self, a):
        a = _coerce(a)
        if a <= OMEGA:
            return None
        if a > self.W2:
            return (self.W2, False)
        if a == self.W2:
            return (a, False)
        if finite_part(a) > 0:
            return (limit_part(a), True)
        # a is itself w*n: the greatest member below is w*(n-1)
        n = a.terms[0][1]
        return (omega_power(1, n - 1), True) if n > 1 else None

    def scan_horizon(self):
        return self.W2


# -- flag limit behavior -----------------------------------------------------


def flag_value_after(initial: int, toggles: OrdinalSet, position: OrdinalLike) -> int:
    """Flag value right after stage `position`, toggling at every member of
    `toggles` at or below it, with the lim-inf rule at limits of toggles.

    Walking the toggles at or below the position backwards must reach, in
    finitely many steps (strict descent), either the bottom (no earlier
    toggle: apply parity to the initial bit) or a limit of toggles (where
    the value is 0 regardless of history: both states recur below it).
    """
    position = _coerce(position)
    state = toggles.sup_below(successor(position))
    if state is None:
        return initial
    current, attained = state
    if not attained:
        return 0
    parity = 0
    while True:
        parity ^= 1
        earlier = toggles.sup_below(current)
        if earlier is None:
            return initial ^ parity
        current, attained = earlier
        if not attained:
            return 0 ^ parity


# -- query ledger ------------------------------------------------------------


@same_class_eq
class SingleEntry(NamedTuple):
    time: Ordinal
    oracle: str
    query: str
    response: str
    response_value: Any = None

    def length(self) -> Ordinal:
        return ONE

    def to_json(self) -> dict:
        return {"kind": "single", "oracle": self.oracle, "from": self.query,
                "to": self.query, "order_type": "1", "response": self.response}


@same_class_eq
class RunEntry(NamedTuple):
    time: Ordinal
    oracle: str
    from_query: Ordinal
    to_query: Ordinal
    order_type: Ordinal
    pattern: str
    hits: Optional[OrdinalSet] = None

    def length(self) -> Ordinal:
        return self.order_type

    def to_json(self) -> dict:
        return {"kind": "run", "oracle": self.oracle,
                "from": render(self.from_query), "to": render(self.to_query),
                "order_type": render(self.order_type), "response": self.pattern}


LedgerEntry = Union[SingleEntry, RunEntry]


class QueryLedger:
    """Single-writer sequence of call records with ordinal accounting."""

    def __init__(self):
        self.entries: List[LedgerEntry] = []

    def append(self, entry: LedgerEntry):
        if entry.length().is_zero() and isinstance(entry, RunEntry):
            raise ValueError("run intervals must be nonempty")
        if self.entries and entry.time < self._next_time():
            raise ValueError("ledger entries must advance in time")
        self.entries.append(entry)

    def _next_time(self) -> Ordinal:
        last = self.entries[-1]
        return add(last.time, last.length())

    def total_order_type(self) -> Ordinal:
        total = ZERO
        for e in self.entries:
            total = add(total, e.length())
        return total

    def to_json(self) -> List[dict]:
        return [e.to_json() for e in self.entries]

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


# -- effectivizers -----------------------------------------------------------


DEC_CARD = "DecCard"
NEXT_CARD = "NextCard"
ORD_CARD = "OrdCard"
POT = "Pot"
POWER_CARD = "PowerCard"
TRUTH = "TruthSigma"
SEP = "SepSigma"
SCRIPTED = "Scripted"


def summarize_query(q: Any) -> str:
    if isinstance(q, Ordinal):
        return render(q)
    if isinstance(q, int):
        return render(Ordinal.from_int(q))
    if isinstance(q, SetCode):
        edges = sum(map(len, q._children.values()))  # builds no edge set
        return f"code(domain={q.domain},root={q.root},edges={edges})"
    if isinstance(q, tuple):
        return "(" + ",".join(summarize_query(x) for x in q) + ")"
    if isinstance(q, HFSet):
        return render_hf(q)
    return str(q)


class Effectivizer:
    """A named deterministic oracle; ranked ones carry their hit set."""

    def __init__(self, name: str, answer_fn: Callable[[Any], Any],
                 hit_set: Optional[OrdinalSet] = None):
        self.name = name
        self._answer = answer_fn
        self.hit_set = hit_set

    def call(self, query: Any, ledger: Optional[QueryLedger],
             time: Ordinal) -> Tuple[Any, Ordinal]:
        """Answer one pointwise call; returns (value, elapsed order type)."""
        value = self._answer(query)
        if ledger is not None:
            ledger.append(SingleEntry(time=time, oracle=self.name,
                                      query=summarize_query(query),
                                      response=summarize_query(value),
                                      response_value=value))
        return value, ONE

    def ranked(self) -> OrdinalSet:
        if self.hit_set is None:
            raise NotRankedError(f"{self.name} does not expose a hit set")
        return self.hit_set

    def scan(self, start: Ordinal, tick: Callable[[], None]) -> Tuple[str, OrdinalSet]:
        """The hit set a scan from `start` runs over, with the oracle name
        its ledger run carries.  `tick` charges one interpreter event; a
        live oracle answers in closed form and never calls it."""
        return self.name, self.ranked()


def answer(e: Effectivizer, query: Any, ledger: Optional[QueryLedger] = None,
           time: OrdinalLike = 0) -> Any:
    """One oracle call, optionally ledgered at the given time."""
    value, _ = e.call(query, ledger, _coerce(time))
    return value


def _require(condition: bool, message: str):
    if not condition:
        raise OracleTypeError(message)


# pointwise cardinal oracle -> the universe query it answers with, looked
# up when the oracle is made, so that a patched query is the one it calls
_CARD_QUERIES = {DEC_CARD: "is_cardinal", NEXT_CARD: "next_card_of", ORD_CARD: "card_of"}


def make_effectivizer(name: str, structure: CardinalStructure = None,
                      level: int = None, rank: int = None,
                      script: Sequence = None,
                      hit_set: OrdinalSet = None) -> Effectivizer:
    """Build one of the catalog oracles over the given environment."""
    if name in _CARD_QUERIES:
        _require(structure is not None, f"{name} needs a cardinal structure")
        query = getattr(_u, _CARD_QUERIES[name])

        def card_answer(q):
            a = _expect_ordinal(q)
            if a >= structure.bound:
                raise OutOfStructureError(f"{render(a)} is not below the working "
                                          f"bound {render(structure.bound)}")
            return query(structure, a)

        return Effectivizer(name, card_answer,
                            hit_set=CardinalClassSet(structure) if name == DEC_CARD else None)
    if name == POT:
        _require(structure is None and level is None, "Pot takes no environment")
        return Effectivizer(POT, lambda q: _u.powerset_code(_expect_code(q)))
    if name == POWER_CARD:
        _require(structure is None and level is None, "PowerCard takes no environment")
        return Effectivizer(POWER_CARD,
                            lambda q: Ordinal.from_int(
                                2 ** len(_u._capped_elements(_expect_code(q)))))
    if name == TRUTH:
        _require(level is not None and rank is not None,
                 "TruthSigma needs a level and a rank")
        return Effectivizer(f"{TRUTH}{level}", _truth_fn(level, rank))
    if name == SEP:
        _require(level is not None and rank is not None,
                 "SepSigma needs a level and a rank")
        return Effectivizer(f"{SEP}{level}", _sep_fn(level, rank))
    if name == SCRIPTED:
        _require(script is not None or hit_set is not None,
                 "Scripted needs a response script or a declared hit set")
        if script is not None:
            return ScriptedEffectivizer(script)
        return Effectivizer(SCRIPTED, lambda q: int(hit_set.contains(_expect_ordinal(q))),
                            hit_set=hit_set)
    raise OracleTypeError(f"unknown effectivizer name {name!r}")


def _expect_ordinal(q) -> Ordinal:
    if isinstance(q, (Ordinal, int)):
        return _coerce(q)
    raise OracleTypeError(f"expected an ordinal query, got {q!r}")


def _expect_code(q) -> SetCode:
    if isinstance(q, SetCode):
        return q
    raise OracleTypeError(f"expected a set code query, got {q!r}")


@functools.cache
def _logic():
    """ordq.logic, loaded on first use: only the truth and separation
    oracles and the separation scan need it.  A cached module beats an
    import statement on these per-instance paths."""
    from . import logic
    return logic


def _checked_logic(level: int, rank: int):
    """ordq.logic, once a truth or separation oracle's environment passes:
    RankError for a rank outside 0..MAX_RANK, InputError for a negative
    level, before any call is made."""
    logic = _logic()
    logic._check_rank(rank)
    if level < 0:
        raise InputError(f"level must be at least 0, got {level}")
    return logic


def _truth_fn(level: int, rank: int):
    logic = _checked_logic(level, rank)

    def truth(q):
        if not (isinstance(q, tuple) and len(q) == 2 and isinstance(q[0], int)
                and isinstance(q[1], tuple)):
            raise OracleTypeError(f"expected (index, params) query, got {q!r}")
        k, params = q
        return logic._sigma_truth(logic.formula_from_index(k), level, rank, params)

    return truth


def _sep_fn(level: int, rank: int):
    logic = _checked_logic(level, rank)

    def sep(q):
        if not (isinstance(q, tuple) and len(q) == 3 and isinstance(q[1], int)):
            raise OracleTypeError(f"expected (code, index, param codes) query, got {q!r}")
        code_s, k, param_codes = q
        s = decode_set(_expect_code(code_s))
        params = tuple(decode_set(_expect_code(c)) for c in param_codes)
        f = logic.formula_from_index(k)
        return encode_hf(HFSet(x for x in s
                               if logic._sigma_truth(f, level, rank, (x,) + params)))

    return sep


# -- scripted oracles and replay ---------------------------------------------


def extract_script(ledger: QueryLedger) -> Tuple[LedgerEntry, ...]:
    """The recorded response sequence of a run: its ledger's entries."""
    return tuple(ledger.entries)


class ScriptedEffectivizer(Effectivizer):
    """Answers from a recorded script instead of computing.

    Pointwise calls consume single entries and bare values in order.  A
    scan takes its hit set from scan(), so replay runs the same scan code
    as a live run.  A run entry must start at the scan's window start; its
    pattern becomes the hit set: "oracle-hits" the recorded hits,
    "all-0-then-final-1" the one recorded endpoint, "all-0" no hits up to
    the recorded endpoint.  A pointwise answer at a scan gives a view that
    reads one recorded bit per probe.  A scan past the script's end gets no
    hits and no horizon, as a live scan that ledgered nothing had; other
    exhaustion raises ScriptExhausted.  A run entry at a pointwise call
    raises ScriptMismatch.
    """

    def __init__(self, script: Sequence):
        super().__init__(SCRIPTED, answer_fn=None, hit_set=None)
        self.script = tuple(script)
        self.cursor = 0

    def _next_answer(self) -> Tuple[str, Any]:
        """Consume the next pointwise answer: (oracle name, value)."""
        if self.cursor == len(self.script):
            raise ScriptExhausted("script exhausted")
        item = self.script[self.cursor]
        if isinstance(item, RunEntry):
            raise ScriptMismatch("pointwise call hit a recorded scan")
        self.cursor += 1
        if isinstance(item, SingleEntry):
            return item.oracle, item.response_value
        return SCRIPTED, item

    def scan(self, start, tick):
        if self.cursor == len(self.script):
            return SCRIPTED, FiniteOrdinalSet(())
        item = self.script[self.cursor]
        if not isinstance(item, RunEntry):
            oracle = item.oracle if isinstance(item, SingleEntry) else SCRIPTED
            return oracle, _PointwiseHits(self, tick)
        if item.from_query != start:
            raise ScriptMismatch(
                f"recorded scan starts at {render(item.from_query)}, not {render(start)}")
        self.cursor += 1
        if item.pattern == PATTERN_ORACLE_HITS:
            return item.oracle, item.hits
        if item.pattern == PATTERN_FINAL_ONE:
            return item.oracle, FiniteOrdinalSet((item.to_query,))
        return item.oracle, _NoHitsUpTo(item.to_query)

    def call(self, query, ledger, time):
        oracle, value = self._next_answer()
        if ledger is not None:
            ledger.append(SingleEntry(time=time, oracle=oracle,
                                      query=summarize_query(query),
                                      response=summarize_query(value),
                                      response_value=value))
        return value, ONE


class _NoHitsUpTo(FiniteOrdinalSet):
    """A recorded fruitless sweep: no hits up to the recorded endpoint."""

    def __init__(self, horizon: Ordinal):
        super().__init__(())
        self.horizon = horizon

    def scan_horizon(self):
        return self.horizon


class _PointwiseHits(OrdinalSet):
    """Hit-set view of a pointwise script.  Each ordinal a rank query
    probes, in increasing order, reads the next recorded bit and charges
    one event; bits already read are kept, so the view also serves as the
    recorded hits of the scan it fed."""

    def __init__(self, script: ScriptedEffectivizer, tick: Callable[[], None]):
        self.script = script
        self.tick = tick
        self.bits = {}

    def _hit(self, probe: Ordinal) -> bool:
        if probe not in self.bits:
            self.tick()
            self.bits[probe] = self.script._next_answer()[1]
        return self.bits[probe] == 1

    def least_above(self, a):
        probe = successor(_coerce(a))
        while not self._hit(probe):
            probe = successor(probe)
        return probe

    def greatest_at_most(self, a):
        a = _coerce(a)
        if not a.is_finite():
            raise ScriptExhausted("a pointwise script cannot feed a limit sweep")
        hits = [n for n in range(a.to_int() + 1) if self._hit(Ordinal.from_int(n))]
        return Ordinal.from_int(hits[-1]) if hits else None

    def next_limit_above(self, a):
        # finitely many recorded bits never show a limit: read on until the
        # script or the budget runs out
        while True:
            a = self.least_above(a)
