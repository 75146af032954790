"""Oracles, ranked ordinal sets, query ledgers and response scripts.

An Effectivizer is a deterministic oracle: a name plus an answer function.
Oracles whose queries are ordinals and whose answers are bits additionally
expose their hit set through the OrdinalSet contract below, which is what
lets the machine evaluate transfinite scans in closed form: a scan is one
effectivizer call, scan(), which answers the one rank query the scan
statement asks of the hit set, with the hit set's horizon.  Those rank
queries are interpreter machinery and are never ledgered; the ledger records
the order type of the pointwise calls they stand for.

A QueryLedger mixes two entry shapes.  Single entries log one call.  Run
entries compress a whole scan: the window of queries it swept, the order
type of that window (which is what the ledger totals), and a response
pattern.  Two patterns cover hit-terminated scans ("all-0",
"all-0-then-final-1"); scans that sweep across many positive answers, such
as a last-hit search, use the pattern "oracle-hits", whose pointwise
responses are the oracle's hit set restricted to the window.  Run entries
also keep the scan's exit, the ordinal where it stopped, so that a
recorded run can be replayed exactly; the JSON does not show it.

Entries carry no time: each call happens at the stage equal to the order
type of the calls before it, so the ledger's order is its only record of
time.  A ledger keeps its total order type as a running sum, one addition
per append, and total_order_type() reads it, re-summing nothing.

Single entries hold the raw query and answer values, and their text is
made only when the ledger is written as JSON.  Two runs agree when their
entries agree value by value (see entries_agree): a replay decodes from the
same code objects, so most of its values are the live run's own, and a
set code compares whole, edges included, which its JSON text does not
show.

ScriptedEffectivizer replaces an oracle with recorded responses.  Its
script is a previous run's ledger.  A single entry answers one pointwise
call with its recorded answer under its oracle name, and a run entry
answers a scan with its recorded exit and end, the scan's horizon: a
replayed scan costs the machine the same events as the live one, none per
probe, and asks no oracle or structure.
"""

from __future__ import annotations

import functools
import sys
from typing import Any, Callable, List, NamedTuple, Optional, Tuple, Union

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
    limit_part,
    omega_power,
    render,
)
from . import universe as _u
from .universe import CardinalStructure, OutOfStructureError

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

    def scan_horizon(self):
        return self.W2


# -- query ledger ------------------------------------------------------------


@same_class_eq
class SingleEntry(NamedTuple):
    """One pointwise call: the oracle's name and the raw query and answer
    values; to_json renders them with summarize_query."""

    oracle: str
    query: Any
    response: Any

    def length(self) -> Ordinal:
        return ONE

    def to_json(self) -> dict:
        query = summarize_query(self.query)
        return {"kind": "single", "oracle": self.oracle, "from": query,
                "to": query, "order_type": "1",
                "response": summarize_query(self.response)}


@same_class_eq
class RunEntry(NamedTuple):
    oracle: str
    from_query: Ordinal
    to_query: Ordinal
    order_type: Ordinal
    pattern: str
    exit: Optional[Ordinal] = None     # where the scan stopped; None if nowhere

    def length(self) -> Ordinal:
        return self.order_type

    def to_json(self) -> dict:
        return {"kind": "run", "oracle": self.oracle,
                "from": render(self.from_query), "to": render(self.to_query),
                "order_type": render(self.order_type), "response": self.pattern}


LedgerEntry = Union[SingleEntry, RunEntry]


class QueryLedger:
    """Single-writer sequence of call records; its total order type is a
    running sum (see the module docstring)."""

    def __init__(self):
        self.entries: List[LedgerEntry] = []
        self._total: Ordinal = ZERO

    def append(self, entry: LedgerEntry):
        length = entry.length()
        # a hit-terminated window [from, to) must hold a position; an
        # oracle-hits entry may be charged 0 (a declared last-hit scan up to
        # 0), and is kept, as replay reads its exit
        if not length and entry.pattern != PATTERN_ORACLE_HITS:
            raise ValueError("run intervals must be nonempty")
        self._total = add(self._total, length)
        self.entries.append(entry)

    def total_order_type(self) -> Ordinal:
        return self._total

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
    """The ledger and report text of a value: an ordinal, or an int that is
    not negative, as an ordinal; tuples and lists item by item; anything
    else as its str(), which a set code and a set give as their ledger text
    (see ordq.hfsets), so this loads no set code."""
    if isinstance(q, Ordinal):
        return render(q)
    if isinstance(q, int) and not isinstance(q, bool) and q >= 0:
        return render(Ordinal.from_int(q))
    if isinstance(q, tuple):
        return "(" + ",".join(map(summarize_query, q)) + ")"
    if isinstance(q, list):
        return "[" + ",".join(map(summarize_query, q)) + "]"
    return str(q)


# types whose equal values have equal summarize_query text; HFSet and
# SetCode join the first time same_value meets them, since an ordinal run
# loads no set code
_BY_VALUE = {Ordinal, int, bool, str, type(None)}


def same_value(a: Any, b: Any) -> bool:
    """Whether two ledgered values agree: the same object, or equal values
    of one type whose equal values render alike, tuples member by member.
    Other values, and values of two types (such as 5 and the Ordinal 5),
    agree when their summarize_query text does.  So two values whose text
    differs never agree, and two set codes agree only when equal as codes,
    edges included."""
    if a is b:
        return True
    kind = type(a)
    if kind is type(b):
        if kind is tuple:
            return len(a) == len(b) and all(map(same_value, a, b))
        if kind in _BY_VALUE:
            return a == b
        h = _module("hfsets")
        if kind is h.SetCode or kind is h.HFSet:
            _BY_VALUE.add(kind)
            return a == b
    return summarize_query(a) == summarize_query(b)


def entries_agree(a: LedgerEntry, b: LedgerEntry) -> bool:
    """Whether two ledger entries agree.  A run entry's fields are ordinals
    and text, whose equal values render alike, so run entries compare whole,
    exit included; single entries by oracle, and query and response by
    same_value."""
    if type(a) is RunEntry:
        return a == b
    return (type(b) is SingleEntry and a.oracle == b.oracle
            and same_value(a.query, b.query) and same_value(a.response, b.response))


class Effectivizer:
    """A named deterministic oracle; ranked ones carry their hit set."""

    def __init__(self, name: str, answer_fn: Callable[[Any], Any],
                 hit_set: Optional[OrdinalSet] = None):
        self.name = name
        self._answer = answer_fn
        self.hit_set = hit_set

    def call(self, query: Any, ledger: Optional[QueryLedger] = None) -> Any:
        """Answer one pointwise call, appended to the ledger when one is
        given."""
        value = self._answer(query)
        if ledger is not None:
            ledger.append(SingleEntry(self.name, query, value))
        return value

    def scan(self, start: Ordinal, query: str,
             point: Ordinal) -> Tuple[str, Optional[Ordinal], Optional[Ordinal]]:
        """One scan from `start`: the oracle name its ledger run carries, its
        exit (what the hit set's rank query `query` answers at `point`) and
        the hit set's horizon."""
        hits = self.hit_set
        if hits is None:
            raise NotRankedError(f"{self.name} does not expose a hit set")
        return self.name, getattr(hits, query)(point), hits.scan_horizon()


def _require(condition: bool, message: str):
    if not condition:
        raise OracleTypeError(message)


# pointwise cardinal oracle -> the universe query it answers with, looked
# up when the oracle is made, so that a patched query is the one it calls
_CARD_QUERIES = {DEC_CARD: "is_cardinal", NEXT_CARD: "next_card_of", ORD_CARD: "card_of"}


def make_effectivizer(name: str, structure: CardinalStructure = None,
                      level: int = None, rank: int = None) -> Effectivizer:
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
    if name in (POT, POWER_CARD):
        _require(structure is None and level is None, f"{name} takes no environment")
        h = _module("hfsets")
        if name == POT:
            return Effectivizer(POT, lambda q: h.powerset_code(_expect_code(q)))
        return Effectivizer(POWER_CARD,
                            lambda q: Ordinal.from_int(
                                2 ** len(h._capped_elements(_expect_code(q)))))
    if name in (TRUTH, SEP):
        _require(level is not None and rank is not None, f"{name} needs a level and a rank")
        logic = _module("logic")
        answer_fn = logic._truth_fn if name == TRUTH else logic._sep_fn
        return Effectivizer(f"{name}{level}", answer_fn(level, rank))
    raise OracleTypeError(f"unknown effectivizer name {name!r}")


def _expect_ordinal(q) -> Ordinal:
    if isinstance(q, (Ordinal, int)) and not isinstance(q, bool):
        return _coerce(q)
    raise OracleTypeError(f"expected an ordinal query, got {summarize_query(q)}")


def _expect_code(q):
    if isinstance(q, _module("hfsets").SetCode):
        return q
    raise OracleTypeError(f"expected a set code query, got {summarize_query(q)}")


@functools.cache
def _module(name: str):
    """ordq.hfsets or ordq.logic, loaded on first use by the package's
    __getattr__: only set-typed entries, separation and set literals need
    them.  A cached module beats an import statement on these per-instance
    paths."""
    return getattr(sys.modules[__package__], name)


# -- scripted oracles and replay ---------------------------------------------


class ScriptedEffectivizer(Effectivizer):
    """Answers from a recorded ledger instead of computing.

    Pointwise calls consume single entries in order.  A scan consumes a run
    entry, which must start at the scan's window start, and gets its
    recorded exit, with the recorded end of its window as horizon; replay
    runs the same scan code as a live run.  A scan whose next item is not a
    run entry, or that is past the script's end, gets no exit and no
    horizon and consumes nothing, as a live scan that ledgered nothing had;
    a pointwise call past the end raises ScriptExhausted, and one at a run
    entry raises ScriptMismatch.
    """

    def __init__(self, ledger: QueryLedger):
        super().__init__(SCRIPTED, answer_fn=None, hit_set=None)
        self.script = ledger.entries
        self.cursor = 0

    def call(self, query, ledger=None):
        """Consume the next single entry, whatever the query, and answer its
        recorded response under its oracle name."""
        if self.cursor == len(self.script):
            raise ScriptExhausted("script exhausted")
        item = self.script[self.cursor]
        if isinstance(item, RunEntry):
            raise ScriptMismatch("pointwise call hit a recorded scan")
        self.cursor += 1
        if ledger is not None:
            ledger.append(SingleEntry(item.oracle, query, item.response))
        return item.response

    def scan(self, start, query, point):
        item = self.script[self.cursor] if self.cursor < len(self.script) else None
        if not isinstance(item, RunEntry):
            return SCRIPTED, None, None
        if item.from_query != start:
            raise ScriptMismatch(
                f"recorded scan starts at {render(item.from_query)}, not {render(start)}")
        self.cursor += 1
        return item.oracle, item.exit, item.to_query
