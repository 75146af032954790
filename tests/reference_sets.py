"""Test-side references over ranked ordinal sets and finite sets.

The flag scan (tam.ScanFlagToggleUntil) finds the stage where its whole
bank reads 0 in closed form, from least_above and next_limit_above.  The
lim-inf flag reference here evaluates the flag rule pointwise instead:
flag_value_after walks the toggles at or below a stage backwards through
sup_below and reads 0 at every limit of toggles.  sup_below answers for the
package's three ranked sets and for HitsBetween views of them; register it
for another class to feed that class to the reference.

bit_oracle is the scriptable bit oracle the machine tests scan: it answers
1 on the members of a declared hit set, and scans run over that set.

hf_powerset is the power set built from HFSet values, the reference that
universe.powerset_code is checked against, and reference_validate_code is
universe.validate_code read off its definition.
"""

from __future__ import annotations

from functools import singledispatch
from typing import Optional, Tuple

from ordq.oracles import (
    SCRIPTED,
    CardinalClassSet,
    Effectivizer,
    FiniteOrdinalSet,
    OmegaMultiplesSet,
)
from ordq.ordcalc import (
    OMEGA,
    ONE,
    Ordinal,
    OrdinalLike,
    _coerce,
    add,
    finite_part,
    leading_exponent,
    left_sub,
    limit_part,
    mul,
    omega_power,
    successor,
)
from ordq.universe import (
    EMPTY_SET,
    MULTIPLES_OF_OMEGA,
    OMEGA_POWERS,
    POWERSET_CAP,
    CardinalStructure,
    HFSet,
    PowersetCapError,
    SetCode,
)


# -- sup_below ---------------------------------------------------------------


@singledispatch
def sup_below(hits, a: OrdinalLike) -> Optional[Tuple[Ordinal, bool]]:
    """The supremum of the members strictly below a, plus an attained bit
    (True iff the members below a have a maximum, which is then the
    supremum); None when no member lies below a."""
    raise NotImplementedError(f"no sup_below for {type(hits).__name__}")


@sup_below.register(CardinalClassSet)
def _(hits, a):
    return sup_of_cardinals_below(hits.structure, a)


@sup_below.register(FiniteOrdinalSet)
def _(hits, a):
    a = _coerce(a)
    below = [m for m in hits.members if m < a]
    return (below[-1], True) if below else None


@sup_below.register(OmegaMultiplesSet)
def _(hits, a):
    a = _coerce(a)
    if a <= OMEGA:
        return None
    if a > hits.W2:
        return (hits.W2, False)
    if a == hits.W2:
        return (a, False)
    if finite_part(a) > 0:
        return (limit_part(a), True)
    # a is itself w*n: the greatest member below is w*(n-1)
    n = a.terms[0][1]
    return (omega_power(1, n - 1), True) if n > 1 else None


def sup_of_cardinals_below(structure: CardinalStructure,
                           a: OrdinalLike) -> Optional[Tuple[Ordinal, bool]]:
    """(sup of cardinals < a, attained?); None when a == 0 or a is past
    the bound.

    attained is False exactly when the cardinals are cofinal in a, in which
    case the supremum equals a itself.
    """
    a = _coerce(a)
    if a.is_zero() or a >= structure.bound:
        return None
    if a.is_finite():
        return (left_sub(ONE, a), True)
    if a == OMEGA:
        return (OMEGA, False)
    if structure.kind == OMEGA_POWERS:
        e = leading_exponent(a)
        if len(a.terms) == 1 and a.terms[0][1] == 1:
            if e.terms[-1][0]:          # the exponent is a limit
                return (a, False)
            predecessor_exponent = left_sub(ONE, e)
            if predecessor_exponent.is_zero():
                return (OMEGA, False)
            return (omega_power(predecessor_exponent), True)
        return (omega_power(e), True)
    if structure.kind == MULTIPLES_OF_OMEGA:
        if finite_part(a) > 0:
            return (limit_part(a), True)
        last_exponent = a.terms[-1][0]
        if last_exponent > ONE:
            return (a, False)
        head, c = Ordinal(a.terms[:-1]), a.terms[-1][1]
        if c >= 2:
            return (add(head, mul(OMEGA, c - 1)), True)
        if head.is_zero():
            return (OMEGA, False)
        return (head, True)
    members = [c for c in (OMEGA,) + structure.cardinals if c < a]
    return (max(members), True)


class HitsBetween:
    """The members of `hits` strictly above `low` and, when `high` is given,
    strictly below it."""

    def __init__(self, hits, low: OrdinalLike, high: Optional[OrdinalLike] = None):
        self.hits = hits
        self.low = _coerce(low)
        self.high = None if high is None else _coerce(high)


@sup_below.register(HitsBetween)
def _(view, a):
    a = _coerce(a)
    if view.high is not None and a > view.high:
        a = view.high
    # dropping the members at most low leaves the supremum and whether it
    # is attained as they were, unless nothing is left
    got = sup_below(view.hits, a)
    return got if got is not None and got[0] > view.low else None


def bit_oracle(hit_set) -> Effectivizer:
    """A ranked oracle whose pointwise answer is 1 exactly on hit_set."""
    return Effectivizer(SCRIPTED, lambda q: int(hit_set.contains(q)), hit_set=hit_set)


# -- the flag rule -----------------------------------------------------------


def flag_value_after(initial: int, toggles, position: OrdinalLike) -> int:
    """Flag value right after stage `position`, toggling at every member of
    `toggles` at or below it, with the lim-inf rule at limits of toggles.

    Walking the toggles at or below the position backwards must reach, in
    finitely many steps (strict descent), either the bottom (no earlier
    toggle: apply parity to the initial bit) or a limit of toggles (where
    the value is 0 regardless of history: both states recur below it).
    """
    state = sup_below(toggles, successor(_coerce(position)))
    if state is None:
        return initial
    current, attained = state
    if not attained:
        return 0
    parity = 0
    while True:
        parity ^= 1
        earlier = sup_below(toggles, current)
        if earlier is None:
            return initial ^ parity
        current, attained = earlier
        if not attained:
            return 0 ^ parity


# -- hereditarily finite sets ------------------------------------------------


def hf_powerset(s: HFSet) -> HFSet:
    if len(s) > POWERSET_CAP:
        raise PowersetCapError(f"powerset argument exceeds the size cap of {POWERSET_CAP}")
    subsets = [EMPTY_SET]
    for e in s:
        subsets += [HFSet(sub | {e}) for sub in subsets]
    return HFSet(subsets)


def reference_validate_code(code: SetCode) -> int:
    """validate_code on the code's child map, by its definition: the root
    and every node an edge touches lie in the domain; every touched node is
    in the root's transitive closure; peeling off, round by round, the
    closure's nodes whose members are all peeled peels the whole closure
    (there is no cycle); and no two nodes of the closure have the same
    members."""
    members = code._children
    touched = set(members).union(*members.values())
    if not all(0 <= n < code.domain for n in touched | {code.root}):
        return 0
    closure = frontier = {code.root}
    while frontier:
        frontier = {x for y in frontier for x in members.get(y, ())} - closure
        closure = closure | frontier
    if not touched <= closure:
        return 0
    peeled = set()
    ready = {n for n in closure if n not in members}
    while ready:
        peeled |= ready
        ready = {n for n in closure - peeled if peeled.issuperset(members[n])}
    if peeled != closure:
        return 0
    return int(len({frozenset(members.get(n, ())) for n in closure}) == len(closure))
