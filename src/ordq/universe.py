"""Toy cardinal structures.

A CardinalStructure fixes which ordinals below a working bound count as
"cardinals": every finite ordinal and w always do, and the infinite class
is one of three kinds:

  omega-powers        infinite cardinals are exactly w^b for b >= 1
  multiples-of-omega  infinite cardinals are the nonzero multiples of w
  explicit-list       a finite strictly increasing list, plus w

Each kind is closed under suprema of increasing sequences below the bound,
so "greatest cardinal at most a" and friends are total where they promise
to be.  All queries are answered in closed form on the normal form of the
argument; nothing is enumerated.

The four cardinal queries (is_cardinal, card_of, next_card_of,
next_limit_of_cardinals_above) answer None for "no such point": for an
argument at or past the working bound, and when the point they look for
does not exist below it.  This module is the one place that decides it
(_within_bound wraps each query for the first case), and callers pass None
on rather than catch an error.

The hereditarily finite sets and their membership codes live in
ordq.hfsets, which only set-typed entries, separation and set literals
load.  This module still answers their public names (one __getattr__ over
_HFSETS, which loads ordq.hfsets on first use), so that
``from ordq.universe import encode_hf`` and pickles that name
ordq.universe.SetCode keep working.
"""

from __future__ import annotations

from functools import wraps
from typing import Iterable, Optional, Tuple

from ._record import Record, _set
from .ordcalc import (
    OMEGA,
    InputError,
    Ordinal,
    OrdinalLike,
    _coerce,
    _echo,
    add,
    finite_part,
    leading_exponent,
    limit_part,
    omega_power,
)

OMEGA_POWERS = "omega-powers"
MULTIPLES_OF_OMEGA = "multiples-of-omega"
EXPLICIT_LIST = "explicit-list"

KINDS = (OMEGA_POWERS, MULTIPLES_OF_OMEGA, EXPLICIT_LIST)


class OutOfStructureError(InputError):
    """A pointwise cardinal oracle was asked about an ordinal that is not
    below the structure's working bound."""


class CardinalStructure(Record):
    """A kind tag, a working bound, and (for explicit-list) the list."""

    __slots__ = _fields = ("kind", "bound", "cardinals")

    def __init__(self, kind: str, bound: Ordinal, cardinals: Tuple[Ordinal, ...] = ()):
        if kind not in KINDS:
            raise InputError(f"unknown structure kind {_echo(str(kind))}; pick one of {', '.join(KINDS)}")
        if bound <= OMEGA:
            raise InputError("the working bound must exceed w")
        _set(self, "kind", kind)
        _set(self, "bound", bound)
        _set(self, "cardinals", cardinals)


def omega_powers(bound: OrdinalLike) -> CardinalStructure:
    return CardinalStructure(OMEGA_POWERS, _coerce(bound))


def multiples_of_omega(bound: OrdinalLike) -> CardinalStructure:
    return CardinalStructure(MULTIPLES_OF_OMEGA, _coerce(bound))


def explicit_list(cardinals: Iterable[OrdinalLike], bound: OrdinalLike) -> CardinalStructure:
    """Build an explicit-list structure, completing the class with w.

    Increasing sequences drawn from a finite class are eventually constant,
    so the only supremum the completion can add is w itself (from the finite
    cardinals); it is inserted here.
    """
    bound = _coerce(bound)
    values = sorted({_coerce(c) for c in cardinals} | {OMEGA})
    for v in values:
        if v.is_finite():
            raise InputError(f"explicit cardinal {v} must be infinite")
        if v >= bound:
            raise InputError(f"explicit cardinal {v} must lie below the bound {bound}")
    return CardinalStructure(EXPLICIT_LIST, bound, tuple(values))


def _within_bound(query):
    """Wrap a cardinal query so that it takes its argument as an Ordinal
    and answers None for one at or past the structure's bound."""

    @wraps(query)
    def within_bound(structure: CardinalStructure, a: OrdinalLike):
        a = _coerce(a)
        return None if a >= structure.bound else query(structure, a)

    return within_bound


@_within_bound
def is_cardinal(structure: CardinalStructure, a: Ordinal) -> Optional[int]:
    """1 if a is a cardinal of the structure, else 0; None past the bound."""
    if a.is_finite() or a == OMEGA:
        return 1
    if structure.kind == OMEGA_POWERS:
        return int(len(a.terms) == 1 and a.terms[0][1] == 1)
    if structure.kind == MULTIPLES_OF_OMEGA:
        return int(finite_part(a) == 0)
    return int(a in structure.cardinals)


@_within_bound
def card_of(structure: CardinalStructure, a: Ordinal) -> Optional[Ordinal]:
    """The greatest cardinal <= a (total below the bound: finite ordinals
    are cardinals); None past the bound."""
    if a.is_finite():
        return a
    if structure.kind == OMEGA_POWERS:
        return omega_power(leading_exponent(a))
    if structure.kind == MULTIPLES_OF_OMEGA:
        return limit_part(a)
    below = [c for c in structure.cardinals if c <= a]
    return below[-1] if below else OMEGA


@_within_bound
def next_card_of(structure: CardinalStructure, a: Ordinal) -> Optional[Ordinal]:
    """The least cardinal > a; None if there is none below the bound."""
    if a.is_finite():
        result = add(a, 1)
    elif structure.kind == OMEGA_POWERS:
        result = omega_power(add(leading_exponent(a), 1))
    elif structure.kind == MULTIPLES_OF_OMEGA:
        result = add(limit_part(a), OMEGA)
    else:
        # the bound stands in for "no listed cardinal above a"
        result = next((c for c in structure.cardinals if c > a), structure.bound)
    return result if result < structure.bound else None


@_within_bound
def next_limit_of_cardinals_above(structure: CardinalStructure,
                                  a: Ordinal) -> Optional[Ordinal]:
    """The least ordinal > a in which the cardinals are cofinal; None if
    there is none below the bound.

    w qualifies for every structure (the finite cardinals pile up under it).
    Beyond w the answer depends on the kind: limits of omega powers are the
    powers with limit exponent, limits of multiples of w are the nonzero
    multiples of w^2, and a finite explicit list has no limit points at all.
    """
    if a < OMEGA:
        result = OMEGA
    elif structure.kind == OMEGA_POWERS:
        # e + w is the least limit above a's leading exponent e: the sum
        # absorbs e's finite tail
        result = omega_power(add(leading_exponent(a), OMEGA))
    elif structure.kind == MULTIPLES_OF_OMEGA:
        high = Ordinal(tuple(t for t in a.terms if t[0] >= 2))
        result = add(high, omega_power(2))
    else:
        return None
    return result if result < structure.bound else None


# the public names of ordq.hfsets, answered here on first use
_HFSETS = (
    "EMPTY_SET", "HFSet", "InvalidCodeError", "NESTING_CAP", "POWERSET_CAP",
    "PowersetCapError", "SetCode", "cantor_pair", "cantor_unpair", "code_elements",
    "decode_element", "decode_set", "encode_hf", "hf", "hf_product", "kuratowski",
    "parse_hf", "powerset_code", "render_hf", "transitive_closure", "validate_code",
)


def __getattr__(name):
    if name in _HFSETS:
        from . import hfsets
        return getattr(hfsets, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
