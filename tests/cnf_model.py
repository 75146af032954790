"""Independent normal-form model of ordinals below w^(w*3).

An ordinal is a tuple of terms ((p, q), c), exponents strictly decreasing,
standing for the Cantor normal form sum of w^(w*p+q)*c.  Exponents are
pairs ordered as w*p+q is, so Python's tuple order on a term list is the
ordinal order: the first differing term decides, by exponent and then by
coefficient, and a proper prefix is smaller.  The model imports nothing
from the package; tests bridge to it through ordinal text, which text()
writes in the package's canonical grammar.

The cardinal and limit-of-cardinals predicates below are read off the
definition of each structure kind, not off the package's closed forms, and
tests find card, next-card and next-limit answers by searching the sorted
enumeration universe().
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from typing import Optional, Tuple

Term = Tuple[Tuple[int, int], int]
CNF = Tuple[Term, ...]

ZERO: CNF = ()
OMEGA: CNF = (((0, 1), 1),)
BOUND_TEXT = "w^(w*3)"          # every model ordinal lies below it

MAX_P, MAX_Q, MAX_COEFFICIENT, MAX_TERMS = 2, 4, 3, 3


def exponents():
    """Every exponent w*p+q the model writes, ascending."""
    return sorted(itertools.product(range(MAX_P + 1), range(MAX_Q + 1)))


def universe():
    """Every normal form with at most MAX_TERMS terms, ascending."""
    descending = exponents()[::-1]
    out = []
    for k in range(MAX_TERMS + 1):
        for exps in itertools.combinations(descending, k):
            for cs in itertools.product(range(1, MAX_COEFFICIENT + 1), repeat=k):
                out.append(tuple(zip(exps, cs)))
    return sorted(out)


def is_finite(a: CNF) -> bool:
    return all(e == (0, 0) for e, _ in a)


def exponent_text(p: int, q: int) -> str:
    parts = ([] if p == 0 else ["w" if p == 1 else f"w*{p}"]) + ([str(q)] if q or not p else [])
    return "+".join(parts)


def text(a: CNF) -> str:
    """The ordinal's canonical text: w^(w+1)*2+w^3+w*2+5."""
    if not a:
        return "0"
    parts = []
    for (p, q), c in a:
        if (p, q) == (0, 0):
            parts.append(str(c))
            continue
        base = ("w" if q == 1 else f"w^{q}") if p == 0 else f"w^({exponent_text(p, q)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)


# -- the three structure kinds ---------------------------------------------------
#
# Every finite ordinal and w are cardinals of each kind.  Beyond w: the powers
# w^b, the ordinals with no finite part, or an explicit list.  A limit of
# cardinals is a point at which the cardinals below it have no maximum: w
# for each kind, the powers w^e with e a limit, and the nonzero ordinals
# whose exponents are all at least 2 (the multiples of w^2); a finite list
# adds none.


def powers_card(a: CNF) -> bool:
    return is_finite(a) or (len(a) == 1 and a[0][1] == 1)


def powers_limit(a: CNF) -> bool:
    return a == OMEGA or (len(a) == 1 and a[0][1] == 1 and a[0][0][0] > 0
                          and a[0][0][1] == 0)


def multiples_card(a: CNF) -> bool:
    return is_finite(a) or a[-1][0] != (0, 0)


def multiples_limit(a: CNF) -> bool:
    return a == OMEGA or (a != ZERO and all(e >= (0, 2) for e, _ in a))


def explicit_card(listed):
    return lambda a: is_finite(a) or a == OMEGA or a in listed


def explicit_limit(a: CNF) -> bool:
    return a == OMEGA


# -- searches over the sorted universe -----------------------------------------


def greatest_at_most(members, a: CNF) -> Optional[CNF]:
    i = bisect_right(members, a)
    return members[i - 1] if i else None


def least_above(members, a: CNF) -> Optional[CNF]:
    i = bisect_right(members, a)
    return members[i] if i < len(members) else None
