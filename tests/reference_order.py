"""Test-side reference for the ordinal order.

ordcalc compares ordinals by their order keys, in C.  terms_cmp is the
comparison it made before the keys: a recursive walk over the Cantor
normal forms, by exponent and then by coefficient, term by term, that
skips identical operands and exponents.  The order-key tests check
compare() and the comparison operators against it.
"""

from __future__ import annotations

from ordq.ordcalc import Ordinal


def terms_cmp(a: Ordinal, b: Ordinal) -> int:
    """Three-way comparison of two normal forms: -1, 0 or 1."""
    if a is b:
        return 0
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        if ea is not eb:
            c = terms_cmp(ea, eb)
            if c:
                return c
        if ca != cb:
            return -1 if ca < cb else 1
    la, lb = len(a.terms), len(b.terms)
    # the longer normal form continues with strictly smaller, positive terms
    return 0 if la == lb else (-1 if la < lb else 1)
