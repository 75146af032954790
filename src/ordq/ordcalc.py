"""Exact ordinal arithmetic below epsilon_0 in Cantor normal form.

An ordinal is kept as a tuple of (exponent, coefficient) terms with strictly
decreasing exponents, the exponents being ordinals themselves.  The empty
tuple is 0 and a single term with exponent 0 is a natural number.  Every
value the notation can write is strictly below epsilon_0, and the class of
ordinals below epsilon_0 is closed under addition, multiplication and
exponentiation, so arithmetic here is total.

Concrete syntax (canonical form):

    ordinal := "0" | term ("+" term)*
    term    := nat | "w" | "w*" nat | "w^" factor | "w^" factor "*" nat
    factor  := nat | "w" | "(" ordinal ")"

with terms in strictly decreasing exponent order, coefficients >= 1,
coefficient 1 left implicit, finite exponents >= 2 written as bare naturals
and every other exponent parenthesized.  Examples: "w^2*3+w+4", "w^(w)+5".

render() inverts parse_ordinal() exactly on canonical strings.
"""

from __future__ import annotations

from typing import Tuple, Union


class OrdinalParseError(ValueError):
    """Raised on malformed ordinal syntax; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class OrdinalDomainError(ValueError):
    """Raised when an operation is applied outside its domain."""


TermTuple = Tuple[Tuple["Ordinal", int], ...]


class Ordinal:
    """Immutable ordinal below epsilon_0.

    Supports +, *, ** and the comparison operators.  Plain ints coerce on
    either side.  Construction goes through from_int / omega_power / the
    module functions; terms are assumed normalized.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: TermTuple = ()):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", hash(terms))

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise OrdinalDomainError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return Ordinal(((ZERO, n),))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def to_int(self) -> int:
        if self.is_zero():
            return 0
        if not self.is_finite():
            raise OrdinalDomainError(f"{self} is not finite")
        return self.terms[0][1]

    # -- operators ---------------------------------------------------------

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        other = _coerce_opt(other)
        return other is not None and self.terms == other.terms

    def __ne__(self, other):
        return not self.__eq__(other)

    def __lt__(self, other):
        return compare(self, _coerce(other)) < 0

    def __le__(self, other):
        return compare(self, _coerce(other)) <= 0

    def __gt__(self, other):
        return compare(self, _coerce(other)) > 0

    def __ge__(self, other):
        return compare(self, _coerce(other)) >= 0

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __pow__(self, other):
        return opow(self, _coerce(other))

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"Ordinal({render(self)!r})"

    def __bool__(self):
        return bool(self.terms)


OrdinalLike = Union[Ordinal, int]

ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def _coerce(value: OrdinalLike) -> Ordinal:
    if isinstance(value, Ordinal):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Ordinal.from_int(value)
    raise TypeError(f"cannot interpret {value!r} as an ordinal")


def _coerce_opt(value):
    try:
        return _coerce(value)
    except TypeError:
        return None


def omega_power(exponent: OrdinalLike, coefficient: int = 1) -> Ordinal:
    """w^exponent * coefficient as a single-term ordinal."""
    exponent = _coerce(exponent)
    if coefficient < 0:
        raise OrdinalDomainError("coefficient must be >= 0")
    if coefficient == 0:
        return ZERO
    return Ordinal(((exponent, coefficient),))


# -- comparison ------------------------------------------------------------


def compare(a: OrdinalLike, b: OrdinalLike) -> int:
    """Three-way comparison: -1, 0 or 1."""
    a, b = _coerce(a), _coerce(b)
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) == len(b.terms):
        return 0
    # the longer normal form continues with strictly smaller, positive terms
    return -1 if len(a.terms) < len(b.terms) else 1


# -- arithmetic ------------------------------------------------------------


def add(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """Ordinal sum a + b (not commutative)."""
    a, b = _coerce(a), _coerce(b)
    if not b.terms:
        return a
    e0, c0 = b.terms[0]
    keep = []
    for e, c in a.terms:
        cmp = compare(e, e0)
        if cmp > 0:
            keep.append((e, c))
        else:
            if cmp == 0:
                c0 = c + c0
            break
    return Ordinal(tuple(keep) + ((e0, c0),) + b.terms[1:])


def mul(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """Ordinal product a * b (left-distributive over +, not commutative)."""
    a, b = _coerce(a), _coerce(b)
    if not a.terms or not b.terms:
        return ZERO
    e1, c1 = a.terms[0]
    out = []
    for f, d in b.terms:
        if f.is_zero():
            # finite factor scales the leading coefficient, tail survives
            out.append((e1, c1 * d))
            out.extend(a.terms[1:])
        else:
            out.append((add(e1, f), d))
    return Ordinal(tuple(out))


def opow(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """Ordinal exponentiation a ** b."""
    a, b = _coerce(a), _coerce(b)
    if not b.terms:
        return ONE
    if not a.terms:
        return ZERO
    if a == ONE:
        return ONE
    limit_terms = tuple(t for t in b.terms if not t[0].is_zero())
    fin = finite_part(b)
    if a.is_finite():
        n = a.to_int()
        if not limit_terms:
            return Ordinal.from_int(n ** fin)
        # n^(w^e * c) = w^(w^(-1+e) * c) for finite n >= 2
        shifted = tuple((left_sub(ONE, e) if e.is_finite() else e, c) for e, c in limit_terms)
        return omega_power(Ordinal(shifted), n ** fin)
    head = ONE
    if limit_terms:
        head = omega_power(mul(a.terms[0][0], Ordinal(limit_terms)))
    return mul(head, _pow_finite(a, fin))


def _pow_finite(a: Ordinal, n: int) -> Ordinal:
    result = ONE
    base = a
    while n:
        if n & 1:
            result = mul(result, base)
        base2 = mul(base, base) if n > 1 else base
        base = base2
        n >>= 1
    return result


def left_sub(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """The unique g with a + g = b, defined for a <= b.

    This is the order type of the segment b minus an initial copy of a;
    it measures intervals such as the span of a scan from a up to b.
    """
    a, b = _coerce(a), _coerce(b)
    i = 0
    while i < len(a.terms) and i < len(b.terms) and a.terms[i] == b.terms[i]:
        i += 1
    if i == len(a.terms):
        return Ordinal(b.terms[i:])
    if i == len(b.terms):
        raise OrdinalDomainError(f"left_sub needs a <= b, got {a} > {b}")
    (ea, ca), (eb, cb) = a.terms[i], b.terms[i]
    cmp = compare(ea, eb)
    if cmp < 0:
        return Ordinal(b.terms[i:])
    if cmp > 0 or ca > cb:
        raise OrdinalDomainError(f"left_sub needs a <= b, got {a} > {b}")
    return Ordinal(((eb, cb - ca),) + b.terms[i + 1:])


# -- classification --------------------------------------------------------


def classify(a: OrdinalLike) -> str:
    """One of 'zero', 'successor', 'limit'."""
    a = _coerce(a)
    if not a.terms:
        return "zero"
    return "successor" if a.terms[-1][0].is_zero() else "limit"


def successor(a: OrdinalLike) -> Ordinal:
    return add(a, ONE)


def leading_exponent(a: OrdinalLike) -> Ordinal:
    a = _coerce(a)
    if not a.terms:
        raise OrdinalDomainError("0 has no leading exponent")
    return a.terms[0][0]


def finite_part(a: OrdinalLike) -> int:
    a = _coerce(a)
    if a.terms and a.terms[-1][0].is_zero():
        return a.terms[-1][1]
    return 0


def limit_part(a: OrdinalLike) -> Ordinal:
    """a with its finite tail removed; the largest limit-or-zero <= a."""
    a = _coerce(a)
    if a.terms and a.terms[-1][0].is_zero():
        return Ordinal(a.terms[:-1])
    return a


# -- concrete syntax -------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise OrdinalParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a number")
        digits = self.text[start:self.pos]
        if digits[0] == "0" and len(digits) > 1:
            self.error("numbers may not start with 0")
        return int(digits)

    def ordinal(self) -> Ordinal:
        if self.peek() == "0":
            self.pos += 1
            if self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.error("numbers may not start with 0")
            return ZERO
        terms = [self.term()]
        while self.eat("+"):
            terms.append(self.term())
        for i in range(1, len(terms)):
            if compare(terms[i][0], terms[i - 1][0]) >= 0:
                self.error("term exponents must strictly decrease")
        return Ordinal(tuple(terms))

    def term(self) -> Tuple[Ordinal, int]:
        if self.peek() == "w":
            self.pos += 1
            exponent = ONE
            if self.eat("^"):
                exponent = self.factor()
            coefficient = 1
            if self.eat("*"):
                coefficient = self.nat()
                if coefficient == 0:
                    self.error("coefficient must be >= 1")
            return (exponent, coefficient)
        if self.peek().isdigit():
            n = self.nat()
            if n == 0:
                self.error("0 is not a term")
            return (ZERO, n)
        self.error("expected a term")

    def factor(self) -> Ordinal:
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            return OMEGA
        if ch == "(":
            self.pos += 1
            inner = self.ordinal()
            if not self.eat(")"):
                self.error("expected ')'")
            return inner
        if ch.isdigit():
            n = self.nat()
            if n == 0:
                self.error("exponent 0 is not written explicitly")
            return Ordinal.from_int(n)
        self.error("expected an exponent")


def parse_ordinal(text: str) -> Ordinal:
    """Parse the concrete ordinal syntax; rejects non-canonical term order."""
    parser = _Parser(text)
    value = parser.ordinal()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input")
    return value


def render(a: OrdinalLike) -> str:
    """Canonical string form; parse_ordinal(render(a)) == a."""
    a = _coerce(a)
    if not a.terms:
        return "0"
    parts = []
    for e, c in a.terms:
        if e.is_zero():
            parts.append(str(c))
            continue
        if e == ONE:
            base = "w"
        elif e.is_finite():
            base = f"w^{e.to_int()}"
        else:
            base = f"w^({render(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)
