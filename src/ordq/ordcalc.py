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

evaluate() reads calc's infix arithmetic over the same tokens, computing
each value as it is read; its naturals may have leading zeros:

    expr    := product ("+" product)*
    product := power ("*" power)*
    power   := operand ("^" power)?
    operand := nat | "w" | "(" expr ")" | "leftsub(" expr "," expr ")"

_Scanner is the lexer of these grammars, of hfsets.parse_hf and of
logic.parse_formula: whitespace between tokens, ASCII digits only, at most
_DIGITS_CAP per natural, identifiers, errors that name their position and
the one nesting guard.  The grammars recurse, so a text nests at most
NESTING_CAP levels: one per open bracket, '^' or '!', and per '&' or '|'
of a formula chain, which deepens the formula's tree.

Values are hash-consed: Ordinal(terms) returns the value the module intern
table holds for an equal term tuple, if any.  Each value keeps its rendered
text, filled on the first render(), and a precomputed finiteness flag.

Each value also keeps an order key, built with it from its exponents' keys:
the flat tuple (key(e1), c1, key(e2), c2, ...), and () for 0.  Python's
tuple order on keys is the CNF order: the first term in which two normal
forms differ decides, by its exponent and then by its coefficient, and a
normal form that continues where the other ends is the larger.  So equality,
compare() and the comparison operators run in C, with no Python frame per
nesting level, and skip exponents whose keys are the same object.  The hash
stays hash(terms), so set and dict orders, and the bytes of reports and
ledgers, do not depend on the key or the table.

The table is a plain dict of at most _INTERN_CAP (1,024) values, emptied when
full; 0, 1 and w are put back after each clear.  It is not weak, because a
weakref and a removal callback for every short-lived value nearly doubled the
time of arithmetic-heavy loops, and it is capped, because an unbounded table
keeps every value and its text alive, naturals thousands of digits long
included.  After a clear an equal value can exist twice, so identity is only
a fast path and equality falls back to the hash and the order key.

opow refuses a finite power whose result would be a natural of more than
_NAT_BITS_CAP bits or have more than _POW_TERM_CAP terms, and mul a product
whose coefficient would pass _NAT_BITS_CAP bits, before building it.  The
scanner refuses natural literals of more than _DIGITS_CAP digits.  Together
these keep every natural far enough below the interpreter's int/str
conversion limit (4,300 digits) that its text can be rendered.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union


class InputError(ValueError):
    """Bad input: the base of the library's input errors in every layer,
    which the command line reports with exit code 2."""


class OrdinalParseError(InputError):
    """Raised on malformed ordinal syntax; carries the offending position."""


class OrdinalDomainError(InputError):
    """Raised when an operation is applied outside its domain."""


TermTuple = Tuple[Tuple["Ordinal", int], ...]

# The intern table (see the module docstring): hash(terms) -> value.
_INTERN_CAP = 1024
_interned: Dict[int, "Ordinal"] = {}

# Bounds on finite powers and products, checked before the result is built.
_NAT_BITS_CAP = 8192
_POW_TERM_CAP = 1024
# Longest natural literal, in digits; sums of such literals stay below the
# interpreter's default int/str conversion limit of 4,300 digits.
_DIGITS_CAP = 4000
# The digits of every text format: ASCII only, whatever str.isdigit says.
_DIGITS = frozenset("0123456789")
# Deepest nesting of a text; a level costs a grammar at most four frames, so
# a read at the cap stays well inside the default recursion limit of 1,000.
NESTING_CAP = 200


class Ordinal:
    """Immutable ordinal below epsilon_0.

    Supports +, *, ** and the comparison operators.  Plain ints coerce on
    either side.  Construction goes through from_int / omega_power / the
    module functions; terms are assumed normalized.  Equal terms give the
    same object while the intern table holds it.
    """

    __slots__ = ("terms", "_key", "_hash", "_text", "_finite")

    def __new__(cls, terms: TermTuple = ()):
        h = hash(terms)
        self = _interned.get(h)
        if self is not None and self.terms == terms:
            return self
        if len(_interned) >= _INTERN_CAP:
            _interned.clear()
            _interned.update(_PINNED)
        self = object.__new__(cls)
        key = ()
        for e, c in terms:
            key += (e._key, c)
        _set_terms(self, terms)
        _set_key(self, key)
        _set_hash(self, h)
        _set_text(self, None)               # filled by the first render()
        _set_finite(self, not terms or (len(terms) == 1 and not terms[0][0].terms))
        _interned[h] = self
        return self

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

    def is_finite(self) -> bool:
        return self._finite

    def to_int(self) -> int:
        if not self._finite:
            raise OrdinalDomainError(f"{self} is not finite")
        return self.terms[0][1] if self.terms else 0

    # -- operators ---------------------------------------------------------

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Ordinal:
            other = _coerce_opt(other)
            if other is None:
                return False
        return self._hash == other._hash and self._key == other._key

    def __lt__(self, other):
        if type(other) is not Ordinal:
            other = _coerce(other)
        return self._key < other._key

    def __le__(self, other):
        if type(other) is not Ordinal:
            other = _coerce(other)
        return self._key <= other._key

    def __gt__(self, other):
        if type(other) is not Ordinal:
            other = _coerce(other)
        return self._key > other._key

    def __ge__(self, other):
        if type(other) is not Ordinal:
            other = _coerce(other)
        return self._key >= other._key

    def __add__(self, other):
        return _add(self, _coerce(other))

    def __radd__(self, other):
        return _add(_coerce(other), self)

    def __mul__(self, other):
        return _mul(self, _coerce(other))

    def __rmul__(self, other):
        return _mul(_coerce(other), self)

    def __pow__(self, other):
        return _pow(self, _coerce(other))

    def __rpow__(self, other):
        return _pow(_coerce(other), self)

    def __reduce__(self):
        # rebuilt from its terms, through the intern table
        return Ordinal, (self.terms,)

    def __copy__(self, memo=None):
        # an immutable ordinal is its own copy, deep or not
        return self

    __deepcopy__ = __copy__

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"Ordinal({render(self)!r})"

    def __bool__(self):
        return bool(self.terms)


# The slots' own setters: the class's __setattr__ refuses every write.
_set_terms = Ordinal.terms.__set__
_set_key = Ordinal._key.__set__
_set_hash = Ordinal._hash.__set__
_set_text = Ordinal._text.__set__
_set_finite = Ordinal._finite.__set__

OrdinalLike = Union[Ordinal, int]

ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))
_PINNED = {o._hash: o for o in (ZERO, ONE, OMEGA)}


def _coerce(value: OrdinalLike) -> Ordinal:
    if type(value) is Ordinal or isinstance(value, Ordinal):
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
#
# The public functions coerce their arguments once; the underscored ones
# below take Ordinal only and are what the arithmetic calls internally.


def _cmp(a: Ordinal, b: Ordinal) -> int:
    ka, kb = a._key, b._key
    return (ka > kb) - (ka < kb)


def compare(a: OrdinalLike, b: OrdinalLike) -> int:
    """Three-way comparison: -1, 0 or 1."""
    return _cmp(_coerce(a), _coerce(b))


# -- arithmetic ------------------------------------------------------------


def _add(a: Ordinal, b: Ordinal) -> Ordinal:
    bt = b.terms
    if not bt:
        return a
    at = a.terms
    if b._finite and at:
        if at[-1][0].terms:
            return Ordinal(at + bt)
        # a finite tail and a finite addend: sum the coefficients
        return Ordinal(at[:-1] + ((ZERO, at[-1][1] + bt[0][1]),))
    e0, k0 = bt[0][0], bt[0][0]._key
    # a's terms above b's leading exponent survive, the rest is absorbed
    for i, (e, c) in enumerate(at):
        k = e._key
        if k < k0:
            break
        if k == k0:
            return Ordinal(at[:i] + ((e0, c + bt[0][1]),) + bt[1:])
    else:
        i = len(at)
    return Ordinal(at[:i] + bt) if i else b


def add(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """Ordinal sum a + b (not commutative)."""
    return _add(_coerce(a), _coerce(b))


def _mul(a: Ordinal, b: Ordinal) -> Ordinal:
    if not a.terms or not b.terms:
        return ZERO
    e1, c1 = a.terms[0]
    out = []
    for f, d in b.terms:
        if not f.terms:
            # finite factor scales the leading coefficient, tail survives;
            # c1 * d has at least bit_length(c1) + bit_length(d) - 1 bits
            if c1.bit_length() + d.bit_length() - 2 > _NAT_BITS_CAP:
                raise OrdinalDomainError(
                    f"a product has more than {_NAT_BITS_CAP} bits")
            out.append((e1, c1 * d))
            out.extend(a.terms[1:])
        else:
            out.append((_add(e1, f), d))
    return Ordinal(tuple(out))


def mul(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """Ordinal product a * b (left-distributive over +, not commutative)."""
    return _mul(_coerce(a), _coerce(b))


def _pow(a: Ordinal, b: Ordinal) -> Ordinal:
    if not b.terms:
        return ONE
    if not a.terms:
        return ZERO
    if a == ONE:
        return ONE
    limit_terms = tuple(t for t in b.terms if t[0].terms)
    fin = finite_part(b)
    if a._finite:
        n = a.terms[0][1]
        # n^fin has more than (bit_length(n) - 1) * fin bits
        if (n.bit_length() - 1) * fin > _NAT_BITS_CAP:
            raise OrdinalDomainError(
                f"{n}^{fin} has more than {_NAT_BITS_CAP} bits")
        if not limit_terms:
            return Ordinal.from_int(n ** fin)
        # n^(w^e * c) = w^(w^(-1+e) * c) for finite n >= 2
        shifted = tuple((_left_sub(ONE, e) if e._finite else e, c) for e, c in limit_terms)
        return Ordinal(((Ordinal(shifted), n ** fin),))
    # (L + m)^k, with r terms in L and a finite m >= 1, has 1 + k*r terms;
    # a power of a limit keeps the limit's term count
    r = len(a.terms) - 1
    size = 1 + fin * r if not a.terms[-1][0].terms else len(a.terms)
    if size > _POW_TERM_CAP:
        raise OrdinalDomainError(
            f"({a})^{fin} has {size} terms, more than {_POW_TERM_CAP}")
    head = ONE
    if limit_terms:
        head = Ordinal(((_mul(a.terms[0][0], Ordinal(limit_terms)), 1),))
    return _mul(head, _pow_finite(a, fin))


def opow(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """Ordinal exponentiation a ** b.

    A finite power whose result would pass a fixed size (a natural of more
    than _NAT_BITS_CAP bits, or more than _POW_TERM_CAP terms) raises
    OrdinalDomainError before anything is built."""
    return _pow(_coerce(a), _coerce(b))


def _pow_finite(a: Ordinal, n: int) -> Ordinal:
    result = ONE
    base = a
    while n:
        if n & 1:
            result = _mul(result, base)
        if n > 1:
            base = _mul(base, base)
        n >>= 1
    return result


def _left_sub(a: Ordinal, b: Ordinal) -> Ordinal:
    if a is b:
        return ZERO
    at, bt = a.terms, b.terms
    i = 0
    while i < len(at) and i < len(bt) and at[i] == bt[i]:
        i += 1
    if i == len(at):
        return Ordinal(bt[i:])
    if i < len(bt):
        (ea, ca), (eb, cb) = at[i], bt[i]
        cmp = _cmp(ea, eb)
        if cmp < 0:
            return Ordinal(bt[i:])
        if cmp == 0 and ca <= cb:
            return Ordinal(((eb, cb - ca),) + bt[i + 1:])
    raise OrdinalDomainError(f"left_sub needs a <= b, got {a} > {b}")


def left_sub(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """The unique g with a + g = b, defined for a <= b.

    This is the order type of the segment b minus an initial copy of a;
    it measures intervals such as the span of a scan from a up to b.
    """
    return _left_sub(_coerce(a), _coerce(b))


def successor(a: OrdinalLike) -> Ordinal:
    return _add(_coerce(a), ONE)


def leading_exponent(a: OrdinalLike) -> Ordinal:
    a = _coerce(a)
    if not a.terms:
        raise OrdinalDomainError("0 has no leading exponent")
    return a.terms[0][0]


def finite_part(a: OrdinalLike) -> int:
    a = _coerce(a)
    if a.terms and not a.terms[-1][0].terms:
        return a.terms[-1][1]
    return 0


def limit_part(a: OrdinalLike) -> Ordinal:
    """a with its finite tail removed; the largest limit-or-zero <= a."""
    a = _coerce(a)
    if a.terms and not a.terms[-1][0].terms:
        return Ordinal(a.terms[:-1])
    return a


# -- concrete syntax -------------------------------------------------------


# Longest text an error message quotes in full.
_ECHO_CAP = 40


def _echo(text: str) -> str:
    """text quoted for an error message: whole when short, else its first
    _ECHO_CAP characters and its length.  The command line and the formula
    parser quote their input through it."""
    if len(text) <= _ECHO_CAP:
        return repr(text)
    return f"{text[:_ECHO_CAP]!r}... ({len(text)} characters)"


class _Scanner:
    """A position in one text and the lexical rules every text format shares
    (see the module docstring).  fail is the format's exception class: each
    error names the position and carries it as .pos."""

    def __init__(self, text: str, fail=OrdinalParseError):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.fail = fail

    def error(self, message: str):
        exc = self.fail(f"{message} (at position {self.pos})")
        exc.pos = self.pos
        raise exc

    def peek(self) -> str:
        """The next character, "" at the end; whitespace before it is skipped."""
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        self.pos = pos
        return text[pos] if pos < len(text) else ""

    def eat(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.eat(ch):
            self.error(f"expected {ch!r}")

    def enter(self):
        """Open one nesting level; the grammar lowers depth when it closes."""
        self.depth += 1
        if self.depth > NESTING_CAP:
            self.error(f"nested deeper than {NESTING_CAP} levels")

    def nat(self, canonical: bool = True) -> int:
        """A run of ASCII digits: a canonical one is positive, with no leading 0."""
        self.peek()
        text = self.text
        start = end = self.pos
        while end < len(text) and text[end] in _DIGITS:
            end += 1
        if end == start:
            self.error("expected a number")
        if end - start > _DIGITS_CAP:
            self.error(f"numbers may have at most {_DIGITS_CAP} digits")
        self.pos = end
        if canonical and text[start] == "0":
            self.error("expected a positive number without leading zeros")
        return int(text[start:end])

    def word(self) -> str:
        """The identifier here, consumed: a letter or '_', then letters,
        ASCII digits and '_'; "" when none starts here."""
        self.peek()
        text = self.text
        start = end = self.pos
        while end < len(text) and (text[end].isalpha() or text[end] == "_"
                                   or end > start and text[end] in _DIGITS):
            end += 1
        self.pos = end
        return text[start:end]

    def read_all(self, rule):
        """rule's value, which must use up the whole text."""
        value = rule(self)
        if self.peek():
            self.error("trailing input")
        return value


class _Parser(_Scanner):
    """The ordinal grammar and calc's grammar on the scanner."""

    def ordinal(self) -> Ordinal:
        if self.peek() == "0":
            self.pos += 1
            return ZERO
        terms = [self.term()]
        while self.eat("+"):
            terms.append(self.term())
        for i in range(1, len(terms)):
            if _cmp(terms[i][0], terms[i - 1][0]) >= 0:
                self.error("term exponents must strictly decrease")
        return Ordinal(tuple(terms))

    def term(self) -> Tuple[Ordinal, int]:
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            exponent = ONE
            if self.eat("^"):
                self.enter()
                exponent = self.factor()
                self.depth -= 1
            return (exponent, self.nat() if self.eat("*") else 1)
        if ch in _DIGITS:
            return (ZERO, self.nat())
        self.error("expected a term")

    def factor(self) -> Ordinal:
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            return OMEGA
        if ch == "(":
            self.pos += 1
            self.enter()
            inner = self.ordinal()
            self.expect(")")
            self.depth -= 1
            return inner
        if ch in _DIGITS:
            return Ordinal.from_int(self.nat())
        self.error("expected an exponent")

    # calc's grammar: infix arithmetic, evaluated as it is read

    def expr(self) -> Ordinal:
        value = self.product()
        while self.eat("+"):
            value = _add(value, self.product())
        return value

    def product(self) -> Ordinal:
        value = self.power()
        while self.eat("*"):
            value = _mul(value, self.power())
        return value

    def power(self) -> Ordinal:
        base = self.operand()
        if not self.eat("^"):
            return base
        self.enter()
        exponent = self.power()
        self.depth -= 1
        return _pow(base, exponent)

    def operand(self) -> Ordinal:
        ch = self.peek()
        if ch == "w":
            self.pos += 1
            return OMEGA
        if ch in _DIGITS:
            return Ordinal.from_int(self.nat(canonical=False))
        if ch == "(":
            self.pos += 1
            self.enter()
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        if self.text.startswith("leftsub", self.pos):
            self.pos += len("leftsub")
            self.expect("(")
            self.enter()
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect(")")
            self.depth -= 1
            return _left_sub(a, b)
        self.error("expected an operand")


def parse_ordinal(text: str) -> Ordinal:
    """Parse the concrete ordinal syntax; rejects non-canonical term order."""
    return _Parser(text).read_all(_Parser.ordinal)


def evaluate(text: str) -> Ordinal:
    """Evaluate calc's infix syntax (see the module docstring)."""
    return _Parser(text).read_all(_Parser.expr)


def render(a: OrdinalLike) -> str:
    """Canonical string form; parse_ordinal(render(a)) == a.  The text is
    kept on the value after its first rendering."""
    a = _coerce(a)
    text = a._text
    if text is None:
        text = _render_terms(a.terms)
        _set_text(a, text)
    return text


def _render_terms(terms: TermTuple) -> str:
    if not terms:
        return "0"
    parts = []
    for e, c in terms:
        if not e.terms:
            parts.append(str(c))
            continue
        if e is ONE or e == ONE:
            base = "w"
        elif e._finite:
            base = f"w^{e.terms[0][1]}"
        else:
            base = f"w^({render(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)
