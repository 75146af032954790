"""Prenex membership-logic formulas over finite-rank set universes.

Formulas are a quantifier prefix over a boolean matrix of atoms "x in y"
and "x = y"; terms are bound variables, or parameter slots "#i" filled at
evaluation time.  The constructor enforces prenex shape, canonical binder
names (v0, v1, ... in prefix order) and contiguous parameter numbering, so
structural equality is equality up to renaming.  parse_formula reads text
on ordcalc's scanner, with the rules of every text format (NESTING_CAP, ASCII
digits, errors that name their position), and raises FormulaError.

Numeric indices use one fixed scheme.  pair is the diagonal polynomial on
naturals (see hfsets.cantor_pair); terms encode as

    variable at prefix position p  ->  2*p
    parameter #i                   ->  2*i + 1

and formula nodes as pair(tag, payload):

    tag 0  t1 in t2      payload pair(term1, term2)
    tag 1  t1 = t2       payload pair(term1, term2)
    tag 2  !g            payload index(g)
    tag 3  g & h         payload pair(index(g), index(h))
    tag 4  g | h         payload pair(index(g), index(h))
    tag 5  E v g         payload index(g)
    tag 6  A v g         payload index(g)

Every natural decodes to something; naturals that decode to an ill-formed
tree (unknown tag, quantifier under a connective, bad parameter layout)
map to the canonical false formula instead of erroring.  Each node about
squares the index, so formula_index refuses one of more than _DIGITS_CAP
digits (InputError): ledgers and reports print it.

Evaluation is bit-parallel over the innermost quantified variables, on
Ackermann's numbering (Ackermann 1937): a set is numbered by the sum of
2^m over the numbers m of its members, so V_rank is the naturals below
n = |V_rank| (0, 1, 2, 4, 16, 65536 for ranks 0..5), the members of y are
the one bits of y, and the sets that contain x form a periodic bit
pattern.  The matrix compiles to a function from the numbers of the
walked variables and the parameters to a mask over the values of the
folded ones; !, & and | are bit operations.  At ranks 1-4 under two
quantifiers or more the two innermost variables u and y fold into an
n x n plane of at most 256 bits, bit u*n + y standing for (u, y): a
y-atom is a row mask copied to every row, a u-atom selects whole rows,
and u in y, y in u and u = y are fixed masks.  One test on the plane
decides both quantifiers: EE asks for a nonzero mask, AA for a full one,
EA for a full row and AE for no zero row, which the borrows of one
subtraction find.  So q quantifiers cost n^(q-2) mask walks instead of
n^q walks down the matrix; at rank 0, at rank 5 and under one quantifier
y folds alone, into one row of n bits, and q quantifiers cost n^(q-1)
walks.  The rule on work is the same at every rank: an evaluation may
decide at most 65,536 rows of n bits, one per assignment of the variables
above y, n^(q-1) in all; rank 5 with three quantifiers or rank 4 with
six raises RankError before it starts.

The truth oracles' answers (_sigma_truth) are memoized, 32 at a time.  The
separation reference asks the very queries the run's truth oracle asked,
so it re-reads the run's truth values instead of evaluating them again.
The answer functions of the TruthSigma and SepSigma oracles (_truth_fn,
_sep_fn) are built here, so that only separation loads them.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, List, Tuple

from ._record import Record, _set
from .ordcalc import _DIGITS, _DIGITS_CAP, InputError, _echo, _Scanner
from .hfsets import HFSet, cantor_pair, cantor_unpair, decode_set, encode_hf
from .oracles import OracleTypeError, _expect_code, summarize_query

EXISTS = "E"
FORALL = "A"

TAG_IN, TAG_EQ, TAG_NOT, TAG_AND, TAG_OR, TAG_EXISTS, TAG_FORALL = range(7)

MAX_RANK = 5
# |V_rank| for each rank: V_0 is empty and V_{r+1} is the power set of V_r
_SIZES = (0, 1, 2, 4, 16, 65536)
_MAX_ROWS = _SIZES[MAX_RANK]       # the most n-bit rows one evaluation may decide


class FormulaError(ValueError):
    """Ill-formed formula text or structure."""


class RankError(InputError):
    """A rank outside 0..MAX_RANK, or a set that does not live in V_rank."""


# matrix nodes are nested tuples:
#   ("var", p) ("param", i) ("in", t, t) ("eq", t, t)
#   ("not", g) ("and", g, h) ("or", g, h)


class Formula(Record):
    __slots__ = ("prefix", "matrix", "num_params", "_free")
    _fields = ("prefix", "matrix")

    def __init__(self, prefix: Tuple[str, ...], matrix: tuple):
        for q in prefix:
            if q not in (EXISTS, FORALL):
                raise FormulaError(f"bad quantifier {q!r}")
        # the one walk of the matrix checks it and collects its terms
        terms = set()
        _check_matrix(matrix, terms)
        params = {i for kind, i in terms if kind == "param"}
        if params != set(range(len(params))):
            raise FormulaError("parameter slots must be numbered 0..m-1")
        _set(self, "prefix", prefix)
        _set(self, "matrix", matrix)
        _set(self, "num_params", len(params))
        _set(self, "_free", sorted({i for kind, i in terms
                                    if kind == "var" and i >= len(prefix)}))

    def __str__(self):
        return render_formula(self)

    def __repr__(self):
        return f"Formula({render_formula(self)!r})"


def _check_matrix(node, terms: set):
    """Check a matrix node, adding the terms of its atoms to terms."""
    if not isinstance(node, tuple) or not node:
        raise FormulaError(f"bad matrix node {node!r}")
    kind = node[0]
    if kind in ("in", "eq"):
        for term in node[1:]:
            if not (isinstance(term, tuple) and len(term) == 2
                    and term[0] in ("var", "param")
                    and type(term[1]) is int and term[1] >= 0):
                raise FormulaError(f"bad term {term!r}")
            terms.add(term)
        if len(node) != 3:
            raise FormulaError(f"bad atom {node!r}")
    elif kind == "not":
        if len(node) != 2:
            raise FormulaError(f"bad negation {node!r}")
        _check_matrix(node[1], terms)
    elif kind in ("and", "or"):
        if len(node) != 3:
            raise FormulaError(f"bad connective {node!r}")
        _check_matrix(node[1], terms)
        _check_matrix(node[2], terms)
    else:
        raise FormulaError(f"unknown node kind {kind!r}")


def free_variables(f: Formula) -> List[int]:
    """Indices of variables not bound by the prefix, ascending; the
    constructor's walk of the matrix collected them."""
    return list(f._free)


FALSE_FORMULA = Formula((EXISTS,), ("not", ("eq", ("var", 0), ("var", 0))))


# -- concrete syntax ---------------------------------------------------------


class _FormulaParser(_Scanner):
    """The formula grammar on the shared scanner.  A bracket or '!' opens a
    nesting level, and so does each '&' or '|' of a chain, which deepens the
    formula's tree by one; the bracket after a binder does not nest."""

    def formula(self) -> Formula:
        self.scope: Dict[str, int] = {}     # binder name -> prefix position
        prefix: List[str] = []
        parens = 0
        q = self.word()
        while q in (EXISTS, FORALL):
            prefix.append(q)
            name = self.word()
            if not name or name in (EXISTS, FORALL, "in") or name in self.scope:
                self.pos -= len(name)
                self.error(f"binder {_echo(name)} used twice" if name in self.scope
                           else "expected a binder name")
            self.scope[name] = len(self.scope)
            if self.eat("("):
                parens += 1
            q = self.word()
        self.pos -= len(q)          # the matrix starts with it
        matrix = self.disjunction()
        for _ in range(parens):
            self.expect(")")
        return Formula(tuple(prefix), matrix)

    def disjunction(self) -> tuple:
        node = self.conjunction()
        depth = self.depth
        while self.eat("|"):
            self.enter()
            node = ("or", node, self.conjunction())
        self.depth = depth
        return node

    def conjunction(self) -> tuple:
        node = self.atom()
        depth = self.depth
        while self.eat("&"):
            self.enter()
            node = ("and", node, self.atom())
        self.depth = depth
        return node

    def atom(self) -> tuple:
        if self.eat("!"):
            self.enter()
            node = ("not", self.atom())
        elif self.eat("("):
            self.enter()
            node = self.disjunction()
            self.expect(")")
        else:
            left = self.term()
            if self.eat("="):
                return ("eq", left, self.term())
            op = self.word()
            if op != "in":
                self.pos -= len(op)
                self.error("expected 'in' or '='")
            return ("in", left, self.term())
        self.depth -= 1
        return node

    def term(self) -> tuple:
        if self.eat("#"):
            return ("param", self.nat(canonical=False))
        name = self.word()
        if name in self.scope:
            return ("var", self.scope[name])
        start = self.pos - len(name)
        # a free variable must already have its canonical name vK
        if name[:1] == "v" and len(name) > 1 and _DIGITS.issuperset(name[1:]):
            self.pos = start + 1
            k = self.nat(canonical=False)
            if k >= len(self.scope):
                return ("var", k)
        self.pos = start
        if name in (EXISTS, FORALL):
            self.error("quantifier inside the matrix: input is not prenex")
        self.error(f"unbound variable {_echo(name)}" if name else "expected a term")


def parse_formula(text: str) -> Formula:
    """Parse prefix-and-matrix text such as "E x (A y (!(y in x)))".

    Parens around quantifier bodies are optional on input.  Binders may use
    any identifier; they are renamed v0, v1, ... positionally.  A variable
    not bound by the prefix is only accepted if it is already a canonical
    name vK with K at or above the binder count.
    """
    return _FormulaParser(text, FormulaError).read_all(_FormulaParser.formula)


def _render_term(t: tuple) -> str:
    return f"v{t[1]}" if t[0] == "var" else f"#{t[1]}"


_PREC = {"or": 1, "and": 2}


def _render_node(node: tuple, binding: int = 0) -> str:
    """The text of a matrix node, parenthesized when its connective binds
    looser than `binding`, the least precedence its place needs.  Rendering
    is left-associative: a connective's right operand needs one more than
    its own precedence."""
    kind = node[0]
    if kind == "in":
        return f"{_render_term(node[1])} in {_render_term(node[2])}"
    if kind == "eq":
        return f"{_render_term(node[1])} = {_render_term(node[2])}"
    if kind == "not":
        return f"!({_render_node(node[1])})"
    prec = _PREC[kind]
    op = " & " if kind == "and" else " | "
    text = _render_node(node[1], prec) + op + _render_node(node[2], prec + 1)
    return f"({text})" if prec < binding else text


def render_formula(f: Formula) -> str:
    """Canonical text; parse_formula inverts it exactly."""
    body = _render_node(f.matrix)
    for position in range(len(f.prefix) - 1, -1, -1):
        body = f"{f.prefix[position]} v{position} ({body})"
    return body


# -- classification ----------------------------------------------------------


def classify_level(f: Formula) -> int:
    """Least n such that the prefix fits n alternating blocks headed by an
    existential block; a leading universal costs one empty leading block."""
    blocks = sum(1 for _, _ in itertools.groupby(f.prefix))
    if f.prefix and f.prefix[0] == FORALL:
        blocks += 1
    return blocks


# -- numeric indexing --------------------------------------------------------


_INDEX_LIMIT = 10 ** _DIGITS_CAP       # indices have at most _DIGITS_CAP digits


def _pair(x: int, y: int) -> int:
    """cantor_pair for an index, checked at each pairing to stop early."""
    k = cantor_pair(x, y)
    if k >= _INDEX_LIMIT:
        raise InputError(f"the formula's index would have more than {_DIGITS_CAP} digits")
    return k


def _index_term(t: tuple) -> int:
    return 2 * t[1] if t[0] == "var" else 2 * t[1] + 1


# matrix node kind or quantifier -> its tag, and back: the kind of tag t is _KINDS[t]
_TAGS = {"in": TAG_IN, "eq": TAG_EQ, "not": TAG_NOT, "and": TAG_AND, "or": TAG_OR,
         EXISTS: TAG_EXISTS, FORALL: TAG_FORALL}
_KINDS = sorted(_TAGS, key=_TAGS.get)


def _index_node(node: tuple) -> int:
    tag = _TAGS[node[0]]
    if tag == TAG_NOT:
        return _pair(tag, _index_node(node[1]))
    index = _index_term if tag <= TAG_EQ else _index_node
    return _pair(tag, _pair(index(node[1]), index(node[2])))


def formula_index(f: Formula) -> int:
    """f's index (see the module docstring); InputError when it would have
    more than _DIGITS_CAP digits."""
    k = _index_node(f.matrix)
    for q in reversed(f.prefix):
        k = _pair(_TAGS[q], k)
    return k


def _decode_term(code: int) -> tuple:
    return ("var", code // 2) if code % 2 == 0 else ("param", code // 2)


def _decode_node(code: int) -> tuple:
    tag, payload = cantor_unpair(code)
    if tag > TAG_OR:
        raise FormulaError(f"tag {tag} is not a matrix constructor")
    if tag == TAG_NOT:
        return ("not", _decode_node(payload))
    decode = _decode_term if tag <= TAG_EQ else _decode_node
    left, right = cantor_unpair(payload)
    return (_KINDS[tag], decode(left), decode(right))


@functools.lru_cache(maxsize=32)
def formula_from_index(k: int) -> Formula:
    """Decode; naturals carrying ill-formed trees yield the false formula.
    Formulas are immutable, so each recent index is decoded once."""
    if k < 0:
        return FALSE_FORMULA
    prefix: List[str] = []
    while True:
        tag, payload = cantor_unpair(k)
        if tag not in (TAG_EXISTS, TAG_FORALL):
            break
        prefix.append(_KINDS[tag])
        k = payload
    try:
        return Formula(tuple(prefix), _decode_node(k))
    except FormulaError:
        return FALSE_FORMULA


# -- evaluation --------------------------------------------------------------


def _check_rank(rank: int) -> None:
    if not (0 <= rank <= MAX_RANK):
        raise RankError(f"rank must be between 0 and {MAX_RANK}")


class TruthEnv(Record):
    """A rank cap and the parameter tuple filling #0, #1, ..."""

    __slots__ = _fields = ("rank", "params")

    def __init__(self, rank: int, params: Tuple[HFSet, ...] = ()):
        params = tuple(params)
        _check_rank(rank)
        for p in params:
            if not isinstance(p, HFSet):
                raise TypeError(f"parameter {p!r} is not an HFSet")
            if p.rank >= rank:
                raise RankError(
                    f"parameter of rank {p.rank} does not live in V_{rank}")
        _set(self, "rank", rank)
        _set(self, "params", params)


@functools.lru_cache(maxsize=None)
def universe_of(rank: int) -> Tuple[HFSet, ...]:
    """Every set of rank < rank, in Ackermann's order: position i holds the
    set of the sets at the one bits of i."""
    _check_rank(rank)
    sets: List[HFSet] = []
    for i in range(_SIZES[rank]):
        sets.append(HFSet(sets[j] for j in range(i.bit_length()) if i >> j & 1))
    return tuple(sets)


# every key is a set of V_5, so the cache holds at most 65,536 entries
@functools.lru_cache(maxsize=None)
def _position(s: HFSet) -> int:
    """s's Ackermann number: the sum of 2^m over the numbers m of its members."""
    return sum(1 << _position(m) for m in s)


@functools.lru_cache(maxsize=None)
def _owners(size: int) -> List[int]:
    """Per x < size, the bitset of the y < size with bit x set: runs of 2^x
    zeros and 2^x ones, or 0 once 2^x reaches size (no such y exists)."""
    full = (1 << size) - 1
    rows = [full // ((1 << (1 << x)) + 1) << (1 << x)
            for x in range(size.bit_length() - 1)]
    return rows + [0] * (size - len(rows))


@functools.lru_cache(maxsize=None)
def _tables(size: int) -> tuple:
    """(low, in_y, pair, rows) of the size x size plane, whose bit
    u*size + y stands for the pair (u, y).  low, the lowest bit of each
    row, copies a row mask to every row; in_y[x] is the mask of x in y;
    pair holds the masks of u = y, u in y and y in u, and rows, per
    x < size, the whole rows u with u = x, u in x and x in u."""
    line, owners = (1 << size) - 1, _owners(size)

    def plane(row) -> int:
        """The mask whose row u is row(u)."""
        return sum(row(u) << u * size for u in range(size))

    low = plane(lambda u: 1)
    # row u holds u's bit, the sets that hold u, u's members
    pair = [plane(row) for row in (lambda u: 1 << u, owners.__getitem__, int)]
    rows = [[plane(lambda u: line * (m >> u & 1)) for m in masks] for masks in
            ([1 << x for x in range(size)], range(size), owners)]
    return low, [o * low for o in owners], pair, rows


@functools.lru_cache(maxsize=None)
def _plane(rank: int, last: Tuple[str, ...]) -> tuple:
    """How _compile folds a prefix ending in `last`, its last two
    quantifiers, over V_rank: (folded, full, low, test, in_y, pair, rows).
    At ranks 1-4 under two quantifiers or more, the innermost variables u
    and y fold into the size x size plane (see _tables); otherwise y alone
    folds, into one row.  full has a bit per value of the folded
    variables, and test decides their quantifiers on a mask."""
    size = _SIZES[rank]
    folded = len(last) == 2 and 1 <= rank <= 4
    low, in_y, pair, rows = _tables(size) if folded else (1, _owners(size), (), ())
    full = (1 << size * (size if folded else 1)) - 1
    # E asks for a nonzero row and A for a full one; a row is zero exactly
    # where subtracting low borrows into the row's high bit
    high = low << size >> 1
    qu, qy = (last if folded else last[-1:] * 2) or (EXISTS, EXISTS)
    if qu == qy:
        test = full.__eq__ if qy == FORALL else bool
    elif qu == EXISTS:          # some row of full ^ m is zero
        test = lambda m: (full ^ m) - low & m & high != 0
    else:                       # no row of m is zero
        test = lambda m: (m - low) & ~m & high == 0
    return folded, full, low, test, in_y, pair, rows


@functools.lru_cache(maxsize=32)
def _compile(f: Formula, rank: int):
    """(matrix, test, outer) for a closed f over V_rank.  The first outer
    variables are walked; matrix maps their numbers, then the parameters',
    to the mask of the values of the folded variables (see _plane) that
    satisfy f's matrix, and test decides the folded quantifiers on it.  An
    atom without a folded variable (with no quantifier, every atom) gives
    full or 0."""
    if free_variables(f):
        raise FormulaError(f"cannot evaluate open formula {render_formula(f)}")
    size = _SIZES[rank]
    q = len(f.prefix)
    outer = max(q - 1, 0)
    if size ** outer > _MAX_ROWS:
        raise RankError(f"{q} quantifiers over V_{rank} decide {size}^{outer} rows of "
                        f"{size} bits, over the cap of {_MAX_ROWS}")
    folded, full, low, test, in_y, pair, rows = _plane(rank, f.prefix[-2:])
    outer -= folded

    def slot(t: tuple) -> int:
        """A term's place in vals; -1 for y and -2 for u, which fold."""
        if t[0] == "param":
            return outer + t[1]
        return t[1] if t[1] < outer else t[1] - q

    def build(node: tuple):
        kind = node[0]
        if kind == "not":
            g = build(node[1])
            return lambda vals: full ^ g(vals)
        if kind in ("and", "or"):
            g, h = build(node[1]), build(node[2])
            if kind == "and":
                return lambda vals: g(vals) & h(vals)
            return lambda vals: g(vals) | h(vals)
        a, b = slot(node[1]), slot(node[2])
        i = 0 if kind == "eq" else 1 if a == -2 else 2      # u = ., u in ., . in u
        if a < 0 and b < 0:
            constant = (0 if kind == "in" else full) if a == b else pair[i]
            return lambda vals: constant
        if -1 in (a, b):
            j = a + b + 1
            if kind == "eq":
                return lambda vals: low << vals[j]
            if a == -1:
                return lambda vals: vals[j] * low       # x's members are x's bits
            return lambda vals: in_y[vals[j]]
        if -2 in (a, b):
            table, j = rows[i], a + b + 2
            return lambda vals: table[vals[j]]
        if kind == "eq":
            return lambda vals: full if vals[a] == vals[b] else 0
        return lambda vals: full if vals[b] >> vals[a] & 1 else 0

    return build(f.matrix), test, outer


def eval_formula(f: Formula, env: TruthEnv) -> int:
    """Truth value of f over V_env.rank with env.params: the outer
    quantifiers are enumerated, the folded ones are decided on a bitset."""
    matrix, test, outer = _compile(f, env.rank)
    if f.num_params > len(env.params):
        raise FormulaError(
            f"formula uses {f.num_params} parameters, env provides {len(env.params)}")
    prefix = f.prefix
    size = _SIZES[env.rank]
    vals = [0] * outer + [_position(p) for p in env.params]

    def quantify(position: int) -> bool:
        if position >= outer:
            return test(matrix(vals))
        # E stops at the first true value, A at the first false one
        exists = prefix[position] == EXISTS
        for x in range(size):
            vals[position] = x
            if quantify(position + 1) == exists:
                return exists
        return not exists

    return int(quantify(0))


# one rank-4 separation verdict asks at most |V_4| = 16 queries, so the
# reference's lookups find what the run just computed
@functools.lru_cache(maxsize=32)
def _sigma_truth(f: Formula, level: int, rank: int, params: Tuple[HFSet, ...]) -> int:
    """The answer of a level-`level` truth oracle over V_rank: 0 for a
    formula above the level, taking another number of parameters or with a
    free variable, else f's truth value.  The oracles and the separation
    reference share it.

    A pure function of its arguments, so memoized: the separation reference
    asks the run's own queries and re-reads the run's truth values.  That
    checks no less than evaluating them again, which would run this same
    code on the same arguments; the tests check the evaluator against an
    independent one."""
    if classify_level(f) > level or f.num_params != len(params) or free_variables(f):
        return 0
    return eval_formula(f, TruthEnv(rank, params))


# -- the truth and separation oracles -------------------------------------


def _check_environment(level: int, rank: int):
    """A truth or separation oracle's environment: RankError for a rank
    outside 0..MAX_RANK, InputError for a negative level, before any call
    is made."""
    _check_rank(rank)
    if level < 0:
        raise InputError(f"level must be at least 0, got {level}")


def _truth_fn(level: int, rank: int):
    _check_environment(level, rank)

    def truth(q):
        # the parameters must be sets: they key the truth values' memo
        if not (isinstance(q, tuple) and len(q) == 2 and type(q[0]) is int
                and isinstance(q[1], tuple)
                and all(isinstance(p, HFSet) for p in q[1])):
            raise OracleTypeError(
                f"expected (index, set params) query, got {summarize_query(q)}")
        k, params = q
        return _sigma_truth(formula_from_index(k), level, rank, params)

    return truth


def _sep_fn(level: int, rank: int):
    _check_environment(level, rank)

    def sep(q):
        if not (isinstance(q, tuple) and len(q) == 3 and type(q[1]) is int
                and isinstance(q[2], tuple)):
            raise OracleTypeError(
                f"expected (code, index, param codes) query, got {summarize_query(q)}")
        code_s, k, param_codes = q
        s = decode_set(_expect_code(code_s))
        params = tuple(decode_set(_expect_code(c)) for c in param_codes)
        f = formula_from_index(k)
        return encode_hf(HFSet(x for x in s if _sigma_truth(f, level, rank, (x,) + params)))

    return sep
