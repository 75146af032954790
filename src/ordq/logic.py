"""Prenex membership-logic formulas over finite-rank set universes.

Formulas are a quantifier prefix over a boolean matrix of atoms "x in y"
and "x = y"; terms are bound variables, or parameter slots "#i" filled at
evaluation time.  The constructor enforces prenex shape, canonical binder
names (v0, v1, ... in prefix order) and contiguous parameter numbering, so
structural equality is equality up to renaming.

Numeric indices use one fixed scheme.  pair is the diagonal polynomial on
naturals (see universe.cantor_pair); terms encode as

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
map to the canonical false formula instead of erroring.

Evaluation is brute force: quantifiers range over every set of rank below
the environment's rank cap.  The cap is 5; note |V_5| = 65536, so multi-
quantifier evaluation is only practical at rank 4 and below.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .universe import EMPTY_SET, HFSet, cantor_pair, cantor_unpair, _hf_sort_key

EXISTS = "E"
FORALL = "A"

TAG_IN, TAG_EQ, TAG_NOT, TAG_AND, TAG_OR, TAG_EXISTS, TAG_FORALL = range(7)

_CONNECTIVE_ARITY = {TAG_NOT: 1, TAG_AND: 2, TAG_OR: 2}

MAX_RANK = 5


class FormulaError(ValueError):
    """Ill-formed formula text or structure."""


class RankError(ValueError):
    """A rank outside 0..MAX_RANK, or a set that does not live in V_rank."""


# matrix nodes are nested tuples:
#   ("var", p) ("param", i) ("in", t, t) ("eq", t, t)
#   ("not", g) ("and", g, h) ("or", g, h)


@dataclass(frozen=True)
class Formula:
    prefix: Tuple[str, ...]
    matrix: tuple

    def __post_init__(self):
        for q in self.prefix:
            if q not in (EXISTS, FORALL):
                raise FormulaError(f"bad quantifier {q!r}")
        params = set()
        _check_matrix(self.matrix, params)
        if params and sorted(params) != list(range(max(params) + 1)):
            raise FormulaError("parameter slots must be numbered 0..m-1")
        object.__setattr__(self, "_params", 1 + max(params) if params else 0)

    @property
    def num_params(self) -> int:
        return self._params

    def __str__(self):
        return render_formula(self)

    def __repr__(self):
        return f"Formula({render_formula(self)!r})"


def _check_matrix(node, params: set):
    if not isinstance(node, tuple) or not node:
        raise FormulaError(f"bad matrix node {node!r}")
    kind = node[0]
    if kind in ("in", "eq"):
        for term in node[1:]:
            if not (isinstance(term, tuple) and len(term) == 2
                    and term[0] in ("var", "param")
                    and isinstance(term[1], int) and term[1] >= 0):
                raise FormulaError(f"bad term {term!r}")
            if term[0] == "param":
                params.add(term[1])
        if len(node) != 3:
            raise FormulaError(f"bad atom {node!r}")
    elif kind == "not":
        if len(node) != 2:
            raise FormulaError(f"bad negation {node!r}")
        _check_matrix(node[1], params)
    elif kind in ("and", "or"):
        if len(node) != 3:
            raise FormulaError(f"bad connective {node!r}")
        _check_matrix(node[1], params)
        _check_matrix(node[2], params)
    else:
        raise FormulaError(f"unknown node kind {kind!r}")


def free_variables(f: Formula) -> List[int]:
    """Indices of variables not bound by the prefix, ascending."""
    out = set()

    def walk(node):
        if node[0] in ("in", "eq"):
            for term in node[1:]:
                if term[0] == "var" and term[1] >= len(f.prefix):
                    out.add(term[1])
        elif node[0] == "not":
            walk(node[1])
        else:
            walk(node[1])
            walk(node[2])

    walk(f.matrix)
    return sorted(out)


FALSE_FORMULA = Formula((EXISTS,), ("not", ("eq", ("var", 0), ("var", 0))))


# -- concrete syntax ---------------------------------------------------------


def _tokenize(text: str) -> List[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()&|!=#":
            tokens.append(ch)
            i += 1
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise FormulaError(f"stray character {ch!r} at position {i}")
    return tokens


_KEYWORDS = {"E", "A", "in"}


def parse_formula(text: str) -> Formula:
    """Parse prefix-and-matrix text such as "E x (A y (!(y in x)))".

    Parens around quantifier bodies are optional on input.  Binders may use
    any identifier; they are renamed v0, v1, ... positionally.  A variable
    not bound by the prefix is only accepted if it is already a canonical
    name vK with K at or above the binder count.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek() -> Optional[str]:
        return tokens[pos] if pos < len(tokens) else None

    def take_any(description: str) -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise FormulaError(f"unexpected end of input, wanted {description}")
        token = tokens[pos]
        pos += 1
        return token

    def take(expected: str) -> str:
        token = take_any(repr(expected))
        if token != expected:
            raise FormulaError(f"expected {expected!r}, found {token!r}")
        return token

    prefix: List[str] = []
    scope: Dict[str, int] = {}
    parens = 0

    while peek() in (EXISTS, FORALL):
        prefix.append(take_any("a quantifier"))
        name = take_any("a binder name")
        if name in _KEYWORDS or not (name[0].isalpha() or name[0] == "_"):
            raise FormulaError(f"bad binder name {name!r}")
        if name in scope:
            raise FormulaError(f"binder {name!r} used twice")
        scope[name] = len(scope)
        if peek() == "(":
            take("(")
            parens += 1

    binders = len(prefix)

    def term() -> tuple:
        token = take_any("a term")
        if token == "#":
            index = take_any("a parameter number")
            if not index.isdigit():
                raise FormulaError(f"bad parameter number {index!r}")
            return ("param", int(index))
        if token in ("E", "A"):
            raise FormulaError("quantifier inside the matrix: input is not prenex")
        if not (token[0].isalpha() or token[0] == "_"):
            raise FormulaError(f"expected a term, found {token!r}")
        if token in scope:
            return ("var", scope[token])
        if token[0] == "v" and token[1:].isdigit() and int(token[1:]) >= binders:
            return ("var", int(token[1:]))
        raise FormulaError(f"unbound variable {token!r}")

    def atom_or_group() -> tuple:
        if peek() == "!":
            take("!")
            return ("not", atom_or_group())
        if peek() == "(":
            take("(")
            inner = disjunction()
            take(")")
            return inner
        if peek() in (EXISTS, FORALL):
            raise FormulaError("quantifier inside the matrix: input is not prenex")
        left = term()
        op = take_any("'in' or '='")
        if op == "in":
            return ("in", left, term())
        if op == "=":
            return ("eq", left, term())
        raise FormulaError(f"expected 'in' or '=', found {op!r}")

    def conjunction() -> tuple:
        node = atom_or_group()
        while peek() == "&":
            take("&")
            node = ("and", node, atom_or_group())
        return node

    def disjunction() -> tuple:
        node = conjunction()
        while peek() == "|":
            take("|")
            node = ("or", node, conjunction())
        return node

    matrix = disjunction()
    for _ in range(parens):
        take(")")
    if pos != len(tokens):
        raise FormulaError(f"trailing input from token {tokens[pos]!r}")
    return Formula(tuple(prefix), matrix)


def _render_term(t: tuple) -> str:
    return f"v{t[1]}" if t[0] == "var" else f"#{t[1]}"


_PREC = {"or": 1, "and": 2}


def _render_node(node: tuple, parent: str) -> str:
    kind = node[0]
    if kind == "in":
        return f"{_render_term(node[1])} in {_render_term(node[2])}"
    if kind == "eq":
        return f"{_render_term(node[1])} = {_render_term(node[2])}"
    if kind == "not":
        return f"!({_render_node(node[1], 'top')})"
    op = " & " if kind == "and" else " | "
    left = _render_node(node[1], kind)
    right = _render_node(node[2], kind + "-right")
    text = left + op + right
    if parent == "top":
        return text
    #  parenthesize when binding looser than the parent, or when this node
    #  is the right operand of its own connective (rendering is left-assoc)
    base = parent.replace("-right", "")
    if _PREC[kind] < _PREC[base] or (parent.endswith("-right") and base == kind):
        return f"({text})"
    return text


def render_formula(f: Formula) -> str:
    """Canonical text; parse_formula inverts it exactly."""
    body = _render_node(f.matrix, "top")
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


def _index_term(t: tuple) -> int:
    return 2 * t[1] if t[0] == "var" else 2 * t[1] + 1


def _index_node(node: tuple) -> int:
    kind = node[0]
    if kind == "in":
        return cantor_pair(TAG_IN, cantor_pair(_index_term(node[1]), _index_term(node[2])))
    if kind == "eq":
        return cantor_pair(TAG_EQ, cantor_pair(_index_term(node[1]), _index_term(node[2])))
    if kind == "not":
        return cantor_pair(TAG_NOT, _index_node(node[1]))
    tag = TAG_AND if kind == "and" else TAG_OR
    return cantor_pair(tag, cantor_pair(_index_node(node[1]), _index_node(node[2])))


def formula_index(f: Formula) -> int:
    k = _index_node(f.matrix)
    for q in reversed(f.prefix):
        k = cantor_pair(TAG_EXISTS if q == EXISTS else TAG_FORALL, k)
    return k


def _decode_term(code: int) -> tuple:
    return ("var", code // 2) if code % 2 == 0 else ("param", code // 2)


def _decode_node(code: int) -> tuple:
    tag, payload = cantor_unpair(code)
    if tag in (TAG_IN, TAG_EQ):
        left, right = cantor_unpair(payload)
        kind = "in" if tag == TAG_IN else "eq"
        return (kind, _decode_term(left), _decode_term(right))
    if tag == TAG_NOT:
        return ("not", _decode_node(payload))
    if tag in (TAG_AND, TAG_OR):
        left, right = cantor_unpair(payload)
        kind = "and" if tag == TAG_AND else "or"
        return (kind, _decode_node(left), _decode_node(right))
    raise FormulaError(f"tag {tag} is not a matrix constructor")


def formula_from_index(k: int) -> Formula:
    """Decode; naturals carrying ill-formed trees yield the false formula."""
    if k < 0:
        return FALSE_FORMULA
    prefix: List[str] = []
    while True:
        tag, payload = cantor_unpair(k)
        if tag == TAG_EXISTS:
            prefix.append(EXISTS)
        elif tag == TAG_FORALL:
            prefix.append(FORALL)
        else:
            break
        k = payload
    try:
        return Formula(tuple(prefix), _decode_node(k))
    except FormulaError:
        return FALSE_FORMULA


# -- evaluation --------------------------------------------------------------


@dataclass(frozen=True)
class TruthEnv:
    """A rank cap and the parameter tuple filling #0, #1, ..."""

    rank: int
    params: Tuple[HFSet, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        if not (0 <= self.rank <= MAX_RANK):
            raise RankError(f"rank must be between 0 and {MAX_RANK}")
        for p in self.params:
            if not isinstance(p, HFSet):
                raise TypeError(f"parameter {p!r} is not an HFSet")
            if p.rank >= self.rank:
                raise RankError(
                    f"parameter of rank {p.rank} does not live in V_{self.rank}")


@functools.lru_cache(maxsize=None)
def universe_of(rank: int) -> Tuple[HFSet, ...]:
    """Every set of rank < rank, in a fixed enumeration order."""
    if not (0 <= rank <= MAX_RANK):
        raise RankError(f"rank must be between 0 and {MAX_RANK}")
    current: Tuple[HFSet, ...] = ()
    for _ in range(rank):
        elements = list(current)
        current = tuple(HFSet(e for i, e in enumerate(elements) if mask >> i & 1)
                        for mask in range(1 << len(elements)))
        current = tuple(sorted(set(current), key=_hf_sort_key))
    return current


def eval_formula(f: Formula, env: TruthEnv) -> int:
    """Brute-force truth value of f over V_env.rank with env.params."""
    if free_variables(f):
        raise FormulaError(f"cannot evaluate open formula {render_formula(f)}")
    if f.num_params > len(env.params):
        raise FormulaError(
            f"formula uses {f.num_params} parameters, env provides {len(env.params)}")
    domain = universe_of(env.rank)

    def term_value(t: tuple, assignment: Tuple[HFSet, ...]) -> HFSet:
        return assignment[t[1]] if t[0] == "var" else env.params[t[1]]

    def matrix_value(node: tuple, assignment) -> bool:
        kind = node[0]
        if kind == "in":
            return term_value(node[1], assignment) in term_value(node[2], assignment)
        if kind == "eq":
            return term_value(node[1], assignment) == term_value(node[2], assignment)
        if kind == "not":
            return not matrix_value(node[1], assignment)
        if kind == "and":
            return matrix_value(node[1], assignment) and matrix_value(node[2], assignment)
        return matrix_value(node[1], assignment) or matrix_value(node[2], assignment)

    def quantify(position: int, assignment: Tuple[HFSet, ...]) -> bool:
        if position == len(f.prefix):
            return matrix_value(f.matrix, assignment)
        values = (quantify(position + 1, assignment + (x,)) for x in domain)
        return any(values) if f.prefix[position] == EXISTS else all(values)

    return int(quantify(0, ()))
