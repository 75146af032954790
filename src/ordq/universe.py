"""Toy cardinal structures and finite set universes.

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

The second half of the module is the hereditarily finite set side: HFSet
values, their membership codes (SetCode: a finite extensional well-founded
edge set over ordinal node ids, edges packed with the pairing function),
and the pairing bijection itself.

HFSet values are hash-consed (Filliatre & Conchon, "Type-safe modular
hash-consing", 2006): a weak intern table keyed by the member set makes
equal sets the same object, so equality is identity and membership tests
never recurse.  A SetCode is validated once per object: its child map,
validity verdict and decoded nodes are worked out on first use and kept on
the code.  Every decode still asks for the verdict first.

godel_pair merges the two normal forms exponent-wise, combining the
coefficient pair at each exponent with the classic diagonal polynomial
(x + y)(x + y + 1)/2 + y.  That makes it a bijection between ordinal pairs
and ordinals whose restriction to the naturals is the diagonal polynomial
itself, and unpairing is exact.
"""

from __future__ import annotations

import itertools
import math
import threading
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .ordcalc import (
    OMEGA,
    ONE,
    Ordinal,
    OrdinalLike,
    _coerce,
    add,
    classify,
    finite_part,
    leading_exponent,
    left_sub,
    limit_part,
    mul,
    omega_power,
    render,
)

OMEGA_POWERS = "omega-powers"
MULTIPLES_OF_OMEGA = "multiples-of-omega"
EXPLICIT_LIST = "explicit-list"

KINDS = (OMEGA_POWERS, MULTIPLES_OF_OMEGA, EXPLICIT_LIST)


class OutOfStructureError(ValueError):
    """The queried ordinal is not below the structure's working bound."""


class NoSuchCardinalError(ValueError):
    """The requested cardinal does not exist below the working bound."""


class InvalidCodeError(ValueError):
    """A SetCode failed validation."""


class PowersetCapError(ValueError):
    """A power set argument has more than POWERSET_CAP members."""


@dataclass(frozen=True)
class CardinalStructure:
    """A kind tag, a working bound, and (for explicit-list) the list."""

    kind: str
    bound: Ordinal
    cardinals: Tuple[Ordinal, ...] = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown structure kind {self.kind!r}")
        if self.bound <= OMEGA:
            raise ValueError("the working bound must exceed w")


def omega_powers(bound: OrdinalLike) -> CardinalStructure:
    return CardinalStructure(OMEGA_POWERS, _coerce(bound))


def multiples_of_omega(bound: OrdinalLike) -> CardinalStructure:
    return CardinalStructure(MULTIPLES_OF_OMEGA, _coerce(bound))


def explicit_list(cardinals: Iterable[OrdinalLike], bound: OrdinalLike) -> CardinalStructure:
    """Build an explicit-list structure, completing the class with w.

    Increasing sequences drawn from a finite class are eventually constant,
    so the only supremum the completion can add is w itself (from the finite
    cardinals); it is inserted here and the result is checked.
    """
    bound = _coerce(bound)
    values = sorted({_coerce(c) for c in cardinals} | {OMEGA})
    for v in values:
        if v.is_finite():
            raise ValueError(f"explicit cardinal {v} must be infinite")
        if v >= bound:
            raise ValueError(f"explicit cardinal {v} must lie below the bound {bound}")
    structure = CardinalStructure(EXPLICIT_LIST, bound, tuple(values))
    assert _limit_closed(structure)
    return structure


def _limit_closed(structure: CardinalStructure) -> bool:
    # sup of the finite cardinals is w, which must be in the class; a finite
    # class contributes no further limit points
    return is_cardinal(structure, OMEGA) == 1


def _check_in_bound(structure: CardinalStructure, a: Ordinal):
    if a >= structure.bound:
        raise OutOfStructureError(
            f"{render(a)} is not below the working bound {render(structure.bound)}")


def is_cardinal(structure: CardinalStructure, a: OrdinalLike) -> int:
    """1 if a is a cardinal of the structure, else 0."""
    a = _coerce(a)
    _check_in_bound(structure, a)
    if a.is_finite() or a == OMEGA:
        return 1
    if structure.kind == OMEGA_POWERS:
        return int(len(a.terms) == 1 and a.terms[0][1] == 1)
    if structure.kind == MULTIPLES_OF_OMEGA:
        return int(finite_part(a) == 0)
    return int(a in structure.cardinals)


def card_of(structure: CardinalStructure, a: OrdinalLike) -> Ordinal:
    """The greatest cardinal <= a (total: finite ordinals are cardinals)."""
    a = _coerce(a)
    _check_in_bound(structure, a)
    if a.is_finite():
        return a
    if structure.kind == OMEGA_POWERS:
        return omega_power(leading_exponent(a))
    if structure.kind == MULTIPLES_OF_OMEGA:
        return limit_part(a)
    below = [c for c in structure.cardinals if c <= a]
    return below[-1] if below else OMEGA


def next_card_of(structure: CardinalStructure, a: OrdinalLike) -> Ordinal:
    """The least cardinal > a; NoSuchCardinalError if none below the bound."""
    a = _coerce(a)
    _check_in_bound(structure, a)
    if a.is_finite():
        result = add(a, 1)
    elif structure.kind == OMEGA_POWERS:
        result = omega_power(add(leading_exponent(a), 1))
    elif structure.kind == MULTIPLES_OF_OMEGA:
        result = add(limit_part(a), OMEGA)
    else:
        above = [c for c in structure.cardinals if c > a]
        if not above:
            raise NoSuchCardinalError(f"no cardinal above {render(a)}")
        result = above[0]
    if result >= structure.bound:
        raise NoSuchCardinalError(
            f"no cardinal above {render(a)} below the bound {render(structure.bound)}")
    return result


def next_limit_of_cardinals_above(structure: CardinalStructure, a: OrdinalLike) -> Ordinal:
    """The least ordinal > a in which the cardinals are cofinal.

    w qualifies for every structure (the finite cardinals pile up under it).
    Beyond w the answer depends on the kind: limits of omega powers are the
    powers with limit exponent, limits of multiples of w are the nonzero
    multiples of w^2, and a finite explicit list has no limit points at all.
    """
    a = _coerce(a)
    _check_in_bound(structure, a)
    if a < OMEGA:
        result = OMEGA
    elif structure.kind == OMEGA_POWERS:
        e = leading_exponent(a)
        if e.is_finite():
            next_limit_exponent = OMEGA
        elif finite_part(e) > 0:
            next_limit_exponent = add(limit_part(e), OMEGA)
        else:
            next_limit_exponent = add(e, OMEGA)
        result = omega_power(next_limit_exponent)
    elif structure.kind == MULTIPLES_OF_OMEGA:
        high = Ordinal(tuple(t for t in a.terms if t[0] >= 2))
        result = add(high, omega_power(2))
    else:
        raise NoSuchCardinalError(
            f"no limit of cardinals above {render(a)} below the bound")
    if result >= structure.bound:
        raise NoSuchCardinalError(
            f"no limit of cardinals above {render(a)} below the bound {render(structure.bound)}")
    return result


def sup_of_cardinals_below(structure: CardinalStructure,
                           a: OrdinalLike) -> Optional[Tuple[Ordinal, bool]]:
    """(sup of cardinals < a, attained?) or None when a == 0.

    attained is False exactly when the cardinals are cofinal in a, in which
    case the supremum equals a itself.
    """
    a = _coerce(a)
    _check_in_bound(structure, a)
    if a.is_zero():
        return None
    if a.is_finite():
        return (left_sub(ONE, a), True)
    if a == OMEGA:
        return (OMEGA, False)
    if structure.kind == OMEGA_POWERS:
        e = leading_exponent(a)
        if len(a.terms) == 1 and a.terms[0][1] == 1:
            if classify(e) == "limit":
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


# -- hereditarily finite sets -----------------------------------------------


class HFSet:
    """An immutable extensional finite set of HFSets, hash-consed: equal sets
    are the same object, so equality is identity.

    Construction looks the member set up in a weak intern table: __new__
    returns the live object with those members if there is one, and __init__
    fills rank and hash only on a fresh object.  An entry goes away with the
    last reference to its set.
    """

    __slots__ = ("members", "rank", "_hash", "__weakref__")

    def __new__(cls, members: Iterable["HFSet"] = ()):
        members = frozenset(members)
        self = _interned.get(members)
        if self is None:
            with _intern_lock:      # look again: two threads must not both create it
                self = _interned.get(members)
                if self is None:
                    self = object.__new__(cls)
                    object.__setattr__(self, "members", members)
                    _interned[members] = self
        return self

    def __init__(self, members: Iterable["HFSet"] = ()):
        if not hasattr(self, "_hash"):
            members = self.members
            object.__setattr__(self, "rank", 1 + max((m.rank for m in members), default=-1))
            # hash by value, not by address, so that iteration orders of sets
            # of HFSets stay the same from run to run
            object.__setattr__(self, "_hash", hash(members))

    def __setattr__(self, name, value):
        raise AttributeError("HFSet is immutable")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other

    def __contains__(self, element: "HFSet") -> bool:
        return element in self.members

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members, key=_hf_sort_key))

    def __str__(self):
        return render_hf(self)

    def __repr__(self):
        return f"HFSet({render_hf(self)})"


# member set -> the one live HFSet with those members
_interned: "weakref.WeakValueDictionary[FrozenSet[HFSet], HFSet]" = weakref.WeakValueDictionary()
_intern_lock = threading.Lock()
EMPTY_SET = HFSet()


def _hf_sort_key(s: HFSet):
    return (s.rank, len(s.members), render_hf(s))


def hf(*members: HFSet) -> HFSet:
    return HFSet(members)


def render_hf(s: HFSet) -> str:
    return "{" + ",".join(render_hf(m) for m in sorted(s.members, key=_hf_sort_key)) + "}"


def parse_hf(text: str) -> HFSet:
    """Parse nested braces such as "{{},{{}}}" into an HFSet."""
    pos = 0

    def node() -> HFSet:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text) or text[pos] != "{":
            raise ValueError(f"expected '{{' at position {pos} in {text!r}")
        pos += 1
        members = []
        while True:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos < len(text) and text[pos] == "}":
                pos += 1
                return HFSet(members)
            if members:
                if pos >= len(text) or text[pos] != ",":
                    raise ValueError(f"expected ',' or '}}' at position {pos} in {text!r}")
                pos += 1
            members.append(node())

    result = node()
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos != len(text):
        raise ValueError(f"trailing input at position {pos} in {text!r}")
    return result


POWERSET_CAP = 16


def hf_card(s: HFSet) -> int:
    return len(s.members)


def hf_powerset(s: HFSet) -> HFSet:
    if len(s.members) > POWERSET_CAP:
        raise PowersetCapError(f"powerset argument exceeds the size cap of {POWERSET_CAP}")
    subsets = [EMPTY_SET]
    for e in s.members:
        subsets += [HFSet(sub.members | {e}) for sub in subsets]
    return HFSet(subsets)


def kuratowski(a: HFSet, b: HFSet) -> HFSet:
    return HFSet((HFSet((a,)), HFSet((a, b))))


def hf_product(a: HFSet, b: HFSet) -> HFSet:
    """Cartesian product as a set of Kuratowski pairs."""
    return HFSet(kuratowski(x, y) for x in a.members for y in b.members)


def transitive_closure(s: HFSet) -> FrozenSet[HFSet]:
    """All sets hereditarily reachable from s, including s itself."""
    seen = set()
    stack = [s]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(node.members)
    return frozenset(seen)


# -- membership codes --------------------------------------------------------


def _as_nat(value) -> int:
    if isinstance(value, Ordinal):
        return value.to_int()
    return int(value)


@dataclass(frozen=True)
class SetCode:
    """A finite membership graph: node ids 0..domain-1, root, and the edge
    set {pair(x, y) : x is a member of y} packed with cantor_pair.

    Node ids are plain ints; everything here stays at desk scale.  Finite
    Ordinal values are accepted and converted on construction.

    A code is immutable, so it works out its child map, its validity verdict
    and its decoded nodes once, on first use, and keeps them.
    """

    domain: int
    edges: FrozenSet[int]
    root: int

    def __post_init__(self):
        if type(self.domain) is not int:
            object.__setattr__(self, "domain", _as_nat(self.domain))
        edges = self.edges
        if not (isinstance(edges, frozenset) and all(type(e) is int for e in edges)):
            object.__setattr__(self, "edges", frozenset(_as_nat(e) for e in edges))
        if type(self.root) is not int:
            object.__setattr__(self, "root", _as_nat(self.root))

    @cached_property
    def _children(self) -> Dict[int, List[int]]:
        """node -> its member node ids, ascending."""
        children: Dict[int, List[int]] = {}
        for edge in self.edges:
            x, y = cantor_unpair(edge)
            children.setdefault(y, []).append(x)
        for v in children.values():
            v.sort()
        return children

    @cached_property
    def _verdict(self) -> int:
        return _check_code(self)

    @cached_property
    def _decoded(self) -> Dict[int, HFSet]:
        """node -> its HFSet, filled as nodes are decoded."""
        return {}


def cantor_pair(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + y


def cantor_unpair(z: int) -> Tuple[int, int]:
    w = (math.isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return (w - y, y)


def encode_hf(s: HFSet) -> SetCode:
    """Deterministic canonical code: nodes are numbered by rank, then by
    their sorted member-id tuples, so equal sets always get equal codes."""
    nodes = sorted(transitive_closure(s), key=lambda n: n.rank)
    ids: Dict[HFSet, int] = {}
    for rank, group in itertools.groupby(nodes, key=lambda n: n.rank):
        keyed = sorted(group, key=lambda n: (len(n.members),
                                             sorted(ids[m] for m in n.members)))
        for node in keyed:
            ids[node] = len(ids)
    edges = frozenset(cantor_pair(ids[m], ids[n]) for n in ids for m in n.members)
    return SetCode(domain=len(ids), edges=edges, root=ids[s])


def validate_code(code: SetCode) -> int:
    """1 if the code is a well-formed extensional well-founded membership
    graph in which every edge-touched node reaches the root, else 0.  The
    verdict is worked out once per code object."""
    return code._verdict


def _check_code(code: SetCode) -> int:
    if not (0 <= code.root < code.domain):
        return 0
    children = code._children
    touched = set(children).union(*children.values())
    if touched and not (0 <= min(touched) and max(touched) < code.domain):
        return 0
    # well-founded: the membership digraph is acyclic
    state: Dict[int, int] = {}

    def has_cycle(node: int) -> bool:
        state[node] = 1
        for child in children.get(node, ()):
            mark = state.get(child)
            if mark == 1:
                return True
            if mark is None and has_cycle(child):
                return True
        state[node] = 2
        return False

    for node in list(touched) + [code.root]:
        if state.get(node) is None and has_cycle(node):
            return 0
    # every touched node must sit in the transitive closure of the root
    reaches = {code.root}
    frontier = [code.root]
    while frontier:
        node = frontier.pop()
        for child in children.get(node, ()):
            if child not in reaches:
                reaches.add(child)
                frontier.append(child)
    if not touched <= reaches:
        return 0
    # extensional: no two present nodes share the same member set
    member_sets = {}
    for node in reaches:
        key = tuple(children.get(node, ()))
        if key in member_sets:
            return 0
        member_sets[key] = node
    return 1


def _decode_node(code: SetCode, node: int) -> HFSet:
    memo = code._decoded
    children = code._children

    def build(n: int) -> HFSet:
        s = memo.get(n)
        if s is None:
            s = memo[n] = HFSet([build(c) for c in children.get(n, ())])
        return s

    return build(node)


def decode_set(code: SetCode) -> HFSet:
    """Rebuild the HFSet named by the root; InvalidCodeError on bad codes."""
    if not validate_code(code):
        raise InvalidCodeError("not a valid membership code")
    return _decode_node(code, code.root)


def code_elements(code: SetCode) -> List[int]:
    """Node ids of the root's members, in ascending id order (the canonical
    enumeration order of the coded set)."""
    if not validate_code(code):
        raise InvalidCodeError("not a valid membership code")
    return list(code._children.get(code.root, ()))


def decode_element(code: SetCode, node: int) -> HFSet:
    """Decode a single node of a valid code."""
    if not (0 <= node < code.domain):
        raise InvalidCodeError(f"node {node} outside domain {code.domain}")
    return _decode_node(code, node)


# -- the pairing bijection ---------------------------------------------------


def godel_pair(a: OrdinalLike, b: OrdinalLike) -> Ordinal:
    """Pack two ordinals into one, exponent slot by exponent slot.

    At each exponent the coefficient pair (from a, from b) is combined with
    the diagonal polynomial; absent terms contribute 0.  On natural numbers
    this reduces to the diagonal polynomial itself.
    """
    a, b = _coerce(a), _coerce(b)
    slots: Dict[Ordinal, List[int]] = {}
    for e, c in a.terms:
        slots.setdefault(e, [0, 0])[0] = c
    for e, c in b.terms:
        slots.setdefault(e, [0, 0])[1] = c
    terms = tuple((e, cantor_pair(*slots[e]))
                  for e in sorted(slots, reverse=True))
    return Ordinal(terms)


def godel_unpair(z: OrdinalLike) -> Tuple[Ordinal, Ordinal]:
    z = _coerce(z)
    left, right = [], []
    for e, c in z.terms:
        x, y = cantor_unpair(c)
        if x:
            left.append((e, x))
        if y:
            right.append((e, y))
    return Ordinal(tuple(left)), Ordinal(tuple(right))
