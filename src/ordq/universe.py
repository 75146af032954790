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

The five cardinal queries (is_cardinal, card_of, next_card_of,
next_limit_of_cardinals_above, sup_of_cardinals_below) answer None for
"no such point": for an argument at or past the working bound, and when the
point they look for does not exist below it.  This module is the one place
that decides it (_within_bound wraps each query for the first case), and
callers pass None on rather than catch an error.

The second half of the module is the hereditarily finite set side: HFSet
values and their membership codes (SetCode: a finite extensional
well-founded edge set over node ids, edges packed with the Cantor pairing
function).  parse_hf reads brace literals on ordcalc's scanner, with the
rules of every text format; NESTING_CAP is ordcalc's, re-exported here.

An HFSet is a frozenset of HFSets with a rank, so equality, hashing and
membership are frozenset's, by value, in C.  Equal sets built apart are
distinct objects; the empty set that parse_hf and the decoders build is
always EMPTY_SET.  A SetCode is validated once per object: its child map,
validity verdict and decoded nodes are worked out on first use and kept on
the code.  A code built by encode_hf keeps the child map and decoded nodes
the encoder has in hand and no edge set, which is derived on demand; its
verdict is still worked out on first decode.  Every decode asks for it.

The Pot oracle answers on codes: powerset_code builds the canonical code of
a power set from the argument's child map, one int mask per subset and no
HFSet per subset.  encode_hf and powerset_code number their nodes one rank
at a time, lowest first, through one shared step (_number_rank: member
count, then sorted member ids), so the canonical order is written once.
powerset_code hands out the argument's member bits in the order of their
new ids, so each subset's member tuple comes out ascending and no subset is
sorted.
"""

from __future__ import annotations

import math
from functools import cached_property, wraps
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ._record import Record, _set
from .ordcalc import (
    NESTING_CAP,
    OMEGA,
    ONE,
    InputError,
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
    _Scanner,
)

OMEGA_POWERS = "omega-powers"
MULTIPLES_OF_OMEGA = "multiples-of-omega"
EXPLICIT_LIST = "explicit-list"

KINDS = (OMEGA_POWERS, MULTIPLES_OF_OMEGA, EXPLICIT_LIST)


class OutOfStructureError(InputError):
    """A pointwise cardinal oracle was asked about an ordinal that is not
    below the structure's working bound."""


class InvalidCodeError(InputError):
    """A SetCode failed validation."""


class PowersetCapError(InputError):
    """A power set argument has more than POWERSET_CAP members."""


class CardinalStructure(Record):
    """A kind tag, a working bound, and (for explicit-list) the list."""

    __slots__ = _fields = ("kind", "bound", "cardinals")

    def __init__(self, kind: str, bound: Ordinal, cardinals: Tuple[Ordinal, ...] = ()):
        if kind not in KINDS:
            raise ValueError(f"unknown structure kind {kind!r}")
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
    cardinals); it is inserted here and the result is checked.
    """
    bound = _coerce(bound)
    values = sorted({_coerce(c) for c in cardinals} | {OMEGA})
    for v in values:
        if v.is_finite():
            raise InputError(f"explicit cardinal {v} must be infinite")
        if v >= bound:
            raise InputError(f"explicit cardinal {v} must lie below the bound {bound}")
    structure = CardinalStructure(EXPLICIT_LIST, bound, tuple(values))
    assert _limit_closed(structure)
    return structure


def _limit_closed(structure: CardinalStructure) -> bool:
    # sup of the finite cardinals is w, which must be in the class; a finite
    # class contributes no further limit points
    return is_cardinal(structure, OMEGA) == 1


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
        return None
    return result if result < structure.bound else None


@_within_bound
def sup_of_cardinals_below(structure: CardinalStructure,
                           a: Ordinal) -> Optional[Tuple[Ordinal, bool]]:
    """(sup of cardinals < a, attained?); None when a == 0 or a is past
    the bound.

    attained is False exactly when the cardinals are cofinal in a, in which
    case the supremum equals a itself.
    """
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


class HFSet(frozenset):
    """An immutable extensional finite set of HFSets: the frozenset of its
    members, plus its rank.

    Equality, hashing, membership and len are frozenset's and run in C, so
    an HFSet equals a frozenset with the same members and hashes like it.
    Equal sets may be distinct objects.  Iteration is in frozenset order;
    render_hf writes members in the canonical (rank, size, text) order.
    """

    __slots__ = ("rank",)

    # Named so that the class dict holds __eq__, which perfbench's layer
    # trace wraps from there to count calls; a class that names __eq__
    # without __hash__ gets no hash.  Both stay frozenset's C slots.
    __eq__ = frozenset.__eq__
    __hash__ = frozenset.__hash__

    def __init__(self, members: Iterable["HFSet"] = ()):
        _set_rank(self, 1 + max((m.rank for m in self), default=-1))

    def __setattr__(self, name, value):
        raise AttributeError("HFSet is immutable")

    @property
    def members(self) -> "HFSet":
        """The set itself, which is the frozenset of its members."""
        return self

    def __str__(self):
        return render_hf(self)

    def __repr__(self):
        return f"HFSet({render_hf(self)})"


_set_rank = HFSet.rank.__set__
EMPTY_SET = HFSet()


def hf(*members: HFSet) -> HFSet:
    return HFSet(members)


def render_hf(s: HFSet) -> str:
    """Nested-brace text of s, members in (rank, size, text) order.  Nodes
    are rendered in rank order, so members come first and deep sets do not
    recurse; each node's text is built once per call and reused for both
    the sort and the join, so the work does not double with every level of
    nesting."""
    text: Dict[HFSet, str] = {}
    for n in sorted(transitive_closure(s), key=attrgetter("rank")):
        keyed = sorted([(m.rank, len(m), text[m]) for m in n])
        text[n] = "{" + ",".join([k[2] for k in keyed]) + "}"
    return text[s]


POWERSET_CAP = 16


def _set_literal(p: _Scanner) -> HFSet:
    """The set rule, reading the text through local names (faster than a
    scanner call per token); its open braces are its depth ("{}" is 1)."""
    text, end, pos = p.text, len(p.text), p.pos
    open_sets: List[list] = []      # the member lists of the unclosed braces
    allowed = "{"
    while True:
        while pos < end and text[pos].isspace():
            pos += 1
        if pos == end or text[pos] not in allowed:
            p.pos = pos
            p.error("expected " + " or ".join(map(repr, allowed)))
        ch = text[pos]
        pos += 1
        if ch == "{":
            if len(open_sets) == NESTING_CAP:       # the scanner's guard refuses it
                p.pos, p.depth = pos - 1, NESTING_CAP
                p.enter()
            open_sets.append([])
            allowed = "{}"
        elif ch == "}":
            members = open_sets.pop()
            s = HFSet(members) if members else EMPTY_SET
            if not open_sets:
                p.pos = pos
                return s
            open_sets[-1].append(s)
            allowed = ",}"
        else:
            allowed = "{"


def parse_hf(text: str) -> HFSet:
    """Parse nested braces such as "{{},{{}}}" into an HFSet; ValueError on
    bad syntax or nesting deeper than NESTING_CAP."""
    return _Scanner(text, ValueError).read_all(_set_literal)


def hf_card(s: HFSet) -> int:
    return len(s)


def hf_powerset(s: HFSet) -> HFSet:
    if len(s) > POWERSET_CAP:
        raise PowersetCapError(f"powerset argument exceeds the size cap of {POWERSET_CAP}")
    subsets = [EMPTY_SET]
    for e in s:
        subsets += [HFSet(sub | {e}) for sub in subsets]
    return HFSet(subsets)


def kuratowski(a: HFSet, b: HFSet) -> HFSet:
    return HFSet((HFSet((a,)), HFSet((a, b))))


def hf_product(a: HFSet, b: HFSet) -> HFSet:
    """Cartesian product as a set of Kuratowski pairs."""
    return HFSet(kuratowski(x, y) for x in a for y in b)


def transitive_closure(s: HFSet) -> FrozenSet[HFSet]:
    """All sets hereditarily reachable from s, including s itself."""
    seen = {s}
    frontier = seen
    while frontier:
        # a node is the set of its members; set operations reuse the hashes
        # they already store
        frontier = set().union(*frontier)
        frontier -= seen
        seen |= frontier
    return frozenset(seen)


# -- membership codes --------------------------------------------------------


def _as_nat(value) -> int:
    if isinstance(value, Ordinal):
        return value.to_int()
    return int(value)


class SetCode(Record):
    """A finite membership graph: node ids 0..domain-1, root, and the edge
    set {pair(x, y) : x is a member of y} packed with cantor_pair.

    Node ids are plain ints; everything here stays at desk scale.  Finite
    Ordinal values are accepted and converted on construction; encode_hf,
    which builds its fields from ints, skips that check.

    A code is immutable, so it works out its child map, its validity verdict
    and its decoded nodes once, on first use, and keeps them.  A code built
    by encode_hf or powerset_code stores its child map (and encode_hf's
    decoded nodes); its edge set is derived on demand, for equality, hashing
    and repr, and its verdict is worked out on first decode.
    """

    _fields = ("domain", "edges", "root")

    def __init__(self, domain: int, edges: FrozenSet[int], root: int):
        _set(self, "domain", domain if type(domain) is int else _as_nat(domain))
        if not (isinstance(edges, frozenset) and all(type(e) is int for e in edges)):
            edges = frozenset(_as_nat(e) for e in edges)
        _set(self, "edges", edges)
        _set(self, "root", root if type(root) is int else _as_nat(root))

    @cached_property
    def edges(self) -> FrozenSet[int]:
        """A built code's edge set, packed from its child map on first read."""
        return frozenset((x + y) * (x + y + 1) // 2 + y
                         for y, kids in self._children.items() for x in kids)

    @cached_property
    def _children(self) -> Dict[int, Tuple[int, ...]]:
        """node -> its member node ids, ascending; nodes without members are
        absent."""
        children: Dict[int, List[int]] = {}
        for edge in self.edges:
            x, y = cantor_unpair(edge)
            children.setdefault(y, []).append(x)
        return {y: tuple(sorted(xs)) for y, xs in children.items()}

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


def _number_rank(group: dict, ids: dict, children: Dict[int, Tuple[int, ...]]) -> None:
    """Give one rank's nodes the next ids in canonical order: by member
    count, then by member-id tuple.

    group maps each node's ascending member-id tuple to its key (the tuples
    of distinct sets differ); ids maps keys to ids, and its length is the
    next id.  Each node with members gets its tuple in the child map.
    encode_hf and powerset_code number every rank through here, lowest
    first, so the canonical order (rank, member count, member ids) is
    written once."""
    # member count, then member ids: two stable sorts with no key tuple per
    # node (such tuples, freed amid the kept ones, raised peak RSS)
    order = sorted(group)
    order.sort(key=len)
    for kids in order:
        i = ids[group[kids]] = len(ids)
        if kids:
            children[i] = kids


def _built_code(domain: int, root: int, children: Dict[int, Tuple[int, ...]],
                decoded: Dict[int, HFSet]) -> SetCode:
    """A SetCode that starts out with its child map and decoded nodes and no
    edge set.  The fields are ints already, so __init__'s per-edge type
    check is skipped; cached_property reads the instance dict first, so the
    child map and the decoded nodes are the cache."""
    code = object.__new__(SetCode)
    code.__dict__.update(domain=domain, root=root, _children=children, _decoded=decoded)
    return code


def encode_hf(s: HFSet) -> SetCode:
    """Deterministic canonical code: nodes are numbered by rank, then by
    member count, then by their sorted member-id tuples, so equal sets
    always get equal codes.

    The returned code stores the child map and decoded nodes the numbering
    pass has in hand, and no edge set; its verdict is still worked out on
    first decode."""
    closure = transitive_closure(s)
    by_rank: List[List[HFSet]] = [[] for _ in range(s.rank + 1)]
    for node in closure:
        by_rank[node.rank].append(node)
    # keyed by node: the closure holds one node per value, and a member
    # may be another object equal to it
    ids: Dict[HFSet, int] = {}
    children: Dict[int, Tuple[int, ...]] = {}
    for group in by_rank:
        # members have lower rank, so they already have ids
        _number_rank({tuple(sorted(map(ids.__getitem__, node))): node for node in group},
                     ids, children)
    decoded = {i: node for node, i in ids.items()}
    return _built_code(len(ids), ids[s], children, decoded)


def _capped_elements(code: SetCode) -> List[int]:
    """code_elements of a power set argument: InvalidCodeError on a bad code,
    then PowersetCapError above POWERSET_CAP members."""
    elements = code_elements(code)
    if len(elements) > POWERSET_CAP:
        raise PowersetCapError(f"powerset argument exceeds the size cap of {POWERSET_CAP}")
    return elements


def powerset_code(code: SetCode) -> SetCode:
    """The canonical code of the power set of the set x that code names,
    equal to encode_hf(hf_powerset(decode_set(code))) but built from x's
    child map: InvalidCodeError on a bad code, then PowersetCapError above
    POWERSET_CAP members, both before anything is built.  No HFSet is
    built per subset.  The code stores its child map and, as decoded nodes,
    the sets below x that the argument has decoded, so a set decoded from
    the answer shares them and compares with sets decoded from the argument
    without walking down equal copies.

    The nodes are numbered one rank at a time, through the same step as
    encode_hf's.  Each subset is an int mask over x's members, and a member
    takes the next bit once its rank is numbered, so bit order is id order.
    The masks that a member of rank r tops are then the subsets of rank
    r + 1, and each one's ascending member-id tuple is the tuple of the mask
    without its top bit plus that bit's id: no subset is sorted.  A node
    below x whose members all lie in x is a subset, and takes its mask's
    id."""
    elements = _capped_elements(code)
    children = code._children
    rank: Dict[int, int] = {}           # old id -> rank, for the nodes below x
    for n in elements:                  # members first, on an explicit stack
        stack = [n]
        while n not in rank:
            m = stack[-1]
            todo = [c for c in children.get(m, ()) if c not in rank]
            if todo:
                stack += todo
            elif stack.pop() not in rank:      # m may be on the stack twice
                rank[m] = 1 + max(map(rank.__getitem__, children.get(m, ())), default=-1)
    x_rank = 1 + max(map(rank.__getitem__, elements), default=-1)
    below: List[List[int]] = [[] for _ in range(x_rank + 1)]
    for n, r in rank.items():
        below[r].append(n)
    in_x = set(elements)
    # a node's key is ~mask for a subset, and its old id for any other node
    ids: Dict[int, int] = {}
    key: Dict[int, int] = {}            # old id of a subset -> ~mask
    bit: Dict[int, int] = {}            # member of x -> its bit
    subset_kids: List[Tuple[int, ...]] = [()]      # mask -> its member ids
    first = 0                           # the first mask of the rank
    new_children: Dict[int, Tuple[int, ...]] = {}
    for r in range(x_rank + 1):
        group = {subset_kids[m]: ~m for m in range(first, len(subset_kids))}
        for n in below[r]:
            kids = children.get(n, ())
            if all(c in bit for c in kids):
                key[n] = ~sum(map(bit.__getitem__, kids))
            else:
                group[tuple(sorted(ids[key.get(c, c)] for c in kids))] = n
        _number_rank(group, ids, new_children)
        first = len(subset_kids)
        for i, e in sorted((ids[key.get(e, e)], e) for e in below[r] if e in in_x):
            bit[e] = len(subset_kids)
            subset_kids += [t + (i,) for t in subset_kids]
    # the power set, the one node of the top rank, has every subset as a member
    size = len(subset_kids)
    _number_rank({tuple(sorted(ids[~m] for m in range(size))): ~size}, ids, new_children)
    old = code._decoded
    decoded = {ids[key.get(n, n)]: old[n] for n in rank if n in old}
    return _built_code(len(ids), len(ids) - 1, new_children, decoded)


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
    # well-founded: no cycle through the nodes the root reaches (a search on
    # an explicit stack); the nodes it marks are the root's transitive closure
    state: Dict[int, int] = {code.root: 1}      # 1 on the stack, 2 done
    stack = [(code.root, iter(children.get(code.root, ())))]
    while stack:
        node, kids = stack[-1]
        for child in kids:
            mark = state.get(child)
            if mark == 1:
                return 0
            if mark is None:
                state[child] = 1
                stack.append((child, iter(children.get(child, ()))))
                break
        else:
            state[node] = 2
            stack.pop()
    # every touched node must sit in the transitive closure of the root, so
    # the search above also covered every cycle among them
    if not touched <= state.keys():
        return 0
    # extensional: no two present nodes share the same member set
    member_sets = {children.get(node, ()) for node in state}
    return int(len(member_sets) == len(state))


def _decode_node(code: SetCode, node: int) -> HFSet:
    """Decode node of a valid code, members first, on an explicit stack."""
    memo = code._decoded
    children = code._children
    stack = [node]
    while node not in memo:
        n = stack[-1]
        todo = [c for c in children.get(n, ()) if c not in memo]
        if todo:
            stack += reversed(todo)
        elif stack.pop() not in memo:      # n may be on the stack twice
            kids = children.get(n)
            memo[n] = HFSet([memo[c] for c in kids]) if kids else EMPTY_SET
    return memo[node]


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
    """Decode a single node of a valid code; InvalidCodeError on bad codes."""
    if not validate_code(code):
        raise InvalidCodeError("not a valid membership code")
    if not (0 <= node < code.domain):
        raise InvalidCodeError(f"node {node} outside domain {code.domain}")
    return _decode_node(code, node)
