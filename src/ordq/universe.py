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

The four cardinal queries (is_cardinal, card_of, next_card_of,
next_limit_of_cardinals_above) answer None for "no such point": for an
argument at or past the working bound, and when the point they look for
does not exist below it.  This module is the one place that decides it
(_within_bound wraps each query for the first case), and callers pass None
on rather than catch an error.

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
encode_hf builds a new code on every call, from a numbering pass that is
memoized for the last 128 sets of rank up to NESTING_CAP: codes of equal
sets share the child map and the decoded nodes below the root.

The Pot oracle answers on codes: powerset_code checks its argument at once
(InvalidCodeError, then PowersetCapError) and returns a code that is
numbered on first read: the canonical code of the power set is built from
the argument's child map, with no HFSet and no sort per subset, the first
time anything of the answer is read.  An answer nothing reads, such as the
second Pot answer of a count-only powercard run, is never numbered.
encode_hf and the power-set numbering both number their nodes one rank at a
time, lowest first, in the canonical order (member count, then member ids),
written two ways: encode_hf sorts each rank's member-id tuples, and the
power-set numbering lists each rank's subsets with itertools.combinations
over the new ids of the argument's members, which come out in that order
already.  The reference_powerset_code tests in tests/test_universe.py keep
the two in agreement.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cached_property, lru_cache, wraps
from itertools import combinations, filterfalse
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ._record import Record, _set
from .ordcalc import (
    NESTING_CAP,
    OMEGA,
    InputError,
    Ordinal,
    OrdinalLike,
    _coerce,
    add,
    finite_part,
    leading_exponent,
    limit_part,
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

    def __reduce__(self):
        # copy and pickle rebuild the set from its members, which works out
        # the rank again; the default reduce sets the rank slot, which
        # __setattr__ refuses
        return HFSet, (tuple(self),)

    def __deepcopy__(self, memo):
        # an immutable set of immutable sets is its own deep copy; a rebuild
        # would recurse several frames per level
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


def _as_nat(value, field: str) -> int:
    """A SetCode field value as an int: an int that is not a bool, or a
    finite Ordinal; InvalidCodeError naming the field for anything else."""
    if isinstance(value, Ordinal) and value.is_finite():
        return value.to_int()
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    raise InvalidCodeError(f"SetCode {field} takes ints or finite ordinals, not {value!r}")


class SetCode(Record):
    """A finite membership graph: node ids 0..domain-1, root, and the edge
    set {pair(x, y) : x is a member of y} packed with cantor_pair.

    Node ids are plain ints; everything here stays at desk scale.  The
    domain, each edge and the root take an int that is not a bool, or a
    finite Ordinal, which is converted on construction; anything else
    raises InvalidCodeError naming the field.  encode_hf, which builds its
    fields from ints, skips that check.

    A code is immutable, so it works out its child map, its validity verdict
    and its decoded nodes once, on first use, and keeps them.  A code built
    by encode_hf stores its child map, shared with the other codes of equal
    sets, and its own decoded nodes; its edge set is derived on demand, for
    equality, hashing and repr, and its verdict is worked out on first
    decode.  A Pot answer (powerset_code) starts out pending, with its
    argument and no fields, and is numbered on first read: reading its
    domain, root, child map or decoded nodes (and so anything else) runs
    the numbering pass once, which stores all four.
    """

    _fields = ("domain", "edges", "root")

    def __init__(self, domain: int, edges: FrozenSet[int], root: int):
        _set(self, "domain", domain if type(domain) is int else _as_nat(domain, "domain"))
        if not (isinstance(edges, frozenset) and all(type(e) is int for e in edges)):
            edges = frozenset(_as_nat(e, "edges") for e in edges)
        _set(self, "edges", edges)
        _set(self, "root", root if type(root) is int else _as_nat(root, "root"))

    def __getattr__(self, name):
        # only a Pot answer not yet numbered lacks its domain and root
        if name in ("domain", "root") and "_pending" in self.__dict__:
            return _number_powerset(self)[name]
        return object.__getattribute__(self, name)      # the usual AttributeError

    @cached_property
    def edges(self) -> FrozenSet[int]:
        """A built code's edge set, packed from its child map on first read."""
        return frozenset((x + y) * (x + y + 1) // 2 + y
                         for y, kids in self._children.items() for x in kids)

    @cached_property
    def _children(self) -> Dict[int, Tuple[int, ...]]:
        """node -> its member node ids, ascending; nodes without members are
        absent."""
        if "_pending" in self.__dict__:
            return _number_powerset(self)["_children"]
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
        if "_pending" in self.__dict__:
            return _number_powerset(self)["_decoded"]
        return {}


def cantor_pair(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + y


def cantor_unpair(z: int) -> Tuple[int, int]:
    w = (math.isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return (w - y, y)


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

    Each call returns a new code, which stores the child map and decoded
    nodes of the numbering pass and no edge set; its verdict is still worked
    out on first decode, and its root decodes to s itself.  The numbering
    of a set of rank up to NESTING_CAP is memoized (_numbering), so an equal
    set encoded again shares the child map and the decoded nodes below the
    root with the earlier codes; a deeper set is numbered afresh, since a
    memo hit compares the two sets, and frozenset comparison recurses one
    level per frame down equal members that are distinct objects.

    powerset_code writes the same order a second way, as the order in which
    itertools.combinations lists subsets; the reference_powerset_code tests
    in tests/test_universe.py keep the two in agreement."""
    number = _numbering if s.rank <= NESTING_CAP else _numbering.__wrapped__
    domain, root, children, decoded = number(s)
    return _built_code(domain, root, children, {**decoded, root: s})


# a separation verdict encodes its separated set three times (run,
# reference and replay), and a workload's subsets recur
@lru_cache(maxsize=128, typed=True)
def _numbering(s: HFSet) -> Tuple[int, int, Dict[int, Tuple[int, ...]], Dict[int, HFSet]]:
    """encode_hf's numbering pass: the domain, the root, the child map and
    the decoded nodes of s's canonical code.  The codes built from one
    numbering share its child map, and each takes a copy of its decoded
    nodes; neither map is changed after the pass."""
    closure = transitive_closure(s)
    by_rank: List[List[HFSet]] = [[] for _ in range(s.rank + 1)]
    for node in closure:
        by_rank[node.rank].append(node)
    # keyed by node: the closure holds one node per value, and a member
    # may be another object equal to it
    ids: Dict[HFSet, int] = {}
    children: Dict[int, Tuple[int, ...]] = {}
    for group in by_rank:
        # members have lower rank, so they already have ids; the member-id
        # tuples of distinct sets differ
        nodes = {tuple(sorted(map(ids.__getitem__, node))): node for node in group}
        # member count, then member ids: two stable sorts with no key tuple
        # per node (such tuples, freed amid the kept ones, raised peak RSS)
        order = sorted(nodes)
        order.sort(key=len)
        for kids in order:
            i = ids[nodes[kids]] = len(ids)
            if kids:
                children[i] = kids
    decoded = {i: node for node, i in ids.items()}
    return len(ids), ids[s], children, decoded


def _size_and_ids(kids: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    """The canonical order of one rank's nodes: member count, then member
    ids."""
    return len(kids), kids


def _capped_elements(code: SetCode) -> List[int]:
    """code_elements of a power set argument: InvalidCodeError on a bad code,
    then PowersetCapError above POWERSET_CAP members."""
    elements = code_elements(code)
    if len(elements) > POWERSET_CAP:
        raise PowersetCapError(f"powerset argument exceeds the size cap of {POWERSET_CAP}")
    return elements


def powerset_code(code: SetCode) -> SetCode:
    """The canonical code of the power set of the set x that code names:
    InvalidCodeError on a bad code, then PowersetCapError above POWERSET_CAP
    members, both raised by the call.  The answer is numbered on first read:
    the one numbering pass (_number_powerset) runs the first time its
    domain, root, child map or decoded nodes are read, which decoding,
    code_elements, edges, equality, hashing, repr and ledger text all do.
    So a Pot answer that only passes through a ledger, as the second answer
    of a count-only powercard run does, is never numbered unless the ledger
    is written as JSON."""
    answer = object.__new__(SetCode)
    answer.__dict__["_pending"] = (code, _capped_elements(code))
    return answer


def _number_powerset(answer: SetCode) -> Dict[str, object]:
    """Number a pending Pot answer, the power set of the set x that its
    argument code names, from x's child map: store its domain, root, child
    map and decoded nodes, drop the argument, and return its fields.  No
    HFSet is built per subset.  The decoded nodes are the sets below x that
    the argument has decoded, so a set decoded from the answer shares them
    and compares with sets decoded from the argument without walking down
    equal copies.

    The nodes are numbered one rank at a time, lowest first, so the new ids
    of x's members numbered so far (the pool, ascending) end with the block
    of the rank just numbered.  The subsets of the next rank are the
    combinations of the pool whose last id lies in that block, and
    itertools.combinations lists them, member count by member count, in
    canonical order: no rank is sorted.  The nodes below x that are not
    subsets (each has a member outside x) are merged in by bisection, and
    a node below x whose members all lie in x is found among the subsets
    the same way."""
    fields = answer.__dict__
    code, elements = fields["_pending"]
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
    new: Dict[int, int] = {}            # old id -> new id, for the nodes below x
    others: List[int] = []              # new ids of the nodes below x that are not subsets
    pool: List[int] = []                # new ids of x's members numbered so far
    subsets: List[Tuple[int, ...]] = [()]       # the rank's subsets, in canonical order
    new_children: Dict[int, Tuple[int, ...]] = {}
    base = 0                            # the first id of the rank
    for r in range(x_rank + 1):
        inside, outside = [], []
        for n in below[r]:
            kids = children.get(n, ())
            t = tuple(sorted(map(new.__getitem__, kids)))
            (inside if in_x.issuperset(kids) else outside).append((len(t), t, n))
        order = subsets
        if outside:
            order, done = [], 0
            for k, t, n in sorted(outside):
                at = bisect_left(subsets, (k, t), key=_size_and_ids)
                order += subsets[done:at]
                order.append(t)
                done = at
            order += subsets[done:]
        for k, t, n in inside + outside:
            new[n] = base + bisect_left(order, (k, t), key=_size_and_ids)
        others += [new[n] for _, _, n in outside]
        if r:                           # rank 0 is the empty set, which has no members
            new_children.update(zip(range(base, base + len(order)), order))
        base += len(order)
        block = sorted(new[e] for e in below[r] if e in in_x)
        earlier = len(pool)
        pool += block
        subsets = []
        if block:
            for k in range(1, len(pool) + 1):
                # a combination of more members than the earlier pool has ends in the block
                combos = combinations(pool, k)
                subsets += [t for t in combos if t[-1] >= block[0]] if k <= earlier else combos
    # the power set, the one node of the top rank, has every subset as a member
    new_children[base] = tuple(filterfalse(set(others).__contains__, range(base)))
    old = code._decoded
    decoded = {new[n]: old[n] for n in rank if n in old}
    fields.update(domain=base + 1, root=base, _children=new_children, _decoded=decoded)
    del fields["_pending"]
    return fields


def validate_code(code: SetCode) -> int:
    """1 if the code is a well-formed extensional well-founded membership
    graph in which every edge-touched node reaches the root, else 0.  The
    verdict is worked out once per code object: in one sweep down the
    owners when every member lies below its owner, else by a depth-first
    search from the root."""
    return code._verdict


def _check_code(code: SetCode) -> int:
    if not (0 <= code.root < code.domain):
        return 0
    # a negative edge packs no pair; a code built by encode_hf has its child
    # map, and so has a Pot answer once the root read above numbered it, so
    # their edge sets are not read
    if "_children" not in code.__dict__ and min(code.edges, default=0) < 0:
        return 0
    children = code._children
    if all(kids[-1] < y for y, kids in children.items()):
        return _sweep_code(code.root, children)
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


def _sweep_code(root: int, children: Dict[int, Tuple[int, ...]]) -> int:
    """_check_code for a code whose members all lie below their owners, as
    in every code encode_hf and powerset_code build.  Such a code has no
    cycle, and an owner can be reached only from owners above it, so one
    sweep down the owners marks the root's transitive closure: an owner not
    marked when the sweep gets to it is touched and never reached."""
    reached = {root}
    for y in sorted(children, reverse=True):
        if y not in reached:
            return 0
        reached.update(children[y])
    # every touched node is now reached, and none lies above the root,
    # which is in the domain; only a negative id can fall outside it
    if min(reached) < 0:
        return 0
    # extensional: the owners' member sets differ, and at most one reached
    # node (the empty set) has none
    return int(len(set(children.values())) == len(children)
               and len(reached) - len(children) <= 1)


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
    """Decode a single node of a valid code; InvalidCodeError on bad codes,
    and on a node that is not an int or a finite Ordinal in the domain."""
    if not validate_code(code):
        raise InvalidCodeError("not a valid membership code")
    if type(node) is not int:
        node = _as_nat(node, "node")
    if not (0 <= node < code.domain):
        raise InvalidCodeError(f"node {node} outside domain {code.domain}")
    return _decode_node(code, node)
