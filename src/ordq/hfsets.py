"""Hereditarily finite sets and their membership codes.

HFSet values and their membership codes (SetCode: a finite extensional
well-founded edge set over node ids, edges packed with the Cantor pairing
function).  parse_hf reads brace literals on ordcalc's scanner, with the
rules of every text format; NESTING_CAP is ordcalc's, re-exported here.
Only set-typed entries, separation and set literals load this module;
ordq.universe, which holds the cardinal structures, forwards its public
names, so that ``from ordq.universe import encode_hf`` and pickles that
name ordq.universe still work.

An HFSet is a frozenset of HFSets with a rank, so equality, hashing and
membership are frozenset's, by value, in C.  Equal sets built apart are
distinct objects; the empty set that parse_hf and the decoders build is
always EMPTY_SET.  A set is its own copy, and pickles as its code.

A SetCode is given by its edges, as SetCode(domain, edges, root), or by a
numbering, a pass that answers its domain, root, child map and decoded
nodes: encode_hf runs its pass at once, and a Pot answer's pass is pending
(_numbered_code).  Each other derived field is worked out once per code,
on first read, by SetCode.__getattr__, the one place that fills them: the
pending numbering, the edge set from the child map, the child map from the
edge set, the validity verdict and the decoded nodes.  Every decode asks
for the verdict.  A code pickles as its edges, and its str() is its ledger
text, code(domain=...,root=...,edges=N), which reports show.

encode_hf numbers its code at once, with a pass that is memoized for the
last 128 sets of rank up to NESTING_CAP: codes of equal sets share the
child map and the decoded nodes below the root.  The Pot oracle answers on
codes: powerset_code checks its argument at once (InvalidCodeError, then
PowersetCapError) and returns a code that is numbered on first read: the
canonical code of the power set is built from the argument's child map,
with no HFSet and no sort per subset, the first time anything of the answer
is read.  An answer nothing reads, such as the second Pot answer of a
count-only powercard run, is never numbered.

encode_hf and the power-set numbering both number their nodes one rank at a
time, lowest first, in the canonical order (member count, then member ids),
written two ways: encode_hf sorts each rank's member-id tuples, and the
power-set numbering lists each rank's subsets with itertools.combinations
over the new ids of the argument's members, which come out in that order
already.  The reference_powerset_code tests in tests/test_universe.py keep
the two in agreement.

The last part holds the powercard_via_pot entry's host subroutines and
reference (ordq.reductions names them in its catalog).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, filterfalse
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, List, Tuple

from ._record import Record, _set
from .ordcalc import NESTING_CAP, InputError, Ordinal, _Scanner


class InvalidCodeError(InputError):
    """A SetCode failed validation."""


class PowersetCapError(InputError):
    """A power set argument has more than POWERSET_CAP members."""


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
        # pickle rebuilds the set from its code, which pickles as its edges:
        # a rebuild from the members would recurse several frames per level,
        # and the default reduce sets the rank slot, which __setattr__ refuses
        return decode_set, (encode_hf(self),)

    def __copy__(self, memo=None):
        # an immutable set of immutable sets is its own copy, deep or not
        return self

    __deepcopy__ = __copy__

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


# the fields a numbering pass answers, in the order it answers them
_NUMBERED = ("domain", "root", "_children", "_decoded")


class SetCode(Record):
    """A finite membership graph: node ids 0..domain-1, root, and the edge
    set {pair(x, y) : x is a member of y} packed with cantor_pair.

    A code is given by its edges, as SetCode(domain, edges, root), or by a
    numbering, a pass that answers its domain, root, child map and decoded
    nodes (encode_hf, or _numbered_code for a pending one).  Node ids are
    plain ints; everything here stays at desk scale.  The domain, each edge
    and the root of a code given by its edges take an int that is not a
    bool, or a finite Ordinal, which is converted on construction; anything
    else raises InvalidCodeError naming the field.  A numbering answers
    ints, and skips that check.

    A code is immutable, so __getattr__ works out each derived field once,
    on first read, and keeps it in the instance dict, where later reads
    find it: a pending numbering (on the first read of any field it
    answers), the edge set from the child map (for equality, hashing and
    repr), the child map from the edge set, the validity verdict and the
    decoded nodes.
    encode_hf numbers its code at once; a Pot answer (powerset_code) is
    numbered on first read.  Copy and pickle rebuild a code from its edges.

    str() gives the ledger text, code(domain=...,root=...,edges=N): it
    numbers a pending code, counts a numbered code's edges from its child
    map, and neither validates nor unpacks a code given by its edges.
    """

    _fields = ("domain", "edges", "root")

    def __init__(self, domain: int, edges: FrozenSet[int], root: int):
        _set(self, "domain", domain if type(domain) is int else _as_nat(domain, "domain"))
        if not (isinstance(edges, frozenset) and all(type(e) is int for e in edges)):
            edges = frozenset(_as_nat(e, "edges") for e in edges)
        _set(self, "edges", edges)
        _set(self, "root", root if type(root) is int else _as_nat(root, "root"))

    def __getattr__(self, name):
        # only a field not yet in the instance dict gets here; a name that
        # is not a derived field, such as one that pickle or copy probes
        # for, numbers nothing
        fields = self.__dict__
        if name in _NUMBERED and "_number" in fields:
            number, argument = fields["_number"]
            fields.update(zip(_NUMBERED, number(argument)))
            del fields["_number"]
        elif name == "edges":
            fields[name] = frozenset((x + y) * (x + y + 1) // 2 + y
                                     for y, kids in self._children.items() for x in kids)
        elif name == "_children":       # node -> its member ids, ascending; no empty nodes
            children: Dict[int, List[int]] = {}
            for x, y in map(cantor_unpair, self.edges):
                children.setdefault(y, []).append(x)
            fields[name] = {y: tuple(sorted(xs)) for y, xs in children.items()}
        elif name == "_verdict":
            fields[name] = _check_code(self)
        elif name == "_decoded":        # node -> its HFSet, filled as nodes are decoded
            fields[name] = {}
        return object.__getattribute__(self, name)      # filled now, or the usual AttributeError

    def __reduce__(self):
        # by its edges: the decoded nodes would pickle one set per node
        return SetCode, (self.domain, self.edges, self.root)

    def __str__(self):
        # reading the domain numbers a pending Pot answer; a numbered code's
        # child map then gives the count without an edge set, and a code
        # given by its edges is not unpacked, as its edges may be invalid
        domain, root = self.domain, self.root
        children = self.__dict__.get("_children")
        edges = len(self.edges) if children is None else sum(map(len, children.values()))
        return f"code(domain={domain},root={root},edges={edges})"


def cantor_pair(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + y


def cantor_unpair(z: int) -> Tuple[int, int]:
    w = (math.isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return (w - y, y)


def _numbered_code(number, argument) -> SetCode:
    """A code given by a numbering: number(argument) answers its domain,
    root, child map and decoded nodes.  It runs on the first read of any of
    the four, which stores them and drops the pass and its argument."""
    code = object.__new__(SetCode)
    code.__dict__["_number"] = (number, argument)
    return code


def encode_hf(s: HFSet) -> SetCode:
    """Deterministic canonical code: nodes are numbered by rank, then by
    member count, then by their sorted member-id tuples, so equal sets
    always get equal codes.

    Each call returns a new code, numbered at once, which stores the child
    map and decoded nodes of the numbering pass and no edge set; its
    verdict is still worked out on first decode, and its root decodes to s
    itself.  The numbering of a set of rank up to NESTING_CAP is memoized
    (_numbering), so an equal set encoded again shares the child map and the
    decoded nodes below the root with the earlier codes; a deeper set is
    numbered afresh, since a memo hit compares the two sets, and frozenset
    comparison recurses one level per frame down equal members that are
    distinct objects.

    powerset_code writes the same order a second way, as the order in which
    itertools.combinations lists subsets; the reference_powerset_code tests
    in tests/test_universe.py keep the two in agreement."""
    number = _numbering if s.rank <= NESTING_CAP else _numbering.__wrapped__
    domain, root, children, decoded = number(s)
    # numbered now, so that the caller that encodes pays for it, and
    # straight into the instance dict, with no pending pass to look up; the
    # decoded nodes are a copy of the pass's, in which the root is s itself
    code = object.__new__(SetCode)
    code.__dict__.update(zip(_NUMBERED, (domain, root, children, {**decoded, root: s})))
    return code


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
    return _numbered_code(_number_powerset, (code, _capped_elements(code)))


def _number_powerset(argument: Tuple[SetCode, List[int]]
                     ) -> Tuple[int, int, Dict[int, Tuple[int, ...]], Dict[int, HFSet]]:
    """powerset_code's numbering pass: the domain, root, child map and
    decoded nodes of the power set of the set x that the argument's code
    names, from x's child map and x's members.  No HFSet is built per
    subset.  The decoded nodes are the sets below x that the argument code
    has decoded, so a set decoded from the answer shares them and compares
    with sets decoded from the argument without walking down equal copies.

    The nodes are numbered one rank at a time, lowest first, so the new ids
    of x's members numbered so far (the pool, ascending) end with the block
    of the rank just numbered.  The subsets of the next rank are the
    combinations of the pool whose last id lies in that block, and
    itertools.combinations lists them, member count by member count, in
    canonical order.  The nodes below x that are not subsets (each has a
    member outside x) are merged in by one sort over the two sorted runs,
    and each node below x is found in the merged order by bisection."""
    code, elements = argument
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
            order = sorted(subsets + [t for _, t, _ in sorted(outside)], key=_size_and_ids)
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
    return base + 1, base, new_children, decoded


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
    # a negative edge packs no pair; a code given by a numbering has its
    # child map once the root read above numbered it, so its edge set is
    # not read
    if "_children" not in code.__dict__ and min(code.edges, default=0) < 0:
        return 0
    children = code._children
    if all(kids[-1] < y for y, kids in children.items()):
        # every member lies below its owner, as in every code encode_hf and
        # powerset_code build: there is no cycle, and an owner can be reached
        # only from owners above it, so one sweep down the owners marks the
        # root's transitive closure; an owner not marked when the sweep gets
        # to it is touched and never reached
        reached = {code.root}
        for y in sorted(children, reverse=True):
            if y not in reached:
                return 0
            reached.update(children[y])
        # every touched node is now reached, and none lies above the root,
        # which is in the domain; only a negative id can fall outside it
        if min(reached) < 0:
            return 0
    else:
        touched = set(children).union(*children.values())
        if touched and not (0 <= min(touched) and max(touched) < code.domain):
            return 0
        # well-founded: no cycle through the nodes the root reaches (a search
        # on an explicit stack); the nodes it marks are the root's transitive
        # closure
        reached = {code.root: 1}        # node -> 1 on the stack, 2 done
        stack = [(code.root, iter(children.get(code.root, ())))]
        while stack:
            node, kids = stack[-1]
            for child in kids:
                mark = reached.get(child)
                if mark == 1:
                    return 0
                if mark is None:
                    reached[child] = 1
                    stack.append((child, iter(children.get(child, ()))))
                    break
            else:
                reached[node] = 2
                stack.pop()
        # every touched node must sit in the transitive closure of the root,
        # so the search above also covered every cycle among them
        if not touched <= reached.keys():
            return 0
    # extensional: no two reached nodes share a member set.  Every owner is
    # reached, and the child map holds no empty member tuple, so that holds
    # when the owners' member sets differ and at most one reached node (the
    # empty set) has no members
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


# -- powercard_via_pot's host subroutines and reference ----------------------


def _is_transitive(rows: List[int]) -> bool:
    """rows[i] is the bit set of the j with (i, j) in the relation; it is
    transitive when each such row j lies inside row i (Warshall, JACM 1962)."""
    for row in rows:
        rest = row
        while rest:
            low = rest & -rest
            if rows[low.bit_length() - 1] & ~row:
                return False
            rest ^= low
    return True


def _minimal_well_order_length(power_code: SetCode, relations_code: SetCode) -> Ordinal:
    """Scan the relations for a well-ordering of the power set and return its
    length, n, at the first one found: every well-ordering of an n-element
    set has length n.  ValueError when no relation is one.

    Only the small power set is decoded.  Every relation's member count is
    read from the relations code's child map, and only the relations with
    n(n-1)/2 members can be strict total orders.  Each distinct member node
    of those is decoded once and mapped to bit i*n+j when it is the pair
    (i, j), or to the stray bit above all pairs when it is not a pair; a
    relation is then the sum of its members' bits, and its n rows are tested
    with int operations."""
    elements = list(decode_set(power_code))
    n = len(elements)
    stray = 1 << (n * n)
    bit_of = {kuratowski(a, b): 1 << (i * n + j)
              for i, a in enumerate(elements)
              for j, b in enumerate(elements)}
    relations = code_elements(relations_code)
    children = relations_code._children
    # an irreflexive transitive relation is asymmetric, so it is total
    # exactly when it holds one pair of each of the n(n-1)/2 two-element
    # sets; distinct member nodes are distinct sets, so a relation with that
    # many members and no stray one holds that many pairs
    total_pairs = n * (n - 1) // 2
    sized = [kids for kids in (children.get(r, ()) for r in relations)
             if len(kids) == total_pairs]
    bit = {node: bit_of.get(decode_element(relations_code, node), stray)
           for node in set().union(*sized)}
    diagonal = sum(1 << (i * n + i) for i in range(n))
    full_row = (1 << n) - 1
    for kids in sized:
        pairs = sum(map(bit.__getitem__, kids))
        if pairs >= stray or pairs & diagonal:
            continue
        if _is_transitive([(pairs >> (i * n)) & full_row for i in range(n)]):
            # finite strict total orders are exactly the well-orderings
            return Ordinal.from_int(n)
    raise ValueError("no well-ordering among the relations")


def _square_code(power_code: SetCode) -> SetCode:
    s = decode_set(power_code)
    return encode_hf(hf_product(s, s))


def _count_power(power_code: SetCode, _unused) -> Ordinal:
    # counts the root's members without decoding them; the code is still
    # validated, so a bad one raises InvalidCodeError
    return Ordinal.from_int(len(code_elements(power_code)))


def _ref_powercard(_structure, code):
    return Ordinal.from_int(2 ** len(decode_set(code)))
