"""Seeded input generation for the benchmark workloads.

Everything here is independent of ordq: inputs are produced as text (the
same notation a user types) together with the facts the checks need, and
the few expected values the CLI checks compare against are computed with a
small Cantor-normal-form model of our own.

Each workload's stream is stratified: it is cut into blocks, and every
block holds each stratum (reduction x structure, rank x prefix, mode x size,
command kind) in fixed proportions, in a seeded order.  The seed therefore
changes which concrete inputs a run sees, not the mix of work, which keeps
runs with different seeds comparable.

Inputs that reproduce one of ordq's two documented defects (a composed
NextCard scan over an explicit list, with no listed cardinal above the
input, raises; sep_via_truth can FAIL a formula above the oracle's level)
are not in the timed streams, on which every verdict must pass.  Each run
verdicts them apart, from scan_defects and separation_defects, and reports
how many still show the defect.
"""

from __future__ import annotations

import functools
import itertools
import random

# -- a small Cantor normal form model -----------------------------------------
#
# An ordinal is a tuple of (exponent, coefficient) terms with strictly
# decreasing exponents, exponents being ordinals in the same form; () is 0.

ZERO = ()
ONE = ((ZERO, 1),)
OMEGA = ((ONE, 1),)


def nat(n: int) -> tuple:
    return ((ZERO, n),) if n else ZERO


def cmp(a: tuple, b: tuple) -> int:
    for (ea, ca), (eb, cb) in zip(a, b):
        c = cmp(ea, eb)
        if c:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def add(a: tuple, b: tuple) -> tuple:
    if not b:
        return a
    e0, c0 = b[0]
    keep = []
    for e, c in a:
        k = cmp(e, e0)
        if k > 0:
            keep.append((e, c))
            continue
        if k == 0:
            c0 += c
        break
    return tuple(keep) + ((e0, c0),) + b[1:]


def mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ZERO
    e1, c1 = a[0]
    out = []
    for f, d in b:
        if not f:
            out.append((e1, c1 * d))
            out.extend(a[1:])
        else:
            out.append((add(e1, f), d))
    return tuple(out)


def left_sub(a: tuple, b: tuple) -> tuple:
    """The g with a + g = b, for a <= b."""
    i = 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        i += 1
    if i == len(a):
        return b[i:]
    (ea, ca), (eb, cb) = a[i], b[i]
    if cmp(ea, eb) < 0:
        return b[i:]
    return ((eb, cb - ca),) + b[i + 1:]


def is_finite(a: tuple) -> bool:
    return not a or (len(a) == 1 and not a[0][0])


def height(a: tuple) -> int:
    """Nesting depth: 0 for naturals, 1 when every exponent is finite, ..."""
    return 0 if is_finite(a) else 1 + max(height(e) for e, _ in a)


def render(a: tuple) -> str:
    """Canonical text, as ordq's grammar defines it."""
    if not a:
        return "0"
    parts = []
    for e, c in a:
        if not e:
            parts.append(str(c))
            continue
        if e == ONE:
            base = "w"
        elif is_finite(e):
            base = f"w^{e[0][1]}"
        else:
            base = f"w^({render(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)


def next_card_powers(a: tuple) -> tuple:
    """Least cardinal above a when the infinite cardinals are the w^b."""
    return add(a, ONE) if is_finite(a) else ((add(a[0][0], ONE), 1),)


def card_powers(a: tuple) -> tuple:
    """Greatest cardinal at most a when the infinite cardinals are the w^b."""
    return a if is_finite(a) else ((a[0][0], 1),)


# -- random ordinals ------------------------------------------------------------

BOUND_DEFAULT = ((((ONE, 2),), 1),)           # w^(w*2), the CLI default
BOUND_TOWER = ((((OMEGA, 1),), 1),)            # w^(w^(w))
BOUNDS = (BOUND_DEFAULT, BOUND_TOWER)


def _coefficient(rng: random.Random) -> int:
    return rng.choice((1, 1, 1, 2, 2, 3, 4, 5, 7, 12))


def _infinite_exponent(rng: random.Random, bound: tuple) -> tuple:
    """An infinite exponent, itself with finite exponents, below the
    exponent of the bound."""
    if bound == BOUND_DEFAULT:                    # exponents below w*2
        return add(OMEGA, nat(rng.randrange(0, 9)))
    count = rng.randint(1, 3)                     # exponents below w^w
    exps = sorted(rng.sample(range(1, 6), count), reverse=True)
    terms = tuple((nat(e), _coefficient(rng)) for e in exps)
    if rng.random() < 0.4:
        terms += ((ZERO, rng.randint(1, 5)),)
    return terms


def random_ordinal(rng: random.Random, bound: tuple, depth: int,
                   terms: int) -> tuple:
    """A normal form below `bound` with the given nesting depth (0-2) and,
    for depth >= 1, the given number of terms (1-6)."""
    if depth == 0:
        return nat(rng.randrange(0, 10 ** 6))
    if depth == 2:
        infinite = rng.randint(1, max(1, terms - 1))
        exps = set()
        while len(exps) < infinite:
            exps.add(_infinite_exponent(rng, bound))
    else:
        exps = {nat(rng.randrange(1, 7))}
    while len(exps) < terms:
        exps.add(nat(rng.randrange(0, 7)))
    ordered = sorted(exps, key=functools.cmp_to_key(cmp), reverse=True)
    return tuple((e, _coefficient(rng)) for e in ordered)


# -- hereditarily finite sets ---------------------------------------------------
#
# Sets are frozensets of frozensets; text uses nested braces.


def hf_text(s: frozenset) -> str:
    return "{" + ",".join(sorted(hf_text(m) for m in s)) + "}"


def universe(rank: int) -> list:
    """Every set of rank < rank, in a fixed order."""
    current = []
    for _ in range(rank):
        current = [frozenset(c) for n in range(len(current) + 1)
                   for c in itertools.combinations(current, n)]
    return sorted(current, key=lambda s: (len(hf_text(s)), hf_text(s)))


# -- formulas -------------------------------------------------------------------

PREFIXES = tuple("".join(p) for n in (1, 2, 3)
                 for p in itertools.product("EA", repeat=n))


def prefix_level(prefix: str) -> int:
    """Alternating blocks headed by an existential block."""
    blocks = sum(1 for _ in itertools.groupby(prefix))
    return blocks + (prefix[0] == "A")


def random_formula(rng: random.Random, prefix: str, side_param: bool) -> str:
    """Prenex text over the prefix; the matrix always uses #0 (the element
    being filtered) and uses #1 exactly when a side parameter is given."""
    terms = [f"v{i}" for i in range(len(prefix))]
    params = ["#0", "#1"] if side_param else ["#0"]

    def atom(forced=None):
        left = forced or rng.choice(terms + params)
        right = rng.choice(terms + params)
        op = "in" if rng.random() < 0.7 else "="
        text = f"{left} {op} {right}" if rng.random() < 0.5 else f"{right} {op} {left}"
        return f"!({text})" if rng.random() < 0.25 else text

    atoms = [atom(p) for p in params]
    atoms += [atom() for _ in range(rng.randint(0, 2))]
    rng.shuffle(atoms)
    matrix = atoms[0]
    for a in atoms[1:]:
        matrix = f"({matrix} {rng.choice('&|')} {a})"
    body = matrix
    for i in range(len(prefix) - 1, -1, -1):
        body = f"{prefix[i]} v{i} ({body})"
    return body


# -- CLI expressions --------------------------------------------------------------


def random_expression(rng: random.Random, depth: int = 2):
    """(text, value) for an expression over + * ^ leftsub whose value the
    model above can compute: powers are w^x or small naturals."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.random()
        if choice < 0.4:
            n = rng.randint(0, 9)
            return str(n), nat(n)
        if choice < 0.7:
            return "w", OMEGA
        a = random_ordinal(rng, BOUND_DEFAULT, 1, rng.randint(1, 3))
        return f"({render(a)})", a
    op = rng.choice(("+", "*", "^", "leftsub"))
    lt, lv = random_expression(rng, depth - 1)
    rt, rv = random_expression(rng, depth - 1)
    if op == "+":
        return f"({lt} + {rt})", add(lv, rv)
    if op == "*":
        return f"({lt} * {rt})", mul(lv, rv)
    if op == "^":
        if rng.random() < 0.3:
            b, e = rng.randint(2, 5), rng.randint(0, 4)
            return f"{b}^{e}", nat(b ** e)
        return f"w^({rt})", ((rv, 1),) if rv else ONE
    if cmp(lv, rv) > 0:
        lt, lv, rt, rv = rt, rv, lt, lv
    return f"leftsub({lt}, {rt})", left_sub(lv, rv)


# -- workload streams -------------------------------------------------------------

SCAN_REDUCTIONS = ("nextcard_via_deccard", "ordcard_scan_naive",
                   "ordcard_scan_improved", "ordcard_guesscheck", "flagtrick")
STRUCTURE_KINDS = ("omega-powers", "multiples-of-omega", "explicit-list")
COMPOSED = ("nextcard-over-deccard-scan", "probe3-over-deccard2")


# Explicit lists are fixed per bound.  A composed NextCard scan over one of
# them raises for an input at or above its last cardinal (a known defect).
EXPLICIT_CARDINALS = {BOUND_DEFAULT: ("w^3", "w^(w+2)*2", "w^(w+6)"),
                      BOUND_TOWER: ("w^(w+3)", "w^(w^2)", "w^(w^4*2+w)")}
LAST_CARDINAL = {BOUND_DEFAULT: ((add(OMEGA, nat(6)), 1),),
                 BOUND_TOWER: ((((nat(4), 2), (ONE, 1)), 1),)}
assert all(render(LAST_CARDINAL[b]) == EXPLICIT_CARDINALS[b][-1] for b in BOUNDS)


def _hits_scan_defect(name: str, s: int, a: tuple) -> bool:
    return (name == COMPOSED[0] and STRUCTURE_KINDS[s % len(STRUCTURE_KINDS)] == "explicit-list"
            and cmp(a, LAST_CARDINAL[BOUNDS[s // len(STRUCTURE_KINDS)]]) >= 0)


def _scan_item(kind: str, name: str, s: int, a: tuple) -> dict:
    return {"kind": kind, "reduction": name, "structure": s, "input": render(a),
            "terms": len(a), "depth": height(a)}


def _scan_ordinal(rng: random.Random, s: int) -> tuple:
    depth = rng.choice((0, 1, 1, 2, 2))
    terms = 1 if depth == 0 else rng.randint(1, 6)
    return random_ordinal(rng, BOUNDS[s // len(STRUCTURE_KINDS)], depth, terms)


def scan_structures() -> list:
    """Three structure kinds under each of the two bounds; structure i has
    bound BOUNDS[i // len(STRUCTURE_KINDS)]."""
    return [{"kind": kind, "bound": render(bound),
             "cardinals": list(EXPLICIT_CARDINALS[bound]) if kind == "explicit-list" else []}
            for bound in BOUNDS for kind in STRUCTURE_KINDS]


def scan_stream(seed: int):
    """Blocks of 40: each of the 30 reduction x structure pairs once, two
    seeded extra pairs, and eight composed instances (a fifth), four of
    each composition."""
    rng = random.Random(f"scan-mix-{seed}")
    structures = len(BOUNDS) * len(STRUCTURE_KINDS)
    pairs = [(r, s) for r in SCAN_REDUCTIONS for s in range(structures)]
    while True:
        block = [("plain", r, s) for r, s in pairs]
        block += [("plain",) + rng.choice(pairs) for _ in range(2)]
        block += [("composed", c, rng.randrange(structures))
                  for c in COMPOSED for _ in range(4)]
        rng.shuffle(block)
        for kind, name, s in block:
            a = _scan_ordinal(rng, s)
            while _hits_scan_defect(name, s, a):    # drawn again; see scan_defects
                a = _scan_ordinal(rng, s)
            yield _scan_item(kind, name, s, a)


def scan_defects(seed: int, count: int) -> list:
    """Composed NextCard scans over the two explicit lists, each input at or
    above the list's last cardinal: `count` instances that raise while the
    defect stands."""
    rng = random.Random(f"scan-mix-defects-{seed}")
    explicit = [s for s in range(len(BOUNDS) * len(STRUCTURE_KINDS))
                if STRUCTURE_KINDS[s % len(STRUCTURE_KINDS)] == "explicit-list"]
    items = []
    while len(items) < count:
        s = explicit[len(items) % len(explicit)]
        a = _scan_ordinal(rng, s)
        if _hits_scan_defect(COMPOSED[0], s, a):
            items.append(_scan_item("composed", COMPOSED[0], s, a))
    return items


EMPTY = frozenset()
# The two large instances are fixed, so that the seed moves only the small
# ones: von Neumann 2 = {0, 1} in full mode, and the whole rank-3 universe
# (four sets) in count-only mode.
BIG_POWERCARD = (("full", frozenset((EMPTY, frozenset((EMPTY,))))),
                 ("count", frozenset(universe(3))))


def powercard_stream(seed: int, big: bool = True):
    """Blocks of 10 small instances, listed here in the order of their cost:
    count-only size 0, full size 0, count-only size 1, four count-only size-2
    sets, one full-mode size-1 set and two count-only size-3 sets.  Full-mode
    sets come from the rank-3 universe (size-1 sets cycle through its four
    members), count-only sets from the rank-4 universe.  The median then
    falls in the middle of the size-2 stratum and the p90 in the middle of
    the size-3 one, not on a boundary between strata of different cost.
    The first 102 instances also hold, at seeded positions, the two large
    instances."""
    rng = random.Random(f"powercard-{seed}")
    pools = {"full": universe(3), "count": universe(4)}
    singletons = itertools.cycle(rng.sample(pools["full"], len(pools["full"])))
    strata = ([("count", 0), ("full", 0), ("count", 1)] + [("count", 2)] * 4
              + [("full", 1)] + [("count", 3)] * 2)
    slots = sorted(rng.sample(range(102), 2)) if big else []
    bigs = dict(zip(slots, BIG_POWERCARD))
    index = 0
    while True:
        block = list(strata)
        rng.shuffle(block)
        for mode, size in block:
            while index in bigs:
                big_mode, members = bigs[index]
                yield {"mode": big_mode, "set": hf_text(members),
                       "size": len(members), "big": True}
                index += 1
            if (mode, size) == ("full", 1):
                members = [next(singletons)]
            else:
                members = rng.sample(pools[mode], size)
            yield {"mode": mode, "set": hf_text(frozenset(members)), "size": size,
                   "big": False}
            index += 1


SEP_LEVEL = 2
SEP_RANKS = (3, 4)
SEP_SIZES = (1, 2, 3, 4, 5)


def separation_pool(seed: int) -> dict:
    """Per rank and set size: up to 24 sets of that size (subsets of the
    rank's universe); side parameters are members of the universe.  Small,
    so codes recur, yet wide enough that no one seed's pick sets the cost."""
    rng = random.Random(f"separation-pool-{seed}")
    pool = {}
    for rank in SEP_RANKS:
        elements = universe(rank)
        sets = {}
        for size in SEP_SIZES:
            every = list(itertools.combinations(elements, min(size, len(elements))))
            picked = every if len(every) <= 24 else rng.sample(every, 24)
            sets[size] = [hf_text(frozenset(c)) for c in picked]
        pool[rank] = {"sets": sets, "params": [hf_text(e) for e in elements]}
    return pool


def separation_stream(seed: int, above_level: bool = False):
    """Blocks of 90: every quantifier prefix of length 1-3 within the
    oracle's level (9 of the 14) at both ranks with every set size; half
    the formulas take a side parameter.  With above_level, blocks of 50
    over the other five prefixes instead: the known false FAIL hits about
    half of those instances (see separation_defects)."""
    rng = random.Random(f"separation-{seed}" + ("-above" if above_level else ""))
    pool = separation_pool(seed)
    strata = [(rank, p, size) for rank in SEP_RANKS for p in PREFIXES
              if (prefix_level(p) > SEP_LEVEL) == above_level for size in SEP_SIZES]
    while True:
        block = list(strata)
        rng.shuffle(block)
        sides = [i % 2 == 0 for i in range(len(block))]
        rng.shuffle(sides)
        for (rank, prefix, size), side in zip(block, sides):
            yield {"rank": rank, "level": SEP_LEVEL,
                   "set": rng.choice(pool[rank]["sets"][size]),
                   "formula": random_formula(rng, prefix, side),
                   "params": [rng.choice(pool[rank]["params"])] if side else [],
                   "prefix": prefix,
                   "above_level": above_level}


def separation_defects(seed: int, count: int) -> list:
    return list(itertools.islice(separation_stream(seed, above_level=True), count))


SHIPPED_SCENARIO = "src/ordq/scenarios/nextcard_suite.json"
CLI_SCENARIO_REDUCTIONS = ("nextcard_via_deccard", "ordcard_scan_naive",
                           "ordcard_scan_improved", "flagtrick")


def cli_stream(seed: int):
    """Blocks of 10 invocations: three runs of the shipped scenario, four
    runs of seeded scenario files, two ledgered reduce calls and one calc
    call.  Runs are the majority, so the median falls inside one kind of
    call rather than in the gap between the slower and the faster kinds.

    Each item carries its arguments (paths relative to a scratch directory
    marked {work}) and what a correct run prints or writes."""
    rng = random.Random(f"cli-run-{seed}")
    kinds = ("shipped",) * 3 + ("scenario",) * 4 + ("reduce", "reduce", "calc")
    index = 0
    while True:
        block = list(kinds)
        rng.shuffle(block)
        for kind in block:
            index += 1
            yield _cli_item(rng, kind, index)


def _cli_item(rng: random.Random, kind: str, index: int) -> dict:
    if kind == "shipped":
        return {"kind": kind, "argv": ["run", SHIPPED_SCENARIO,
                                       "--output", f"{{work}}/report-{index}.json"],
                "instances": 7}
    if kind == "scenario":
        name = rng.choice(CLI_SCENARIO_REDUCTIONS)
        structure = rng.choice(("omega-powers", "multiples-of-omega"))
        bound = rng.choice(BOUNDS)
        count = rng.randint(3, 8)
        inputs = []
        for _ in range(count):
            depth = rng.choice((0, 1, 2))
            inputs.append(render(random_ordinal(rng, bound, depth, rng.randint(1, 4))))
        scenario = {"reduction": name,
                    "structure": {"kind": structure, "bound": render(bound)},
                    "instances": inputs, "budget": 10000}
        return {"kind": kind, "scenario": scenario,
                "argv": ["run", f"{{work}}/scenario-{index}.json",
                         "--output", f"{{work}}/report-{index}.json"],
                "instances": count}
    if kind == "reduce":
        name = rng.choice(("nextcard_via_deccard", "ordcard_scan_naive"))
        depth = rng.choice((0, 1, 2))
        a = random_ordinal(rng, BOUND_DEFAULT, depth, rng.randint(1, 5))
        if name == "nextcard_via_deccard":
            out = next_card_powers(a)
            total = left_sub(a, out)
        else:
            out = card_powers(a)
            total = add(a, ONE)
        return {"kind": kind, "name": name, "input": render(a),
                "argv": ["reduce", name, "--input", render(a),
                         "--ledger", f"{{work}}/ledger-{index}.json"],
                "output": render(out), "total": render(total)}
    text, value = random_expression(rng)
    return {"kind": kind, "argv": ["calc", text], "output": render(value)}
