"""End-to-end acceptance checks.

One test per criterion, run in file order; each prints a single verdict line
and asserts everything that line claims.  Criteria one through six stash
their runs so the replay criterion can re-execute all of them against the
recorded responses alone.
"""

import random
import time

import pytest

from ordq import tam
from ordq import universe as u
from ordq.logic import (
    TruthEnv,
    eval_formula,
    formula_from_index,
    formula_index,
    parse_formula,
    universe_of,
)
from ordq.oracles import DEC_CARD, NEXT_CARD, TRUTH, make_effectivizer
from ordq.ordcalc import (
    OMEGA,
    Ordinal,
    add,
    compare,
    left_sub,
    mul,
    omega_power,
    parse_ordinal as P,
    render,
    successor,
)
from ordq.reductions import (
    Approximator,
    catalog,
    compose,
    delegate_spec,
)
from ordq.tam import ApproximatorContractError

import tuple_model as tm
from test_universe import W3

POWERS = u.omega_powers(W3)
MULTIPLES = u.multiples_of_omega(W3)
WIDE_POWERS = u.omega_powers(omega_power(P("w*2")))

V3 = list(u.HFSet(universe_of(3)))   # in iteration order

RECORDED = []


def record(program, instance, result):
    RECORDED.append((program, instance, result))
    return result


def run_spec(spec, structure, instance):
    program = spec.make_program()
    result = tam.run(program, instance, spec.make_bindings(structure))
    return record(program, instance, result)


def verdict(number, ok, label):
    line = f"criterion {number} [{'PASS' if ok else 'FAIL'}]: {label}"
    print(line)
    assert ok, line


class Stopwatch:
    """Asserts the criterion finished inside its declared wall-time limit."""

    def __init__(self, limit_seconds):
        self.limit = limit_seconds
        self.started = time.time()

    def check(self):
        elapsed = time.time() - self.started
        assert elapsed < self.limit, \
            f"took {elapsed:.1f}s, limit {self.limit}s"
        return elapsed


def test_criterion_1_next_cardinal_scans():
    watch = Stopwatch(1)
    spec = catalog("nextcard_via_deccard")
    pools = {
        POWERS: [add(mul(OMEGA, b), c) for b in range(5) for c in range(5)],
        MULTIPLES: [tm.to_ordinal(t) for t in tm.grid(2)],
    }
    checked = 0
    for structure, instances in pools.items():
        per_structure = 0
        for a in instances:
            res = run_spec(spec, structure, a)
            expected = u.next_card_of(structure, a)
            assert res.halted and res.output == expected, render(a)
            total = res.ledger.total_order_type()
            assert total == left_sub(a, expected), render(a)
            assert total <= successor(expected), render(a)
            per_structure += 1
        assert per_structure >= 20
        checked += per_structure
    watch.check()
    verdict(1, True, f"next cardinal matches on {checked} instances, "
                     "charged exactly the interval up to it")


def test_criterion_2_power_cardinality():
    watch = Stopwatch(10)
    full = catalog("powercard_via_pot")
    for size in (0, 1, 2):
        code = u.encode_hf(u.hf(*V3[:size]))
        res = run_spec(full, None, code)
        assert res.halted and res.output == Ordinal.from_int(2 ** size)
        entries = list(res.ledger)
        assert len(entries) == 2
        assert all(e.oracle == "Pot" for e in entries)
    counted = catalog("powercard_via_pot", count_only=True)
    code = u.encode_hf(u.hf(*V3[:3]))
    res = run_spec(counted, None, code)
    assert res.halted and res.output == Ordinal.from_int(8)
    assert len(list(res.ledger)) == 2
    watch.check()
    verdict(2, True, "power set sizes recovered from exactly two power "
                     "oracle calls, sizes 0-2 by well-ordering search")


def test_criterion_3_flag_toggle_scans():
    watch = Stopwatch(1)
    spec = catalog("flagtrick")
    cases = [
        (MULTIPLES, P("3"), "w"),
        (MULTIPLES, P("w"), "w^2"),
        (POWERS, P("3"), "w"),
        (WIDE_POWERS, P("w"), "w^(w)"),
    ]
    for structure, start, expected in cases:
        res = run_spec(spec, structure, start)
        assert res.halted and render(res.output) == expected
        assert res.ledger.total_order_type() == left_sub(start, res.output)
    watch.check()
    verdict(3, True, "flag toggling finds the next limit of cardinals at "
                     "the exact interval charge from both start points")


def test_criterion_4_ordinal_cardinality_scans():
    watch = Stopwatch(1)
    naive = catalog("ordcard_scan_naive")
    improved = catalog("ordcard_scan_improved")
    checked = 0
    for a in [tm.to_ordinal(t) for t in tm.grid(2)][:24]:
        res = run_spec(naive, MULTIPLES, a)
        assert res.halted and res.output == u.card_of(MULTIPLES, a)
        assert res.ledger.total_order_type() == successor(a), render(a)
        checked += 1
    assert checked >= 20
    for n in (0, 1, 7, 12):
        res = run_spec(improved, POWERS, Ordinal.from_int(n))
        assert res.halted and res.output == Ordinal.from_int(n)
        assert len(res.ledger) == 0 and res.halt_time.is_zero()
    watch.check()
    verdict(4, True, f"naive cardinality scan charges input+1 on {checked} "
                     "instances; the improved one is free below the first limit")


def chain_ending_at(card, length):
    prefix = [add(card, k) for k in range(length - 1, 0, -1)]
    return tuple(prefix + [card])


def test_criterion_5_guess_check_loops():
    watch = Stopwatch(1)
    cases = []
    for i in range(10):
        length = i % 6 + 1
        if i % 2:
            structure, a = MULTIPLES, P("w*3+7")
        else:
            structure, a = POWERS, P("w^2+5")
        cases.append((structure, a, length))
    for structure, a, length in cases:
        card = u.card_of(structure, a)
        chain = chain_ending_at(card, length)
        assert all(not u.is_cardinal(structure, g) for g in chain[:-1])
        spec = catalog("ordcard_guesscheck",
                       approximator=Approximator(f"len{length}",
                                                 lambda _a, c=chain: c))
        res = run_spec(spec, structure, a)
        assert res.halted and res.output == card
        assert res.ledger.total_order_type() == Ordinal.from_int(length)
        assert res.halt_time < OMEGA
    climbing = Approximator("climbing", lambda a: (P("w+1"), P("w+2")))
    bad = catalog("ordcard_guesscheck", approximator=climbing)
    with pytest.raises(ApproximatorContractError):
        tam.run(bad.make_program(), P("w+3"), bad.make_bindings(POWERS))
    watch.check()
    verdict(5, True, "ten guess chains stop at the first cardinal in "
                     "finitely many calls; a climbing chain is rejected")


ONE_PARAM_FORMULAS = [
    "E v0 (v0 in #0)",
    "A v0 (!(v0 in #0))",
    "E v0 (v0 = #0)",
    "A v0 (v0 in #0 | !(v0 in #0))",
]
TWO_PARAM_FORMULAS = [
    "E v0 (v0 in #0 & v0 in #1)",
    "E v0 (#0 in #1 | v0 = #0)",
]


def brute_separation(triple, rank=3):
    code, k, param_codes = triple
    f = formula_from_index(k)
    params = tuple(u.decode_set(c) for c in param_codes)
    if f.num_params != len(params) + 1:
        return u.encode_hf(u.EMPTY_SET)
    kept = [x for x in u.decode_set(code)
            if eval_formula(f, TruthEnv(rank, (x,) + params)) == 1]
    return u.encode_hf(u.HFSet(kept))


def test_criterion_6_separation():
    watch = Stopwatch(5)
    rng = random.Random(90125)
    spec = catalog("sep_via_truth", level=2, rank=3)
    for _ in range(10):
        members = [x for x in V3 if rng.random() < 0.6]
        code = u.encode_hf(u.HFSet(members))
        if rng.random() < 0.5:
            k = formula_index(parse_formula(rng.choice(ONE_PARAM_FORMULAS)))
            triple = (code, k, ())
        else:
            k = formula_index(parse_formula(rng.choice(TWO_PARAM_FORMULAS)))
            triple = (code, k, (u.encode_hf(rng.choice(V3)),))
        res = run_spec(spec, None, triple)
        assert res.halted and res.output == brute_separation(triple)
        assert res.ledger.total_order_type() == Ordinal.from_int(len(members))
    mismatch_k = formula_index(parse_formula(TWO_PARAM_FORMULAS[0]))
    res = run_spec(spec, None, (u.encode_hf(u.HFSet(V3[:3])), mismatch_k, ()))
    assert res.output == u.encode_hf(u.EMPTY_SET)
    assert len(res.ledger) == 0
    watch.check()
    verdict(6, True, "separation agrees with brute force at one truth call "
                     "per element; arity mismatches cost nothing")


def test_criterion_7_replay_identity():
    watch = Stopwatch(5)
    assert len(RECORDED) >= 50, "earlier criteria did not record enough runs"
    for program, instance, result in RECORDED:
        again = tam.replay(program, instance, result)
        assert again.same_as(result), program.name
    watch.check()
    verdict(7, True, f"all {len(RECORDED)} recorded runs replay to identical "
                     "results from their response scripts alone")


def truth_reference(_cs, query):
    k, params = query
    f = formula_from_index(k)
    if f.num_params != len(params):
        return 0
    return eval_formula(f, TruthEnv(3, params))


def test_criterion_8_composed_pipelines():
    watch = Stopwatch(1)
    notes = []

    # separation where each truth call runs a one-call sub-reduction
    inner = delegate_spec("TruthSigma2", "TruthSigma2",
                          lambda cs: make_effectivizer(TRUTH, level=2, rank=3),
                          truth_reference, calls=1)
    comp = compose(catalog("sep_via_truth", level=2, rank=3), inner)
    triple = (u.encode_hf(u.HFSet(V3[:3])),
              formula_index(parse_formula("E v0 (v0 = #0)")), ())
    res = tam.run(comp.make_program(), triple, comp.make_bindings(None))
    assert res.halted and res.output == brute_separation(triple)
    total = res.ledger.total_order_type()
    checked = comp.bound.check(total, None, triple)
    assert checked.within
    notes.append(checked.product_note)

    # a three-call stage over a two-call stage multiplies the counts
    outer = delegate_spec("Probe", DEC_CARD,
                          lambda cs: make_effectivizer(DEC_CARD, structure=cs),
                          lambda cs, a: u.is_cardinal(cs, a), calls=3)
    inner = delegate_spec(DEC_CARD, DEC_CARD,
                          lambda cs: make_effectivizer(DEC_CARD, structure=cs),
                          lambda cs, a: u.is_cardinal(cs, a), calls=2)
    comp = compose(outer, inner)
    res = tam.run(comp.make_program(), P("w"), comp.make_bindings(POWERS))
    total = res.ledger.total_order_type()
    assert res.halted and total == Ordinal.from_int(6)
    checked = comp.bound.check(total, POWERS, P("w"))
    assert checked.within
    notes.append(checked.product_note)

    # a transfinite scan spliced through a single outer call
    outer = delegate_spec(NEXT_CARD, NEXT_CARD,
                          lambda cs: make_effectivizer(NEXT_CARD, structure=cs),
                          lambda cs, a: u.next_card_of(cs, a))
    comp = compose(outer, catalog("nextcard_via_deccard"))
    res = tam.run(comp.make_program(), P("w*2+1"), comp.make_bindings(POWERS))
    total = res.ledger.total_order_type()
    assert res.halted and render(res.output) == "w^2"
    assert render(total) == "w^2"
    checked = comp.bound.check(total, POWERS, P("w*2+1"))
    assert checked.within
    notes.append(checked.product_note)

    assert all(note and note != "neither" for note in notes)
    watch.check()
    verdict(8, True, "three composed pipelines stay within the product "
                     f"bound; bounding orders: {', '.join(notes)}")


def test_criterion_9_tuple_model_cross_check():
    started = time.time()
    points = tm.grid(3)
    pairs = 0
    for s in points:
        a = tm.to_ordinal(s)
        assert tm.from_ordinal(a) == s
        for t in points:
            b = tm.to_ordinal(t)
            assert tm.to_ordinal(tm.t_add(s, t)) == add(a, b)
            try:
                assert tm.to_ordinal(tm.t_mul(s, t)) == mul(a, b)
            except tm.TupleOverflow:
                assert mul(a, b) >= W3
            if compare(a, b) <= 0:
                assert tm.to_ordinal(tm.t_left_sub(s, t)) == left_sub(a, b)
            pairs += 1
    rng = random.Random(5150)
    for _ in range(96000):
        s = (rng.randint(0, 30), rng.randint(0, 30), rng.randint(0, 30))
        t = (rng.randint(0, 30), rng.randint(0, 30), rng.randint(0, 30))
        a, b = tm.to_ordinal(s), tm.to_ordinal(t)
        assert tm.to_ordinal(tm.t_add(s, t)) == add(a, b)
        try:
            assert tm.to_ordinal(tm.t_mul(s, t)) == mul(a, b)
        except tm.TupleOverflow:
            assert mul(a, b) >= W3
        low, high = (s, t) if compare(a, b) <= 0 else (t, s)
        assert tm.to_ordinal(tm.t_left_sub(low, high)) == \
            left_sub(*sorted((a, b)))
        pairs += 1
    elapsed = time.time() - started
    assert elapsed < 30, f"cross-check took {elapsed:.1f}s"
    verdict(9, True, f"symbolic arithmetic agrees with the tuple model on "
                     f"{pairs} pairs in {elapsed:.1f}s")
