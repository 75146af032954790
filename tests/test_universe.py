"""Cardinal structures, finite sets, codes and the pairing bijection.

Cardinal-structure expectations come from brute enumeration over the
tuple model: each structure kind gets an independent membership predicate
on triples, and card/next/limit answers are found by scanning capped
grids.  Caps are chosen so the true answer provably lies inside the grid.
"""

import gc
import math
import random
import sys
import threading

import pytest

from ordq import universe
from ordq.logic import universe_of
from ordq.ordcalc import OMEGA, Ordinal, omega_power, parse_ordinal as parse
from ordq.universe import (
    EMPTY_SET,
    HFSet,
    InvalidCodeError,
    NoSuchCardinalError,
    OutOfStructureError,
    SetCode,
    cantor_pair,
    cantor_unpair,
    card_of,
    code_elements,
    decode_element,
    decode_set,
    encode_hf,
    explicit_list,
    godel_pair,
    godel_unpair,
    hf,
    hf_card,
    hf_powerset,
    hf_product,
    is_cardinal,
    kuratowski,
    multiples_of_omega,
    next_card_of,
    next_limit_of_cardinals_above,
    omega_powers,
    parse_hf,
    render_hf,
    sup_of_cardinals_below,
    transitive_closure,
    validate_code,
)

from gen import random_ordinal
from tuple_model import Trip, grid, to_ordinal

W3 = omega_power(3)


# independent membership predicates on triples (w^2*a + w*b + c)

def powers_card(t: Trip) -> bool:
    return (t[0] == 0 and t[1] == 0) or t in ((0, 1, 0), (1, 0, 0))


def multiples_card(t: Trip) -> bool:
    return (t[0] == 0 and t[1] == 0) or (t[2] == 0 and t != (0, 0, 0))


EXPLICIT = [parse("w*2"), parse("w*4"), parse("w^2")]


def explicit_card(t: Trip) -> bool:
    return (t[0] == 0 and t[1] == 0) or t in ((0, 1, 0), (0, 2, 0), (0, 4, 0), (1, 0, 0))


# Which triples are limits of the cardinal class?  Case analysis: w is one
# for every kind (finite cardinals pile up under it).  Beyond w: a power
# w^2 has cardinal sup w below it (attained), so omega-powers has no limit
# point inside the w^3 window; for multiples-of-omega the multiples below
# w^2*k are cofinal exactly when the target is itself a multiple of w^2
# (anything with a w*b or +c tail has the attained maximum one w-step
# down); a finite explicit list has no infinite limit points.

def powers_limit(u: Trip) -> bool:
    return u == (0, 1, 0)


def multiples_limit(u: Trip) -> bool:
    return u == (0, 1, 0) or (u[0] >= 1 and u[1] == 0 and u[2] == 0)


def explicit_limit(u: Trip) -> bool:
    return u == (0, 1, 0)


STRUCTURES = [
    ("omega-powers", omega_powers(W3), powers_card, powers_limit),
    ("multiples-of-omega", multiples_of_omega(W3), multiples_card, multiples_limit),
    ("explicit-list", explicit_list(EXPLICIT, W3), explicit_card, explicit_limit),
]

IDS = [row[0] for row in STRUCTURES]


class TestStructureExamples:
    def test_is_cardinal_pins(self):
        powers = omega_powers(W3)
        assert is_cardinal(powers, 5) == 1
        assert is_cardinal(powers, parse("w^2")) == 1
        assert is_cardinal(powers, parse("w^2+1")) == 0
        assert is_cardinal(multiples_of_omega(W3), parse("w*7")) == 1

    def test_card_of_pins(self):
        for _, cs, _, _ in STRUCTURES:
            assert card_of(cs, 7) == 7
        powers = omega_powers(W3)
        assert card_of(powers, parse("w*2+1")) == OMEGA
        assert card_of(powers, parse("w^2")) == parse("w^2")

    def test_next_card_pins(self):
        for _, cs, _, _ in STRUCTURES:
            assert next_card_of(cs, 5) == 6
        assert next_card_of(omega_powers(W3), parse("w*2+1")) == parse("w^2")
        assert next_card_of(multiples_of_omega(W3), parse("w+1")) == parse("w*2")

    def test_next_limit_pins(self):
        assert next_limit_of_cardinals_above(multiples_of_omega(W3), OMEGA) == parse("w^2")
        # the limit of {w^n : n finite} lies beyond the w^3 window, so this
        # pin needs a structure with a roomier bound
        wide = omega_powers(parse("w^(w*2)"))
        assert next_limit_of_cardinals_above(wide, OMEGA) == parse("w^(w)")
        for _, cs, _, _ in STRUCTURES:
            assert next_limit_of_cardinals_above(cs, 3) == OMEGA

    def test_out_of_structure(self):
        for _, cs, _, _ in STRUCTURES:
            with pytest.raises(OutOfStructureError):
                is_cardinal(cs, W3)
            with pytest.raises(OutOfStructureError):
                card_of(cs, parse("w^3+1"))

    def test_no_next_card(self):
        # above w^2 the omega-powers structure bounded by w^3 is exhausted
        with pytest.raises(NoSuchCardinalError):
            next_card_of(omega_powers(W3), parse("w^2*2"))
        with pytest.raises(NoSuchCardinalError):
            next_card_of(explicit_list(EXPLICIT, W3), parse("w^2"))

    def test_constructor_rejects(self):
        with pytest.raises(ValueError):
            omega_powers(OMEGA)
        with pytest.raises(ValueError):
            multiples_of_omega(5)
        with pytest.raises(ValueError):
            explicit_list([parse("w+1"), 4], W3)
        with pytest.raises(ValueError):
            explicit_list([W3], W3)

    def test_explicit_list_inserts_omega(self):
        cs = explicit_list([parse("w*5")], W3)
        assert is_cardinal(cs, OMEGA) == 1


@pytest.mark.parametrize("name,cs,pred,limit_pred", STRUCTURES, ids=IDS)
class TestStructureBrute:
    """Closed forms vs grid scans, for every triple with entries <= 3."""

    def test_is_cardinal_matches_predicate(self, name, cs, pred, limit_pred):
        for t in grid(6):
            assert is_cardinal(cs, to_ordinal(t)) == int(pred(t)), t

    def test_card_of_is_greatest_cardinal_below(self, name, cs, pred, limit_pred):
        for t in grid(3):
            a = to_ordinal(t)
            want = max(to_ordinal(u) for u in grid(3) if u <= t and pred(u))
            assert card_of(cs, a) == want, t

    def test_next_card_is_least_cardinal_above(self, name, cs, pred, limit_pred):
        for t in grid(3):
            a = to_ordinal(t)
            # cap 9 safely contains the successor cardinal whenever one
            # exists in the window: every kind steps by at most one w-unit
            candidates = [to_ordinal(u) for u in grid(9) if u > t and pred(u)]
            if candidates:
                assert next_card_of(cs, a) == min(candidates), t
            else:
                with pytest.raises(NoSuchCardinalError):
                    next_card_of(cs, a)

    def test_sup_below_against_grid(self, name, cs, pred, limit_pred):
        wide = [u for u in grid(12) if pred(u)]
        for t in grid(3):
            a = to_ordinal(t)
            got = sup_of_cardinals_below(cs, a)
            if t == (0, 0, 0):
                assert got is None
                continue
            sup, attained = got
            below = [u for u in grid(9) if u < t and pred(u)]
            if attained:
                assert sup == to_ordinal(max(below)), t
            else:
                # cofinal case: sup is a itself, and within the window every
                # cardinal below a is dominated by a wider-grid cardinal
                assert sup == a, t
                for u in below:
                    assert any(u < v < t for v in wide), (t, u)

    def test_next_limit_against_grid(self, name, cs, pred, limit_pred):
        for t in grid(2):
            a = to_ordinal(t)
            hits = [u for u in grid(4) if u > t and limit_pred(u)]
            try:
                got = next_limit_of_cardinals_above(cs, a)
            except NoSuchCardinalError:
                assert not hits, t
                continue
            if hits:
                assert got == to_ordinal(min(hits)), t
            else:
                # the true answer lies beyond the grid window
                assert got > to_ordinal((4, 4, 4)), t


class TestHFSet:
    def test_extensional_equality_and_dedup(self):
        a = hf(EMPTY_SET, EMPTY_SET)
        assert len(a) == 1
        assert a == hf(EMPTY_SET)
        assert hash(a) == hash(hf(EMPTY_SET))

    def test_rank(self):
        assert EMPTY_SET.rank == 0
        assert hf(EMPTY_SET).rank == 1
        assert hf(EMPTY_SET, hf(EMPTY_SET)).rank == 2

    def test_render_parse_round_trip(self):
        for text in ["{}", "{{}}", "{{},{{}}}", "{{},{{}},{{},{{}}}}"]:
            assert render_hf(parse_hf(text)) == text

    def test_parse_whitespace_and_errors(self):
        assert parse_hf(" { { } , { { } } } ") == hf(EMPTY_SET, hf(EMPTY_SET))
        for bad in ["", "{", "}", "{}{}", "{,}", "{{}", "x"]:
            with pytest.raises(ValueError):
                parse_hf(bad)

    def test_parse_unordered_members_equal(self):
        assert parse_hf("{{},{{}}}") == parse_hf("{{{}},{}}")

    def test_powerset_sizes(self):
        rng = random.Random(7)
        for _ in range(20):
            s = random_hfset(rng, max_rank=3, max_width=3)
            if hf_card(s) <= 10:
                assert hf_card(hf_powerset(s)) == 2 ** hf_card(s)

    def test_powerset_members_are_subsets(self):
        s = parse_hf("{{},{{}},{{{}}}}")
        p = hf_powerset(s)
        assert hf_card(p) == 8
        for sub in p:
            assert all(m in s for m in sub)

    def test_powerset_cap(self):
        big = HFSet(nest(i) for i in range(17))
        with pytest.raises(ValueError):
            hf_powerset(big)

    def test_kuratowski(self):
        a, b = EMPTY_SET, hf(EMPTY_SET)
        assert kuratowski(a, b) == parse_hf("{{{}},{{},{{}}}}")
        assert kuratowski(a, a) == hf(hf(a))
        assert kuratowski(a, b) != kuratowski(b, a)

    def test_product_size(self):
        xs = HFSet(nest(i) for i in range(3))
        ys = HFSet(nest(i) for i in range(4))
        assert hf_card(hf_product(xs, ys)) == 12

    def test_immutable(self):
        with pytest.raises(AttributeError):
            EMPTY_SET.members = frozenset()


def nest(depth: int) -> HFSet:
    out = EMPTY_SET
    for _ in range(depth):
        out = hf(out)
    return out


def random_hfset(rng: random.Random, max_rank: int, max_width: int) -> HFSet:
    if max_rank == 0:
        return EMPTY_SET
    return HFSet(random_hfset(rng, rng.randrange(max_rank), max_width)
                 for _ in range(rng.randrange(max_width + 1)))


class TestSetCode:
    def test_empty_set_pin(self):
        assert encode_hf(EMPTY_SET) == SetCode(domain=1, edges=frozenset(), root=0)

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(50):
            s = random_hfset(rng, max_rank=4, max_width=3)
            code = encode_hf(s)
            assert validate_code(code) == 1
            assert decode_set(code) == s

    def test_round_trip_pin(self):
        s = parse_hf("{{},{{}}}")
        assert decode_set(encode_hf(s)) == s

    def test_canonical_codes(self):
        # structurally different constructions of equal sets share a code
        a = hf(EMPTY_SET, hf(EMPTY_SET))
        b = HFSet([hf(EMPTY_SET), EMPTY_SET, hf(EMPTY_SET)])
        assert encode_hf(a) == encode_hf(b)

    def test_domain_is_node_count(self):
        s = parse_hf("{{},{{}}}")
        assert encode_hf(s).domain == len(transitive_closure(s))

    def test_validate_rejects_cycle(self):
        code = SetCode(domain=2,
                       edges=[cantor_pair(0, 1), cantor_pair(1, 0)],
                       root=0)
        assert validate_code(code) == 0

    def test_validate_rejects_self_loop(self):
        assert validate_code(SetCode(1, [cantor_pair(0, 0)], 0)) == 0

    def test_validate_rejects_bad_root(self):
        assert validate_code(SetCode(1, [], 3)) == 0

    def test_validate_rejects_edge_outside_domain(self):
        assert validate_code(SetCode(2, [cantor_pair(5, 1)], 1)) == 0

    def test_validate_rejects_unreachable_touched_node(self):
        # node 2 has a member but never reaches the root
        code = SetCode(3, [cantor_pair(0, 1), cantor_pair(0, 2)], 1)
        assert validate_code(code) == 0

    def test_validate_rejects_duplicate_empty_nodes(self):
        # 1 and 2 are both coded empty members of the root: extensionality
        code = SetCode(3, [cantor_pair(1, 0), cantor_pair(2, 0)], 0)
        assert validate_code(code) == 0

    def test_validate_allows_absent_nodes(self):
        assert validate_code(SetCode(domain=9, edges=[], root=4)) == 1

    def test_decode_invalid_raises(self):
        with pytest.raises(InvalidCodeError):
            decode_set(SetCode(2, [cantor_pair(0, 1), cantor_pair(1, 0)], 0))

    def test_code_elements_match_members(self):
        s = parse_hf("{{},{{}},{{},{{}}}}")
        code = encode_hf(s)
        decoded = [decode_element(code, n) for n in code_elements(code)]
        assert HFSet(decoded) == s
        assert len(decoded) == hf_card(s)


class TestHashConsing:
    def test_equal_sets_are_identical_however_built(self):
        zero, one = EMPTY_SET, hf(EMPTY_SET)
        two = parse_hf("{{},{{}}}")
        assert two is hf(one, zero)
        assert two is HFSet([one, zero, one])
        assert two is decode_set(SetCode(3, {cantor_pair(0, 1), cantor_pair(0, 2),
                                             cantor_pair(1, 2)}, 2))
        assert two in hf_powerset(two).members
        assert hf_powerset(two) is parse_hf("{{},{{}},{{{}}},{{},{{}}}}")
        assert kuratowski(zero, one) is parse_hf("{{{}},{{},{{}}}}")
        assert kuratowski(zero, zero) is hf(hf(zero))
        # V_3 is the power set of two = {0, 1}
        assert sorted(map(id, universe_of(3))) == sorted(map(id, hf_powerset(two)))

    def test_decode_of_encode_is_the_same_object(self):
        rng = random.Random(5)
        for _ in range(30):
            s = random_hfset(rng, max_rank=4, max_width=3)
            assert decode_set(encode_hf(s)) is s

    def test_invalid_code_fails_every_decode(self):
        code = SetCode(2, [cantor_pair(0, 1), cantor_pair(1, 0)], 0)
        for _ in range(2):
            with pytest.raises(InvalidCodeError):
                decode_set(code)
            with pytest.raises(InvalidCodeError):
                code_elements(code)

    @pytest.mark.parametrize("make", [
        lambda: encode_hf(parse_hf("{{},{{}},{{{}}}}")),
        lambda: SetCode(3, [cantor_pair(1, 0), cantor_pair(2, 0)], 0),
        lambda: SetCode(2, [cantor_pair(0, 1), cantor_pair(1, 0)], 0),
        lambda: SetCode(9, [], 4),
    ])
    def test_cached_verdict_matches_a_fresh_code(self, make):
        code = make()
        verdict = validate_code(code)
        assert validate_code(code) == verdict
        fresh = make()
        assert fresh == code and fresh is not code
        assert validate_code(fresh) == verdict

    def test_decode_element_before_decode_set(self):
        s = parse_hf("{{},{{}},{{},{{}}}}")
        code = encode_hf(s)
        elements = [decode_element(code, n) for n in code_elements(code)]
        assert all(e in s for e in elements)
        assert decode_set(code) is s
        assert [decode_element(code, n) for n in code_elements(code)] == elements

    def test_intern_table_drops_dead_sets(self):
        gc.collect()
        before = len(universe._interned)
        s = hf_powerset(HFSet(nest(i) for i in range(6)))
        code = encode_hf(s)
        assert decode_set(code) is s
        assert len(universe._interned) > before
        del s, code
        gc.collect()
        assert len(universe._interned) == before


    def test_threads_building_the_same_sets_share_them(self):
        source = HFSet(nest(i) for i in range(20, 30))     # sets no other test builds
        results = []
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: results.append(hf_powerset(source)))
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 4
        assert len({id(sub) for p in results for sub in p.members}) == 2 ** 10
        assert all(p is results[0] for p in results)

class TestPairing:
    def test_pins(self):
        assert godel_pair(0, 0) == Ordinal()
        assert godel_pair(1, 2) == 8

    def test_naturals_match_diagonal_enumeration(self):
        # brute: walking the anti-diagonals enumerates pairs in the exact
        # order of the polynomial, so ranks are a contiguous 0..n block
        rank = {}
        for total in range(40):
            for y in range(total + 1):
                rank[(total - y, y)] = len(rank)
        for (x, y), want in rank.items():
            assert cantor_pair(x, y) == want
            assert godel_pair(x, y) == want
            assert cantor_unpair(want) == (x, y)

    def test_round_trip_random(self):
        rng = random.Random(23)
        for _ in range(300):
            a = random_ordinal(rng)
            b = random_ordinal(rng)
            z = godel_pair(a, b)
            assert godel_unpair(z) == (a, b)

    def test_surjective_random(self):
        rng = random.Random(29)
        for _ in range(300):
            z = random_ordinal(rng)
            a, b = godel_unpair(z)
            assert godel_pair(a, b) == z

    def test_round_trip_pin(self):
        assert godel_unpair(godel_pair(OMEGA, 3)) == (OMEGA, 3)

    def test_math_isqrt_exactness(self):
        # unpair leans on integer sqrt; make sure boundaries are exact
        for z in [0, 1, 2, 3, 10 ** 12, 10 ** 12 + 1]:
            x, y = cantor_unpair(z)
            assert cantor_pair(x, y) == z
        assert math.isqrt(9) == 3
