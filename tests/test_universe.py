"""Cardinal structures, finite sets, codes and the pairing bijection.

Cardinal-structure expectations come from brute enumeration over the
tuple model: each structure kind gets an independent membership predicate
on triples, and card/next/limit answers are found by scanning capped
grids.  Caps are chosen so the true answer provably lies inside the grid.
"""

import copy
import itertools
import math
import pickle
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from ordq import universe
from ordq.logic import universe_of
from ordq.oracles import summarize_query
from ordq.ordcalc import OMEGA, Ordinal, omega_power, parse_ordinal as parse, render
from ordq.universe import (
    EMPTY_SET,
    HFSet,
    InvalidCodeError,
    NESTING_CAP,
    POWERSET_CAP,
    PowersetCapError,
    SetCode,
    cantor_pair,
    cantor_unpair,
    card_of,
    code_elements,
    decode_element,
    decode_set,
    encode_hf,
    explicit_list,
    hf,
    hf_product,
    is_cardinal,
    kuratowski,
    multiples_of_omega,
    next_card_of,
    next_limit_of_cardinals_above,
    omega_powers,
    parse_hf,
    powerset_code,
    render_hf,
    transitive_closure,
    validate_code,
)

import cnf_model as cnf
from reference_sets import hf_powerset, reference_validate_code, sup_of_cardinals_below
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

    @pytest.mark.parametrize("a,limit", [
        ("w^(w+1)*2+5", "w^(w*2)"),        # leading exponent w+1: a successor
        ("w^(w^2)", "w^(w^2+w)"),          # leading exponent w^2: a limit
    ])
    def test_next_limit_pins_at_an_infinite_leading_exponent(self, a, limit):
        roomy = omega_powers(parse("w^(w^3)"))
        assert next_limit_of_cardinals_above(roomy, parse(a)) == parse(limit)
        # a bound at the answer leaves no limit of cardinals below it
        tight = omega_powers(parse(limit))
        assert next_limit_of_cardinals_above(tight, parse(a)) is None

    def test_out_of_structure(self):
        for _, cs, _, _ in STRUCTURES:
            assert is_cardinal(cs, W3) is None
            assert card_of(cs, parse("w^3+1")) is None

    def test_no_next_card(self):
        # above w^2 the omega-powers structure bounded by w^3 is exhausted
        assert next_card_of(omega_powers(W3), parse("w^2*2")) is None
        assert next_card_of(explicit_list(EXPLICIT, W3), parse("w^2")) is None

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
                assert next_card_of(cs, a) is None, t

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
            got = next_limit_of_cardinals_above(cs, a)
            if got is None:
                assert not hits, t
                continue
            if hits:
                assert got == to_ordinal(min(hits)), t
            else:
                # the true answer lies beyond the grid window
                assert got > to_ordinal((4, 4, 4)), t


def _model_probes():
    """The model's ordinals from w^3 up with at most two terms, coefficients
    at most 2 and every exponent's finite part at most 3: each one's card,
    next card and next limit of cardinals is then itself a model ordinal,
    or there is none below the bound."""
    return [a for a in cnf.universe()
            if a >= (((0, 3), 1),) and len(a) <= 2
            and all(c <= 2 and q <= 3 for (_, q), c in a)]


MODEL_PROBES = _model_probes()
MODEL_BOUND = parse(cnf.BOUND_TEXT)
MODEL_LISTED = [(((0, 2), 1),), (((1, 0), 1),), (((1, 0), 2), ((0, 3), 1)),
                (((1, 1), 1),), (((2, 0), 1), ((0, 1), 1))]
MODEL_STRUCTURES = [
    ("omega-powers", omega_powers(MODEL_BOUND), cnf.powers_card, cnf.powers_limit),
    ("multiples-of-omega", multiples_of_omega(MODEL_BOUND), cnf.multiples_card,
     cnf.multiples_limit),
    ("explicit-list", explicit_list([parse(cnf.text(c)) for c in MODEL_LISTED], MODEL_BOUND),
     cnf.explicit_card(MODEL_LISTED), cnf.explicit_limit),
]


def model_answer(got, want):
    return got is None if want is None else got == parse(cnf.text(want))


class TestModelBridge:
    def test_the_probes_reach_infinite_exponents(self):
        leading = {a[0][0] for a in MODEL_PROBES}
        assert {(1, 0), (1, 1), (2, 0), (2, 1)} <= leading

    def test_text_is_canonical_and_order_agrees(self):
        values = [parse(cnf.text(a)) for a in MODEL_PROBES]
        assert [render(v) for v in values] == [cnf.text(a) for a in MODEL_PROBES]
        assert all(v < MODEL_BOUND for v in values)
        # the probes ascend in the model, so they must ascend in the package
        assert all(x < y for x, y in zip(values, values[1:]))


@pytest.mark.parametrize("name,cs,card,limit", MODEL_STRUCTURES,
                         ids=[row[0] for row in MODEL_STRUCTURES])
class TestStructureAboveW3:
    """Closed forms vs searches over the independent normal-form model, for
    every probe from w^3 up, exponents w, w+1 and w*2 included."""

    def test_is_cardinal(self, name, cs, card, limit):
        for a in MODEL_PROBES:
            assert is_cardinal(cs, parse(cnf.text(a))) == int(card(a)), cnf.text(a)

    def test_card_of_is_the_greatest_cardinal_at_most(self, name, cs, card, limit):
        cardinals = [a for a in cnf.universe() if card(a)]
        for a in MODEL_PROBES:
            want = cnf.greatest_at_most(cardinals, a)
            assert model_answer(card_of(cs, parse(cnf.text(a))), want), cnf.text(a)

    def test_next_card_is_the_least_cardinal_above(self, name, cs, card, limit):
        cardinals = [a for a in cnf.universe() if card(a)]
        for a in MODEL_PROBES:
            want = cnf.least_above(cardinals, a)
            assert model_answer(next_card_of(cs, parse(cnf.text(a))), want), cnf.text(a)

    def test_next_limit_is_the_least_limit_of_cardinals_above(self, name, cs, card, limit):
        limits = [a for a in cnf.universe() if limit(a)]
        for a in MODEL_PROBES:
            want = cnf.least_above(limits, a)
            got = next_limit_of_cardinals_above(cs, parse(cnf.text(a)))
            assert model_answer(got, want), (cnf.text(a), got)


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
            if len(s) <= 10:
                assert len(hf_powerset(s)) == 2 ** len(s)

    def test_powerset_members_are_subsets(self):
        s = parse_hf("{{},{{}},{{{}}}}")
        p = hf_powerset(s)
        assert len(p) == 8
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
        assert len(hf_product(xs, ys)) == 12

    def test_immutable(self):
        with pytest.raises(AttributeError):
            EMPTY_SET.members = frozenset()

    @pytest.mark.parametrize("duplicate", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_sets_and_their_codes_copy_and_pickle(self, duplicate):
        # the default reduce restored the rank slot through the blocked
        # __setattr__; HFSet's own reduce rebuilds the set from its members
        for text in ("{}", "{{}}", "{{},{{}},{{{}}},{{},{{}}}}"):
            s = parse_hf(text)
            got = duplicate(s)
            assert type(got) is HFSet and got == s and got.rank == s.rank
            code = encode_hf(s)
            copied = duplicate(code)
            assert copied == code and decode_set(copied) == s
            assert decode_set(copied).rank == s.rank
            assert summarize_query(copied) == summarize_query(code)

    def test_a_set_at_the_nesting_cap_deep_copies(self):
        # deepcopy rebuilt the members first, several frames per level, and
        # ran out of stack at the 200 levels parse_hf accepts
        s = parse_hf("{" * NESTING_CAP + "}" * NESTING_CAP)
        assert copy.deepcopy(s) == s
        assert decode_set(copy.deepcopy(encode_hf(s))) == s

    def test_render_deep_chain_builds_each_node_once(self):
        # sorting members by their text used to render each member again
        # for the join, doubling the work at every level
        start = time.perf_counter()
        text = render_hf(nest(200))
        assert time.perf_counter() - start < 2.0
        assert text == "{" * 201 + "}" * 201
        # members of one rank: the smaller first, whatever the input order
        assert render_hf(parse_hf("{{{},{{}}},{{{}}}}")) == "{{{{}}},{{},{{}}}}"
        ordinal = EMPTY_SET
        for _ in range(6):
            ordinal = HFSet(ordinal | {ordinal})
        assert render_hf(ordinal) == ("{{},{{}},{{},{{}}},{{},{{}},{{},{{}}}},"
                                      "{{},{{}},{{},{{}}},{{},{{}},{{},{{}}}}},"
                                      "{{},{{}},{{},{{}}},{{},{{}},{{},{{}}}},"
                                      "{{},{{}},{{},{{}}},{{},{{}},{{},{{}}}}}}}")

    def test_a_3000_deep_chain_renders_without_recursion(self):
        # text input stops at NESTING_CAP, but a code can name a deeper set:
        # its text, str, repr and query summary all render it without
        # recursing
        chain = decode_set(encode_hf(nest(3000)))
        text = "{" * 3001 + "}" * 3001
        assert render_hf(chain) == str(chain) == summarize_query(chain) == text
        assert repr(chain) == f"HFSet({text})"
        assert render_hf(HFSet([hf(chain), chain, EMPTY_SET])) == "{{}," + text + ",{" + text + "}}"

    def test_equal_chains_that_share_no_node_compare(self):
        # equality is frozenset's, which recurses in C one level per frame
        # down equal members that are distinct objects; 500 levels compare
        # on every supported Python
        chain = SetCode(501, [cantor_pair(i, i + 1) for i in range(500)], 500)
        assert nest(500) == decode_set(chain)

    @pytest.mark.xfail(sys.version_info < (3, 13), raises=RecursionError, strict=True,
                       reason="before 3.13 frozenset comparison recurses within "
                              "about 1,000 (3.10, 3.11) or 1,500 (3.12) levels")
    def test_equal_3000_deep_chains_that_share_no_node_compare(self):
        chain = SetCode(3001, [cantor_pair(i, i + 1) for i in range(3000)], 3000)
        assert nest(3000) == decode_set(chain)

    def test_parse_nesting_cap(self):
        at_cap = "{" * NESTING_CAP + "}" * NESTING_CAP
        deepest = parse_hf(at_cap)
        assert deepest == nest(NESTING_CAP - 1)
        assert hash(deepest) == hash(nest(NESTING_CAP - 1))
        with pytest.raises(ValueError, match="nested deeper"):
            parse_hf("{" + at_cap + "}")

    @pytest.mark.parametrize("text,message", [
        ("{{},{}", "expected ',' or '}' (at position 6)"),
        (" {{} {}}", "expected ',' or '}' (at position 5)"),
        ("{,}", "expected '{' or '}' (at position 1)"),
        ("{{}}x", "trailing input (at position 4)"),
    ])
    def test_parse_errors_carry_their_position(self, text, message):
        with pytest.raises(ValueError) as caught:
            parse_hf(text)
        assert str(caught.value) == message
        assert caught.value.pos == int(message.split()[-1][:-1])


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

    def test_validate_rejects_a_cycle_the_root_does_not_reach(self):
        # 1 and 2 are members of each other; the root 0 is empty
        code = SetCode(3, [cantor_pair(1, 2), cantor_pair(2, 1)], 0)
        assert validate_code(code) == 0

    def test_validate_rejects_duplicate_empty_nodes(self):
        # 1 and 2 are both coded empty members of the root: extensionality
        code = SetCode(3, [cantor_pair(1, 0), cantor_pair(2, 0)], 0)
        assert validate_code(code) == 0

    def test_validate_rejects_a_negative_edge(self):
        # -1 packs no pair, so it is a verdict of 0, not an error of isqrt's
        code = SetCode(3, [-1], 0)
        assert validate_code(code) == 0
        for read in (decode_set, code_elements, lambda c: decode_element(c, 0)):
            with pytest.raises(InvalidCodeError):
                read(code)

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
        assert len(decoded) == len(s)

    def test_long_chain_validates_and_decodes_without_recursion(self):
        # node i is the only member of node i+1: a 3,000-deep chain
        chain = [cantor_pair(i, i + 1) for i in range(2999)]
        code = SetCode(3000, chain, 2999)
        assert validate_code(code) == 1
        top = decode_set(code)
        assert top.rank == 2999 and len(top) == 1
        assert decode_element(code, 0) is EMPTY_SET
        assert decode_element(code, 1500).rank == 1500

    def test_long_chain_closed_into_a_cycle_is_rejected(self):
        chain = [cantor_pair(i, i + 1) for i in range(2999)]
        code = SetCode(3000, chain + [cantor_pair(2999, 0)], 2999)
        assert validate_code(code) == 0
        with pytest.raises(InvalidCodeError):
            decode_set(code)

    @pytest.mark.parametrize("node", [True, False, 1.0, 0.5, "1", None])
    def test_decode_element_takes_only_int_nodes(self, node):
        # True and 1.0 decoded node 1, as if they were the int
        code = encode_hf(parse_hf("{{},{{}}}"))
        with pytest.raises(InvalidCodeError, match="SetCode node takes ints"):
            decode_element(code, node)
        assert decode_element(code, Ordinal.from_int(1)) == decode_element(code, 1)

    def test_decode_element_rejects_an_invalid_code(self):
        # node 2 sits on a cycle the root 0 does not reach
        code = SetCode(3, [cantor_pair(1, 2), cantor_pair(2, 1)], 0)
        with pytest.raises(InvalidCodeError):
            decode_element(code, 2)

    @pytest.mark.parametrize("fields,bad", [
        # int() would truncate these to domain 2, edges {2}, root 1: a valid
        # code of {{}}
        ((2.9, [cantor_pair(0, 1) + 0.9], 1.2), "domain"),
        ((2, [cantor_pair(0, 1) + 0.9], 1), "edges"),
        ((2, [cantor_pair(0, 1)], 1.2), "root"),
        # bools are ints to Python, but no node id: this decoded to {}
        ((True, [], False), "domain"),
        ((1, [True], 0), "edges"),
        ((1, [], False), "root"),
        ((OMEGA, [], 0), "domain"),
        ((3, [parse("w+1")], 0), "edges"),
        ((1, [], "0"), "root"),
    ])
    def test_fields_take_only_ints_and_finite_ordinals(self, fields, bad):
        with pytest.raises(InvalidCodeError, match=f"SetCode {bad} "):
            SetCode(*fields)

    def test_finite_ordinal_and_int_subclass_fields_convert(self):
        class Id(int):
            pass

        code = SetCode(Ordinal.from_int(2), [Id(cantor_pair(0, 1))], Id(1))
        assert code == SetCode(2, [cantor_pair(0, 1)], 1)
        assert type(code.root) is int and all(type(e) is int for e in code.edges)
        assert decode_set(code) == parse_hf("{{}}")


def packed(children) -> frozenset:
    return frozenset(cantor_pair(x, y) for y, kids in children.items() for x in kids)


class TestBuiltCodesStoreTheirChildMap:
    """encode_hf and powerset_code keep only the child map; the edge set is
    derived when equality, hashing or repr asks for it."""

    CASES = {
        "encode_hf": lambda: encode_hf(parse_hf("{{},{{}},{{{}}},{{},{{}}}}")),
        "powerset_code": lambda: powerset_code(encode_hf(parse_hf("{{},{{}},{{{}}}}"))),
        "powerset of a power set": lambda: powerset_code(
            powerset_code(encode_hf(parse_hf("{{},{{}}}")))),
    }

    @pytest.mark.parametrize("make", CASES.values(), ids=CASES.keys())
    def test_no_edge_set_until_asked(self, make):
        from ordq.oracles import summarize_query
        code = make()
        decode_set(code)
        code_elements(code)
        summarize_query(code)
        assert "edges" not in code.__dict__
        assert code.edges == packed(code._children)
        assert "edges" in code.__dict__

    @pytest.mark.parametrize("make", CASES.values(), ids=CASES.keys())
    def test_equal_and_same_hash_as_a_code_from_its_edges(self, make):
        code = make()
        rebuilt = SetCode(code.domain, code.edges, code.root)
        assert rebuilt == code and hash(rebuilt) == hash(code)
        assert repr(rebuilt) == repr(code)
        assert make() == code and hash(make()) == hash(code)


def reference_encode_hf(s: HFSet) -> SetCode:
    """The straightforward encoder the one-pass encode_hf must agree with:
    number nodes by rank, then by (member count, sorted member ids)."""
    seen, stack = set(), [s]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(node)
    nodes = sorted(seen, key=lambda n: n.rank)
    ids = {}
    for rank, group in itertools.groupby(nodes, key=lambda n: n.rank):
        keyed = sorted(group, key=lambda n: (len(n), sorted(ids[m] for m in n)))
        for node in keyed:
            ids[node] = len(ids)
    edges = frozenset(cantor_pair(ids[m], ids[n]) for n in ids for m in n)
    return SetCode(domain=len(ids), edges=edges, root=ids[s])


def encoder_cases():
    rng = random.Random(23)
    sets = [random_hfset(rng, max_rank=5, max_width=4) for _ in range(40)]
    return sets + [EMPTY_SET, nest(7), hf_powerset(HFSet(universe_of(3)))]


class TestOnePassEncoder:
    def test_matches_the_reference_encoder(self):
        for s in encoder_cases():
            assert encode_hf(s) == reference_encode_hf(s), s

    def test_prefilled_views_match_a_fresh_code(self):
        for s in encoder_cases():
            code = encode_hf(s)
            children, decoded = code.__dict__["_children"], code.__dict__["_decoded"]
            fresh = SetCode(code.domain, code.edges, code.root)
            assert "_children" not in fresh.__dict__
            assert decode_set(fresh) == decode_set(code) == s
            assert hash(decode_set(fresh)) == hash(s)
            assert fresh._children == children
            assert all(type(kids) is tuple for kids in fresh._children.values())
            assert fresh._decoded == decoded

    def test_first_decode_still_validates_once(self, monkeypatch):
        calls = []
        check = universe._check_code

        def counting(code):
            calls.append(code)
            return check(code)

        monkeypatch.setattr(universe, "_check_code", counting)
        code = encode_hf(hf_powerset(HFSet(universe_of(3))))
        assert calls == []
        decode_set(code)
        assert len(calls) == 1 and calls[0] is code
        decode_set(code)
        code_elements(code)
        assert len(calls) == 1

    def test_encoded_codes_skip_the_edge_check(self, monkeypatch):
        calls = []
        init = SetCode.__init__

        def counting(code, *fields):
            calls.append(code)
            init(code, *fields)

        monkeypatch.setattr(SetCode, "__init__", counting)
        code = encode_hf(hf_powerset(HFSet(universe_of(3))))
        assert calls == []
        outside = SetCode(Ordinal.from_int(code.domain),
                          [Ordinal.from_int(e) for e in code.edges], code.root)
        assert len(calls) == 1 and calls[0] is outside
        assert type(outside.edges) is frozenset
        assert outside == code and hash(outside) == hash(code)
        assert decode_set(outside) == decode_set(code)
        assert hash(decode_set(outside)) == hash(decode_set(code))


def assert_same_value(a: HFSet, b) -> None:
    assert a == b and b == a
    assert hash(a) == hash(b) == hash(frozenset(b))


class TestHashConsing:
    """Sets compare by value; a code works its verdict and decoded nodes out
    once."""

    def test_equal_sets_are_equal_however_built(self):
        zero, one = EMPTY_SET, hf(EMPTY_SET)
        two = parse_hf("{{},{{}}}")
        assert_same_value(two, hf(one, zero))
        assert_same_value(two, HFSet([one, zero, one]))
        assert_same_value(two, decode_set(SetCode(3, {cantor_pair(0, 1), cantor_pair(0, 2),
                                                      cantor_pair(1, 2)}, 2)))
        assert two in hf_powerset(two)
        assert_same_value(hf_powerset(two), parse_hf("{{},{{}},{{{}}},{{},{{}}}}"))
        assert_same_value(kuratowski(zero, one), parse_hf("{{{}},{{},{{}}}}"))
        assert_same_value(kuratowski(zero, zero), hf(hf(zero)))
        # V_3 is the power set of two = {0, 1}
        assert_same_value(HFSet(universe_of(3)), hf_powerset(two))
        # an HFSet is the frozenset of its members
        assert_same_value(two, frozenset([zero, one]))
        assert isinstance(two, frozenset)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=4, unique=True),
           st.randoms(use_true_random=False))
    def test_copies_built_apart_are_one_value(self, picks, rng):
        v4 = universe_of(4)
        # s is the power set of x = {V_3's members at picks}: the members of
        # V_4 whose Ackermann numbers are sums of picked bits
        x = HFSet(v4[i] for i in picks)
        members = [v4[sum(1 << p for j, p in enumerate(picks) if mask >> j & 1)]
                   for mask in range(1 << len(picks))]
        s = hf_powerset(x)
        code = encode_hf(s)
        copies = [
            HFSet(members),
            HFSet(rng.sample(members, len(members))),
            HFSet(parse_hf(render_hf(m)) for m in reversed(members)),
            parse_hf(render_hf(s)),
            hf_powerset(parse_hf(render_hf(x))),
            decode_set(SetCode(code.domain, code.edges, code.root)),
            decode_set(permuted(code, rng, 2)),
        ]
        if len(picks) == 4:
            copies.append(HFSet(v4))        # the power set of V_3 is V_4
        table = {}
        for i, copy in enumerate(copies):
            assert_same_value(copy, s)
            assert_same_value(copy, frozenset(members))
            table[copy] = i
            assert list(table) == [copies[0]] and table[s] == i

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

    def test_encode_keys_equal_copies_by_value(self):
        # the chains below are equal but distinct objects, so an encoder that
        # looked members up by object would miss them
        s = HFSet([nest(3), hf(parse_hf("{{{}}}")), hf(hf(hf(EMPTY_SET)), EMPTY_SET),
                   HFSet([parse_hf("{{{}}}"), nest(1)])])
        assert hf(nest(2)) is not hf(nest(2))
        assert encode_hf(s) == reference_encode_hf(s) == encode_hf(parse_hf(render_hf(s)))

    def test_leaves_are_the_empty_set_itself(self):
        def leaves(s):
            return [n for n in transitive_closure(s) if not n]

        assert leaves(parse_hf("{{},{{}}}")) == [EMPTY_SET]
        assert leaves(parse_hf("{{},{{}}}"))[0] is EMPTY_SET
        code = SetCode(3, [cantor_pair(2, 1), cantor_pair(2, 0), cantor_pair(1, 0)], 0)
        assert decode_set(code) == parse_hf("{{},{{}}}")
        assert decode_element(code, 2) is EMPTY_SET
        assert all(leaf is EMPTY_SET for leaf in leaves(decode_set(code)))
        assert all(leaf is EMPTY_SET for leaf in leaves(decode_set(encode_hf(nest(5)))))


def von_neumann(k: int) -> HFSet:
    out = EMPTY_SET
    for _ in range(k):
        out = HFSet(out | {out})
    return out


def reference_powerset_code(code: SetCode) -> SetCode:
    """The power set through HFSet values, as Pot answered before it worked
    on codes."""
    return encode_hf(hf_powerset(decode_set(code)))


def permuted(code: SetCode, rng: random.Random, extra: int = 0) -> SetCode:
    """The same set under shuffled node ids, with extra isolated nodes: a
    valid but non-canonical code."""
    ids = list(range(code.domain + extra))
    rng.shuffle(ids)
    edges = [cantor_pair(ids[x], ids[y]) for x, y in map(cantor_unpair, code.edges)]
    return SetCode(code.domain + extra, edges, ids[code.root])


def assert_same_code(got: SetCode, want: SetCode):
    assert (got.domain, got.root, got.edges) == (want.domain, want.root, want.edges)
    assert got._children == want._children      # member tuples ascend too


def members_below_owners(code: SetCode) -> bool:
    """Whether validate_code takes the code in one descending sweep, as it
    does every code the encoders build, rather than by search."""
    return all(kids[-1] < y for y, kids in code._children.items())


def code_from_children(domain: int, root: int, children) -> SetCode:
    """A code with the given child map, from packed edges; a child map with
    a negative id packs no edge of it, so that code is built from the map."""
    children = {y: tuple(sorted(set(kids))) for y, kids in children.items() if kids}
    if any(x < 0 for kids in children.values() for x in kids):
        return universe._built_code(domain, root, children, {})
    return SetCode(domain, [cantor_pair(x, y) for y, kids in children.items() for x in kids],
                   root)


def shifted(children, by: int):
    return {y + by: [x + by for x in kids] for y, kids in children.items()}


# flaw -> (domain, root, child map) -> the flawed code's fields; the flaws
# in SWEPT_FLAWS keep every member below its owner
FLAWS = {
    "none": lambda d, r, ch: (d, r, ch),
    "self-loop": lambda d, r, ch: (d, r, {**ch, r: [*ch.get(r, ()), r]}),
    "two-cycle": lambda d, r, ch: (d, r, {**ch, min(ch.get(r, [r])): [r]}),
    "unreached-owner": lambda d, r, ch: (d + 1, r, {**ch, d: [0]}),
    # a new root over a new empty node 0 and the old root, whose closure
    # holds the old empty node
    "two-empty-nodes": lambda d, r, ch: (d + 2, d + 1, {**shifted(ch, 1), d + 1: [0, r + 1]}),
    # a new root over the old one and a new node with the old root's members
    "duplicate-members": lambda d, r, ch: (d + 2, d + 1, {**ch, d: ch.get(r, ()),
                                                          d + 1: [r, d]}),
    "negative-member": lambda d, r, ch: (d, r, {**ch, r: [-1, *ch.get(r, ())]}),
    "member-outside-domain": lambda d, r, ch: (d, r, {**ch, r: [*ch.get(r, ()), d]}),
}
SWEPT_FLAWS = {"none", "unreached-owner", "two-empty-nodes", "duplicate-members",
               "negative-member"}


class TestSweepAgreesWithSearch:
    """validate_code sweeps a code whose members all lie below their owners
    and searches any other; both must give reference_validate_code's
    verdict."""

    @staticmethod
    def check_flawed(base: SetCode, flaw: str, seed: int, extra: int):
        code = code_from_children(*FLAWS[flaw](base.domain, base.root,
                                               dict(base._children)))
        assert members_below_owners(code) == (flaw in SWEPT_FLAWS)
        assert validate_code(code) == reference_validate_code(code) == (flaw == "none")
        if flaw in ("negative-member", "member-outside-domain") or not code._children:
            return      # permuted renames only the ids in the domain
        # shuffle the ids until some edge points up, so that the search runs
        rng = random.Random(seed)
        for _ in range(50):
            shuffled = permuted(code, rng, extra)
            if not members_below_owners(shuffled):
                break
        assert not members_below_owners(shuffled)
        assert validate_code(shuffled) == reference_validate_code(shuffled) == (flaw == "none")

    @pytest.mark.parametrize("flaw", sorted(FLAWS))
    @pytest.mark.parametrize("text", ["{}", "{{}}", "{{},{{}}}", "{{{}},{{},{{}}}}"])
    def test_each_flaw_pin(self, text, flaw):
        self.check_flawed(encode_hf(parse_hf(text)), flaw, seed=1, extra=1)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 15), max_size=5, unique=True),
           st.sampled_from(sorted(FLAWS)), st.integers(0, 2 ** 32), st.integers(0, 2))
    def test_on_flawed_codes_and_their_shuffles(self, picks, flaw, seed, extra):
        v4 = universe_of(4)
        self.check_flawed(encode_hf(HFSet(v4[i] for i in picks)), flaw, seed, extra)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(-1, 6),
           st.dictionaries(st.integers(0, 7), st.lists(st.integers(-1, 7), min_size=1,
                                                       max_size=4), max_size=6))
    def test_on_random_child_maps(self, domain, root, children):
        code = code_from_children(domain, root, children)
        assert validate_code(code) == reference_validate_code(code)


# {0, 1}, V_3 = {0, 1, {1}, 2} and 3 have members that are also subsets of
# them; of the subsets of {1, 2}, only the empty one is also below it
SUBSET_MEMBERS = ["{{},{{}}}", "{{},{{}},{{{}}},{{},{{}}}}",
                  "{{},{{}},{{},{{}}}}", "{{{}},{{},{{}}}}"]


class TestPowersetCode:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(0, 15), max_size=8, unique=True),
           st.randoms(use_true_random=False), st.integers(0, 3))
    def test_matches_the_reference_on_sets_from_v4(self, picks, rng, extra):
        v4 = universe_of(4)
        code = encode_hf(HFSet(v4[i] for i in picks))
        want = reference_powerset_code(code)
        assert_same_code(powerset_code(code), want)
        assert_same_code(powerset_code(permuted(code, rng, extra)), want)

    @pytest.mark.parametrize("text", SUBSET_MEMBERS)
    def test_members_that_are_subsets(self, text):
        code = encode_hf(parse_hf(text))
        want = reference_powerset_code(code)
        assert_same_code(powerset_code(code), want)
        assert_same_code(powerset_code(permuted(code, random.Random(text), 2)), want)

    @pytest.mark.parametrize("members", [(0, 3), (1, 4), (0, 2, 5)])
    def test_member_ranks_that_skip_values(self, members):
        # the ordinals {0, 3} have members of rank 0 and 3 only, so no
        # subset has rank 2 or 3
        code = encode_hf(HFSet(von_neumann(k) for k in members))
        want = reference_powerset_code(code)
        assert_same_code(powerset_code(code), want)
        assert_same_code(powerset_code(permuted(code, random.Random(len(members)), 1)), want)

    @pytest.mark.parametrize("text", SUBSET_MEMBERS + ["{{{{}}},{},{{}}}"])
    def test_old_ids_in_reverse_canonical_order(self, text):
        code = encode_hf(parse_hf(text))
        last = code.domain - 1
        reverse = SetCode(code.domain, [cantor_pair(last - x, last - y)
                                        for x, y in map(cantor_unpair, code.edges)],
                          last - code.root)
        assert code_elements(reverse) == sorted(last - e for e in code_elements(code))
        want = reference_powerset_code(reverse)
        assert_same_code(powerset_code(reverse), want)

    def test_twelve_members_of_mixed_rank(self):
        s = HFSet(list(universe_of(4))[:10] + [nest(5), nest(7)])
        assert len(s) == 12
        code = permuted(encode_hf(s), random.Random(12), 3)
        assert_same_code(powerset_code(code), reference_powerset_code(code))

    def test_sixteen_members_at_the_cap(self):
        # the argument of the count-only large instance's second Pot call
        code = powerset_code(powerset_code(encode_hf(parse_hf("{{},{{}}}"))))
        assert len(code_elements(code)) == POWERSET_CAP
        want = reference_powerset_code(code)
        assert_same_code(powerset_code(code), want)
        assert_same_code(powerset_code(permuted(code, random.Random(16), 3)), want)

    def test_nodes_that_are_not_subsets_merge_into_a_rank_of_2047_subsets(self):
        # eleven of the twelve rank-3 sets of V_4 give 2,047 subsets of rank
        # 4; the twelfth member holds rank-4 sets with a member outside x,
        # of every member count, and some rank-4 subsets of x
        rank3 = [v for v in universe_of(4) if v.rank == 3]
        members, outside = rank3[:11], rank3[11]
        holder = HFSet([hf(m, EMPTY_SET) for m in members]
                       + [HFSet(members[:i] + [outside]) for i in range(1, 12)]
                       + [HFSet(members[i::3] + [nest(2)]) for i in range(3)]
                       + [HFSet(members[:i]) for i in (1, 4, 11)])
        x = HFSet(members + [holder])
        assert len(x) == 12
        assert sum(1 for n in transitive_closure(x) if n.rank == 4 and not n <= x) == 25
        code = encode_hf(x)
        want = reference_powerset_code(code)
        assert_same_code(powerset_code(code), want)
        assert_same_code(powerset_code(permuted(code, random.Random(12), 2)), want)

    def test_long_chain_ranks_without_recursion(self):
        # node i is the only member of node i+1: a 3,001-node chain
        code = SetCode(3001, [cantor_pair(i, i + 1) for i in range(3000)], 3000)
        assert powerset_code(code) == reference_powerset_code(code)

    def test_the_answer_carries_its_child_map(self):
        x = parse_hf(SUBSET_MEMBERS[1])
        code = powerset_code(encode_hf(x))
        # numbered on first read: reading the root stores the child map
        assert "_children" not in code.__dict__
        assert code.root == code.domain - 1
        assert "_children" in code.__dict__ and "edges" not in code.__dict__
        fresh = SetCode(code.domain, code.edges, code.root)
        assert fresh._children == code._children
        assert validate_code(code) == 1
        assert decode_set(code) == decode_set(fresh) == hf_powerset(x)
        assert hash(decode_set(code)) == hash(hf_powerset(x))

    def test_the_answer_shares_the_sets_the_argument_decoded(self):
        # the answer decodes x's members to the argument's own objects, so it
        # compares with sets built from them without walking down equal
        # copies, however deep they are
        code = encode_hf(HFSet([nest(3000), hf(EMPTY_SET)]))
        argument = SetCode(code.domain, code.edges, code.root)
        assert powerset_code(argument)._decoded == {}
        x = decode_set(argument)
        answer = powerset_code(argument)
        for subset in decode_set(answer):
            assert all(any(m is e for e in x) for m in subset)
        assert decode_set(answer) == hf_powerset(x)

    @pytest.mark.parametrize("code", [
        SetCode(2, [cantor_pair(0, 1), cantor_pair(1, 0)], 0),
        SetCode(3, [cantor_pair(1, 0), cantor_pair(2, 0)], 0),
        SetCode(2, [], 2),
        SetCode(3, [-1], 0),
        # an invalid code over the cap: the code is checked first
        SetCode(19, [cantor_pair(i, 17) for i in range(17)] + [cantor_pair(17, 18),
                                                                cantor_pair(18, 17)], 17),
    ])
    def test_invalid_codes_raise_as_before(self, code):
        with pytest.raises(InvalidCodeError) as want:
            reference_powerset_code(code)
        with pytest.raises(InvalidCodeError) as got:
            powerset_code(code)
        assert str(got.value) == str(want.value)

    def test_over_the_cap_raises_as_before(self):
        code = encode_hf(HFSet(nest(i) for i in range(POWERSET_CAP + 1)))
        with pytest.raises(PowersetCapError) as want:
            reference_powerset_code(code)
        started = time.perf_counter()
        with pytest.raises(PowersetCapError) as got:
            powerset_code(code)
        assert time.perf_counter() - started < 0.5
        assert str(got.value) == str(want.value)


# a reading of a Pot answer -> what it gives; each runs first on a pending
# answer, so each is a first read that must number it.  Only the readings
# in PACKS_EDGES build the edge set.
PACKS_EDGES = {"fields", "hash", "repr", "equality"}
FIRST_READS = {
    "fields": lambda c: (c.domain, c.root, c.edges, c._children),
    "hash": hash,
    "repr": repr,
    "decode_set": decode_set,
    "code_elements": code_elements,
    "summary": summarize_query,
    "equality": lambda c: (c == SetCode(c.domain, c.edges, c.root),
                           SetCode(c.domain, c.edges, c.root) == c),
}


class TestPotAnswersNumberedOnFirstRead:
    """powerset_code checks its argument when called and numbers its answer
    the first time anything of it is read."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 15), max_size=6, unique=True),
           st.randoms(use_true_random=False), st.integers(0, 2))
    def test_pending_and_forced_answers_agree_with_the_reference(self, picks, rng, extra):
        v4 = universe_of(4)
        code = encode_hf(HFSet(v4[i] for i in picks))
        want = reference_powerset_code(code)
        for argument in (code, permuted(code, rng, extra)):
            forced = powerset_code(argument)
            forced.root
            assert "_pending" not in forced.__dict__
            assert forced == want and want == forced and hash(forced) == hash(want)
            for name, read in FIRST_READS.items():
                pending = powerset_code(argument)
                assert "_children" not in pending.__dict__
                got = read(pending)
                assert "_pending" not in pending.__dict__, name
                assert ("edges" in pending.__dict__) == (name in PACKS_EDGES), name
                assert got == read(forced) == read(want), name

    def test_decoded_nodes_read_first_number_the_answer(self):
        # encode_hf keeps the decoded nodes of the argument, which the
        # numbering hands on to the answer
        argument = encode_hf(parse_hf(SUBSET_MEMBERS[1]))
        answer = powerset_code(argument)
        decoded = answer._decoded
        assert "_pending" not in answer.__dict__ and len(decoded) == 4
        shared = {id(s) for s in argument._decoded.values()}
        assert all(id(s) in shared for s in decoded.values())
        assert decode_set(answer) == hf_powerset(parse_hf(SUBSET_MEMBERS[1]))

    @pytest.mark.parametrize("code,error", [
        (SetCode(2, [cantor_pair(0, 1), cantor_pair(1, 0)], 0), InvalidCodeError),
        (SetCode(3, [-1], 0), InvalidCodeError),
        (encode_hf(HFSet(nest(i) for i in range(POWERSET_CAP + 1))), PowersetCapError),
    ], ids=["two-cycle", "negative-edge", "17-members"])
    def test_bad_arguments_raise_from_the_call_before_any_numbering(self, code, error,
                                                                     monkeypatch):
        numbered = []
        monkeypatch.setattr(universe, "_number_powerset", numbered.append)
        with pytest.raises(error):
            powerset_code(code)
        with pytest.raises(error):
            reference_powerset_code(code)
        assert numbered == []


def code_fields(code: SetCode):
    """Everything of a code that its readers see."""
    return (code.domain, code.root, code._children, code.edges, hash(code), repr(code),
            summarize_query(code))


class TestNumberingMemo:
    """encode_hf memoizes its numbering pass and builds a new code on every
    call: codes of equal sets share the child map and the decoded nodes
    below the root, and nothing else."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 15), max_size=6, unique=True),
           st.randoms(use_true_random=False), st.integers(0, 2))
    def test_memoized_and_cold_encodes_agree(self, picks, rng, extra):
        v4 = universe_of(4)
        for s in (HFSet(v4[i] for i in picks), random_hfset(rng, max_rank=4, max_width=3)):
            code = encode_hf(s)
            copies = [s, HFSet(list(s)), parse_hf(render_hf(s)),
                      decode_set(permuted(code, rng, extra))]
            codes = []
            for c in copies:
                universe._numbering.cache_clear()
                cold = encode_hf(c)
                warm = encode_hf(c)
                assert universe._numbering.cache_info()[:2] == (1, 1)
                assert code_fields(warm) == code_fields(cold) == code_fields(code)
                codes += [cold, warm]
            # a hit on an equal copy built apart decodes to the copy itself
            for c in copies:
                assert decode_set(encode_hf(c)) is c
            codes += [encode_hf(c) for c in copies]
            assert len(set(map(id, codes))) == len(codes)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 15), max_size=6, unique=True),
           st.randoms(use_true_random=False))
    def test_readers_leave_the_memo_unchanged(self, picks, rng):
        v4 = universe_of(4)
        s = HFSet(v4[i] for i in picks)
        universe._numbering.cache_clear()
        domain, root, children, decoded = universe._numbering(s)
        kept_children, kept_decoded = dict(children), dict(decoded)
        for c in (s, parse_hf(render_hf(s)), decode_set(permuted(encode_hf(s), rng))):
            code = encode_hf(c)
            assert code._children is children
            assert code._decoded is not decoded and code._decoded[root] is c
            assert "_verdict" not in code.__dict__ and "edges" not in code.__dict__
            decode_set(code)
            for node in code_elements(code):
                decode_element(code, node)
            code.edges
            decode_set(powerset_code(code))
            summarize_query(code)
        assert universe._numbering.cache_info().misses == 1
        assert children == kept_children
        assert decoded.keys() == kept_decoded.keys()
        assert all(decoded[i] is kept_decoded[i] for i in decoded)

    def test_equal_3000_level_chains_built_apart_bypass_the_memo(self):
        # a memo hit compares keys, and before 3.13 comparing these two
        # chains raises RecursionError; sets above NESTING_CAP skip the memo
        before = universe._numbering.cache_info().currsize
        chain = SetCode(3001, [cantor_pair(i, i + 1) for i in range(3000)], 3000)
        a, b = nest(3000), decode_set(chain)
        assert a is not b
        code_a, code_b = encode_hf(a), encode_hf(b)
        assert (code_a.domain, code_a.root) == (code_b.domain, code_b.root) == (3001, 3000)
        assert code_a._children == code_b._children == chain._children
        assert decode_set(code_a) is a and decode_set(code_b) is b
        assert universe._numbering.cache_info().currsize == before


class TestPairing:
    def test_naturals_match_diagonal_enumeration(self):
        # brute: walking the anti-diagonals enumerates pairs in the exact
        # order of the polynomial, so ranks are a contiguous 0..n block
        rank = {}
        for total in range(40):
            for y in range(total + 1):
                rank[(total - y, y)] = len(rank)
        for (x, y), want in rank.items():
            assert cantor_pair(x, y) == want
            assert cantor_unpair(want) == (x, y)

    def test_math_isqrt_exactness(self):
        # unpair leans on integer sqrt; make sure boundaries are exact
        for z in [0, 1, 2, 3, 10 ** 12, 10 ** 12 + 1]:
            x, y = cantor_unpair(z)
            assert cantor_pair(x, y) == z
        assert math.isqrt(9) == 3
