import random
import time
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from ordq import ordcalc
from ordq.ordcalc import (
    OMEGA, ONE, ZERO, Ordinal, OrdinalDomainError, OrdinalParseError,
    _cmp, add, compare, finite_part, leading_exponent, left_sub,
    evaluate, mul, omega_power, opow, parse_ordinal, render, successor,
)

import tuple_model as tm
from gen import random_ordinal
from reference_order import terms_cmp

W = OMEGA


class TestParseRender:
    @pytest.mark.parametrize("text,value", [
        ("0", ZERO),
        ("7", Ordinal.from_int(7)),
        ("w", W),
        ("w*3", mul(W, 3)),
        ("w+1", add(W, 1)),
        ("w^2*3+w+4", add(add(mul(opow(W, 2), 3), W), 4)),
        ("w^(w)+5", add(opow(W, W), 5)),
        ("w^(w+1)*2+w^2", add(mul(opow(W, add(W, 1)), 2), opow(W, 2))),
        ("w^(w^(w))", opow(W, opow(W, W))),
    ])
    def test_parse(self, text, value):
        assert parse_ordinal(text) == value

    @pytest.mark.parametrize("text", [
        "", "x", "w+w^2", "w+w", "w^2+w^2", "1+2", "w*0", "w^0", "-1",
        "w^", "w^(w", "w*", "w+", "01", "w^2*3+w+4junk", "0+w",
    ])
    def test_rejects(self, text):
        with pytest.raises(OrdinalParseError):
            parse_ordinal(text)

    def test_natural_literal_digit_cap(self):
        longest = "9" * 4000
        assert render(parse_ordinal(longest)) == longest
        assert parse_ordinal(f"w*{longest}+{longest}") == \
            Ordinal(((ONE, int(longest)), (ZERO, int(longest))))
        with pytest.raises(OrdinalParseError, match="at most 4000 digits"):
            parse_ordinal("1" + longest)
        with pytest.raises(OrdinalParseError, match=r"\(at position 2\)"):
            parse_ordinal("w*1" + longest)

    def test_noncanonical_inputs_still_mean_the_right_thing(self):
        assert parse_ordinal("w^w") == opow(W, W)
        assert parse_ordinal("w * 2 + 1") == add(mul(W, 2), 1)

    @pytest.mark.parametrize("text", ["0", "w^2*3+w+4", "w^(w)+5", "w^(w^(w)*2+3)*9+w*2+1"])
    def test_round_trip_fixed(self, text):
        assert render(parse_ordinal(text)) == text

    def test_round_trip_generated_1000(self):
        rng = random.Random(9001)
        for _ in range(1000):
            value = random_ordinal(rng, depth=3)
            assert parse_ordinal(render(value)) == value

    @given(st.integers(0, 2**32))
    def test_round_trip_property(self, seed):
        value = random_ordinal(random.Random(seed), depth=3)
        assert parse_ordinal(render(value)) == value


class TestCalcGrammar:
    """evaluate() reads every canonical string as parse_ordinal() does."""

    TOKENS = ["w", "w^", "*", "+", "(", ")", "0", "1", "2", "3", "12", " "]

    def test_accepted_strings_mean_the_same(self):
        rng = random.Random(7)
        accepted = 0
        for _ in range(20000):
            text = "".join(rng.choice(self.TOKENS) for _ in range(rng.randint(1, 9)))
            try:
                value = parse_ordinal(text)
            except OrdinalParseError:
                continue
            accepted += 1
            assert evaluate(text) == value, text
        assert accepted > 2000

    def test_render_round_trips(self):
        rng = random.Random(9002)
        for _ in range(1000):
            value = random_ordinal(rng, depth=3)
            assert evaluate(render(value)) == value

    @pytest.mark.parametrize("text,value", [
        ("007", Ordinal.from_int(7)),
        ("2^3^2", Ordinal.from_int(512)),
        ("w^w^2", opow(W, opow(W, 2))),
        ("leftsub (w, w*2) * 3", mul(W, 3)),
    ])
    def test_infix_pins(self, text, value):
        assert evaluate(text) == value

    @pytest.mark.parametrize("text,message", [
        ("", "expected an operand (at position 0)"),
        ("w +", "expected an operand (at position 3)"),
        ("leftsub(w)", "expected ',' (at position 9)"),
        ("(w", "expected ')' (at position 2)"),
        ("w 2", "trailing input (at position 2)"),
    ])
    def test_errors_carry_a_position(self, text, message):
        with pytest.raises(OrdinalParseError) as caught:
            evaluate(text)
        assert str(caught.value) == message


class TestScanner:
    """The lexical rules every text format shares, seen through the two
    ordinal grammars."""

    CAP = ordcalc.NESTING_CAP

    @pytest.mark.parametrize("parse", [parse_ordinal, evaluate])
    def test_nesting_cap(self, parse):
        # "w^(" opens two levels, one for '^' and one for the bracket
        at_cap = "w^(" * (self.CAP // 2) + "w" + ")" * (self.CAP // 2)
        assert render(parse(at_cap)) == at_cap
        with pytest.raises(OrdinalParseError, match=f"nested deeper than {self.CAP} levels"):
            parse("w^(" + at_cap + ")")

    def test_calc_counts_powers_and_leftsub(self):
        assert evaluate("^".join(["1"] * (self.CAP + 1))) == ONE
        with pytest.raises(OrdinalParseError, match="nested deeper"):
            evaluate("^".join(["1"] * (self.CAP + 2)))
        assert evaluate("leftsub(0," * self.CAP + "w" + ")" * self.CAP) == W
        with pytest.raises(OrdinalParseError, match="nested deeper"):
            evaluate("leftsub(0," * (self.CAP + 1) + "w" + ")" * (self.CAP + 1))

    @pytest.mark.parametrize("text", ["²", "٣", "１", "w*٣", "w^²", "1٣"])
    def test_digits_are_ascii_only(self, text):
        for parse in (parse_ordinal, evaluate):
            with pytest.raises(OrdinalParseError):
                parse(text)

    def test_errors_carry_their_position(self):
        with pytest.raises(OrdinalParseError) as caught:
            parse_ordinal("w+ x")
        assert caught.value.pos == 3
        assert str(caught.value) == "expected a term (at position 3)"


class TestCompare:
    def test_examples(self):
        assert compare(add(W, 1), mul(W, 2)) == -1
        assert compare(opow(W, W), mul(opow(W, 2), 99)) == 1
        assert compare(W, W) == 0

    def test_against_tuple_model(self):
        g = tm.grid(3)
        for t in g:
            for u in g:
                assert compare(tm.to_ordinal(t), tm.to_ordinal(u)) == tm.t_compare(t, u)


class TestArithmetic:
    def test_add_examples(self):
        assert add(1, W) == W
        assert add(W, 1) == parse_ordinal("w+1")
        assert add(mul(W, 2), opow(W, 2)) == opow(W, 2)

    def test_mul_examples(self):
        assert mul(add(W, 1), W) == opow(W, 2)
        assert mul(2, W) == W
        assert mul(W, 2) == parse_ordinal("w*2")
        assert mul(ZERO, W) == ZERO

    def test_add_mul_against_tuple_model(self):
        g = tm.grid(3)
        for t in g:
            for u in g:
                assert add(tm.to_ordinal(t), tm.to_ordinal(u)) == tm.to_ordinal(tm.t_add(t, u))
                try:
                    expected = tm.t_mul(t, u)
                except tm.TupleOverflow:
                    continue
                assert mul(tm.to_ordinal(t), tm.to_ordinal(u)) == tm.to_ordinal(expected)

    def test_left_sub_against_tuple_model(self):
        g = tm.grid(3)
        for t in g:
            for u in g:
                if t <= u:
                    assert left_sub(tm.to_ordinal(t), tm.to_ordinal(u)) == \
                        tm.to_ordinal(tm.t_left_sub(t, u))

    def test_left_sub_examples(self):
        assert left_sub(add(mul(W, 2), 1), opow(W, 2)) == opow(W, 2)
        assert left_sub(W, add(W, 3)) == Ordinal.from_int(3)
        assert left_sub(5, 5) == ZERO

    def test_left_sub_undefined(self):
        with pytest.raises(OrdinalDomainError):
            left_sub(mul(W, 2), W)
        with pytest.raises(OrdinalDomainError):
            left_sub(add(W, 2), add(W, 1))

    @given(st.integers(0, 2**32), st.integers(0, 2**32))
    def test_left_sub_section_of_add(self, s1, s2):
        a = random_ordinal(random.Random(s1))
        b = random_ordinal(random.Random(s2))
        lo, hi = (a, b) if a <= b else (b, a)
        assert add(lo, left_sub(lo, hi)) == hi

    @given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(0, 2**32))
    def test_associativity_and_distributivity(self, s1, s2, s3):
        a = random_ordinal(random.Random(s1))
        b = random_ordinal(random.Random(s2))
        c = random_ordinal(random.Random(s3))
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    @given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(0, 2**32))
    def test_strict_monotonicity_in_right_argument(self, s1, s2, s3):
        a = random_ordinal(random.Random(s1))
        b = random_ordinal(random.Random(s2))
        c = random_ordinal(random.Random(s3))
        if b < c:
            assert add(a, b) < add(a, c)
            if not a.is_zero():
                assert mul(a, b) < mul(a, c)

    def test_natural_product_cap(self):
        # a product whose coefficient has more than 8192 bits is refused
        # before it is built, so its text stays renderable
        assert mul(2 ** 8191, 2) == Ordinal.from_int(2 ** 8192)
        assert mul(W, 2 ** 8192) == omega_power(1, 2 ** 8192)
        with pytest.raises(OrdinalDomainError, match="more than 8192 bits"):
            mul(2 ** 8192, 2)
        with pytest.raises(OrdinalDomainError, match="more than 8192 bits"):
            mul(omega_power(1, 2 ** 4097), 2 ** 4097)

    def test_right_distributivity_fails_as_it_must(self):
        # (1+1)*w = w but 1*w + 1*w = w*2
        assert mul(add(ONE, ONE), W) == W
        assert add(mul(ONE, W), mul(ONE, W)) == mul(W, 2)


class TestPow:
    def test_huge_natural_power_is_refused_before_it_is_built(self):
        # 9^(10^6) has 3.2 million bits (396 KiB); refusing it allocates
        # next to nothing and takes no measurable time
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(OrdinalDomainError, match="more than 8192 bits"):
                opow(9, 10**6)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert elapsed < 0.25

    def test_natural_power_cap(self):
        assert opow(2, 8192) == Ordinal.from_int(2 ** 8192)
        assert opow(2, add(W, 8192)) == omega_power(1, 2 ** 8192)
        with pytest.raises(OrdinalDomainError):
            opow(2, 8193)
        with pytest.raises(OrdinalDomainError):
            opow(2, add(W, 8193))

    @pytest.mark.parametrize("text", ["w+1", "w*2+3", "w^2+w*4+1", "w^(w)+w+2"])
    def test_term_count_of_a_finite_power(self, text):
        # (L + m)^k has 1 + k*r terms, r the number of terms of L
        a = parse_ordinal(text)
        r = len(a.terms) - 1
        for k in (1, 2, 3, 7):
            assert len(opow(a, k).terms) == 1 + k * r

    def test_term_cap(self):
        a = add(W, 1)
        assert len(opow(a, 1023).terms) == 1024
        with pytest.raises(OrdinalDomainError, match="1025 terms, more than 1024"):
            opow(a, 1024)
        # without a finite part the power keeps the base's term count
        assert opow(add(opow(W, 2), W), 99999) == parse_ordinal("w^199998+w^199997")

    def test_examples(self):
        assert opow(W, 2) == parse_ordinal("w^2")
        assert opow(2, W) == W
        assert opow(W, W) == parse_ordinal("w^(w)")
        assert opow(2, add(W, 3)) == mul(W, 8)
        assert opow(add(W, 1), W) == opow(W, W)
        assert opow(ZERO, ZERO) == ONE
        assert opow(ZERO, W) == ZERO
        assert opow(ONE, opow(W, W)) == ONE

    def test_finite_powers_against_tuple_model(self):
        for t in tm.grid(2):
            for n in range(4):
                try:
                    expected = tm.t_pow_fin(t, n)
                except tm.TupleOverflow:
                    continue
                assert opow(tm.to_ordinal(t), n) == tm.to_ordinal(expected)

    @given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(0, 2**32))
    def test_power_laws(self, s1, s2, s3):
        a = random_ordinal(random.Random(s1), depth=1)
        b = random_ordinal(random.Random(s2), depth=1)
        c = random_ordinal(random.Random(s3), depth=1)
        assert opow(a, add(b, c)) == mul(opow(a, b), opow(a, c))
        assert opow(a, ONE) == a
        assert opow(a, ZERO) == ONE


class TestClassification:
    def test_successor(self):
        assert successor(ZERO) == ONE
        assert successor(W) == add(W, 1)

    def test_leading_exponent_and_finite_part(self):
        assert leading_exponent(parse_ordinal("w^2*3+w+4")) == Ordinal.from_int(2)
        assert finite_part(parse_ordinal("w^2*3+w+4")) == 4
        assert finite_part(W) == 0
        assert finite_part(Ordinal.from_int(12)) == 12
        with pytest.raises(OrdinalDomainError):
            leading_exponent(ZERO)


class TestOrdinalType:
    def test_int_interop_and_hash(self):
        assert W + 1 == add(W, 1)
        assert 1 + W == W
        assert W * 2 > W
        assert len({W, OMEGA, add(W, ZERO)}) == 1

    def test_immutable(self):
        with pytest.raises(AttributeError):
            W.terms = ()

    @pytest.mark.parametrize("slot", ["terms", "_hash", "_text", "_finite"])
    def test_no_slot_takes_a_write(self, slot):
        value = parse_ordinal("w^2+3")
        render(value)
        with pytest.raises(AttributeError):
            setattr(value, slot, None)
        assert value.terms and render(value) == "w^2+3"

    def test_normal_form_invariant_holds_for_generated(self):
        rng = random.Random(5)
        for _ in range(300):
            value = random_ordinal(rng, depth=3)
            exps = [e for e, _ in value.terms]
            assert exps == sorted(exps, reverse=True)
            assert len(set(exps)) == len(exps)
            assert all(c >= 1 for _, c in value.terms)


def assert_order_agrees(a: Ordinal, b: Ordinal, want: int):
    """compare(), _cmp, == and the four order operators all read `want`."""
    assert compare(a, b) == _cmp(a, b) == want and compare(b, a) == -want
    assert (a == b, a != b) == (want == 0, want != 0)
    assert (a < b, a <= b, a > b, a >= b) == (want < 0, want <= 0, want > 0, want >= 0)


def tower(levels: int) -> Ordinal:
    """w^w^...^w with `levels` exponents nested above 1."""
    a = ONE
    for _ in range(levels):
        a = omega_power(a)
    return a


class TestOrderKey:
    def test_key_is_the_flat_term_tuple(self):
        # (key(e1), c1, key(e2), c2, ...): w^2*3+w+4
        assert parse_ordinal("w^2*3+w+4")._key == (((), 2), 3, ((), 1), 1, (), 4)
        assert ZERO._key == () and ONE._key == ((), 1)
        assert parse_ordinal("w^(w)")._key == ((((), 1), 1), 1)

    @given(st.tuples(*[st.integers(0, 40)] * 3), st.tuples(*[st.integers(0, 40)] * 3))
    def test_against_tuple_model(self, t, u):
        assert_order_agrees(tm.to_ordinal(t), tm.to_ordinal(u), tm.t_compare(t, u))

    # at 3 * NESTING_CAP levels a comparison that recursed in Python would
    # pass the recursion limit under pytest; the keys compare in C
    @pytest.mark.parametrize("levels", [ordcalc.NESTING_CAP, 3 * ordcalc.NESTING_CAP])
    def test_equal_values_nested_deep_built_apart(self, levels):
        a = tower(levels)
        clear_intern_table()
        b = tower(levels)
        x, y = a, b
        while x is not y:                   # no node is shared above OMEGA
            assert x != OMEGA
            (x, _), = x.terms
            (y, _), = y.terms
        assert x is OMEGA
        assert_order_agrees(a, b, 0)
        assert hash(a) == hash(b) and {a: 1}[b] == 1


def clear_intern_table():
    """Build more distinct values than the intern table keeps."""
    for n in range(ordcalc._INTERN_CAP + 1):
        Ordinal.from_int(10**9 + n)


class TestInterning:
    def test_equal_terms_give_the_same_object(self):
        a = parse_ordinal("w^(w+1)*2+w^3+5")
        assert parse_ordinal("w^(w+1)*2+w^3+5") is a
        assert add(parse_ordinal("w^(w+1)*2+w^3"), 5) is a
        assert Ordinal(()) is ZERO and Ordinal.from_int(1) is ONE

    def test_constants_survive_a_clear(self):
        clear_intern_table()
        assert Ordinal(()) is ZERO
        assert Ordinal.from_int(1) is ONE
        assert omega_power(1) is OMEGA

    def test_the_table_stays_bounded(self):
        clear_intern_table()
        assert len(ordcalc._interned) <= ordcalc._INTERN_CAP

    @given(st.integers(0, 2**32))
    def test_equal_values_agree_across_a_clear(self, seed):
        a = random_ordinal(random.Random(seed), depth=3)
        text = render(a)
        clear_intern_table()
        b = random_ordinal(random.Random(seed), depth=3)
        assert b is not a or a in (ZERO, ONE, OMEGA)
        assert a == b and b == a and not a != b
        assert hash(a) == hash(b) == hash(a.terms)
        assert render(b) == text
        assert compare(a, b) == _cmp(a, b) == _cmp(b, a) == 0
        assert a <= b and a >= b and not a < b
        assert {a: "a"}[b] == "a" and len({a, b}) == 1
        assert left_sub(a, b) == ZERO
        assert parse_ordinal(text) == a

    @given(st.integers(0, 2**32), st.integers(0, 2**32))
    def test_cmp_agrees_with_the_reference(self, s1, s2):
        a = random_ordinal(random.Random(s1), depth=4)
        b = random_ordinal(random.Random(s2), depth=4)
        for x, y in ((a, b), (b, a), (a, add(a, b)), (add(b, a), b), (a, a)):
            assert_order_agrees(x, y, terms_cmp(x, y))

    def test_cmp_agrees_with_the_reference_on_rebuilt_copies(self):
        rng = random.Random(77)
        values = [random_ordinal(rng, depth=3) for _ in range(60)]
        clear_intern_table()
        rebuilt = [parse_ordinal(render(v)) for v in values]
        for x in values:
            for y in rebuilt:
                assert_order_agrees(x, y, terms_cmp(x, y))

    def test_text_is_cached_on_the_value(self):
        a = parse_ordinal("w^(w^2+1)*3+w+1")
        assert render(a) is render(a)
        assert str(a) == "w^(w^2+1)*3+w+1"
        assert repr(a) == "Ordinal('w^(w^2+1)*3+w+1')"
