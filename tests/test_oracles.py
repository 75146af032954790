"""Ranked sets, oracle catalog, ledger accounting and scripted replay."""

import random

import pytest
from hypothesis import given, strategies as st

from ordq import universe as u
from ordq.logic import formula_index, parse_formula, universe_of
from ordq.oracles import (
    DEC_CARD,
    NEXT_CARD,
    ORD_CARD,
    PATTERN_ALL_ZERO,
    PATTERN_FINAL_ONE,
    PATTERN_ORACLE_HITS,
    POT,
    POWER_CARD,
    SEP,
    TRUTH,
    CardinalClassSet,
    Effectivizer,
    FiniteOrdinalSet,
    OmegaMultiplesSet,
    OracleTypeError,
    QueryLedger,
    RunEntry,
    ScriptExhausted,
    ScriptMismatch,
    ScriptedEffectivizer,
    SingleEntry,
    make_effectivizer,
    NotRankedError,
    same_value,
    summarize_query,
)
from ordq.ordcalc import OMEGA, ONE, ZERO, Ordinal, add, omega_power, parse_ordinal as P, render

import tuple_model as tm
from gen import random_ordinal
from reference_sets import (
    bit_oracle,
    flag_value_after,
    hf_powerset,
    sup_below,
    sup_of_cardinals_below,
)
from test_universe import nest, numbering_state

W2 = (1, 0, 0)


def omega_multiples_upto(n):
    """The first n positive multiples of w, as ascending triples."""
    return [(0, b, 0) for b in range(1, n + 1)]


class TestOmegaMultiplesRanked:
    """Closed forms versus a plain list walk over an enumerated prefix."""

    S = OmegaMultiplesSet()
    MEMBERS = omega_multiples_upto(40)
    SAFE = (0, 20, 0)  # answers for probes below this stay inside MEMBERS

    def probes(self):
        out = [t for t in tm.grid(6)]
        out += [(0, 15, 3), (0, 19, 0), (1, 0, 0), (1, 0, 1), (1, 2, 3), (2, 0, 0)]
        return out

    def test_contains_matches_shape(self):
        for t in self.probes():
            expected = t in set(omega_multiples_upto(200))
            assert self.S.contains(tm.to_ordinal(t)) == expected, t

    def test_least_above_matches_list_walk(self):
        for t in self.probes():
            got = self.S.least_above(tm.to_ordinal(t))
            if t >= W2:
                assert got is None, t
                continue
            if t >= self.SAFE:
                continue
            want = min(m for m in self.MEMBERS if m > t)
            assert got == tm.to_ordinal(want), t

    def test_greatest_at_most_matches_list_walk(self):
        for t in self.probes():
            got = self.S.greatest_at_most(tm.to_ordinal(t))
            if t >= W2:
                assert got is None, t  # members keep growing under w^2
                continue
            below = [m for m in self.MEMBERS if m <= t]
            if not below:
                assert got is None, t
            elif t < self.SAFE:
                assert got == tm.to_ordinal(max(below)), t

    def test_next_limit_is_omega_squared(self):
        for t in self.probes():
            got = self.S.next_limit_above(tm.to_ordinal(t))
            if t < W2:
                assert got == omega_power(2), t
            else:
                assert got is None, t

    def test_sup_below_matches_list_walk(self):
        for t in self.probes():
            got = sup_below(self.S, tm.to_ordinal(t))
            if t > W2:
                assert got == (omega_power(2), False), t
                continue
            if t == W2:
                assert got == (omega_power(2), False), t
                continue
            strictly_below = [m for m in self.MEMBERS if m < t]
            if not strictly_below:
                assert got is None, t
            elif t < self.SAFE:
                assert got == (tm.to_ordinal(max(strictly_below)), True), t


class TestFiniteSetRanked:
    def test_against_sorted_walk(self):
        rng = random.Random(20260814)
        for _ in range(120):
            triples = sorted({tuple(rng.randrange(4) for _ in range(3))
                              for _ in range(rng.randrange(1, 7))})
            s = FiniteOrdinalSet([tm.to_ordinal(t) for t in triples])
            for probe in tm.grid(4):
                a = tm.to_ordinal(probe)
                above = [t for t in triples if t > probe]
                at_most = [t for t in triples if t <= probe]
                below = [t for t in triples if t < probe]
                assert s.contains(a) == (probe in triples)
                assert s.least_above(a) == (tm.to_ordinal(min(above)) if above else None)
                assert s.greatest_at_most(a) == (tm.to_ordinal(max(at_most)) if at_most else None)
                assert sup_below(s, a) == ((tm.to_ordinal(max(below)), True) if below else None)
                assert s.next_limit_above(a) is None

    def test_duplicates_and_int_coercion_collapse(self):
        s = FiniteOrdinalSet([3, P("3"), P("w"), P("w")])
        assert s.members == (P("3"), P("w"))


class TestCardinalClassDelegation:
    """The ranked view of a structure's cardinals answers like the module
    functions, None included."""

    CS = u.omega_powers(omega_power(P("w*2")))

    def test_agrees_with_structure_functions(self):
        S = CardinalClassSet(self.CS)
        for t in tm.grid(3):
            a = tm.to_ordinal(t)
            assert S.contains(a) == u.is_cardinal(self.CS, a)
            assert S.least_above(a) == u.next_card_of(self.CS, a)
            assert S.greatest_at_most(a) == u.card_of(self.CS, a)
            assert S.next_limit_above(a) == u.next_limit_of_cardinals_above(self.CS, a)
            assert sup_below(S, a) == sup_of_cardinals_below(self.CS, a)

    def test_out_of_structure_flattens_to_none(self):
        S = CardinalClassSet(u.omega_powers(omega_power(3)))
        beyond = omega_power(5)
        assert S.contains(beyond) is False
        assert S.least_above(beyond) is None
        assert S.greatest_at_most(beyond) is None
        assert S.next_limit_above(beyond) is None
        assert sup_below(S, beyond) is None

    def test_no_next_cardinal_is_none(self):
        S = CardinalClassSet(u.explicit_list([P("w*2")], omega_power(3)))
        assert S.least_above(P("w*2")) is None
        assert S.next_limit_above(0) == OMEGA  # the finite cardinals pile up
        assert S.next_limit_above(OMEGA) is None


class TestFlagValue:
    def test_finite_toggle_sets_reduce_to_parity(self):
        rng = random.Random(7)
        for _ in range(200):
            triples = sorted({tuple(rng.randrange(4) for _ in range(3))
                              for _ in range(rng.randrange(1, 6))})
            toggles = FiniteOrdinalSet([tm.to_ordinal(t) for t in triples])
            initial = rng.randrange(2)
            probe = tuple(rng.randrange(5) for _ in range(3))
            hits = sum(1 for t in triples if t <= probe)
            assert flag_value_after(initial, toggles, tm.to_ordinal(probe)) == initial ^ (hits % 2)

    def test_toggle_at_zero_counts(self):
        toggles = FiniteOrdinalSet([0])
        assert flag_value_after(0, toggles, 0) == 1
        assert flag_value_after(1, toggles, 0) == 0

    def test_cofinal_toggles_settle_to_zero_at_the_limit(self):
        S = OmegaMultiplesSet()
        for initial in (0, 1):
            assert flag_value_after(initial, S, omega_power(2)) == 0
            assert flag_value_after(initial, S, P("w^2+9")) == 0

    def test_past_a_limit_the_chain_restarts_from_zero(self):
        # one more toggle after the cofinal stretch: a set with every w*n
        # and also w^2 itself
        class WithTop(OmegaMultiplesSet):
            def contains(self, a):
                return super().contains(a) or a == omega_power(2)

        @sup_below.register(WithTop)
        def _(hits, a):
            if a > omega_power(2):
                return (omega_power(2), True)
            return sup_below.dispatch(OmegaMultiplesSet)(hits, a)

        S = WithTop()
        assert flag_value_after(0, S, omega_power(2)) == 1
        assert flag_value_after(1, S, omega_power(2)) == 1

    def test_below_first_toggle_keeps_initial(self):
        S = OmegaMultiplesSet()
        assert flag_value_after(0, S, 17) == 0
        assert flag_value_after(1, S, 17) == 1
        assert flag_value_after(1, S, P("w")) == 0


def resum(ledger: QueryLedger) -> Ordinal:
    """The ledger's total order type, added up entry by entry."""
    total = ZERO
    for entry in ledger:
        total = add(total, entry.length())
    return total


def ledger_of(*entries) -> QueryLedger:
    led = QueryLedger()
    for entry in entries:
        led.append(entry)
    return led


class TestLedger:
    def run_entry(self, from_t, to_t, ot):
        return RunEntry(oracle="DecCard", from_query=P(from_t), to_query=P(to_t),
                        order_type=P(ot), pattern=PATTERN_ALL_ZERO)

    def single(self, q="w", r="1"):
        return SingleEntry(oracle="NextCard", query=P(q), response=P(r))

    def test_empty_total_is_zero(self):
        assert render(QueryLedger().total_order_type()) == "0"

    def test_one_plus_omega_absorbs(self):
        led = ledger_of(self.single(), self.run_entry("0", "w", "w"))
        assert render(led.total_order_type()) == "w"

    def test_omega_plus_one_does_not(self):
        led = ledger_of(self.run_entry("0", "w", "w"), self.single())
        assert render(led.total_order_type()) == "w+1"

    def test_rechunking_a_run_keeps_the_total(self):
        led = ledger_of(self.run_entry("0", "w", "w"), self.single())
        split = ledger_of(self.run_entry("0", "5", "5"), self.run_entry("5", "w", "w"),
                          self.single())
        assert split.total_order_type() == led.total_order_type()

    def test_zero_length_run_rejected(self):
        led = ledger_of(self.single(), self.run_entry("0", "w", "w"))
        with pytest.raises(ValueError, match="nonempty"):
            led.append(self.run_entry("w", "w", "0"))
        # the refused entry leaves the ledger as it was
        assert len(led) == 2 and led.total_order_type() == add(ONE, OMEGA) == OMEGA

    @given(st.integers(0, 2**32))
    def test_running_sums_match_a_re_summing_of_the_entries(self, seed):
        # calls and runs through Effectivizer.call and append: the running
        # total re-sums the entries' order types
        rng = random.Random(seed)
        oracle = bit_oracle(FiniteOrdinalSet([P("5")]))
        led = QueryLedger()
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.5:
                oracle.call(P("5"), led)
            else:
                length = add(random_ordinal(rng, depth=2), ONE)
                led.append(RunEntry("DecCard", ZERO, length, length, PATTERN_ALL_ZERO))
            assert led.total_order_type() == resum(led)

    def test_json_shapes(self):
        led = ledger_of(self.run_entry("0", "w", "w"), self.single(q="w", r="w^2"))
        assert led.to_json() == [
            {"kind": "run", "oracle": "DecCard", "from": "0", "to": "w",
             "order_type": "w", "response": "all-0"},
            {"kind": "single", "oracle": "NextCard", "from": "w", "to": "w",
             "order_type": "1", "response": "w^2"},
        ]

    def test_single_entries_hold_values_and_json_renders_them(self):
        x = u.hf()
        query = (7, (x, u.hf(x)))
        code = u.encode_hf(u.hf(x))
        truth = Effectivizer("TruthSigma2", lambda q: 1)
        pot = Effectivizer(POT, u.powerset_code)
        led = QueryLedger()
        truth.call(query, led)
        answer = pot.call(code, led)
        # the entries keep the very objects of the call
        assert led.entries[0].query is query and led.entries[0].response == 1
        assert led.entries[1].query is code and led.entries[1].response is answer
        assert led.to_json() == [
            {"kind": "single", "oracle": "TruthSigma2", "from": "(7,({},{{}}))",
             "to": "(7,({},{{}}))", "order_type": "1", "response": "1"},
            {"kind": "single", "oracle": "Pot", "from": "code(domain=2,root=1,edges=1)",
             "to": "code(domain=2,root=1,edges=1)", "order_type": "1",
             "response": "code(domain=3,root=2,edges=3)"},
        ]

    @pytest.mark.parametrize("text,power", [
        ("{}", False), ("{{}}", False), ("{{},{{}}}", False), ("{{},{{}}}", True)])
    def test_code_summary_counts_edges_from_the_child_map(self, text, power):
        # the summary is the code's str(), for an encode_hf code, a Pot
        # answer, whose text numbers it, and a valid code given by its edges
        code = u.encode_hf(u.parse_hf(text))
        if power:
            code = u.powerset_code(code)
            assert numbering_state(code) == "pending"
            first_read = str(code)
            assert numbering_state(code) == "numbered"
        summary = summarize_query(code)
        assert str(code) == summary
        assert not power or first_read == summary
        assert "edges" not in code.__dict__
        assert summary == (f"code(domain={code.domain},root={code.root},"
                           f"edges={len(code.edges)})")
        rebuilt = u.SetCode(code.domain, code.edges, code.root)
        assert summarize_query(rebuilt) == str(rebuilt) == summary


def _codes():
    """Two codes with one domain, root and edge count but other edges, and
    two equal codes built apart."""
    pair = u.cantor_pair
    return [u.SetCode(3, [pair(0, 1), pair(1, 2)], 2),
            u.SetCode(3, [pair(0, 2), pair(1, 2)], 2),
            u.encode_hf(u.hf(u.hf())), u.encode_hf(u.hf(u.hf()))]


# ordinals and their look-alikes: ints, bools, floats, text, sets,
# frozensets, codes, lists
LOOKALIKES = [0, 1, 5, True, False, 0.0, -0.0, 1.0, 1.5, ZERO, ONE, P("5"), OMEGA,
              P("w+1"), None, "1", "w", "{}", u.hf(), frozenset(), u.hf(u.hf()),
              frozenset({u.hf()}), [1], [ONE], *_codes()]


class TestSameValue:
    @given(st.data())
    def test_never_agrees_where_the_text_differs(self, data):
        values = st.recursive(st.sampled_from(LOOKALIKES),
                              lambda inner: st.lists(inner, max_size=3).map(tuple),
                              max_leaves=6)
        a, b = data.draw(values), data.draw(values)
        if same_value(a, b):
            assert summarize_query(a) == summarize_query(b), (a, b)
        assert same_value(a, a)

    def test_values_that_agree(self):
        x = u.hf(u.hf())
        assert same_value(5, P("5")) and same_value(ONE, 1)
        assert same_value((7, (x, u.hf())), (7, (u.hf(u.hf()), u.hf())))
        a, b = _codes()[2:]
        assert a is not b and same_value(a, b)

    def test_values_that_do_not(self):
        one, other = _codes()[:2]
        assert summarize_query(one) == summarize_query(other)
        assert not same_value(one, other)
        for a, b in [(True, 1), (1.0, 1), (-0.0, 0.0), (u.hf(), frozenset()),
                     ((1, 2), (1, (2,))), ((ONE,), (ONE, ONE)), (OMEGA, P("w+1"))]:
            assert not same_value(a, b) and not same_value(b, a), (a, b)


class TestEffectivizerCatalog:
    CS = u.omega_powers(omega_power(P("w*2")))

    def test_deccard_bits_and_hit_set(self):
        dec = make_effectivizer(DEC_CARD, structure=self.CS)
        assert dec.call(P("w^2")) == 1
        assert dec.call(P("w^2+1")) == 0
        assert dec.call(5) == 1
        assert render(dec.hit_set.least_above(P("w"))) == "w^2"
        assert render(dec.hit_set.greatest_at_most(P("w+3"))) == "w"
        assert render(dec.hit_set.next_limit_above(0)) == "w"

    def test_a_scan_is_one_call_of_a_rank_query(self):
        dec = make_effectivizer(DEC_CARD, structure=self.CS)
        bound = self.CS.bound
        assert dec.scan(P("w"), "least_above", P("w")) == (DEC_CARD, P("w^2"), bound)
        assert dec.scan(ZERO, "greatest_at_most", P("w+3")) == (DEC_CARD, OMEGA, bound)
        assert dec.scan(ZERO, "next_limit_above", ZERO) == (DEC_CARD, OMEGA, bound)

    def test_deccard_accepts_the_whole_declared_window(self):
        wide = u.omega_powers(omega_power(P("w*2")))
        dec = make_effectivizer(DEC_CARD, structure=wide)
        assert dec.call(omega_power(3)) == 1
        assert dec.call(omega_power(P("w"))) == 1

    def test_nextcard_and_ordcard_values(self):
        nxt = make_effectivizer(NEXT_CARD, structure=self.CS)
        oc = make_effectivizer(ORD_CARD, structure=self.CS)
        assert render(nxt.call(P("w*2+1"))) == "w^2"
        assert render(oc.call(P("w*2+1"))) == "w"
        assert render(oc.call(P("17"))) == "17"

    @pytest.mark.parametrize("name", [DEC_CARD, NEXT_CARD, ORD_CARD])
    def test_pointwise_queries_at_or_past_the_bound_are_rejected(self, name):
        oracle = make_effectivizer(name, structure=self.CS)
        for q in (omega_power(P("w*2")), omega_power(P("w*2")) + 1, omega_power(P("w^2"))):
            with pytest.raises(u.OutOfStructureError, match="not below the working bound"):
                oracle.call(q)
        oracle.call(omega_power(P("w+1")) * 5 + 3)   # just inside: answered

    def test_only_ranked_oracles_serve_scans(self):
        nxt = make_effectivizer(NEXT_CARD, structure=self.CS)
        assert nxt.hit_set is None
        with pytest.raises(NotRankedError):
            nxt.scan(ZERO, "least_above", ZERO)

    def test_query_shape_is_checked(self):
        dec = make_effectivizer(DEC_CARD, structure=self.CS)
        pot = make_effectivizer(POT)
        with pytest.raises(OracleTypeError):
            dec.call("w")
        with pytest.raises(OracleTypeError):
            pot.call(P("3"))
        with pytest.raises(OracleTypeError):
            make_effectivizer("NoSuchOracle")
        with pytest.raises(OracleTypeError):
            make_effectivizer(DEC_CARD)
        # each family's environment check, with its message word for word
        for name, env, message in (
                (POT, {"level": 1}, "Pot takes no environment"),
                (POWER_CARD, {"structure": self.CS}, "PowerCard takes no environment"),
                (TRUTH, {"level": 1}, "TruthSigma needs a level and a rank"),
                (SEP, {"rank": 3}, "SepSigma needs a level and a rank")):
            with pytest.raises(OracleTypeError) as caught:
                make_effectivizer(name, **env)
            assert str(caught.value) == message

    def test_a_query_error_summarizes_a_code(self):
        # the message counts the code's edges, as a ledger does, and does
        # not print its packed edge set
        code = u.SetCode(3, [u.cantor_pair(0, 1), u.cantor_pair(1, 2)], 2)
        pot = make_effectivizer(POT)
        sep = make_effectivizer(SEP, level=1, rank=3)
        for oracle, q in ((pot, (code,)), (sep, (code, True, ()))):
            with pytest.raises(OracleTypeError) as caught:
                oracle.call(q)
            assert "code(domain=3,root=2,edges=2)" in str(caught.value)
            assert "SetCode" not in str(caught.value)
        # a code's str() is that text, and it neither validates nor unpacks
        # a code given by its edges: a two-cycle, and a negative edge, which
        # packs no pair
        for bad, text in ((u.SetCode(2, [u.cantor_pair(0, 1), u.cantor_pair(1, 0)], 0),
                           "code(domain=2,root=0,edges=2)"),
                          (u.SetCode(1, [-5], 0), "code(domain=1,root=0,edges=1)")):
            assert str(bad) == summarize_query(bad) == text
            assert "_verdict" not in bad.__dict__ and "_children" not in bad.__dict__

    def test_a_list_in_a_query_error_is_summarized_item_by_item(self):
        code = u.encode_hf(u.parse_hf("{{},{{}},{{{}}}}"))
        sep = make_effectivizer(SEP, level=1, rank=3)
        with pytest.raises(OracleTypeError) as caught:
            sep.call((code, 0, [code]))
        text = summarize_query(code)
        assert f"({text},0,[{text}])" in str(caught.value)
        assert "SetCode" not in str(caught.value)
        assert summarize_query([ONE, (OMEGA, [])]) == "[1,(w,[])]"

    def test_a_bool_index_or_a_list_of_params_is_refused(self):
        # either would be answered and ledgered as Python text, not as a
        # query: a SetCode(...) repr in a list, or (True,(...)); so would a
        # truth parameter that is not a set, and as a key of the truth
        # values' memo a list would raise a bare unhashable-type error
        code = u.encode_hf(u.hf(u.hf()))
        sep = make_effectivizer(SEP, level=1, rank=3)
        truth = make_effectivizer(TRUTH, level=1, rank=3)
        one_param = formula_index(parse_formula("E v0 (v0 in #0)"))
        led = QueryLedger()
        for oracle, q in ((sep, (code, 0, [u.encode_hf(u.hf())])), (sep, (code, True, ())),
                          (truth, (True, (u.hf(),))), (truth, (0, [u.hf()])),
                          (truth, (0, ([],))), (truth, (one_param, ([],))),
                          (truth, (one_param, (code,))), (truth, (0, (u.hf(), ONE)))):
            with pytest.raises(OracleTypeError, match="expected"):
                oracle.call(q, led)
        assert led.entries == []
        sep.call((code, 0, (u.encode_hf(u.hf()),)), led)
        truth.call((0, (u.hf(),)), led)
        assert len(led.entries) == 2

    @pytest.mark.parametrize("name", [DEC_CARD, NEXT_CARD, ORD_CARD])
    def test_a_bool_query_is_refused_as_a_float_is(self, name):
        oracle = make_effectivizer(name, structure=self.CS)
        for q in (True, False, 1.5):
            with pytest.raises(OracleTypeError, match="expected an ordinal query"):
                oracle.call(q)

    def test_pot_agrees_with_semantic_powerset(self):
        pot = make_effectivizer(POT)
        for s in universe_of(3):  # every set of rank < 3, sizes up to 4
            code = u.encode_hf(s)
            assert u.decode_set(pot.call(code)) == hf_powerset(s)

    def test_powercard_counts_the_powerset(self):
        pot = make_effectivizer(POT)
        pc = make_effectivizer(POWER_CARD)
        for s in universe_of(3):
            code = u.encode_hf(s)
            n = pc.call(code).to_int()
            assert n == 2 ** len(s)
            assert n == len(u.decode_set(pot.call(code)))


class TestPowerCardWithoutAPowerSet:
    def test_agrees_with_the_power_set_count_up_to_four_members(self):
        pc = make_effectivizer(POWER_CARD)
        for k in range(5):
            for s in (u.HFSet(universe_of(4)[:k]), u.HFSet(nest(i) for i in range(k))):
                code = u.encode_hf(s)
                old = len(hf_powerset(u.decode_set(code)))
                assert pc.call(code) == Ordinal.from_int(old) == Ordinal.from_int(2 ** k)

    def test_sixteen_members(self):
        code = u.encode_hf(u.HFSet(universe_of(4)))
        assert make_effectivizer(POWER_CARD).call(code) == Ordinal.from_int(65536)

    def test_seventeen_members_raise(self):
        code = u.encode_hf(u.HFSet(nest(i) for i in range(17)))
        with pytest.raises(u.PowersetCapError, match="size cap of 16"):
            make_effectivizer(POWER_CARD).call(code)

    def test_an_invalid_code_raises_before_the_cap(self):
        # 17 members and a cycle: the code is checked first, as before
        edges = [u.cantor_pair(i, 17) for i in range(17)]
        code = u.SetCode(19, edges + [u.cantor_pair(17, 18), u.cantor_pair(18, 17)], 17)
        for name in (POWER_CARD, POT):
            with pytest.raises(u.InvalidCodeError):
                make_effectivizer(name).call(code)


class TestTruthAndSeparation:
    def test_truth_answers_evaluation(self):
        tr = make_effectivizer(TRUTH, level=1, rank=3)
        k = formula_index(parse_formula("E v0 (v0 in #0)"))
        assert tr.call((k, (u.hf(u.hf()),))) == 1
        assert tr.call((k, (u.hf(),))) == 0

    def test_truth_refuses_higher_levels_with_zero(self):
        # leading universal block: one past its block count
        k = formula_index(parse_formula("A v0 (E v1 (v1 in v0 | v1 = v0))"))
        tr = make_effectivizer(TRUTH, level=2, rank=3)
        assert tr.call((k, ())) == 0
        tr3 = make_effectivizer(TRUTH, level=3, rank=3)
        assert tr3.call((k, ())) == 1

    def test_truth_arity_mismatch_is_zero(self):
        tr = make_effectivizer(TRUTH, level=1, rank=3)
        k = formula_index(parse_formula("E v0 (v0 in #0)"))
        assert tr.call((k, ())) == 0
        assert tr.call((k, (u.hf(), u.hf()))) == 0

    def test_sep_filters_members(self):
        sep = make_effectivizer(SEP, level=2, rank=3)
        pair = u.hf(u.hf(), u.hf(u.hf()))          # {0, {0}}
        k = formula_index(parse_formula("A v0 (!(v0 in #0))"))
        out = sep.call((u.encode_hf(pair), k, ()))
        assert u.decode_set(out) == u.hf(u.hf())   # only the empty member

    def test_sep_with_a_side_parameter(self):
        sep = make_effectivizer(SEP, level=1, rank=4)
        zero, one = u.hf(), u.hf(u.hf())
        s = u.hf(zero, one, u.hf(one))
        k = formula_index(parse_formula("E v0 (v0 in #0 & v0 = #1)"))
        out = sep.call((u.encode_hf(s), k, (u.encode_hf(zero),)))
        # keeps members that contain the empty set
        assert u.decode_set(out) == u.hf(one)

    def test_sep_arity_or_level_mismatch_returns_empty(self):
        sep = make_effectivizer(SEP, level=1, rank=3)
        s = u.hf(u.hf())
        k_two = formula_index(parse_formula("E v0 (v0 in #0 & v0 in #1)"))
        assert u.decode_set(sep.call((u.encode_hf(s), k_two, ()))) == u.hf()
        high = formula_index(parse_formula("A v0 (E v1 (v0 in #0 | v1 in #0))"))
        assert u.decode_set(sep.call((u.encode_hf(s), high, ()))) == u.hf()
        # a fitting always-true filter keeps every member
        keep = formula_index(parse_formula("E v0 (v0 = #0)"))
        assert u.decode_set(sep.call((u.encode_hf(s), keep, ()))) == s


class TestScripted:
    def test_pointwise_consumption_and_exhaustion(self):
        sc = ScriptedEffectivizer(ledger_of(SingleEntry("DecCard", P("5"), 1),
                                            SingleEntry("DecCard", P("99"), 0)))
        assert sc.call(P("5")) == 1
        assert sc.call(P("99")) == 0
        with pytest.raises(ScriptExhausted):
            sc.call(P("0"))

    def test_scripted_by_hit_set_is_a_bit_oracle(self):
        sc = bit_oracle(FiniteOrdinalSet([P("w")]))
        assert sc.call(P("w")) == 1
        assert sc.call(4) == 0
        assert render(sc.hit_set.least_above(0)) == "w"
        assert sc.scan(ZERO, "least_above", ZERO) == ("Scripted", OMEGA, None)

    def test_replay_reproduces_a_ledger(self):
        cs = u.omega_powers(omega_power(P("w*2")))
        dec = make_effectivizer(DEC_CARD, structure=cs)
        nxt = make_effectivizer(NEXT_CARD, structure=cs)
        led = QueryLedger()
        dec.call(P("w"), led)
        nxt.call(P("w"), led)
        dec.call(P("w^2+1"), led)
        rep = ScriptedEffectivizer(led)
        replay = QueryLedger()
        assert rep.call(P("w"), replay) == 1
        assert render(rep.call(P("w"), replay)) == "w^2"
        assert rep.call(P("w^2+1"), replay) == 0
        assert replay.to_json() == led.to_json()
        assert replay.total_order_type() == led.total_order_type() == P("3")

    def test_replayed_entries_keep_original_oracle_names(self):
        rep = ScriptedEffectivizer(ledger_of(SingleEntry("DecCard", OMEGA, 1)))
        led = QueryLedger()
        rep.call(P("w"), led)
        assert led.entries[0].oracle == "DecCard"

    def test_run_segment_blocks_pointwise_calls(self):
        rep = ScriptedEffectivizer(self._run_ledger())
        with pytest.raises(ScriptMismatch):
            rep.call(P("0"))

    def test_scan_on_an_exhausted_script(self):
        # a live scan with no hit and no horizon ledgers nothing, so a scan
        # at the end of the script gets no exit and no horizon
        rep = ScriptedEffectivizer(QueryLedger())
        assert rep.scan(ZERO, "least_above", ZERO) == ("Scripted", None, None)

    def test_scan_at_a_single_entry_gets_no_exit_and_consumes_nothing(self):
        rep = ScriptedEffectivizer(ledger_of(SingleEntry("DecCard", P("5"), 1)))
        for query, point in (("least_above", P("3")), ("greatest_at_most", P("5")),
                             ("next_limit_above", P("3"))):
            assert rep.scan(P("3"), query, point) == ("Scripted", None, None)
        assert rep.cursor == 0 and rep.call(P("5")) == 1

    def test_scan_answers_each_run_pattern_from_the_entry(self):
        # every answer is made of the entry's recorded ordinals alone: its
        # exit answers the one rank query a scan asks, its end is the horizon
        def seg(pattern, exit):
            return RunEntry(oracle="DecCard", from_query=P("3"), to_query=OMEGA,
                            order_type=OMEGA, pattern=pattern, exit=exit)

        rep = ScriptedEffectivizer(ledger_of(seg(PATTERN_FINAL_ONE, OMEGA),
                                             seg(PATTERN_ALL_ZERO, None),
                                             seg(PATTERN_ORACLE_HITS, P("5")),
                                             seg(PATTERN_ORACLE_HITS, OMEGA)))
        assert rep.scan(P("3"), "least_above", P("3")) == ("DecCard", OMEGA, OMEGA)
        assert rep.scan(P("3"), "least_above", P("3")) == ("DecCard", None, OMEGA)
        assert rep.scan(P("3"), "greatest_at_most", OMEGA) == ("DecCard", P("5"), OMEGA)
        assert rep.scan(P("3"), "next_limit_above", P("3")) == ("DecCard", OMEGA, OMEGA)
        assert rep.cursor == 4

    def _run_ledger(self):
        return ledger_of(RunEntry(oracle="DecCard", from_query=P("0"), to_query=OMEGA,
                                  order_type=OMEGA, pattern=PATTERN_ALL_ZERO))
