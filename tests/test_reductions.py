"""Reduction catalog: recorded counts versus declared bounds, independent
references, report plumbing, and two-stage composition."""

import copy
import gc
import json
import pickle
import random
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ordq import hfsets, tam
from ordq import universe as u
from ordq.logic import Formula, TruthEnv, eval_formula, formula_from_index, formula_index, parse_formula, universe_of
from ordq.oracles import (
    DEC_CARD,
    NEXT_CARD,
    NotRankedError,
    PATTERN_ALL_ZERO,
    TRUTH,
    OrdinalSet,
    QueryLedger,
    RunEntry,
    make_effectivizer,
    summarize_query,
)
from ordq.ordcalc import (
    OMEGA,
    ZERO,
    Ordinal,
    add,
    left_sub,
    mul,
    omega_power,
    parse_ordinal as P,
    render,
    successor,
)
from ordq.hfsets import _count_power, _minimal_well_order_length
from ordq.reductions import (
    Approximator,
    BoundForm,
    CATALOG_NAMES,
    ReductionTypeError,
    _bound_descent,
    catalog,
    compose,
    delegate_spec,
    verify,
)
from ordq.tam import ApproximatorContractError

import tuple_model as tm
from test_universe import W3, numbering_state, permuted

POWERS = u.omega_powers(W3)
MULTIPLES = u.multiples_of_omega(W3)
WIDE_POWERS = u.omega_powers(omega_power(P("w*2")))
EXPLICIT = u.explicit_list([P("w*2"), P("w^2")], W3)

V3 = list(u.HFSet(universe_of(3)))   # in iteration order


def code_of(*members):
    return u.encode_hf(u.hf(*members))


def run_once(spec, structure, instance, budget=tam.DEFAULT_BUDGET):
    return tam.run(spec.make_program(), instance,
                   spec.make_bindings(structure), budget)


def grid_ordinals(max_coefficient=2):
    return [tm.to_ordinal(t) for t in tm.grid(max_coefficient)]


class TestBoundForms:
    def test_describe_strings(self):
        assert BoundForm.const(2).describe() == "2"
        assert BoundForm("succ-of-input").describe() == "a+1"
        assert BoundForm("next-card-succ").describe() == "nextcard(a)+1"
        assert BoundForm("finite").describe() == "finite"
        assert BoundForm("set-size").describe() == "|S|"
        prod = BoundForm.product(BoundForm.const(1), BoundForm("set-size"))
        assert prod.describe() == "(1)*(|S|)"

    def test_evaluate(self):
        a = P("w*2+1")
        assert BoundForm("input").evaluate(POWERS, a) == a
        assert BoundForm("succ-of-input").evaluate(POWERS, a) == P("w*2+2")
        assert BoundForm("next-card-succ").evaluate(POWERS, a) == P("w^2+1")
        assert BoundForm("finite").evaluate(POWERS, a) is None
        triple = (code_of(u.EMPTY_SET, u.hf(u.EMPTY_SET)), 0, ())
        assert BoundForm("set-size").evaluate(None, triple) == Ordinal.from_int(2)
        assert BoundForm("next-limit-interval").evaluate(MULTIPLES, P("w+5")) \
            == left_sub(P("w+5"), P("w^2"))

    def test_evaluate_out_of_reach_is_none(self):
        # no cardinal above the last one: the bound has no value there
        cs = u.explicit_list([P("w*2")], W3)
        assert BoundForm("next-card-succ").evaluate(cs, P("w*3")) is None
        assert BoundForm("next-limit-interval").evaluate(POWERS, P("w^2")) is None

    def test_an_unknown_form_is_refused(self):
        with pytest.raises(ValueError, match="unknown bound form 'bogus'"):
            BoundForm("bogus").evaluate(POWERS, P("w"))

    def test_within_finite_form(self):
        f = BoundForm("finite")
        assert f.check(Ordinal.from_int(400), POWERS, P("w")).within
        assert not f.check(OMEGA, POWERS, P("w")).within

    def test_product_checks_both_orders(self):
        # w*2 and 2*w differ, so a total of w+1 fits one order only
        prod = BoundForm.product(BoundForm.const(P("w")), BoundForm.const(2))
        assert prod.check(P("w+1"), None, P("0")).within
        assert prod.check(P("w+1"), None, P("0")).product_note == "f*g"
        assert prod.check(P("w"), None, P("0")).product_note == "f*g+g*f"
        assert prod.check(P("w*2+1"), None, P("0")).product_note == "neither"
        assert not prod.check(P("w*2+1"), None, P("0")).within
        assert prod.check(P("w"), None, P("0")).value == prod.evaluate(None, P("0"))
        # an operand without a value leaves only the finiteness promise
        loose = BoundForm.product(BoundForm("finite"), BoundForm.const(2))
        assert loose.check(P("5"), None, P("0")) == (None, True, "unbounded factor")
        assert not loose.check(OMEGA, None, P("0")).within

    def test_catalog_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            catalog("no_such_entry")

    def test_entries_in_order_with_their_oracles_and_shapes(self):
        assert [(name, catalog(name).oracle, catalog(name).shape)
                for name in CATALOG_NAMES] == [
            ("nextcard_via_deccard", "DecCard", "ordinal"),
            ("ordcard_scan_naive", "DecCard", "ordinal"),
            ("ordcard_scan_improved", "DecCard", "ordinal"),
            ("ordcard_guesscheck", "DecCard", "ordinal"),
            ("flagtrick", "DecCard", "ordinal"),
            ("powercard_via_pot", "Pot", "set"),
            ("sep_via_truth", "TruthSigma2", "separation")]
        assert catalog("sep_via_truth", level=3).oracle == "TruthSigma3"

    def test_all_catalog_names_construct(self):
        for name in CATALOG_NAMES:
            spec = catalog(name)
            assert spec.name == name
            assert spec.make_program().body


class TestNextCard:
    def test_finite_pin(self):
        spec = catalog("nextcard_via_deccard")
        res = run_once(spec, POWERS, 5)
        assert res.halted and res.output == Ordinal.from_int(6)
        assert res.ledger.total_order_type() == Ordinal.from_int(1)

    def test_transfinite_pin(self):
        spec = catalog("nextcard_via_deccard")
        res = run_once(spec, POWERS, P("w*2+1"))
        assert render(res.output) == "w^2"
        assert render(res.ledger.total_order_type()) == "w^2"
        assert res.ledger.total_order_type() <= P("w^2+1")

    def test_multiples_pin(self):
        spec = catalog("nextcard_via_deccard")
        res = run_once(spec, MULTIPLES, P("w"))
        assert render(res.output) == "w*2"
        assert render(res.ledger.total_order_type()) == "w"

    @pytest.mark.parametrize("structure", [POWERS, MULTIPLES],
                             ids=["powers", "multiples"])
    def test_grid_batch_verifies(self, structure):
        spec = catalog("nextcard_via_deccard")
        report = verify(spec, structure, grid_ordinals())
        assert report.passed
        assert len(report.rows) > 20

    def test_no_cardinal_above_diverges_and_counts_correct(self):
        cs = u.explicit_list([P("w*2")], W3)
        spec = catalog("nextcard_via_deccard")
        report = verify(spec, cs, [P("w*3")])
        row = report.rows[0]
        assert row.status == "diverged"
        assert row.correct and row.replay_ok is True
        assert report.passed


class TestOrdCard:
    def test_improved_finite_makes_no_calls(self):
        spec = catalog("ordcard_scan_improved")
        res = run_once(spec, POWERS, 7)
        assert res.output == Ordinal.from_int(7)
        assert len(res.ledger) == 0
        assert res.halt_time == ZERO

    def test_naive_pin(self):
        spec = catalog("ordcard_scan_naive")
        res = run_once(spec, POWERS, P("w*2+1"))
        assert render(res.output) == "w"
        assert render(res.ledger.total_order_type()) == "w*2+2"

    def test_naive_charges_closed_interval_exactly(self):
        spec = catalog("ordcard_scan_naive")
        for a in grid_ordinals(1):
            res = run_once(spec, MULTIPLES, a)
            assert res.ledger.total_order_type() == successor(a)

    def test_naive_at_a_cardinal(self):
        spec = catalog("ordcard_scan_naive")
        res = run_once(spec, POWERS, P("w^2"))
        assert render(res.output) == "w^2"
        assert render(res.ledger.total_order_type()) == "w^2+1"

    def test_improved_shaves_the_endpoint(self):
        spec = catalog("ordcard_scan_improved")
        res = run_once(spec, POWERS, P("w*2+1"))
        assert render(res.output) == "w"
        assert render(res.ledger.total_order_type()) == "w*2+1"

    @pytest.mark.parametrize("name", ["ordcard_scan_naive", "ordcard_scan_improved"])
    @pytest.mark.parametrize("structure", [POWERS, MULTIPLES],
                             ids=["powers", "multiples"])
    def test_grid_batch_verifies(self, name, structure):
        report = verify(catalog(name), structure, grid_ordinals())
        assert report.passed


class TestExactBounds:
    """The README calls these two bounds exact: a halted row spends all of
    its bound, so its order type reads the same as its bound."""

    @pytest.mark.parametrize("name", ["ordcard_scan_naive", "flagtrick"])
    @pytest.mark.parametrize("structure", [POWERS, MULTIPLES, EXPLICIT],
                             ids=["powers", "multiples", "explicit"])
    def test_halted_rows_have_zero_slack(self, name, structure):
        rows = verify(catalog(name), structure, grid_ordinals()).rows
        halted = [row for row in rows if row.status == "halted"]
        assert halted
        for row in halted:
            assert row.order_type == row.bound_text, row.input_text


class TestGuessCheck:
    def test_mechanical_stop_at_first_cardinal(self):
        # the chain's one cardinal is not the input's cardinality, so the
        # loop's output is the chain's fault, not the machine's
        chain = Approximator("drifting", lambda a: (P("w^2+3"), P("w+7"), P("w")))
        spec = catalog("ordcard_guesscheck", approximator=chain)
        res = run_once(spec, POWERS, P("w^2+5"))
        assert render(res.output) == "w"
        assert len(res.ledger) == 3
        assert res.halt_time == Ordinal.from_int(3)

    def test_contract_chain_lands_on_cardinality(self):
        chain = Approximator("two-step", lambda a: (P("w*2+1"), P("w*2")))
        spec = catalog("ordcard_guesscheck", approximator=chain)
        res = run_once(spec, MULTIPLES, P("w*2+1"))
        assert render(res.output) == "w*2"
        assert len(res.ledger) == 2

    def test_increasing_chain_is_rejected(self):
        bad = Approximator("climbing", lambda a: (P("w+1"), P("w+2")))
        spec = catalog("ordcard_guesscheck", approximator=bad)
        with pytest.raises(ApproximatorContractError):
            run_once(spec, POWERS, P("w+3"))

    @pytest.mark.parametrize("structure", [POWERS, MULTIPLES],
                             ids=["powers", "multiples"])
    def test_default_descent_verifies(self, structure):
        report = verify(catalog("ordcard_guesscheck"), structure, grid_ordinals())
        assert report.passed
        for row in report.rows:
            assert row.status == "halted"

    def test_default_descent_reads_the_structure_its_run_is_bound_to(self):
        # binding the entry again, over another structure, leaves the
        # bindings made first descending over their own structure
        spec = catalog("ordcard_guesscheck")
        bound = spec.make_bindings(POWERS)
        spec.make_bindings(MULTIPLES)
        res = tam.run(spec.make_program(), P("w*2+1"), bound)
        assert (res.status, render(res.output), len(res.ledger)) == ("halted", "w", 2)
        # a replay handed the run's bindings descends as the run did
        assert tam.replay(spec.make_program(), P("w*2+1"), res, bindings=bound) == res

    def test_a_replay_without_the_bindings_cannot_descend(self):
        spec = catalog("ordcard_guesscheck")
        res = run_once(spec, POWERS, P("w*2+1"))
        with pytest.raises(tam.ProgramError, match="direct descent"):
            tam.replay(spec.make_program(), P("w*2+1"), res)

    def test_direct_descent_chain_shape(self):
        oracle = make_effectivizer(DEC_CARD, structure=POWERS)
        chain = _bound_descent(P("w*2+1"), oracle)
        assert [render(g) for g in chain] == ["w*2+1", "w"]
        assert tuple(_bound_descent(P("w^2"), oracle)) == (P("w^2"),)


class TestFlagTrick:
    @pytest.mark.parametrize("structure", [POWERS, MULTIPLES],
                             ids=["powers", "multiples"])
    def test_finite_start_reaches_omega(self, structure):
        res = run_once(catalog("flagtrick"), structure, 3)
        assert render(res.output) == "w"
        assert render(res.ledger.total_order_type()) == "w"

    def test_multiples_from_omega(self):
        res = run_once(catalog("flagtrick"), MULTIPLES, P("w"))
        assert render(res.output) == "w^2"
        assert res.ledger.total_order_type() == left_sub(P("w"), P("w^2"))

    def test_powers_from_omega_needs_a_wide_window(self):
        res = run_once(catalog("flagtrick"), WIDE_POWERS, P("w"))
        assert render(res.output) == "w^(w)"
        assert res.ledger.total_order_type() == left_sub(P("w"), P("w^(w)"))

    def test_charge_is_exact(self):
        spec = catalog("flagtrick")
        starts = [P(s) for s in ("0", "3", "w", "w+5", "w*3", "w^2+1")]
        report = verify(spec, MULTIPLES, starts)
        assert report.passed
        for start, row in zip(starts, report.rows):
            assert row.status == "halted"
            assert row.order_type == render(spec.bound.evaluate(MULTIPLES, start))

    def test_no_limit_above_diverges(self):
        report = verify(catalog("flagtrick"), POWERS, [P("w")])
        assert report.rows[0].status == "diverged"
        assert report.passed   # the reference has no value there either


class TestPowerCard:
    @pytest.mark.parametrize("size,expected", [(0, 1), (1, 2), (2, 4)])
    def test_full_search(self, size, expected, monkeypatch):
        # the well-order search stops at the first well-ordering: the last
        # relation it tests is the one transitive relation it meets
        verdicts = []
        is_transitive = hfsets._is_transitive

        def counting(rows):
            verdicts.append(is_transitive(rows))
            return verdicts[-1]

        monkeypatch.setattr(hfsets, "_is_transitive", counting)
        code = code_of(*V3[:size])
        res = run_once(catalog("powercard_via_pot"), None, code)
        assert res.output == Ordinal.from_int(expected)
        assert verdicts.count(True) == 1 and verdicts[-1]
        entries = list(res.ledger)
        assert len(entries) == 2
        assert all(e.oracle == "Pot" for e in entries)
        assert res.ledger.total_order_type() == Ordinal.from_int(2)

    def test_count_only_three_elements(self):
        code = code_of(*V3[:3])
        res = run_once(catalog("powercard_via_pot", count_only=True), None, code)
        assert res.output == Ordinal.from_int(8)
        assert len(res.ledger) == 2

    def test_count_power_checks_the_code(self):
        # a two-cycle: counting the root's members still validates the code
        cycle = u.SetCode(2, [u.cantor_pair(0, 1), u.cantor_pair(1, 0)], 0)
        with pytest.raises(u.InvalidCodeError):
            _count_power(cycle, None)
        power = u.powerset_code(code_of(*V3[:3]))
        assert _count_power(power, None) == Ordinal.from_int(8)

    def test_full_search_overflows_past_two(self):
        # the square of an 8-element power set breaks the powerset cap,
        # which is exactly why the count-only mode exists
        code = code_of(*V3[:3])
        with pytest.raises(ValueError):
            run_once(catalog("powercard_via_pot"), None, code)

    def test_a_square_past_the_cap_is_refused_before_it_is_built(self, monkeypatch):
        # the power set of a 5-member set has 32 members, and its square
        # 1,024 pairs, which the next Pot call would refuse
        def unbuilt(a, b):
            raise AssertionError("the square was built")

        monkeypatch.setattr(hfsets, "hf_product", unbuilt)
        members = [u.EMPTY_SET]
        while len(members) < 5:
            members.append(u.hf(*members))
        with pytest.raises(hfsets.PowersetCapError,
                           match="powerset argument exceeds the size cap of 16"):
            run_once(catalog("powercard_via_pot"), None, code_of(*members))

    def test_verify_report(self):
        codes = [code_of(*V3[:k]) for k in range(3)]
        report = verify(catalog("powercard_via_pot"), None, codes)
        assert report.passed
        assert all(row.order_type == "2" for row in report.rows)

    def test_full_search_on_a_3000_deep_member(self):
        # the well-order search looks up pairs decoded from Pot's second
        # answer among pairs of the first answer's members: equal sets, which
        # must not be compared down a 3,000-deep chain
        code = u.SetCode(3002, [u.cantor_pair(i, i + 1) for i in range(3001)], 3001)
        report = verify(catalog("powercard_via_pot"), None, [code])
        assert report.passed and report.rows[0].output_text == "2"
        assert all(row.order_type == "2" for row in report.rows)


class TestPotAnswersNumberedOnFirstRead:
    """A Pot answer is numbered the first time it is read, so a count-only
    row never numbers its second answer, which only the ledger holds."""

    @pytest.fixture
    def numbered(self, monkeypatch):
        """The argument code of each Pot answer numbered, in order: the
        answers of one row take the power sets of distinct sets."""
        arguments = []
        number = hfsets._number_powerset
        hfsets._pot_answer.cache_clear()        # else an earlier test's answers come back

        def counting(argument):
            arguments.append(argument)
            return number(argument)

        monkeypatch.setattr(hfsets, "_number_powerset", counting)
        return arguments

    def test_a_count_only_row_numbers_only_the_first_answer(self, numbered):
        report = verify(catalog("powercard_via_pot", count_only=True), None,
                        [code_of(*V3[:2])])
        assert report.passed and report.rows[0].output_text == "4"
        assert len(numbered) == 1

    def test_replay_numbers_nothing_and_json_numbers_the_second_answer_once(self, numbered):
        spec = catalog("powercard_via_pot", count_only=True)
        code = code_of(*V3[:2])
        res = run_once(spec, None, code)
        first, second = (e.response for e in res.ledger)
        # first is P(code) and second is P(first), compared by identity: ==
        # would number a pending answer
        assert len(numbered) == 1 and u.decode_set(numbered[0]) is u.decode_set(code)
        assert numbering_state(first) == "numbered" and numbering_state(second) == "pending"
        assert tam.replay(spec.make_program(), code, res) == res
        assert len(numbered) == 1 and numbering_state(second) == "pending"
        # P(V_3): 16 subsets holding 32 members, and the root over all 16
        assert res.ledger.to_json()[1]["response"] == "code(domain=17,root=16,edges=48)"
        res.ledger.to_json()
        assert len(numbered) == 2 and numbered[1] is first
        assert "edges" not in second.__dict__ and numbering_state(second) == "numbered"

    def test_a_full_row_numbers_both_answers(self, numbered):
        report = verify(catalog("powercard_via_pot"), None, [code_of(*V3[:2])])
        assert report.passed and report.rows[0].output_text == "4"
        assert len(numbered) == 2


class TestReplayRereadsHostAnswers:
    """verify replays a row on the run's own Pot answers, so the replay's
    host subroutines answer from their last call, and equal Pot arguments
    share one answer; neither changes a report."""

    def test_a_full_row_runs_each_host_body_once(self):
        hfsets._pot_answer.cache_clear()        # so the row's answers are new objects
        bodies = {hfsets._square_code.__wrapped__.__code__: "square",
                  hfsets._minimal_well_order_length.__wrapped__.__code__: "length"}
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in bodies:
                calls.append(bodies[frame.f_code])

        before = sys.getprofile()
        sys.setprofile(profile)
        try:
            report = verify(catalog("powercard_via_pot"), None, [code_of(*V3[:2])])
        finally:
            sys.setprofile(before)
        assert report.passed and report.rows[0].replay_ok
        assert sorted(calls) == ["length", "square"]

    def test_the_replay_asks_pot_for_the_runs_square(self):
        spec = catalog("powercard_via_pot")
        code = code_of(*V3[:2])
        res = run_once(spec, None, code)
        again = tam.replay(spec.make_program(), code, res)
        assert again == res
        assert again.ledger.entries[1].query is res.ledger.entries[1].query

    @pytest.mark.parametrize("size", [0, 1, 2])
    def test_host_bodies_answer_alike_on_fresh_objects(self, size):
        # the replay re-reads the run's answers instead of running these
        # bodies again, so the suite runs each twice on fresh, equal codes
        def evaluate():
            hfsets._pot_answer.cache_clear()
            power = u.powerset_code(code_of(*V3[:size]))
            square = hfsets._square_code.__wrapped__(power)
            relations = u.powerset_code(square)
            return square, hfsets._minimal_well_order_length.__wrapped__(power, relations)

        (square, length), (again, length_again) = evaluate(), evaluate()
        assert again is not square and again == square
        assert length_again == length == Ordinal.from_int(2 ** size)

    def test_each_rows_relation_code_goes_with_the_next_row(self, monkeypatch):
        # the Pot answer on a 16-member square, the 65,555-node relation
        # code, is not kept in the Pot answer memo; the well-order search
        # keeps it only until its next call
        answers = []
        powerset_code = hfsets.powerset_code

        def watching(code):
            answer = powerset_code(code)
            if len(u.code_elements(code)) == hfsets.POWERSET_CAP:
                answers.append(weakref.ref(answer))
            return answer

        monkeypatch.setattr(hfsets, "powerset_code", watching)
        spec = catalog("powercard_via_pot")
        for row, members in enumerate([V3[:2], V3[1:3], V3[2:4]]):
            assert verify(spec, None, [code_of(*members)]).passed
            gc.collect()
            assert len(answers) == row + 1
            assert [answer() is None for answer in answers[:row]] == [True] * row

    def test_reports_and_ledgers_read_alike_from_a_cold_and_a_warm_memo(self):
        rng = random.Random(11)
        sets = [[], V3[:1], V3[:2], V3[1:3], V3[:2], [], V3[:1]]
        cases = [(catalog("powercard_via_pot", count_only=count_only), code)
                 for members in sets for count_only in (False, True)
                 for code in (code_of(*members), permuted(code_of(*members), rng, 1))]

        def texts():
            return [(json.dumps(report.to_json(), sort_keys=True), report.render_table(),
                     json.dumps(run_once(spec, None, code).ledger.to_json()))
                    for spec, code in cases for report in [verify(spec, None, [code])]]

        hfsets._pot_answer.cache_clear()
        hfsets._numbering.cache_clear()
        cold = texts()
        assert hfsets._pot_answer.cache_info().hits > 0
        assert texts() == cold


def reference_is_strict_total_order(edges, n):
    for i in range(n):
        if (i, i) in edges:
            return False
        for j in range(i + 1, n):
            if ((i, j) in edges) == ((j, i) in edges):
                return False
    for i, j in edges:
        for k in range(n):
            if (j, k) in edges and (i, k) not in edges:
                return False
    return True


def reference_minimal_well_order_length(power_code, relations_code):
    """The well-order search on decoded HFSet pairs, as it ran before it
    read bit rows."""
    elements = list(u.decode_set(power_code))
    n = len(elements)
    pair_of = {u.kuratowski(a, b): (i, j)
               for i, a in enumerate(elements)
               for j, b in enumerate(elements)}
    best = None
    for relation in u.decode_set(relations_code):
        edges = set()
        for member in relation:
            edge = pair_of.get(member)
            if edge is None:
                break
            edges.add(edge)
        else:
            if reference_is_strict_total_order(edges, n):
                best = n if best is None else min(best, n)
    if best is None:
        raise ValueError("no well-ordering among the relations")
    return Ordinal.from_int(best)


def index_pairs(kind, n, rng):
    """Index pairs of one relation on n points: a strict total order, one
    with a pair dropped, added back reversed or made reflexive, a total order
    on n - 1 points with its loops (as many pairs as a strict total order on
    n), a cycle, or random pairs."""
    if n == 0:
        return set()
    order = list(range(n))
    rng.shuffle(order)
    total = {(order[a], order[b]) for a in range(n) for b in range(a + 1, n)}
    if kind == "order":
        return total
    if kind == "partial":
        return total - {(order[0], order[-1])}
    if kind == "both-ways":
        return total | {(order[-1], order[0])}
    if kind == "reflexive":
        return total | {(order[0], order[0])}
    if kind == "loops":
        return {(order[a], order[b]) for a in range(n - 1) for b in range(a, n - 1)}
    if kind == "cycle":
        return {(order[a], order[(a + 1) % n]) for a in range(n)}
    return {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.4}


RELATION_KINDS = ["order", "partial", "both-ways", "reflexive", "loops", "cycle", "random"]


def relations_of(elements, kinds, rng, stray):
    """A set of relations on elements; stray adds a member that need not be
    a pair of elements to some of them."""
    v4 = universe_of(4)
    relations = []
    for kind in kinds:
        members = [u.kuratowski(elements[i], elements[j])
                   for i, j in index_pairs(kind, len(elements), rng)]
        if stray and rng.random() < 0.5:
            members.append(rng.choice(v4))
        relations.append(u.HFSet(members))
    return u.HFSet(relations)


def search_outcome(search, power_code, relations_code):
    try:
        return search(power_code, relations_code)
    except ValueError as e:
        return str(e)


class TestWellOrderSearch:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 15), max_size=4, unique=True),
           st.lists(st.sampled_from(RELATION_KINDS), max_size=6),
           st.booleans(), st.randoms(use_true_random=False))
    def test_bit_rows_agree_with_the_reference(self, picks, kinds, stray, rng):
        v4 = universe_of(4)
        elements = [v4[i] for i in picks]
        power = u.encode_hf(u.HFSet(elements))
        relations = u.encode_hf(relations_of(elements, kinds, rng, stray))
        want = search_outcome(reference_minimal_well_order_length, power, relations)
        assert search_outcome(_minimal_well_order_length, power, relations) == want
        shuffled = permuted(relations, rng, rng.randrange(3))
        assert search_outcome(_minimal_well_order_length, power, shuffled) == want

    def test_no_well_order_raises(self):
        elements = V3
        power = code_of(*elements)
        rng = random.Random(3)
        relations = u.encode_hf(relations_of(
            elements, ["partial", "both-ways", "reflexive", "loops", "cycle"], rng, False))
        with pytest.raises(ValueError, match="no well-ordering"):
            reference_minimal_well_order_length(power, relations)
        with pytest.raises(ValueError, match="no well-ordering"):
            _minimal_well_order_length(power, relations)

    def test_a_non_pair_member_spoils_a_total_order(self):
        power = code_of(*V3)
        order = {u.kuratowski(V3[i], V3[j]) for i in range(4) for j in range(i + 1, 4)}
        spoiled = u.encode_hf(u.hf(u.HFSet(order | {u.EMPTY_SET})))
        with pytest.raises(ValueError):
            _minimal_well_order_length(power, spoiled)
        whole = u.encode_hf(u.hf(u.HFSet(order | {u.EMPTY_SET}), u.HFSet(order)))
        assert _minimal_well_order_length(power, whole) == Ordinal.from_int(4)

    @pytest.mark.parametrize("change", ["stray", "diagonal", "one-more", "one-fewer"])
    def test_the_member_count_filter(self, change):
        # only relations with n(n-1)/2 = 6 members are read past their count:
        # a stray member or a diagonal pair can fill that count, and a
        # relation of 7 or 5 members never reaches the bit rows
        power = code_of(*V3)
        pair = lambda i, j: u.kuratowski(V3[i], V3[j])
        order = {pair(i, j) for i in range(4) for j in range(i + 1, 4)}
        changed = {
            "stray": order - {pair(0, 1)} | {u.EMPTY_SET},
            "diagonal": order - {pair(0, 1)} | {pair(2, 2)},
            "one-more": order | {pair(3, 0)},
            "one-fewer": order - {pair(0, 1)},
        }[change]
        assert len(changed) - len(order) == {"one-more": 1, "one-fewer": -1}.get(change, 0)
        for relations in (u.hf(u.HFSet(changed)), u.hf(u.HFSet(changed), u.HFSet(order))):
            code = u.encode_hf(relations)
            want = search_outcome(reference_minimal_well_order_length, power, code)
            assert search_outcome(_minimal_well_order_length, power, code) == want
            assert want == ("no well-ordering among the relations" if len(relations) == 1
                            else Ordinal.from_int(4))


def brute_separation(triple, rank=3):
    code, k, param_codes = triple
    f = formula_from_index(k)
    params = tuple(u.decode_set(c) for c in param_codes)
    if f.num_params != len(params) + 1:
        return u.encode_hf(u.EMPTY_SET)
    kept = [x for x in u.decode_set(code)
            if eval_formula(f, TruthEnv(rank, (x,) + params)) == 1]
    return u.encode_hf(u.HFSet(kept))


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


class TestSeparation:
    def test_random_triples_match_brute_force(self):
        rng = random.Random(20260814)
        spec = catalog("sep_via_truth", level=2, rank=3)
        for _ in range(10):
            members = [x for x in V3 if rng.random() < 0.6]
            code = code_of(*members)
            if rng.random() < 0.5:
                k = formula_index(parse_formula(rng.choice(ONE_PARAM_FORMULAS)))
                triple = (code, k, ())
            else:
                k = formula_index(parse_formula(rng.choice(TWO_PARAM_FORMULAS)))
                triple = (code, k, (u.encode_hf(rng.choice(V3)),))
            res = run_once(spec, None, triple)
            assert res.halted
            assert res.output == brute_separation(triple)
            assert len(res.ledger) == len(members)
            assert res.ledger.total_order_type() == Ordinal.from_int(len(members))

    def test_one_verdict_evaluates_each_truth_query_once(self, monkeypatch):
        # the golden rank-4 instance: the run's truth oracle evaluates its 4
        # queries and the reference re-reads them from the memo
        from ordq import logic
        calls = []

        def counted(f, env):
            calls.append(env)
            return eval_formula(f, env)

        monkeypatch.setattr(logic, "eval_formula", counted)
        logic._sigma_truth.cache_clear()
        k = formula_index(parse_formula("E y A z A w (y in #0 & (w in z | !(z in y)))"))
        instance = (u.encode_hf(u.parse_hf("{{},{{}},{{{}}},{{},{{}}}}")), k, ())
        report = verify(catalog("sep_via_truth", level=2, rank=4), None, [instance])
        assert report.passed and report.rows[0].order_type == "4"
        assert len(calls) == 4

    def test_one_verdict_numbers_its_separated_set_once(self):
        # the run numbers the separated set, and the reference and the
        # replay, which build equal sets apart, find it in the memo
        k = formula_index(parse_formula("E y A z A w (y in #0 & (w in z | !(z in y)))"))
        instance = (u.encode_hf(u.parse_hf("{{},{{}},{{{}}},{{},{{}}}}")), k, ())
        hfsets._numbering.cache_clear()
        report = verify(catalog("sep_via_truth", level=2, rank=4), None, [instance])
        assert report.passed and report.rows[0].order_type == "4"
        info = hfsets._numbering.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_arity_mismatch_costs_nothing(self):
        spec = catalog("sep_via_truth", level=2, rank=3)
        k = formula_index(parse_formula("E v0 (v0 in #0 & v0 in #1)"))
        res = run_once(spec, None, (code_of(*V3[:3]), k, ()))
        assert res.output == u.encode_hf(u.EMPTY_SET)
        assert len(res.ledger) == 0

    def test_verify_report(self):
        spec = catalog("sep_via_truth", level=2, rank=3)
        keep_all = formula_index(parse_formula("E v0 (v0 = #0)"))
        drop_all = formula_index(parse_formula("E v0 (v0 in #0 & !(v0 = v0))"))
        triples = [(code_of(*V3[:3]), keep_all, ()),
                   (code_of(*V3[:2]), drop_all, ())]
        report = verify(spec, None, triples)
        assert report.passed
        assert [row.order_type for row in report.rows] == ["3", "2"]

    def test_formula_above_the_level_passes_with_empty_output(self):
        # "A v0 E v1" is level 3: the level-2 oracle answers 0 for it, so the
        # machine keeps nothing, and the reference follows the same rule
        spec = catalog("sep_via_truth", level=2, rank=3)
        k = formula_index(parse_formula("A v0 E v1 (v0 in #0 | v1 = #0)"))
        report = verify(spec, None, [(code_of(*V3), k, ())])
        assert report.passed
        row = report.rows[0]
        assert row.output_text == row.expected_text == summarize_query(u.encode_hf(u.EMPTY_SET))
        assert row.order_type == str(len(V3))


class TestVerifyReports:
    def test_wrong_bound_fails_the_report(self):
        spec = catalog("nextcard_via_deccard")
        report = verify(spec, POWERS, [P("w*2+1")],
                        bound_override=BoundForm.const(1))
        row = report.rows[0]
        assert row.correct and not row.within and not row.ok
        assert not report.passed
        assert "FAIL" in report.render_table()

    def test_a_diverged_row_is_judged_against_a_bound_with_a_value(self):
        # the fruitless sweep from w^2+1 to the world boundary is charged w^3
        spec = catalog("nextcard_via_deccard")
        for bound, within in (("w", False), ("w^3", True)):
            report = verify(spec, POWERS, [P("w^2+1")],
                            bound_override=BoundForm.const(P(bound)))
            (row,) = report.rows
            assert row.status == "diverged" and row.correct
            assert (row.order_type, row.bound_text) == ("w^3", bound)
            assert row.within is within and row.ok is within
            assert report.to_json()["instances"][0]["within_bound"] is within

    @pytest.mark.parametrize("name,instance", [("nextcard_via_deccard", P("w^2+1")),
                                               ("ordcard_guesscheck", P("w^2+5"))])
    def test_a_row_that_did_not_halt_reads_null_against_a_bound_without_a_value(
            self, name, instance):
        # nextcard(a)+1 has no value past the last cardinal, nor has the
        # bare finiteness promise
        report = verify(catalog(name), POWERS, [instance], budget=2)
        (row,) = report.rows
        assert row.status != "halted" and row.within is None
        assert report.to_json()["instances"][0]["within_bound"] is None
        # a null within fails no row: the verdict is the other checks'
        assert row.replay_ok and row.ok is row.correct is (name == "nextcard_via_deccard")

    def test_replay_bit_is_checked_on_halting_rows(self):
        report = verify(catalog("nextcard_via_deccard"), POWERS, [P("w+1"), 4])
        assert all(row.replay_ok is True for row in report.rows)

    def test_replay_bit_is_checked_on_rows_that_do_not_halt(self):
        wide = u.explicit_list([P("w^3")], omega_power(P("w*2")))
        diverged = verify(catalog("flagtrick"), wide, [OMEGA, P("w^3+1")])
        over_budget = verify(catalog("ordcard_guesscheck"), POWERS,
                             [P("w^2+5"), P("w*3+2")], budget=2)
        rows = diverged.rows + over_budget.rows
        assert [row.status for row in rows] == ["diverged"] * 2 + ["budget-exceeded"] * 2
        assert all(row.replay_ok is True for row in rows)

    def test_a_run_equals_its_copies_and_its_pickle(self):
        # a halted run and a stopped one, each with a nonempty ledger, per
        # entry; a ledger grows while its run lasts, so a run has no hash
        sep = (code_of(*V3[:3]), formula_index(parse_formula("E v0 (v0 = #0)")), ())
        cases = {   # name -> structure, instance, a budget the run stops at
            "nextcard_via_deccard": (POWERS, P("w*2+1"), 1),
            "ordcard_scan_naive": (POWERS, P("w*2+1"), 1),
            "ordcard_scan_improved": (POWERS, P("w*2+1"), 2),
            "ordcard_guesscheck": (POWERS, P("w*2+1"), 2),
            "flagtrick": (MULTIPLES, OMEGA, 1),
            "powercard_via_pot": (None, code_of(*V3[:2]), 2),
            "sep_via_truth": (None, sep, 2),
        }
        assert tuple(cases) == CATALOG_NAMES
        for name, (structure, instance, stop) in cases.items():
            for budget in (tam.DEFAULT_BUDGET, stop):
                res = run_once(catalog(name), structure, instance, budget)
                assert res.halted is (budget != stop) and len(res.ledger), (name, budget)
                for twin in (copy.copy(res), copy.deepcopy(res), pickle.loads(pickle.dumps(res))):
                    assert twin == res and res == twin, (name, budget)
                with pytest.raises(TypeError):
                    hash(res)

    def test_a_replay_over_an_edited_exit_fails_the_row(self, monkeypatch):
        # the replay reads the exit the ledger records, so a run whose
        # recorded exit is not the one it took fails its replay bit
        live_run = tam.run

        def run_and_edit_the_exit(program, instance, bindings, budget):
            res = live_run(program, instance, bindings, budget)
            entries = res.ledger.entries
            entries[0] = entries[0]._replace(exit=successor(entries[0].exit))
            return res

        monkeypatch.setattr(tam, "run", run_and_edit_the_exit)
        rows = [verify(catalog(name), structure, [a]).rows[0] for name, structure, a in (
            ("nextcard_via_deccard", POWERS, P("w+1")),
            ("ordcard_scan_naive", POWERS, P("w*2+1")),
            ("ordcard_scan_improved", MULTIPLES, P("w*2+1")),
            ("flagtrick", MULTIPLES, OMEGA))]
        assert [(row.correct, row.replay_ok) for row in rows] == [(True, False)] * 4

    def test_no_ledger_entry_holds_a_structure_or_a_hit_set(self):
        for name in ("nextcard_via_deccard", "ordcard_scan_naive",
                     "ordcard_scan_improved", "ordcard_guesscheck", "flagtrick"):
            spec = catalog(name)
            for structure in (POWERS, MULTIPLES, EXPLICIT):
                for a in grid_ordinals():
                    for entry in run_once(spec, structure, a).ledger:
                        for value in entry:
                            assert not isinstance(value, (u.CardinalStructure, OrdinalSet)), \
                                (name, entry)

    def test_an_instance_that_raises_fails_its_own_row(self):
        # three quantifiers over V_5 are over the walk cap: that row fails,
        # and the row before it keeps the bytes it has on its own
        spec = catalog("sep_via_truth", level=3, rank=5)
        code = code_of(u.hf(), u.hf(u.hf()))
        fits = (code, formula_index(parse_formula("E v0 (v0 in #0)")), ())
        over = (code, formula_index(parse_formula("A v0 A v1 E v2 (v2 = v2 & #0 = #0)")), ())
        report = verify(spec, None, [fits, over])
        alone = verify(spec, None, [fits])
        assert report.to_json()["instances"][0] == alone.to_json()["instances"][0]
        assert report.rows[0].ok and not report.passed
        row = report.rows[1]
        assert row.status == ("error: RankError: 3 quantifiers over V_5 decide "
                              "65536^2 rows of 65536 bits, over the cap of 65536")
        assert not row.ok and row.order_type is None and row.replay_ok is None
        assert set(report.to_json()["instances"][1]) == set(alone.to_json()["instances"][0])
        assert "FAIL" in report.render_table()

    def test_a_program_error_fails_its_own_row(self):
        # an ordinal is not a separation triple
        report = verify(catalog("sep_via_truth"), None, [P("3")])
        (row,) = report.rows
        assert row.status.startswith("error: ProgramError: input must be")
        assert "\n" not in row.status and not report.passed

    def test_a_code_with_a_negative_edge_fails_its_own_row(self):
        # the row's input text counts the code's edges without unpacking them
        bad = u.SetCode(1, frozenset({-5}), 0)
        fine = code_of(u.hf())
        for spec, instances in ((catalog("powercard_via_pot"), [bad, fine]),
                                (catalog("sep_via_truth"), [(bad, 0, ()), (fine, 0, ())])):
            report = verify(spec, None, instances)
            row, kept = report.rows
            assert row.status == "error: InvalidCodeError: not a valid membership code"
            assert "code(domain=1,root=0,edges=1)" in row.input_text
            assert not row.ok and kept.ok and not report.passed

    @pytest.mark.parametrize("bad", [True, False])
    def test_a_bool_formula_index_fails_its_own_row(self, bad):
        # the machine refuses the input shape before any oracle is asked
        code = code_of(u.hf(), u.hf(u.hf()))
        fine = (code, formula_index(parse_formula("E v0 (v0 in #0)")), ())
        report = verify(catalog("sep_via_truth"), None, [(code, bad, ()), fine])
        row, kept = report.rows
        assert row.status == ("error: ProgramError: input must be "
                              "(set code, formula index, parameter codes)")
        assert not row.ok and kept.ok and not report.passed

    @pytest.mark.parametrize("bad", [5, u.hf(), P("3")])
    def test_a_parameter_that_is_not_a_code_fails_its_own_row(self, bad):
        code = code_of(u.hf(), u.hf(u.hf()))
        report = verify(catalog("sep_via_truth"), None, [(code, 0, (bad,)), (code, 0, ())])
        row, kept = report.rows
        assert row.status == ("error: ProgramError: input must be "
                              "(set code, formula index, parameter codes)")
        assert not row.ok and kept.ok and kept.status == "halted"

    def test_a_climbing_guess_source_fails_its_own_row(self):
        climbing = Approximator("climbing", lambda a: (P("w+1"), P("w+2")))
        spec = catalog("ordcard_guesscheck", approximator=climbing)
        report = verify(spec, u.omega_powers(P("w^3")), [P("w"), P("w+3")])
        assert [row.status for row in report.rows] == [
            "error: ApproximatorContractError: guess w+2 does not decrease below w+1"] * 2
        assert not report.passed

    def test_an_open_formula_index_reads_the_empty_set(self):
        # E v0 (v1 in #0) leaves v1 free: its truth queries answer 0
        k = formula_index(Formula(("E",), ("in", ("var", 1), ("param", 0))))
        assert k == 855
        code = code_of(u.hf(), u.hf(u.hf()))
        report = verify(catalog("sep_via_truth"), None, [(code, k, ()), (code, 0, ())])
        row, kept = report.rows
        assert row.ok and row.status == "halted"
        assert row.output_text == "code(domain=1,root=0,edges=0)"   # the empty set
        assert kept.ok and report.passed

    @pytest.mark.parametrize("name", [n for n in CATALOG_NAMES
                                      if catalog(n).shape == "ordinal"])
    def test_a_negative_int_fails_its_own_row(self, name):
        # the row's input text is the int's own, not an ordinal's
        report = verify(catalog(name), POWERS, [-1, 3])
        row, fine = report.rows
        assert row.input_text == "-1"
        assert row.status == "error: OrdinalDomainError: ordinals are non-negative"
        assert not row.ok and fine.ok and fine.status == "halted"

    @pytest.mark.parametrize("bad", [True, False, 1.5])
    def test_a_bool_instance_fails_its_own_row_as_a_float_does(self, bad):
        report = verify(catalog("nextcard_via_deccard"), POWERS, [bad, P("5")])
        row, fine = report.rows
        assert row.input_text == str(bad)
        assert row.status == f"error: ProgramError: expected an ordinal, got {bad!r}"
        assert not row.ok and fine.ok and not report.passed

    @pytest.mark.parametrize("bad", [1.5, True])
    @pytest.mark.parametrize("name", ["ordcard_scan_naive", "ordcard_guesscheck"])
    def test_a_non_ordinal_fails_its_own_row_in_each_ordcard_entry(self, name, bad):
        # the guess-check's default guess source hands the instance to the
        # machine, which refuses it as the scan's machine does
        report = verify(catalog(name), POWERS, [bad, P("5")])
        row, fine = report.rows
        assert row.status == f"error: ProgramError: expected an ordinal, got {bad!r}"
        assert not row.ok and not report.passed
        assert fine.ok and fine.status == "halted" and fine.output_text == "5"

    def test_json_shape(self):
        report = verify(catalog("flagtrick"), MULTIPLES, [3])
        blob = report.to_json()
        assert blob["reduction"] == "flagtrick"
        assert blob["structure"] == "multiples-of-omega"
        assert blob["passed"] is True
        (row,) = blob["instances"]
        assert row == {"input": "3", "status": "halted", "output": "w",
                       "expected": "w", "correct": True, "order_type": "w",
                       "bound": "w", "within_bound": True, "replay_ok": True}

    def test_table_lists_every_instance(self):
        report = verify(catalog("nextcard_via_deccard"), POWERS, [1, 2, 3])
        table = report.render_table()
        assert table.count("\n") >= 5
        assert "all checks passed" in table


def deccard_delegate(calls):
    return delegate_spec(DEC_CARD, DEC_CARD,
                         lambda cs: make_effectivizer(DEC_CARD, structure=cs),
                         lambda cs, a: u.is_cardinal(cs, a), calls=calls)


class TestDelegates:
    def test_single_call_unit(self):
        spec = deccard_delegate(1)
        res = run_once(spec, POWERS, P("w"))
        assert res.output == 1
        assert len(res.ledger) == 1

    def test_repeated_calls_accumulate(self):
        spec = deccard_delegate(3)
        res = run_once(spec, POWERS, P("w+1"))
        assert res.output == 0
        assert res.ledger.total_order_type() == Ordinal.from_int(3)


def truth_reference(_cs, query):
    k, params = query
    f = formula_from_index(k)
    if f.num_params != len(params):
        return 0
    return eval_formula(f, TruthEnv(3, params))


class TestComposition:
    def test_type_mismatch_is_rejected(self):
        outer = delegate_spec(NEXT_CARD, NEXT_CARD,
                              lambda cs: make_effectivizer(NEXT_CARD, structure=cs),
                              lambda cs, a: u.next_card_of(cs, a))
        with pytest.raises(ReductionTypeError):
            compose(outer, catalog("ordcard_scan_naive"))

    def test_separation_over_unit_truth(self):
        inner = delegate_spec("TruthSigma2", "TruthSigma2",
                              lambda cs: make_effectivizer(TRUTH, level=2, rank=3),
                              truth_reference, calls=1)
        comp = compose(catalog("sep_via_truth", level=2, rank=3), inner)
        k = formula_index(parse_formula("E v0 (v0 = #0)"))
        triple = (code_of(*V3[:2]), k, ())
        report = verify(comp, None, [triple])
        assert report.passed
        row = report.rows[0]
        assert row.order_type == "2"          # |S| calls, one per element
        assert row.replay_ok is None          # composed runs are not replayed
        assert row.product_note == "f*g+g*f"

    def test_three_by_two_gives_six(self):
        outer = delegate_spec("Probe", DEC_CARD,
                              lambda cs: make_effectivizer(DEC_CARD, structure=cs),
                              lambda cs, a: u.is_cardinal(cs, a), calls=3)
        comp = compose(outer, deccard_delegate(2))
        res = run_once(comp, POWERS, P("w"))
        assert res.output == 1
        assert res.ledger.total_order_type() == Ordinal.from_int(6)
        bound = comp.bound.evaluate(POWERS, P("w"))
        assert res.ledger.total_order_type() <= bound
        report = verify(comp, POWERS, [P("w"), P("w+1"), 5])
        assert report.passed

    def test_scan_entries_splice_through(self):
        outer = delegate_spec(NEXT_CARD, NEXT_CARD,
                              lambda cs: make_effectivizer(NEXT_CARD, structure=cs),
                              lambda cs, a: u.next_card_of(cs, a))
        comp = compose(outer, catalog("nextcard_via_deccard"))
        res = run_once(comp, POWERS, P("w*2+1"))
        assert render(res.output) == "w^2"
        entries = list(res.ledger)
        assert [e.oracle for e in entries] == ["DecCard"]
        assert render(res.ledger.total_order_type()) == "w^2"
        report = verify(comp, POWERS, [P("w*2+1"), 5])
        assert report.passed

    def test_an_inner_run_that_diverges_gives_its_row_a_verdict(self):
        outer = delegate_spec(NEXT_CARD, NEXT_CARD,
                              lambda cs: make_effectivizer(NEXT_CARD, structure=cs),
                              lambda cs, a: u.next_card_of(cs, a))
        comp = compose(outer, catalog("nextcard_via_deccard"))
        structure = u.explicit_list([P("w^3")], P("w^(w*2)"))
        report = verify(comp, structure, [P("w^3+1"), P("w+1")])
        assert report.passed
        stuck, fine = report.rows
        assert (stuck.status, stuck.output_text, stuck.expected_text) == \
            ("diverged", None, None)
        assert stuck.order_type == "w^(w*2)"     # the inner sweep, spliced
        assert (fine.status, fine.output_text) == ("halted", "w^3")

    def test_composed_ledgers_keep_their_running_sums(self):
        outer = delegate_spec(NEXT_CARD, NEXT_CARD,
                              lambda cs: make_effectivizer(NEXT_CARD, structure=cs),
                              lambda cs, a: u.next_card_of(cs, a), calls=2)
        comp = compose(outer, catalog("nextcard_via_deccard"))
        for structure, a in ((POWERS, P("w*2+1")), (MULTIPLES, P("w+3")), (EXPLICIT, 5)):
            res = run_once(comp, structure, a)
            total = ZERO
            for entry in res.ledger:
                total = add(total, entry.order_type)
            assert res.ledger.total_order_type() == res.halt_time == total
        # called on a ledger that holds entries, the inner entries follow
        # them as the inner run recorded them
        probe = compose(delegate_spec("Probe", DEC_CARD,
                                      lambda cs: make_effectivizer(DEC_CARD, structure=cs),
                                      None),
                        deccard_delegate(3)).make_bindings(POWERS)["o"]
        led = QueryLedger()
        led.append(RunEntry(DEC_CARD, ZERO, P("w^2"), P("w^2"), PATTERN_ALL_ZERO))
        assert probe.call(P("w"), led) == 1
        inner = tam.run(deccard_delegate(3).make_program(), P("w"),
                        deccard_delegate(3).make_bindings(POWERS))
        assert led.entries[1:] == inner.ledger.entries
        assert led.total_order_type() == P("w^2+3")

    def test_guess_check_as_the_outer_entry_descends_over_the_bound_structure(self):
        # the outer entry's own bindings bind the structure its default
        # approximator descends over
        comp = compose(catalog("ordcard_guesscheck"), deccard_delegate(1))
        report = verify(comp, POWERS, [P("w*2+1"), P("w^2"), 5])
        assert report.passed
        assert [(r.output_text, r.order_type) for r in report.rows] == [
            ("w", "2"), ("w^2", "1"), ("5", "1")]

    def test_composed_bindings_keep_their_own_structure(self):
        comp = compose(catalog("ordcard_guesscheck"), deccard_delegate(1))
        bound = comp.make_bindings(POWERS)
        comp.make_bindings(MULTIPLES)
        res = tam.run(comp.make_program(), P("w*2+1"), bound)
        assert (res.status, render(res.output)) == ("halted", "w")

    def test_no_scan_drives_a_composed_oracle(self):
        # the composed oracle keeps a hit set for guess sources to read,
        # but a scan would answer from it with no inner run
        comp = compose(catalog("ordcard_guesscheck"), deccard_delegate(1))
        (oracle,) = comp.make_bindings(POWERS).values()
        assert oracle.hit_set is not None
        with pytest.raises(NotRankedError):
            oracle.scan(OMEGA, "least_above", OMEGA)

    def test_composed_bound_multiplies(self):
        outer = delegate_spec("Probe", DEC_CARD,
                              lambda cs: make_effectivizer(DEC_CARD, structure=cs),
                              lambda cs, a: u.is_cardinal(cs, a), calls=3)
        comp = compose(outer, deccard_delegate(2))
        assert comp.bound.describe() == "(3)*(2)"
        assert comp.bound.evaluate(POWERS, P("w")) == mul(
            Ordinal.from_int(3), Ordinal.from_int(2))

    def test_composed_name_and_types(self):
        comp = compose(catalog("sep_via_truth"),
                       delegate_spec("TruthSigma2", "TruthSigma2",
                                     lambda cs: make_effectivizer(TRUTH, level=2, rank=3),
                                     truth_reference))
        assert comp.source == "Separation"
        assert comp.oracle == "TruthSigma2"
        assert comp.shape == "separation"
        assert comp.composite
