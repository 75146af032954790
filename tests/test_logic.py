"""Formula syntax, classification, numeric indexing and V_r evaluation."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ordq import logic
from ordq.logic import (
    EXISTS,
    FALSE_FORMULA,
    FORALL,
    Formula,
    FormulaError,
    RankError,
    TruthEnv,
    classify_level,
    eval_formula,
    formula_from_index,
    formula_index,
    free_variables,
    parse_formula,
    render_formula,
    universe_of,
)
from ordq.ordcalc import InputError
from ordq.universe import EMPTY_SET, HFSet, hf, parse_hf


def diag(x: int, y: int) -> int:
    """Independent diagonal pairing: rank of (x,y) in anti-diagonal order."""
    return sum(range(x + y + 1)) + y


class TestParseRender:
    def test_spec_examples(self):
        f = parse_formula("E x (A y (!(y in x)))")
        assert f.prefix == (EXISTS, FORALL)
        assert render_formula(f) == "E v0 (A v1 (!(v1 in v0)))"
        g = parse_formula("A y (y in #0 | y = #0)")
        assert render_formula(g) == "A v0 (v0 in #0 | v0 = #0)"

    def test_round_trip_canonical(self):
        rng = random.Random(5)
        for _ in range(200):
            f = random_formula(rng)
            text = render_formula(f)
            assert parse_formula(text) == f, text
            assert render_formula(parse_formula(text)) == text

    def test_binder_renaming(self):
        assert parse_formula("E x (x = x)") == parse_formula("E banana (banana = banana)")

    def test_optional_body_parens(self):
        assert parse_formula("E x A y (y in x)") == parse_formula("E x (A y (y in x))")

    def test_precedence(self):
        f = parse_formula("v0 in v0 | v1 = v1 & !(v2 in v2)")
        assert f.matrix[0] == "or"
        assert f.matrix[2][0] == "and"
        g = parse_formula("(v0 in v0 | v1 = v1) & v2 in v2")
        assert g.matrix[0] == "and"

    def test_parse_errors(self):
        bad = [
            "",
            "E x",
            "x in y",                       # unbound, non-canonical names
            "E x (y in x)",
            "E x (x in v0)",                # free v0 collides with the binder
            "E x (x in x",
            "E x (x in x))",
            "E x E x (x in x)",             # duplicate binder
            "E x (x in x & A y (y in x))",  # quantifier inside matrix
            "v0 in in v1",
            "#x in v0",
            "v0 ! v1",
            "E in (in in in)",
        ]
        for text in bad:
            with pytest.raises(FormulaError):
                parse_formula(text)

    def test_free_variables_allowed_canonically(self):
        f = parse_formula("v0 in v1")
        assert f.prefix == ()
        assert free_variables(f) == [0, 1]
        g = parse_formula("E x (x in v1)")
        assert free_variables(g) == [1]

    def test_param_contiguity_enforced(self):
        with pytest.raises(FormulaError):
            parse_formula("v0 in #1")
        f = parse_formula("#1 in #0")
        assert f.num_params == 2
        with pytest.raises(AttributeError):
            f.num_params = 3

    def test_a_huge_parameter_slot_is_refused_without_a_list_of_slots(self):
        with pytest.raises(FormulaError, match=r"parameter slots must be numbered 0\.\.m-1"):
            parse_formula("E v0 (v0 in #100000000000000000000)")

    @pytest.mark.parametrize("prefix,matrix,message", [
        (("X",), ("eq", ("var", 0), ("var", 0)), "bad quantifier 'X'"),
        ((), "v0 = v0", "bad matrix node 'v0 = v0'"),
        ((), (), "bad matrix node ()"),
        ((), ("in", ("var", 0)), "bad atom ('in', ('var', 0))"),
        ((), ("not",), "bad negation ('not',)"),
        ((), ("and", ("eq", ("var", 0), ("var", 0))),
         "bad connective ('and', ('eq', ('var', 0), ('var', 0)))"),
        ((), ("xor", ("var", 0), ("var", 0)), "unknown node kind 'xor'"),
    ])
    def test_an_ill_formed_tree_is_refused(self, prefix, matrix, message):
        with pytest.raises(FormulaError) as caught:
            Formula(prefix, matrix)
        assert str(caught.value) == message

    @pytest.mark.parametrize("kind", ["var", "param"])
    def test_a_bool_term_index_is_refused(self, kind):
        # True passed as index 1, and rendered as vTrue, which parse_formula refuses
        with pytest.raises(FormulaError) as caught:
            Formula((EXISTS,), ("in", (kind, True), ("var", 0)))
        assert str(caught.value) == f"bad term ('{kind}', True)"


class TestScanner:
    """Formulas share the scanner's rules with the other text formats."""

    def test_nesting_cap(self):
        from ordq.ordcalc import NESTING_CAP as cap
        # the bracket after a binder does not nest; "!(" opens two levels
        assert parse_formula("E v0 " + "(" * (cap + 1) + "v0 = v0" + ")" * (cap + 1))
        assert parse_formula("!" * cap + "v0 = v0").matrix[0] == "not"
        assert parse_formula(" & ".join(["v0 = v0"] * (cap + 1))).matrix[0] == "and"
        for text in ("E v0 " + "(" * (cap + 2) + "v0 = v0" + ")" * (cap + 2),
                     "!" * (cap + 1) + "v0 = v0",
                     " | ".join(["v0 = v0"] * (cap + 2))):
            with pytest.raises(FormulaError, match=f"nested deeper than {cap} levels"):
                parse_formula(text)

    @pytest.mark.parametrize("text", ["E v0 (v0 in #²)", "E v0 (v0 in #٣)",
                                      "E v0 (v0 in v²)", "v٣ = v0", "#１ = #0"])
    def test_digits_are_ascii_only(self, text):
        with pytest.raises(FormulaError):
            parse_formula(text)

    def test_errors_carry_their_position(self):
        with pytest.raises(FormulaError) as caught:
            parse_formula("E x (x in y)")
        assert caught.value.pos == 10
        assert str(caught.value) == "unbound variable 'y' (at position 10)"

    def test_long_free_variable_numbers_are_capped(self):
        with pytest.raises(FormulaError, match="at most 4000 digits"):
            parse_formula("v" + "1" * 4001 + " = v0")


class TestClassify:
    def test_levels(self):
        assert classify_level(parse_formula("v0 in v1")) == 0
        assert classify_level(parse_formula("E x (x = x)")) == 1
        assert classify_level(parse_formula("E x (E y (x in y))")) == 1
        assert classify_level(parse_formula("E x (A y (y in x))")) == 2
        assert classify_level(parse_formula("A x (x = x)")) == 2
        assert classify_level(parse_formula("A x (E y (x in y))")) == 3
        assert classify_level(parse_formula("E x A y E z (x in z)")) == 3

    def test_invariant_under_renaming(self):
        a = parse_formula("E alpha A beta (alpha in beta)")
        b = parse_formula("E q A r (q in r)")
        assert classify_level(a) == classify_level(b)
        assert a == b


class TestIndexing:
    def test_atom_pin(self):
        # hand recomputation from the documented scheme: terms v0 -> 0,
        # v1 -> 2; atom payload diag(0, 2) = 5; "in" tag 0: diag(0, 5) = 20
        f = parse_formula("v0 in v1")
        assert diag(0, 2) == 5
        assert diag(0, 5) == 20
        assert formula_index(f) == 20

    def test_round_trip_generated(self):
        rng = random.Random(17)
        for _ in range(50):
            f = random_formula(rng)
            assert formula_from_index(formula_index(f)) == f

    def test_every_small_index_decodes_and_reencodes(self):
        for k in range(3000):
            f = formula_from_index(k)
            assert isinstance(f, Formula)
            if f != FALSE_FORMULA:
                assert formula_index(f) == k

    def test_ill_formed_defaults_to_false(self):
        assert formula_from_index(diag(7, 0)) == FALSE_FORMULA
        # a quantifier tag nested under a negation is not prenex
        assert formula_from_index(diag(2, diag(5, 20))) == FALSE_FORMULA
        # parameter slots {1} skip 0
        assert formula_from_index(diag(0, diag(0, 3))) == FALSE_FORMULA
        assert formula_from_index(-1) == FALSE_FORMULA

    def test_a_huge_parameter_slot_decodes_to_false(self):
        # E v0 (v0 in #10^20): the pairing in closed form, as diag is a sum
        pair = lambda x, y: (x + y) * (x + y + 1) // 2 + y
        k = pair(5, pair(0, pair(0, 2 * 10**20 + 1)))
        assert formula_from_index(k) == FALSE_FORMULA

    def test_index_cap(self):
        # each conjunct about squares the index: six give 1,546 digits
        conjuncts = lambda n: "E v0 (" + " & ".join(["v0 in #0"] * n) + ")"
        assert len(str(formula_index(parse_formula(conjuncts(6))))) == 1546
        with pytest.raises(InputError, match="more than 4000 digits"):
            formula_index(parse_formula(conjuncts(7)))
        with pytest.raises(InputError, match="more than 4000 digits"):
            formula_index(parse_formula("!" * 150 + "v0 = v0"))

    def test_false_formula_is_false(self):
        assert render_formula(FALSE_FORMULA) == "E v0 (!(v0 = v0))"
        for rank in (1, 2, 3):
            assert eval_formula(FALSE_FORMULA, TruthEnv(rank)) == 0


class TestEval:
    def test_empty_set_witness(self):
        f = parse_formula("E x (A y (!(y in x)))")
        assert eval_formula(f, TruthEnv(3)) == 1

    def test_universal_failure(self):
        f = parse_formula("A x (x in #0)")
        assert eval_formula(f, TruthEnv(2, (EMPTY_SET,))) == 0

    def test_param_equality(self):
        f = parse_formula("#0 = #1")
        assert eval_formula(f, TruthEnv(2, (hf(EMPTY_SET), hf(EMPTY_SET)))) == 1
        assert eval_formula(f, TruthEnv(2, (EMPTY_SET, hf(EMPTY_SET)))) == 0

    def test_membership_examples(self):
        f = parse_formula("#0 in #1")
        assert eval_formula(f, TruthEnv(3, (EMPTY_SET, parse_hf("{{},{{}}}")))) == 1
        assert eval_formula(f, TruthEnv(3, (parse_hf("{{{}}}"), parse_hf("{{},{{}}}")))) == 0

    def test_quantifier_scope(self):
        # every set in V_2 is empty or equals {0}: A x (x = {} or x = {{}})
        f = parse_formula("A x (x = #0 | x = #1)")
        assert eval_formula(f, TruthEnv(2, (EMPTY_SET, hf(EMPTY_SET)))) == 1
        assert eval_formula(f, TruthEnv(3, (EMPTY_SET, hf(EMPTY_SET)))) == 0

    def test_eval_errors(self):
        with pytest.raises(FormulaError):
            eval_formula(parse_formula("v0 in v1"), TruthEnv(2))
        with pytest.raises(FormulaError):
            eval_formula(parse_formula("A v0 (v0 in v1)"), TruthEnv(4))
        with pytest.raises(FormulaError):
            eval_formula(parse_formula("#0 = #0"), TruthEnv(2))
        with pytest.raises(FormulaError):
            eval_formula(parse_formula("E v0 A v1 (v1 in #1 | v0 = #0)"),
                         TruthEnv(3, (EMPTY_SET,)))

    def test_env_validation(self):
        with pytest.raises(ValueError):
            TruthEnv(6)
        with pytest.raises(ValueError):
            TruthEnv(1, (hf(EMPTY_SET),))
        with pytest.raises(TypeError):
            TruthEnv(2, ("nope",))

    def test_evaluations_over_the_walk_cap_are_refused(self):
        # q quantifiers over V_rank decide |V_rank|^(q-1) rows of |V_rank|
        # bits; more than 65,536 is refused before the first walk
        for text, env in [("A v0 A v1 E v2 (v2 = v2 & #0 = #0)", TruthEnv(5, (EMPTY_SET,))),
                          ("E v0 E v1 E v2 E v3 E v4 E v5 (v0 in v5)", TruthEnv(4))]:
            with pytest.raises(RankError):
                eval_formula(parse_formula(text), env)
        assert issubclass(RankError, InputError)
        # at the cap, and over ranks of size 0 and 1
        assert eval_formula(parse_formula("E v0 E v1 E v2 E v3 E v4 (v0 in v4)"),
                            TruthEnv(4)) == 1
        many = parse_formula(" ".join(f"A v{i}" for i in range(20)) + " (v0 = v19)")
        assert eval_formula(many, TruthEnv(1)) == eval_formula(many, TruthEnv(0)) == 1

    def test_universe_sizes(self):
        assert [len(universe_of(r)) for r in range(5)] == [0, 1, 2, 4, 16]
        assert set(universe_of(3)) < set(universe_of(4))

    def test_rank_consistency_for_guarded_formulas(self):
        # quantifiers relativized to members of #0 cannot see the extra
        # sets a larger rank brings in
        rng = random.Random(31)
        for _ in range(20):
            f, params = random_guarded_formula(rng)
            low = eval_formula(f, TruthEnv(3, params))
            high = eval_formula(f, TruthEnv(4, params))
            assert low == high, render_formula(f)

    def test_matrix_transforms_preserve_eval(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(100):
            f = random_formula(rng, max_binders=2, closed=True)
            env = random_env(rng, f)
            base = eval_formula(f, env)
            doubled = Formula(f.prefix, ("not", ("not", f.matrix)))
            assert eval_formula(doubled, env) == base
            if f.matrix[0] == "and":
                g = Formula(f.prefix, ("not", ("or", ("not", f.matrix[1]),
                                                ("not", f.matrix[2]))))
                assert eval_formula(g, env) == base
            if f.matrix[0] == "or":
                g = Formula(f.prefix, ("not", ("and", ("not", f.matrix[1]),
                                               ("not", f.matrix[2]))))
                assert eval_formula(g, env) == base
            checked += 1
        assert checked == 100


def reference_eval_formula(f: Formula, env: TruthEnv) -> int:
    """The tree-walking evaluator the bitset eval_formula must agree with:
    every assignment of every quantified variable, one walk down the matrix
    per assignment."""
    if free_variables(f):
        raise FormulaError(f"cannot evaluate open formula {render_formula(f)}")
    if f.num_params > len(env.params):
        raise FormulaError("too few parameters")
    domain = universe_of(env.rank)

    def term_value(t, assignment):
        return assignment[t[1]] if t[0] == "var" else env.params[t[1]]

    def matrix_value(node, assignment) -> bool:
        kind = node[0]
        if kind == "in":
            return term_value(node[1], assignment) in term_value(node[2], assignment)
        if kind == "eq":
            return term_value(node[1], assignment) == term_value(node[2], assignment)
        if kind == "not":
            return not matrix_value(node[1], assignment)
        if kind == "and":
            return matrix_value(node[1], assignment) and matrix_value(node[2], assignment)
        return matrix_value(node[1], assignment) or matrix_value(node[2], assignment)

    def quantify(position, assignment) -> bool:
        if position == len(f.prefix):
            return matrix_value(f.matrix, assignment)
        values = (quantify(position + 1, assignment + (x,)) for x in domain)
        return any(values) if f.prefix[position] == EXISTS else all(values)

    return int(quantify(0, ()))


@st.composite
def closed_formulas(draw):
    """A closed formula with 0-3 quantifiers at a rank 0-4, or 0-4 at a
    rank 0-3, so that a walked quantifier sits above the plane; parameters
    drawn from that rank's universe."""
    rank = draw(st.integers(0, 4))
    binders = draw(st.integers(0, 4 if rank <= 3 else 3))
    prefix = tuple(draw(st.sampled_from((EXISTS, FORALL))) for _ in range(binders))
    domain = universe_of(rank)
    slots = draw(st.integers(0, 2)) if domain else 0
    terms = [("var", p) for p in range(binders)] + [("param", i) for i in range(slots)]
    assume(terms)
    term = st.sampled_from(terms)
    atoms = st.tuples(st.sampled_from(("in", "eq")), term, term)
    matrix = draw(st.recursive(atoms, lambda sub: st.one_of(
        st.tuples(st.just("not"), sub),
        st.tuples(st.sampled_from(("and", "or")), sub, sub)), max_leaves=6))
    f = Formula(prefix, _relabel_params(matrix))
    params = tuple(draw(st.sampled_from(domain)) for _ in range(f.num_params))
    return f, TruthEnv(rank, params)


class TestBitsetEval:
    @settings(max_examples=300, deadline=None)
    @given(closed_formulas())
    def test_matches_the_tree_walking_evaluator(self, case):
        f, env = case
        assert eval_formula(f, env) == reference_eval_formula(f, env), (str(f), env)

    @pytest.mark.parametrize("text,rank,params,expected", [
        # rank 0: the domain is empty, so E is false and A is true
        ("E v0 (v0 = v0)", 0, (), 0),
        ("A v0 (v0 in v0)", 0, (), 1),
        ("E v0 A v1 (v0 = v1)", 0, (), 0),
        ("A v0 E v1 (v0 = v1)", 0, (), 1),
        # no quantifier, parameters only
        ("#0 in #1 | #0 = #1", 3, ("{}", "{{}}"), 1),
        ("#0 in #1 | #0 = #1", 3, ("{{}}", "{}"), 0),
        ("!(#0 = #0)", 1, ("{}",), 0),
        # the innermost variable on both sides of an atom
        ("E v0 (v0 in v0)", 3, (), 0),
        ("A v0 (v0 = v0)", 3, (), 1),
        ("A v0 (!(v0 in v0))", 4, (), 1),
        ("E v0 E v1 (v1 in v1 | v0 in v0)", 3, (), 0),
        # an atom that skips the innermost variable
        ("A v0 E v1 (v0 = #0 | !(v0 = #0))", 3, ("{}",), 1),
        ("E v0 A v1 (v0 in #0 & v1 = v1)", 3, ("{{}}",), 1),
        # rank 5: two quantifiers over the 65,536 sets of V_5
        ("A v0 E v1 (v0 in v1)", 5, (), 0),
        ("E v0 A v1 (!(v1 in v0))", 5, (), 1),
        ("A v0 E v1 (v1 in v0 | v0 = v1)", 5, (), 1),
        ("E v0 A v1 (v1 in v0 | v1 = v0)", 5, (), 0),
        ("E v0 (#0 in v0)", 5, ("{{{{}}}}",), 1),
        # the two innermost variables u, y on one plane at ranks 1-4 (rows
        # of 1, 2, 4 and 16 bits), against each other, a parameter and a
        # walked variable; EE
        ("E v0 E v1 E v2 (v1 in v2 & v2 in v0)", 3, (), 1),
        ("E v0 E v1 (v0 in v1 & v1 = #0)", 2, ("{{}}",), 1),
        ("A v0 E v1 E v2 (v2 = v1 & !(v1 in v0))", 4, (), 1),
        ("E v0 E v1 (v0 in v1)", 1, (), 0),
        # EA: some row is full
        ("E v0 A v1 (v1 in v0 | v1 = v0)", 1, (), 1),
        ("A v0 E v1 A v2 (v2 in v1 | !(v2 in v0))", 4, (), 1),
        ("E v0 A v1 (v0 = #0 & !(v1 in v0))", 3, ("{}",), 1),
        ("E v0 A v1 (v0 in v1 | v0 = v1)", 2, (), 1),
        # AE: no row is zero
        ("A v0 E v1 (v0 in v1)", 4, (), 0),
        ("A v0 E v1 (v0 in v1)", 1, (), 0),
        ("A v0 A v1 E v2 (v2 = v1 | v0 in v2)", 2, (), 1),
        ("A v0 E v1 (v1 in v0 | #0 in v0)", 3, ("{}",), 0),
        ("E v0 A v1 E v2 (v1 in v2 & !(v2 = v0))", 3, (), 0),
        ("A v0 E v1 A v2 E v3 (v3 = v2 & v1 in v0 | v0 = v1)", 2, (), 1),
        # AA
        ("A v0 A v1 (!(v0 in v1) | !(v1 in v0))", 4, (), 1),
        ("E v0 A v1 A v2 (v1 = v2 | !(v0 = v1))", 3, (), 0),
        ("A v0 A v1 (v1 in v0 | !(v1 in #0))", 2, ("{{}}",), 0),
        ("A v0 A v1 (v0 = v1 | v0 in v1 | v1 in v0)", 1, (), 1),
        # no plane at ranks 0 and 5: y folds alone
        ("E v0 E v1 (v0 = v1)", 0, (), 0),
        ("A v0 A v1 E v2 (v1 in v2)", 0, (), 1),
        ("E v0 E v1 (v1 in v0 & v0 = #0)", 5, ("{{}}",), 1),
        ("A v0 A v1 (v1 in v0 | v0 = #0)", 5, ("{}",), 0),
    ])
    def test_edge_cases(self, text, rank, params, expected):
        f = parse_formula(text)
        env = TruthEnv(rank, tuple(parse_hf(p) for p in params))
        assert eval_formula(f, env) == reference_eval_formula(f, env) == expected

    @settings(max_examples=200, deadline=None)
    @given(closed_formulas())
    def test_memoized_truth_answers_on_a_miss_and_a_hit(self, case):
        f, env = case
        assume(env.rank >= 1)
        level = classify_level(f)
        want = reference_eval_formula(f, env)
        logic._sigma_truth.cache_clear()
        assert logic._sigma_truth(f, level, env.rank, env.params) == want
        assert logic._sigma_truth.cache_info()[:2] == (0, 1)      # (hits, misses)
        assert logic._sigma_truth(f, level, env.rank, env.params) == want
        assert logic._sigma_truth.cache_info()[:2] == (1, 1)

    def test_false_formula_at_every_rank(self):
        for rank in range(5):
            assert eval_formula(FALSE_FORMULA, TruthEnv(rank)) == 0

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_bitsets_agree_with_membership(self, rank):
        # Ackermann's numbering: universe_of(rank)[y] is numbered y, and
        # x in y iff bit x of y is set, which the owner rows also say
        domain = universe_of(rank)
        n = len(domain)
        owners = logic._owners(n)
        assert [logic._position(s) for s in domain] == list(range(n))
        for x, a in enumerate(domain):
            for y, b in enumerate(domain):
                assert y >> x & 1 == owners[x] >> y & 1 == (a in b)
        # the plane: bit u*n + y stands for (u, y); the pair masks say
        # u = y, u in y and y in u, the row tables u = x, u in x and x in u
        # on every y, and in_y[x] says x in y on every row
        folded, full, low, _, in_y, pair, rows = logic._plane(rank, (EXISTS, FORALL))
        assert folded and full == (1 << n * n) - 1
        for u, a in enumerate(domain):
            assert low >> u * n & ((1 << n) - 1) == 1
            for y, b in enumerate(domain):
                bit = u * n + y
                assert [m >> bit & 1 for m in pair] == [a == b, a in b, b in a]
                for x, c in enumerate(domain):
                    assert [table[x] >> bit & 1 for table in rows] == [a == c, a in c, c in a]
                    assert in_y[x] >> bit & 1 == (c in b)

    def test_decoded_formulas_are_shared(self):
        k = formula_index(parse_formula("E v0 A v1 (v1 in v0 | v1 = #0)"))
        assert formula_from_index(k) is formula_from_index(k)


# -- generators ---------------------------------------------------------------


def random_formula(rng: random.Random, max_binders: int = 3, closed: bool = False) -> Formula:
    binders = rng.randrange(max_binders + 1)
    if closed and binders == 0:
        binders = 1
    prefix = tuple(rng.choice((EXISTS, FORALL)) for _ in range(binders))
    max_params = rng.randrange(3)

    def term():
        choices = [("var", p) for p in range(binders)]
        if not closed:
            choices += [("var", binders + rng.randrange(2))]
        choices += [("param", i) for i in range(max_params)]
        return rng.choice(choices) if choices else ("param", 0)

    def node(depth: int):
        if depth == 0 or rng.random() < 0.4:
            return (rng.choice(("in", "eq")), term(), term())
        kind = rng.choice(("not", "and", "or"))
        if kind == "not":
            return ("not", node(depth - 1))
        return (kind, node(depth - 1), node(depth - 1))

    matrix = _relabel_params(node(3))
    return Formula(prefix, matrix)


def _relabel_params(matrix):
    mapping = {}

    def walk(n):
        if n[0] in ("in", "eq"):
            terms = []
            for t in n[1:]:
                if t[0] == "param":
                    mapping.setdefault(t[1], len(mapping))
                    t = ("param", mapping[t[1]])
                terms.append(t)
            return (n[0], *terms)
        if n[0] == "not":
            return ("not", walk(n[1]))
        return (n[0], walk(n[1]), walk(n[2]))

    return walk(matrix)


def random_env(rng: random.Random, f: Formula, rank: int = 3) -> TruthEnv:
    pool = universe_of(rank)
    return TruthEnv(rank, tuple(rng.choice(pool) for _ in range(f.num_params)))


def random_guarded_formula(rng: random.Random):
    """A prenex formula whose quantifiers are relativized to members of #0."""
    binders = rng.randrange(1, 3)
    prefix = tuple(rng.choice((EXISTS, FORALL)) for _ in range(binders))

    def term():
        return rng.choice([("var", p) for p in range(binders)] + [("param", 0)])

    body = (rng.choice(("in", "eq")), term(), term())
    for position in range(binders - 1, -1, -1):
        guard = ("in", ("var", position), ("param", 0))
        if prefix[position] == EXISTS:
            body = ("and", guard, body)
        else:
            body = ("or", ("not", guard), body)
    # the guard set lives in V_3, so both V_3 and V_4 contain its members
    pool = universe_of(2)
    guard_set = HFSet(rng.choice(pool) for _ in range(rng.randrange(1, 4)))
    return Formula(prefix, body), (guard_set,)
