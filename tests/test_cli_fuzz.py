"""A fuzz of cli.main: calc expressions, reduce argv, set literals and
scenario JSON, well-formed or not, with texts nested around NESTING_CAP and
digits outside ASCII.  Whatever the input, main returns an exit code from 0
to 4, raises nothing, and prints at most one error line."""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from ordq import cli
from ordq import universe as u
from ordq.reductions import BOUND_KINDS, CATALOG_NAMES

FUZZ = settings(max_examples=200, deadline=None)

CAP = u.NESTING_CAP
# digits that str.isdigit() accepts but the text formats do not
NON_ASCII_DIGITS = "²٣１"


def around_the_cap(opening: str, inner: str, closing: str = ""):
    """inner nested in opening..closing from just below NESTING_CAP to just
    past it, or far past it."""
    return st.sampled_from([CAP - 1, CAP, CAP + 1, 1000]).map(
        lambda depth: opening * depth + inner + closing * depth)


NAMES = st.sampled_from(CATALOG_NAMES + ("bogus",))
ORDINALS = st.one_of(
    st.sampled_from(["0", "5", "9", "w", "w+1", "w*3", "w^2+1", "w^2*2", "w^3",
                     "w^(w)", "w^(w*2)", "w^(w*3)", "1" * 4001]),
    st.text(alphabet="w0123456789+*^() " + NON_ASCII_DIGITS, max_size=10),
    around_the_cap("w^(", "w", ")"))
SETS = st.one_of(st.sampled_from(["{}", "{{}}", "{{{}}}", "{{},{{}}}", "{{},{{{}}}}"]),
                 st.text(alphabet="{}, ", max_size=10),
                 around_the_cap("{", "", "}"))
FORMULAS = st.one_of(
    st.sampled_from(["E v0 (v0 = #0)", "A v0 (v0 in #0)", "E v0 (v0 in #1)",
                     "E v0 A v1 (v1 in v0 | v0 = #0)", "v0 = v0", "E v0 (",
                     "E v0 (" + " & ".join(["v0 in #0"] * 7) + ")"]),
    st.text(alphabet="EAv01#() =in&|!" + NON_ASCII_DIGITS, max_size=16),
    around_the_cap("(", "E v0 (v0 in #0)", ")"),
    around_the_cap("!", "E v0 (v0 in #0)"))
SEPARATIONS = st.fixed_dictionaries(
    {"set": SETS, "formula": FORMULAS},
    optional={"params": st.lists(SETS, max_size=2)})
# wrong-typed values for any scenario field or list item
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 5), st.text(max_size=4),
                 st.lists(st.integers(0, 3), max_size=2),
                 st.dictionaries(st.sampled_from(["kind", "set"]), st.integers(0, 3),
                                 max_size=1))


def outcome(argv):
    """(exit code, stderr) of cli.main; argparse's own exit counts as its code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


def check(argv):
    code, err = outcome(argv)
    assert code in range(5), (argv, code, err)
    assert err.count("error:") <= 1, (argv, err)


# the entries whose instances are not ordinals
SHAPES = {"powercard_via_pot": "set", "sep_via_truth": "separation"}
# well-formed inputs and scenario fields; the full-mode power set of a
# two-element set takes about half a second, so these powercard instances
# have at most one member
GOOD = {
    "ordinal": st.sampled_from(["0", "5", "w", "w+1", "w*2+3", "w^2", "w^2*2+1"]),
    "set": st.sampled_from(["{}", "{{}}", "{{{}}}"]),
    "separation": st.fixed_dictionaries(
        {"set": st.sampled_from(["{}", "{{}}", "{{},{{}}}"]),
         "formula": st.sampled_from(["E v0 (v0 = #0)", "A v0 (v0 in #0)",
                                     "E v0 A v1 (v1 in v0 | v0 = #0)"])},
        optional={"params": st.lists(st.sampled_from(["{}", "{{}}"]), max_size=1)}),
}
GOOD_FIELDS = {
    "structure": st.fixed_dictionaries(
        {"kind": st.sampled_from(u.KINDS),
         "cardinals": st.lists(st.sampled_from(["w*2", "w^2"]), min_size=1, max_size=2)},
        optional={"bound": st.sampled_from(["w^3", "w^(w)"])}),
    "rank": st.integers(3, 4),
    "level": st.integers(1, 3),
    "count_only": st.booleans(),
    "budget": st.integers(1, 10 ** 4),
    "bound_override": st.fixed_dictionaries(
        {"kind": st.sampled_from(tuple(BOUND_KINDS) + ("bogus",))},
        optional={"value": ORDINALS}),
    # no "output" field: a well-formed one would write a file anywhere
}


@st.composite
def reduce_argv(draw):
    name = draw(NAMES)
    shape = SHAPES.get(name, "ordinal")
    good = GOOD["set"] if shape == "separation" else GOOD[shape]
    argv = ["reduce", name, "--input", draw(st.one_of(good, ORDINALS, SETS))]
    optional = [
        ("--structure", st.sampled_from(u.KINDS + ("bogus",))),
        ("--bound", ORDINALS),
        ("--formula", FORMULAS),
        ("--rank", st.integers(0, 4).map(str)),
        ("--level", st.integers(-1, 4).map(str)),
        ("--budget", st.integers(-1, 50).map(str)),
    ]
    for flag, values in optional:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    for flag, values in (("--cardinals", ORDINALS), ("--param", SETS)):
        for value in draw(st.lists(values, max_size=2)):
            argv += [flag, value]
    if draw(st.booleans()):
        argv.append("--count-only")
    return argv


@st.composite
def scenarios(draw):
    """A well-formed scenario, or one with a field wrong-typed, missing or
    holding a bad item, or a JSON root that is not an object."""
    if draw(st.integers(0, 7)) == 0:
        return draw(JUNK)
    name = draw(NAMES)
    blob = {"reduction": name,
            "instances": draw(st.lists(GOOD[SHAPES.get(name, "ordinal")],
                                       min_size=1, max_size=3))}
    for key, good in GOOD_FIELDS.items():
        if key == "structure" or draw(st.booleans()):
            blob[key] = draw(good)
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(blob)))
        how = draw(st.sampled_from(["junk", "drop", "item"]))
        value = blob[key]
        if how == "drop":
            del blob[key]
        elif how == "junk" or not isinstance(value, (list, dict)) or not value:
            blob[key] = draw(JUNK)
        elif isinstance(value, list):
            value[draw(st.integers(0, len(value) - 1))] = draw(st.one_of(
                JUNK, ORDINALS, SETS, SEPARATIONS))
        else:
            value[draw(st.sampled_from(sorted(value)))] = draw(st.one_of(JUNK, ORDINALS))
    return blob


@FUZZ
@given(st.one_of(st.text(alphabet="w0123456789+*^(), leftsub" + NON_ASCII_DIGITS,
                         max_size=20),
                 around_the_cap("(", "w", ")"), around_the_cap("w^", "w"),
                 around_the_cap("leftsub(0,", "w", ")")))
def test_calc(expression):
    check(["calc", expression])


@FUZZ
@given(reduce_argv())
def test_reduce(argv):
    check(argv)


@FUZZ
@given(st.sampled_from(["powercard_via_pot", "sep_via_truth"]), SETS, st.booleans())
def test_set_literals(name, literal, count_only):
    check(["reduce", name, "--input", literal, "--formula", "E v0 (v0 in #0)"]
          + ["--count-only"] * count_only)


@FUZZ
@given(scenarios())
def test_scenario_json(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(blob))
    check(["run", str(path)])
