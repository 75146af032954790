"""Start-up: the package loads its modules on first use, and each ordq
subcommand imports only what it needs.  Each check runs in a fresh
interpreter, so that modules this test session loaded do not count."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SCENARIO = os.path.join(SRC, "ordq", "scenarios", "nextcard_suite.json")

# every name ordq/__init__.py exported when it imported all of its modules,
# less the test-only helpers that moved to tests/reference_sets.py and the
# names that were removed
EXPORTS = (
    "OMEGA", "ONE", "ZERO", "Ordinal", "OrdinalDomainError", "OrdinalParseError",
    "add", "compare", "finite_part", "leading_exponent", "left_sub",
    "mul", "omega_power", "opow", "parse_ordinal", "render", "successor",
    "CardinalStructure", "HFSet", "OutOfStructureError",
    "SetCode", "card_of", "decode_set", "encode_hf", "explicit_list", "hf",
    "is_cardinal", "multiples_of_omega", "next_card_of",
    "next_limit_of_cardinals_above", "omega_powers", "parse_hf", "render_hf",
    "Formula", "TruthEnv", "classify_level", "eval_formula", "formula_from_index",
    "formula_index", "parse_formula", "render_formula", "universe_of",
    "CardinalClassSet", "Effectivizer", "FiniteOrdinalSet", "NotRankedError",
    "OmegaMultiplesSet", "OracleTypeError", "OrdinalSet", "QueryLedger", "RunEntry",
    "ScriptedEffectivizer", "ScriptExhausted", "ScriptMismatch", "SingleEntry",
    "make_effectivizer",
    "Program", "RunResult", "replay", "run",
    "Approximator", "BoundForm", "CATALOG_NAMES", "CompositeEffectivizer",
    "ReductionSpec", "ReductionTypeError", "Report", "catalog", "compose",
    "delegate_spec", "verify",
)
SUBMODULES = ("cli", "logic", "oracles", "ordcalc", "reductions", "tam", "universe")
# the names that moved to tests/reference_sets.py, which no module exports
MOVED_TO_TESTS = ("flag_value_after", "sup_of_cardinals_below", "hf_powerset")
# the names that were removed: Effectivizer.call and a run's ledger do the
# work of the first two, and no module used the last two
REMOVED = ("answer", "extract_script", "classify", "hf_card")


def modules_after(statements: str) -> set:
    """The sys.modules keys of a fresh interpreter after the statements."""
    script = statements + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=os.path.dirname(SRC),
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_ordq_loads_no_module():
    loaded = modules_after("import ordq")
    assert not {f"ordq.{m}" for m in SUBMODULES} & loaded


def test_calc_loads_only_ordcalc():
    loaded = modules_after("from ordq import cli\ncli.main(['calc', 'w+1'])")
    assert "ordq.ordcalc" in loaded
    for absent in ("ordq.universe", "ordq.logic", "ordq.reductions", "ordq.tam",
                   "ordq.oracles", "dataclasses"):
        assert absent not in loaded, absent


@pytest.mark.parametrize("argv", [
    ["run", SCENARIO],
    ["reduce", "ordcard_scan_naive", "--input", "w^2+3"],
])
def test_scan_runs_do_not_load_logic(argv):
    loaded = modules_after(f"from ordq import cli\nassert cli.main({argv!r}) == 0")
    assert "ordq.reductions" in loaded
    assert "ordq.logic" not in loaded


def test_every_export_and_submodule_resolves():
    import ordq
    for name in EXPORTS:
        value = getattr(ordq, name)
        assert any(getattr(sys.modules.get(f"ordq.{m}"), name, None) is value
                   for m in SUBMODULES), name
    for name in SUBMODULES:
        assert getattr(ordq, name) is sys.modules[f"ordq.{name}"]
    listed = dir(ordq)
    assert set(EXPORTS) <= set(listed) and set(SUBMODULES) <= set(listed)
    assert set(ordq.__all__) == set(EXPORTS)
    with pytest.raises(AttributeError):
        ordq.no_such_name


@pytest.mark.parametrize("name", MOVED_TO_TESTS + REMOVED)
def test_test_only_helpers_are_not_exported(name):
    import ordq
    assert name not in ordq.__all__ and name not in dir(ordq)
    with pytest.raises(AttributeError):
        getattr(ordq, name)
    for module in SUBMODULES:
        assert not hasattr(getattr(ordq, module), name), module


def test_exports_resolve_in_a_fresh_interpreter():
    loaded = modules_after(
        "import ordq, types\n"
        f"assert all(isinstance(getattr(ordq, m), types.ModuleType) for m in {SUBMODULES!r})\n"
        f"assert all(getattr(ordq, n) is not None for n in {EXPORTS!r})")
    assert {f"ordq.{m}" for m in SUBMODULES} <= loaded


def test_star_import_gives_every_export():
    namespace = {}
    exec("from ordq import *", namespace)
    assert set(EXPORTS) <= set(namespace)
