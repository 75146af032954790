"""Start-up and exit: the package loads its modules on first use, each ordq
subcommand imports only what it needs, and a process that enters through
cli.entry() answers as cli.main does.  Each check runs in a fresh
interpreter, so that modules this test session loaded do not count."""

import gc
import json
import os
import subprocess
import sys

import pytest

from ordq import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCENARIO = os.path.join(SRC, "ordq", "scenarios", "nextcard_suite.json")
ENV = dict(os.environ, PYTHONPATH=SRC)

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
SUBMODULES = ("cli", "hfsets", "logic", "oracles", "ordcalc", "reductions", "selftest",
              "tam", "universe")
# the modules an ordinal run or reduce never loads: the set half that was
# split out of ordq.universe, the formula logic and the selftest suites
NOT_ORDINAL = ("ordq.hfsets", "ordq.logic", "ordq.selftest")
# the names that moved to tests/reference_sets.py, which no module exports
MOVED_TO_TESTS = ("flag_value_after", "sup_of_cardinals_below", "hf_powerset")
# the names that were removed: Effectivizer.call and a run's ledger do the
# work of the first two, and no module used the last two
REMOVED = ("answer", "extract_script", "classify", "hf_card")


def modules_after(statements: str) -> set:
    """The sys.modules keys of a fresh interpreter after the statements."""
    script = statements + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=ROOT, env=ENV)
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


# an ordinal scenario beside the shipped one: the flag scan over an
# explicit list, with a bound override
ORDINAL = {"reduction": "flagtrick",
           "structure": {"kind": "explicit-list", "bound": "w^3", "cardinals": ["w^2"]},
           "bound_override": {"kind": "const", "value": "w^3"}, "instances": ["5", "w+1"]}
POWERCARD = {"reduction": "powercard_via_pot", "instances": ["{{}}"]}
SEPARATION = {"reduction": "sep_via_truth",
              "instances": [{"set": "{{},{{}}}", "formula": "E v0 (v0 in #0)"}]}


def scenario_argv(tmp_path, blob) -> list:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    return ["run", str(path)]


@pytest.mark.parametrize("argv", [
    ["run", SCENARIO],
    ["reduce", "ordcard_scan_naive", "--input", "w^2+3"],
    ORDINAL,
])
def test_scan_runs_do_not_load_logic(tmp_path, argv):
    if isinstance(argv, dict):
        argv = scenario_argv(tmp_path, argv)
    loaded = modules_after(f"from ordq import cli\nassert cli.main({argv!r}) == 0")
    assert "ordq.reductions" in loaded
    assert not set(NOT_ORDINAL) & loaded


@pytest.mark.parametrize("blob", [POWERCARD, SEPARATION], ids=["powercard", "separation"])
def test_set_entries_load_the_set_half(tmp_path, blob):
    argv = scenario_argv(tmp_path, blob)
    loaded = modules_after(f"from ordq import cli\nassert cli.main({argv!r}) == 0")
    assert "ordq.hfsets" in loaded and "ordq.selftest" not in loaded
    assert ("ordq.logic" in loaded) == (blob is SEPARATION)


def test_selftest_loads_its_suites_and_passes():
    script = ("import sys\nfrom ordq import cli\nassert cli.main(['selftest']) == 0\n"
              "print('selftest' if 'ordq.selftest' in sys.modules else 'no selftest')")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=ROOT, env=ENV)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith("ok - ")] == [
        "ok - ordinal arithmetic", "ok - ranked oracles", "ok - query ledgers",
        "ok - reduction catalog"]
    assert lines[-2:] == ["selftest: 4 suites passed", "selftest"]


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


# pickles written before the set half left ordq.universe, which name
# ordq.universe.decode_set and ordq.universe.SetCode: the set
# {{},{{}},{{{}}}}, of rank 3, and its code
OLD_SET_PICKLE = (b"\x80\x04\x95G\x00\x00\x00\x00\x00\x00\x00\x8c\rordq.universe\x94"
                  b"\x8c\ndecode_set\x94\x93\x94h\x00\x8c\x07SetCode\x94\x93\x94K\x04(K"
                  b"\x02K\x08K\tK\rK\x12\x91\x94K\x03\x87\x94R\x94\x85\x94R\x94.")
OLD_CODE_PICKLE = (b"\x80\x04\x952\x00\x00\x00\x00\x00\x00\x00\x8c\rordq.universe\x94"
                   b"\x8c\x07SetCode\x94\x93\x94K\x04(K\x02K\x08K\tK\rK\x12\x91\x94K\x03"
                   b"\x87\x94R\x94.")


class TestTheSplitOfUniverse:
    """ordq.universe still answers the public names of the set half that
    moved to ordq.hfsets, and pickles made before the move still load."""

    def test_pickles_that_name_universe_load(self):
        import pickle
        from ordq import hfsets
        s = hfsets.parse_hf("{{},{{}},{{{}}}}")
        loaded = pickle.loads(OLD_SET_PICKLE)
        assert type(loaded) is hfsets.HFSet and loaded == s and loaded.rank == 3
        code = pickle.loads(OLD_CODE_PICKLE)
        assert type(code) is hfsets.SetCode and code == hfsets.encode_hf(s)

    def test_moved_names_import_from_universe(self):
        from ordq import hfsets
        from ordq.universe import HFSet, encode_hf
        assert HFSet is hfsets.HFSet and encode_hf is hfsets.encode_hf

    def test_every_public_name_of_the_set_half_is_forwarded(self):
        import ast
        import inspect
        from ordq import hfsets, universe
        body = ast.parse(inspect.getsource(hfsets)).body
        defined = {node.name for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
        defined |= {target.id for node in body if isinstance(node, ast.Assign)
                    for target in node.targets}
        # NESTING_CAP is ordcalc's, which hfsets re-exports
        public = {name for name in defined if not name.startswith("_")} | {"NESTING_CAP"}
        assert public == set(universe._HFSETS)
        for name in public:
            assert getattr(universe, name) is getattr(hfsets, name), name

    @pytest.mark.parametrize("name", ["no_such_name", "_numbering", "_check_code"])
    def test_other_names_raise_an_error_that_names_universe(self, name):
        from ordq import universe
        with pytest.raises(AttributeError, match="module 'ordq.universe' has no attribute"):
            getattr(universe, name)


def test_star_import_gives_every_export():
    namespace = {}
    exec("from ordq import *", namespace)
    assert set(EXPORTS) <= set(namespace)


# a scenario whose one row fails its bound check
FAILING = {"reduction": "ordcard_scan_naive",
           "structure": {"kind": "multiples-of-omega", "bound": "w^3"},
           "bound_override": {"kind": "const", "value": "1"}, "instances": ["w*2+1"]}

# one command per exit code, 0 to 4; <out> stands for the file it may
# write, and <failing> for the path of FAILING
EXIT_CASES = [
    ["run", SCENARIO, "--output", "<out>"],
    ["run", "<failing>", "--output", "<out>"],
    ["reduce", "nextcard_via_deccard", "--input", "w +", "--ledger", "<out>"],
    ["reduce", "flagtrick", "--input", "w^2+1", "--structure", "explicit-list",
     "--cardinals", "w", "--cardinals", "w^2", "--bound", "w^3", "--ledger", "<out>"],
    ["reduce", "nextcard_via_deccard", "--input", "5", "--bound", "w^3",
     "--budget", "1", "--ledger", "<out>"],
]


def taken(path):
    """The bytes of the file at path, which is then removed; None if there
    is none."""
    if not path.exists():
        return None
    data = path.read_bytes()
    path.unlink()
    return data


@pytest.mark.parametrize("code,argv", enumerate(EXIT_CASES),
                         ids=["ok", "failed-row", "bad-input", "diverged", "budget"])
def test_a_process_answers_as_main_does(capsys, tmp_path, code, argv):
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(FAILING))
    out_path = tmp_path / "out.json"
    argv = [{"<out>": str(out_path), "<failing>": str(failing)}.get(a, a) for a in argv]
    proc = subprocess.run([sys.executable, "-m", "ordq.cli", *argv], capture_output=True,
                          text=True, timeout=120, cwd=ROOT, env=ENV)
    process = (proc.returncode, proc.stdout, proc.stderr, taken(out_path))
    in_process = (cli.main(argv), *capsys.readouterr(), taken(out_path))
    assert process == in_process
    assert process[0] == code and (process[3] is None) == (code == 2)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_pipe_ends_as_in_main(capsys, monkeypatch, tmp_path, unbuffered):
    out_path = tmp_path / "out.json"
    argv = ["run", SCENARIO, "--output", str(out_path)]
    # the report is written before anything is printed, so it is there
    # whether the first print or the flush at exit finds the reader gone;
    # in process, a line-buffered stdout stands in for an unbuffered one
    env = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "ordq.cli", *argv], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()         # the reader has gone before the first write
    err = proc.stderr.read().decode()
    proc.stderr.close()
    process = (proc.wait(timeout=120), err, taken(out_path))
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8", buffering=1 if unbuffered else -1) as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        code = cli.main(argv)
    assert process == (code, capsys.readouterr().err, taken(out_path))
    assert code == 1 and err == "" and process[2] is not None


def test_a_process_exits_with_its_objects_frozen():
    # runpy runs the module as python -m does, under an atexit hook
    script = ("import atexit, gc, runpy, sys\n"
              "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
              "sys.argv = ['ordq', 'calc', 'w+1']\n"
              "runpy.run_module('ordq.cli', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, cwd=ROOT, env=ENV)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "w+1\nfrozen True\n", "")


def test_the_console_script_enters_through_entry():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as handle:
        assert 'ordq = "ordq.cli:entry"' in handle.read().splitlines()


def test_main_leaves_the_collector_as_it_found_it(capsys):
    before = (gc.get_freeze_count(), gc.isenabled())
    for argv in (["calc", "w+1"], ["run", SCENARIO],
                 ["reduce", "nextcard_via_deccard", "--input", "w +"]):
        cli.main(argv)
    assert (gc.get_freeze_count(), gc.isenabled()) == before
