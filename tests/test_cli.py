"""Command line behavior: expression grammar, exit codes, ledger files,
scenario validation, and byte-stable output."""

import json
import os
import stat
import subprocess
import sys
import time

import pytest

import ordq
from ordq import cli
from ordq import universe as u
from ordq.ordcalc import parse_ordinal as P, render
from ordq.reductions import BOUND_KINDS


def run_cli(*argv):
    return cli.main(list(argv))


def calc(capsys, expr):
    code = run_cli("calc", expr)
    out = capsys.readouterr().out.strip()
    return code, out


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    return err.strip()


class TestCalc:
    @pytest.mark.parametrize("expr,expected", [
        ("1 + w", "w"),
        ("w + 1", "w+1"),
        ("leftsub(w*2+1, w^2)", "w^2"),
        ("w ^ w", "w^(w)"),
        ("w^2+1", "w^2+1"),
        ("(w+1)*2", "w*2+1"),
        ("2*w", "w"),
        ("2 ^ w", "w"),
        ("(w^w)^w", "w^(w^2)"),
        ("leftsub(0, w) + leftsub(w, w*2)", "w*2"),
        ("0", "0"),
    ])
    def test_pins(self, capsys, expr, expected):
        code, out = calc(capsys, expr)
        assert code == 0
        assert out == expected

    @pytest.mark.parametrize("expr", [
        "w +", "leftsub(w)", "leftsub(w, 1)", "w)", "q", "w 2", "",
    ])
    def test_bad_expressions_exit_2(self, capsys, expr):
        assert run_cli("calc", expr) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("expr,message", [
        ("9^99999999", "9^99999999 has more than 8192 bits"),
        ("2^(w+99999999)", "2^99999999 has more than 8192 bits"),
        ("(w+1)^5000", "(w+1)^5000 has 5001 terms, more than 1024"),
    ])
    def test_oversized_power_exits_2_quickly(self, capsys, expr, message):
        started = time.perf_counter()
        assert run_cli("calc", expr) == 2
        assert time.perf_counter() - started < 2.0
        assert one_line_error(capsys) == f"error: {message}"


class TestLongNaturals:
    """Naturals past the interpreter's 4,300-digit int/str limit exit 2 with
    one error line, not a ValueError traceback."""

    def test_long_literal_in_calc_exits_2(self, capsys):
        assert run_cli("calc", "1" * 5000) == 2
        assert one_line_error(capsys) == \
            "error: numbers may have at most 4000 digits (at position 0)"

    def test_oversized_product_exits_2(self, capsys):
        # 2^16000 has 4,817 digits
        assert run_cli("calc", "(2^8000)*(2^8000)") == 2
        assert one_line_error(capsys) == "error: a product has more than 8192 bits"

    def test_long_literal_input_exits_2(self, capsys):
        ones = "1" * 5000
        assert run_cli("reduce", "nextcard_via_deccard", "--input", ones) == 2
        assert one_line_error(capsys) == (f"error: bad input {ones[:40]!r}... (5000 "
                                          "characters): numbers may have at most "
                                          "4000 digits (at position 0)")

    def test_sums_of_the_longest_literals_still_render(self, capsys):
        code, out = calc(capsys, "+".join(["9" * 4000] * 3))
        assert code == 0
        assert out == str(3 * (10 ** 4000 - 1))


CAP = ordq.ordcalc.NESTING_CAP


def nested(depth: int, inner: str = "w") -> str:
    return "(" * depth + inner + ")" * depth


def tower(depth: int) -> str:
    """w^(w^(...)) with depth exponents: two nesting levels each."""
    return "w^(" * depth + "w" + ")" * depth


def separation(formula: str) -> list:
    return ["reduce", "sep_via_truth", "--input", "{{}}", "--formula", formula]


def conjuncts(n: int) -> str:
    return "E v0 (" + " & ".join(["v0 in #0"] * n) + ")"


class TestTextFormats:
    """Every text format shares the scanner's rules: NESTING_CAP levels,
    ASCII digits only, and errors that exit 2 with one line."""

    # (at the cap, one level past it) for each grammar; the first bracket
    # after a binder does not nest
    @pytest.mark.parametrize("at_cap,past_cap", [
        (["calc", nested(CAP)], ["calc", nested(CAP + 1)]),
        (["calc", "^".join(["w"] * (CAP + 1))], ["calc", "^".join(["w"] * (CAP + 2))]),
        (["reduce", "nextcard_via_deccard", "--bound", "w^(" + tower(CAP // 2 - 1) + "+2)",
          "--input", tower(CAP // 2)],
         ["reduce", "nextcard_via_deccard", "--input", "w^(" + tower(CAP // 2) + ")"]),
        (["reduce", "powercard_via_pot", "--count-only", "--input", "{" * CAP + "}" * CAP],
         ["reduce", "powercard_via_pot", "--count-only",
          "--input", "{" * (CAP + 1) + "}" * (CAP + 1)]),
        (separation("E v0 " + nested(CAP + 1, "v0 in #0")),
         separation("E v0 " + nested(CAP + 2, "v0 in #0"))),
    ], ids=["calc-parens", "calc-powers", "ordinal-tower", "set", "formula-parens"])
    def test_nesting_cap(self, capsys, at_cap, past_cap):
        assert run_cli(*at_cap) == 0
        capsys.readouterr()
        assert run_cli(*past_cap) == 2
        line = one_line_error(capsys)
        assert line.startswith("error: ") and f"nested deeper than {CAP} levels" in line

    def test_negations_chains_and_deep_parens_past_the_cap_exit_2(self, capsys):
        for argv in (["calc", nested(1000)], separation("E v0 (" + "!" * 1000 + "v0 in #0)"),
                     separation("E v0 (" + "!" * CAP + "(v0 in #0))"),
                     separation(" & ".join(["v0 = v0"] * 1500))):
            assert run_cli(*argv) == 2
            assert f"nested deeper than {CAP} levels" in one_line_error(capsys)

    @pytest.mark.parametrize("argv", [
        ["calc", "²"], ["calc", "٣"], ["calc", "１"], ["calc", "w^²"],
        ["reduce", "nextcard_via_deccard", "--input", "²"],
        ["reduce", "nextcard_via_deccard", "--input", "w*٣"],
        ["reduce", "nextcard_via_deccard", "--input", "１"],
        separation("E v0 (v0 in #²)"), separation("E v0 (v0 in #٣)"),
        separation("E v0 (v0 in v²)"), separation("E v0 (v0 = #１)"),
    ])
    def test_digits_are_ascii_only(self, capsys, argv):
        assert run_cli(*argv) == 2
        assert one_line_error(capsys).startswith("error: ")

    def test_seven_conjuncts_exceed_the_index_cap(self, capsys, tmp_path):
        assert run_cli(*separation(conjuncts(7))) == 2
        message = "error: the formula's index would have more than 4000 digits"
        assert one_line_error(capsys) == message
        path = write_scenario(tmp_path, {
            "reduction": "sep_via_truth",
            "instances": [{"set": "{{}}", "formula": conjuncts(7)}]})
        assert run_cli("run", path) == 2
        assert one_line_error(capsys) == message

    def test_six_conjuncts_still_run(self, capsys):
        # their index has 1,546 digits
        assert len(str(ordq.formula_index(ordq.parse_formula(conjuncts(6))))) == 1546
        assert run_cli(*separation(conjuncts(6))) == 0
        assert "status: halted" in capsys.readouterr().out

    def test_many_negations_stop_at_the_index_cap_quickly(self, capsys):
        started = time.perf_counter()
        assert run_cli(*separation("E v0 (" + "!" * 24 + "v0 in #0)")) == 2
        assert time.perf_counter() - started < 1.0
        assert "index would have more than 4000 digits" in one_line_error(capsys)

    def test_out_of_bound_instance_is_quoted_in_part(self, capsys):
        text = "w^(w*2)*" + "9" * 60
        assert run_cli("reduce", "nextcard_via_deccard", "--input", text) == 2
        assert one_line_error(capsys) == (
            f"error: input {text[:40]!r}... (68 characters) is not below the "
            "structure bound w^(w*2)")


class TestReduce:
    def test_nextcard_pin(self, capsys):
        code = run_cli("reduce", "nextcard_via_deccard", "--input", "w*2+1",
                       "--bound", "w^3")
        out = capsys.readouterr().out
        assert code == 0
        assert "status: halted" in out
        assert "output: w^2" in out
        assert "total order type: w^2" in out

    def test_flagtrick_pin(self, capsys):
        code = run_cli("reduce", "flagtrick", "--input", "3",
                       "--structure", "multiples-of-omega", "--bound", "w^3")
        out = capsys.readouterr().out
        assert code == 0
        assert "output: w" in out
        assert "total order type: w" in out

    def test_unknown_name_exits_2(self, capsys):
        assert run_cli("reduce", "nosuch", "--input", "1") == 2
        assert "unknown reduction" in capsys.readouterr().err

    def test_long_unknown_name_is_quoted_in_part(self, capsys):
        assert run_cli("reduce", "x" * 3000, "--input", "1") == 2
        line = one_line_error(capsys)
        assert f"{'x' * 40!r}... (3000 characters)" in line
        assert len(line) < 300, line

    def test_instance_outside_window_exits_2(self, capsys):
        code = run_cli("reduce", "nextcard_via_deccard", "--input", "w^3",
                       "--bound", "w^3")
        assert code == 2
        assert "not below" in capsys.readouterr().err

    def test_divergence_exits_3(self, capsys):
        code = run_cli("reduce", "flagtrick", "--input", "w",
                       "--structure", "omega-powers", "--bound", "w^3")
        assert code == 3
        assert "status: diverged" in capsys.readouterr().out

    def test_budget_exhaustion_exits_4(self, capsys):
        code = run_cli("reduce", "nextcard_via_deccard", "--input", "5",
                       "--bound", "w^3", "--budget", "1")
        assert code == 4
        assert "budget-exceeded" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        (["--bound", "9"], "the working bound must exceed w"),
        (["--structure", "explicit-list", "--cardinals", "5"],
         "explicit cardinal 5 must be infinite"),
        (["--structure", "explicit-list", "--cardinals", "w^(w*2)"],
         "explicit cardinal w^(w*2) must lie below the bound w^(w*2)"),
        (["--structure", "bogus"], "unknown structure kind 'bogus'; "
         "pick one of omega-powers, multiples-of-omega, explicit-list"),
    ])
    def test_bad_structure_exits_2(self, capsys, argv, message):
        assert run_cli("reduce", "flagtrick", "--input", "w", *argv) == 2
        assert one_line_error(capsys) == f"error: {message}"

    def test_explicit_list_needs_cardinals(self, capsys):
        code = run_cli("reduce", "nextcard_via_deccard", "--input", "5",
                       "--structure", "explicit-list", "--bound", "w^3")
        assert code == 2
        assert "--cardinals" in capsys.readouterr().err

    def test_separation_via_flags(self, capsys):
        code = run_cli("reduce", "sep_via_truth",
                       "--input", "{{},{{}}}",
                       "--formula", "E v0 (v0 = #0)")
        out = capsys.readouterr().out
        assert code == 0
        expected = u.encode_hf(u.parse_hf("{{},{{}}}"))
        assert f"output: code(domain={expected.domain}" in out
        assert "total order type: 2" in out

    def test_open_formula_exits_2(self, capsys):
        code = run_cli("reduce", "sep_via_truth", "--input", "{{}}",
                       "--formula", "E v0 (v0 in #0 | v1 in v0)")
        assert code == 2
        assert one_line_error(capsys) == (
            "error: bad formula 'E v0 (v0 in #0 | v1 in v0)': free variable v1")

    def test_a_huge_parameter_slot_exits_2(self, capsys):
        formula = "E v0 (v0 in #100000000000000000000)"
        assert run_cli(*separation(formula)) == 2
        assert one_line_error(capsys) == (
            f"error: bad formula {formula!r}: parameter slots must be numbered 0..m-1")

    def test_long_formula_token_is_quoted_in_part(self, capsys):
        name = "x" * 3000
        code = run_cli("reduce", "sep_via_truth", "--input", "{}",
                       "--formula", f"E v0 (v0 in {name})")
        assert code == 2
        line = one_line_error(capsys)
        assert len(line) < 200, line
        assert line.endswith(f"unbound variable {name[:40]!r}... (3000 characters) "
                             "(at position 12)")

    def test_separation_without_formula_exits_2(self, capsys):
        code = run_cli("reduce", "sep_via_truth", "--input", "{{}}")
        assert code == 2
        assert "--formula" in capsys.readouterr().err

    def test_powercard_via_set_literal(self, capsys):
        code = run_cli("reduce", "powercard_via_pot", "--input", "{{}}")
        out = capsys.readouterr().out
        assert code == 0
        assert "output: 2" in out
        assert "total order type: 2" in out

    def test_powerset_over_the_cap_exits_2(self, capsys):
        # three members: the full mode's second call would need 2^64 subsets
        code = run_cli("reduce", "powercard_via_pot", "--input", "{{},{{}},{{{}}}}")
        assert code == 2
        assert one_line_error(capsys) == "error: powerset argument exceeds the size cap of 16"

    def test_set_literal_one_level_over_the_nesting_cap_exits_2(self, capsys):
        depth = u.NESTING_CAP + 1
        code = run_cli("reduce", "powercard_via_pot", "--count-only",
                       "--input", "{" * depth + "}" * depth)
        assert code == 2
        assert one_line_error(capsys).endswith(
            f"nested deeper than {u.NESTING_CAP} levels (at position {u.NESTING_CAP})")

    def test_set_literal_at_the_nesting_cap_runs(self, capsys):
        depth = u.NESTING_CAP
        code = run_cli("reduce", "powercard_via_pot", "--count-only",
                       "--input", "{" * depth + "}" * depth)
        assert code == 0
        assert "status: halted" in capsys.readouterr().out

    def test_zero_budget_exits_2(self, capsys):
        code = run_cli("reduce", "nextcard_via_deccard", "--input", "5",
                       "--bound", "w^3", "--budget", "0")
        assert code == 2
        assert one_line_error(capsys) == "error: the budget must be positive, got 0"

    @pytest.mark.parametrize("rank,message", [
        # the member {{{{}}}} has rank 3, so it is not in V_3
        ("3", "error: parameter of rank 3 does not live in V_3"),
        ("9", "error: rank must be between 0 and 5"),
    ])
    def test_separation_outside_the_rank_exits_2(self, capsys, rank, message):
        code = run_cli("reduce", "sep_via_truth", "--input", "{{{{{}}}}}",
                       "--formula", "E v0 (v0 in #0)", "--rank", rank)
        assert code == 2
        assert one_line_error(capsys) == message

    def test_evaluation_over_the_walk_cap_exits_2(self, capsys):
        # three quantifiers over V_5 would decide 65,536^2 rows per call
        start = time.perf_counter()
        code = run_cli("reduce", "sep_via_truth", "--rank", "5", "--level", "3",
                       "--input", "{{},{{}}}",
                       "--formula", "A v0 A v1 E v2 (v2 = v2 & #0 = #0)")
        assert code == 2
        assert one_line_error(capsys) == (
            "error: 3 quantifiers over V_5 decide 65536^2 rows of 65536 bits, "
            "over the cap of 65536")
        assert time.perf_counter() - start < 5

    def test_two_quantifiers_at_rank_5_run(self, capsys):
        code = run_cli("reduce", "sep_via_truth", "--rank", "5", "--level", "3",
                       "--input", "{{},{{}}}",
                       "--formula", "A v0 E v1 (v1 in v0 | v0 in #0)")
        assert code == 0
        # {} is dropped: at v0 = {}, neither v1 in {} nor {} in {} holds
        expected = u.encode_hf(u.parse_hf("{{{}}}"))
        assert (f"output: code(domain={expected.domain},root={expected.root},"
                f"edges={len(expected.edges)})") in capsys.readouterr().out

    def test_ledger_file_re_sums(self, capsys, tmp_path):
        path = tmp_path / "ledger.json"
        code = run_cli("reduce", "nextcard_via_deccard", "--input", "w*2+1",
                       "--bound", "w^3", "--ledger", str(path))
        assert code == 0
        blob = json.loads(path.read_text())
        assert set(blob) == {"program", "input", "output", "halt_time",
                             "entries", "total_order_type"}
        assert blob["program"] == "nextcard_via_deccard"
        assert blob["input"] == "w*2+1"
        assert blob["output"] == "w^2"
        assert blob["halt_time"] == "w^2"
        total = P("0")
        from ordq.ordcalc import add
        for entry in blob["entries"]:
            total = add(total, P(entry["order_type"]))
        assert render(total) == blob["total_order_type"] == "w^2"

    def test_ledger_bytes_are_stable(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert run_cli("reduce", "flagtrick", "--input", "w",
                           "--structure", "multiples-of-omega",
                           "--bound", "w^3", "--ledger", str(path)) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_diverged_ledger_marks_halt_time(self, capsys, tmp_path):
        path = tmp_path / "diverged.json"
        code = run_cli("reduce", "flagtrick", "--input", "w",
                       "--structure", "omega-powers", "--bound", "w^3",
                       "--ledger", str(path))
        capsys.readouterr()
        assert code == 3
        blob = json.loads(path.read_text())
        assert blob["halt_time"] == "diverged"
        assert blob["output"] is None
        assert blob["entries"][-1]["to"] == "w^3"


    @pytest.mark.parametrize("argv,message", [
        (["--input", "{}", "--rank", "9"], "error: rank must be between 0 and 5"),
        (["--input", "{{}}", "--level", "-1"], "error: level must be at least 0, got -1"),
    ])
    def test_bad_rank_or_level_exits_2_before_any_row(self, capsys, argv, message):
        # {} makes no truth call, so only the oracle's set-up can refuse it
        assert run_cli("reduce", "sep_via_truth", "--formula", "E v0 (v0 in #0)", *argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == message + "\n"


SHIPPED_SUITE = os.path.join(os.path.dirname(ordq.__file__), "scenarios", "nextcard_suite.json")


def write_scenario(tmp_path, blob, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return str(path)


class TestRunScenario:
    def scenario(self, tmp_path, **overrides):
        blob = {
            "reduction": "ordcard_scan_naive",
            "structure": {"kind": "multiples-of-omega", "bound": "w^3"},
            "instances": ["7", "w*2+1"],
        }
        blob.update(overrides)
        return write_scenario(tmp_path, blob)

    def test_report_table_and_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        path = self.scenario(tmp_path, output=str(out_path))
        assert run_cli("run", path) == 0
        table = capsys.readouterr().out
        assert "w*2+1" in table and "all checks passed" in table
        blob = json.loads(out_path.read_text())
        assert blob["passed"] is True
        assert len(blob["instances"]) == 2
        assert blob["instances"][1]["order_type"] == "w*2+2"

    def test_a_reader_that_closes_the_pipe_gets_no_traceback(self, tmp_path):
        # 2,000 rows overfill the pipe, so a write after the reader has gone
        # must fail, however the output is buffered
        instances = [f"w^3*{n}+{n}" for n in range(1, 2001)]
        path = self.scenario(tmp_path, reduction="nextcard_via_deccard",
                             structure={"kind": "omega-powers", "bound": "w^5"},
                             instances=instances)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.Popen([sys.executable, "-m", "ordq.cli", "run", path],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.readline().startswith(b"input")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err and err == ""

    def test_an_instance_over_the_walk_cap_fails_its_own_row(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        path = write_scenario(tmp_path, {
            "reduction": "sep_via_truth", "rank": 5, "level": 3, "output": str(out_path),
            "instances": [{"set": "{{},{{}}}", "formula": "E v0 (v0 in #0)"},
                          {"set": "{{},{{}}}",
                           "formula": "A v0 A v1 E v2 (v2 = v2 & #0 = #0)"}]})
        assert run_cli("run", path) == 1
        out, err = capsys.readouterr()
        assert err == ""
        first, second = out.splitlines()[2:4]
        assert first.split()[-1] == "pass" and second.split()[-1] == "FAIL"
        assert "error: RankError: 3 quantifiers over V_5" in second
        rows = json.loads(out_path.read_text())["instances"]
        assert rows[0]["correct"] and rows[0]["replay_ok"] is True
        assert rows[1]["status"].startswith("error: RankError: ")

    def test_report_bytes_are_stable(self, capsys, tmp_path):
        outs = [tmp_path / "r1.json", tmp_path / "r2.json"]
        path = self.scenario(tmp_path)
        for out in outs:
            assert run_cli("run", path, "--output", str(out)) == 0
        capsys.readouterr()
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_instance_at_the_window_bound_exits_2(self, capsys, tmp_path):
        path = self.scenario(tmp_path, instances=["w^3"])
        assert run_cli("run", path) == 2
        assert "not below" in capsys.readouterr().err

    def test_unknown_reduction_exits_2(self, capsys, tmp_path):
        path = self.scenario(tmp_path, reduction="bogus")
        assert run_cli("run", path) == 2
        assert "unknown reduction" in capsys.readouterr().err

    def test_missing_field_exits_2(self, capsys, tmp_path):
        path = write_scenario(tmp_path, {"reduction": "flagtrick"})
        assert run_cli("run", path) == 2
        assert "structure" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n "reduction": \n}')
        assert run_cli("run", str(path)) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("root,kind", [(7, "int"), (None, "NoneType"), ([], "list")])
    def test_root_that_is_not_an_object_exits_2(self, capsys, tmp_path, root, kind):
        path = write_scenario(tmp_path, root)
        assert run_cli("run", path) == 2
        assert one_line_error(capsys) == \
            f"error: scenario {path!r} should hold a JSON object, got {kind}"

    @pytest.mark.parametrize("field,value,message", [
        ("rank", 6, "error: rank must be between 0 and 5"),
        ("level", -1, "error: level must be at least 0, got -1"),
    ])
    def test_bad_rank_or_level_exits_2_before_any_row(self, capsys, tmp_path,
                                                      field, value, message):
        path = write_scenario(tmp_path, {
            "reduction": "sep_via_truth", field: value,
            "instances": [{"set": "{}", "formula": "E v0 (v0 in #0)"}]})
        assert run_cli("run", path) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == message + "\n"

    def test_undecodable_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_bytes(b"\xff{}")
        assert run_cli("run", str(path)) == 2
        assert one_line_error(capsys).startswith(f"error: cannot read scenario {str(path)!r}: ")

    @pytest.mark.parametrize("field,blob", [
        ("cardinals", {"reduction": "flagtrick", "instances": ["w"],
                       "structure": {"kind": "explicit-list", "cardinals": [3]}}),
        ("params", {"reduction": "sep_via_truth", "instances": [
            {"set": "{}", "formula": "E v0 (v0 = #0)", "params": [3]}]}),
    ])
    def test_list_item_of_the_wrong_type_exits_2(self, capsys, tmp_path, field, blob):
        assert run_cli("run", write_scenario(tmp_path, blob)) == 2
        assert one_line_error(capsys) == \
            f"error: scenario field {field!r} should be a list of str"

    def test_no_instances_exits_2(self, capsys, tmp_path):
        assert run_cli("run", self.scenario(tmp_path, instances=[])) == 2
        assert one_line_error(capsys) == "error: scenario has no instances"

    def test_a_set_instance_that_is_not_a_string_exits_2(self, capsys, tmp_path):
        path = write_scenario(tmp_path, {"reduction": "powercard_via_pot",
                                         "instances": [["{}"]]})
        assert run_cli("run", path) == 2
        assert one_line_error(capsys) == "error: instance #0 should be a set literal string"

    @pytest.mark.parametrize("name,message", [
        ("ordcard_scan_naive", "should be an ordinal string"),
        ("sep_via_truth", "should be an object with set/formula/params"),
    ])
    def test_an_instance_of_another_json_type_exits_2(self, capsys, tmp_path, name, message):
        path = self.scenario(tmp_path, reduction=name, instances=[["{}"]])
        assert run_cli("run", path) == 2
        assert one_line_error(capsys) == f"error: instance #0 {message}"

    def test_wrong_field_type_exits_2(self, capsys, tmp_path):
        path = self.scenario(tmp_path, budget="lots")
        assert run_cli("run", path) == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["budget", "rank", "level"])
    @pytest.mark.parametrize("value", [True, False])
    def test_json_boolean_in_an_int_field_exits_2(self, capsys, tmp_path, field, value):
        path = self.scenario(tmp_path, **{field: value})
        assert run_cli("run", path) == 2
        assert one_line_error(capsys) == \
            f"error: scenario field {field!r} should be int, got bool"

    def test_count_only_takes_a_json_boolean(self, capsys, tmp_path):
        path = write_scenario(tmp_path, {"reduction": "powercard_via_pot",
                                         "instances": ["{{}}"], "count_only": True})
        assert run_cli("run", path) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_zero_budget_exits_2(self, capsys, tmp_path):
        path = self.scenario(tmp_path, budget=0)
        assert run_cli("run", path) == 2
        assert one_line_error(capsys) == "error: the budget must be positive, got 0"

    def test_bound_override_failure_exits_1(self, capsys, tmp_path):
        path = self.scenario(tmp_path,
                             bound_override={"kind": "const", "value": "1"},
                             instances=["w*2+1"])
        assert run_cli("run", path) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("value,echo", [
        ("w +", "'w +'"),
        ("w*" + "x" * 3000, "'w*" + "x" * 38 + "'... (3002 characters)"),
    ])
    def test_bad_bound_override_value_exits_2(self, capsys, tmp_path, value, echo):
        path = self.scenario(tmp_path, bound_override={"kind": "const", "value": value})
        assert run_cli("run", path) == 2
        line = one_line_error(capsys)
        assert line.startswith(f"error: bad bound_override value {echo}: "), line
        assert len(line) < 200, line

    @pytest.mark.parametrize("kind", [k for k in BOUND_KINDS if k != "product"])
    def test_every_scenario_bound_kind_runs(self, capsys, tmp_path, kind):
        override = {"kind": kind, "value": "w"}
        if kind == "set-size":      # the size of a separation instance's set
            path = write_scenario(tmp_path, {
                "reduction": "sep_via_truth", "bound_override": override,
                "instances": [{"set": "{{},{{}}}", "formula": "E v0 (v0 = #0)"}]})
        else:
            path = self.scenario(tmp_path, bound_override=override)
        assert run_cli("run", path) in (0, 1)
        assert "error" not in capsys.readouterr().err

    SET_INSTANCES = {
        "powercard_via_pot": ["{}", "{{}}"],
        "sep_via_truth": [{"set": "{{},{{}}}", "formula": "E v0 (v0 = #0)"}],
    }

    def kind_over(self, tmp_path, kind, name):
        return self.scenario(tmp_path, reduction=name,
                             bound_override={"kind": kind, "value": "w"},
                             **({"instances": self.SET_INSTANCES[name]}
                                if name in self.SET_INSTANCES else {}))

    @pytest.mark.parametrize("kind,name,shapes", [
        ("set-size", "ordcard_scan_naive", "separation instances, but ordcard_scan_naive "
                                           "takes ordinal instances"),
        ("set-size", "powercard_via_pot", "separation instances, but powercard_via_pot "
                                          "takes set instances"),
    ] + [(kind, name, f"ordinal instances, but {name} takes {shape} instances")
         for kind in ("input", "succ-of-input", "next-card-succ", "next-limit-interval")
         for name, shape in (("powercard_via_pot", "set"), ("sep_via_truth", "separation"))])
    def test_bound_kind_that_does_not_fit_the_input_exits_2(self, capsys, tmp_path,
                                                             kind, name, shapes):
        assert run_cli("run", self.kind_over(tmp_path, kind, name)) == 2
        assert one_line_error(capsys) == f"error: bound_override.kind {kind!r} reads {shapes}"

    @pytest.mark.parametrize("kind,name", [
        ("const", "powercard_via_pot"), ("finite", "powercard_via_pot"),
        ("const", "sep_via_truth"), ("finite", "sep_via_truth"),
        ("set-size", "sep_via_truth")])
    def test_bound_kind_that_reads_no_input_or_fits_runs(self, capsys, tmp_path, kind, name):
        assert run_cli("run", self.kind_over(tmp_path, kind, name)) == 0
        assert "all checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["product", "bogus"])
    def test_bound_kind_outside_the_scenario_table_exits_2(self, capsys, tmp_path, kind):
        path = self.scenario(tmp_path, bound_override={"kind": kind})
        assert run_cli("run", path) == 2
        assert one_line_error(capsys).startswith(f"error: bad bound_override kind {kind!r}; ")

    @pytest.mark.parametrize("field", ["reduction", "structure kind"])
    def test_long_unknown_name_is_quoted_in_part(self, capsys, tmp_path, field):
        name = "x" * 3000
        if field == "reduction":
            path = self.scenario(tmp_path, reduction=name)
        else:
            path = self.scenario(tmp_path, structure={"kind": name})
        assert run_cli("run", path) == 2
        line = one_line_error(capsys)
        assert f"{name[:40]!r}... (3000 characters)" in line
        assert len(line) < 200, line

    def test_separation_scenario(self, capsys, tmp_path):
        path = write_scenario(tmp_path, {
            "reduction": "sep_via_truth",
            "instances": [
                {"set": "{{},{{}}}", "formula": "E v0 (v0 = #0)"},
                {"set": "{}", "formula": "E v0 (v0 in #0)"},
            ],
        })
        assert run_cli("run", path) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_packaged_suite_runs(self, capsys):
        assert os.path.exists(SHIPPED_SUITE)
        assert run_cli("run", SHIPPED_SUITE) == 0
        assert "all checks passed" in capsys.readouterr().out


class TestUnwritableOutput:
    """A report or ledger path that cannot be written exits 2 with one line
    that names the path, before the command has printed anything, and
    leaves no fresh file beside the path."""

    def check(self, capsys, tmp_path, argv, path, reason):
        assert run_cli(*argv) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {str(path)!r}: {reason}\n")
        assert not list(tmp_path.rglob(".ordq-*"))

    def test_run_output_in_a_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        self.check(capsys, tmp_path, ["run", SHIPPED_SUITE, "--output", str(path)],
                   path, "No such file or directory")

    def test_run_output_that_is_a_directory(self, capsys, tmp_path):
        self.check(capsys, tmp_path, ["run", SHIPPED_SUITE, "--output", str(tmp_path)],
                   tmp_path, "Is a directory")
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_reduce_ledger_that_is_a_directory(self, capsys, tmp_path):
        argv = ["reduce", "nextcard_via_deccard", "--input", "w", "--ledger", str(tmp_path)]
        self.check(capsys, tmp_path, argv, tmp_path, "Is a directory")

    def test_scenario_output_field_in_a_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        scenario = write_scenario(tmp_path, {
            "reduction": "ordcard_scan_naive", "output": str(path),
            "structure": {"kind": "multiples-of-omega", "bound": "w^3"},
            "instances": ["7"]})
        self.check(capsys, tmp_path, ["run", scenario], path, "No such file or directory")


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_a_taken_fresh_file_name_is_skipped(capsys, tmp_path):
    # a file left beside the path under the first fresh name, as by an
    # earlier process with the same pid, is neither written nor removed
    taken = tmp_path / f".ordq-{os.getpid()}-0"
    taken.write_bytes(b"left over\n\x00")
    out = tmp_path / "r.json"
    assert run_cli("run", SHIPPED_SUITE, "--output", str(out)) == 0
    capsys.readouterr()
    with open(os.path.join(GOLDEN, "nextcard_suite_report.json"), "rb") as handle:
        assert out.read_bytes() == handle.read()
    assert taken.read_bytes() == b"left over\n\x00"
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "r.json"]


class TestGoldenBytes:
    """Report and ledger JSON must stay byte-identical across speed-ups; the
    files under tests/golden were written by an earlier, slower version."""

    @pytest.mark.parametrize("golden,argv", [
        ("nextcard_suite_report.json",
         ["run", os.path.join(os.path.dirname(ordq.__file__), "scenarios",
                              "nextcard_suite.json"), "--output"]),
        ("sep_via_truth_rank4_suite_report.json",
         ["run", os.path.join(GOLDEN, "sep_via_truth_rank4_suite.json"), "--output"]),
        ("sep_via_truth_rank4_ledger.json",
         ["reduce", "sep_via_truth", "--rank", "4",
          "--input", "{{},{{}},{{{}}},{{},{{}}}}",
          "--formula", "E y A z A w (y in #0 & (w in z | !(z in y)))", "--ledger"]),
        ("nextcard_via_deccard_ledger.json",
         ["reduce", "nextcard_via_deccard", "--input", "w*2+1", "--bound", "w^3",
          "--ledger"]),
        ("powercard_via_pot_ledger.json",
         ["reduce", "powercard_via_pot", "--input", "{{},{{}}}", "--ledger"]),
        ("powercard_via_pot_count_only_ledger.json",
         ["reduce", "powercard_via_pot", "--count-only",
          "--input", "{{},{{}},{{{}}},{{},{{}}}}", "--ledger"]),
    ])
    def test_matches_the_golden_file(self, capsys, tmp_path, golden, argv):
        path = tmp_path / golden
        assert run_cli(*argv, str(path)) == 0
        capsys.readouterr()
        with open(os.path.join(GOLDEN, golden), "rb") as handle:
            assert path.read_bytes() == handle.read()


@pytest.mark.parametrize("module,name", [
    ("ordcalc", "OrdinalParseError"), ("ordcalc", "OrdinalDomainError"),
    ("oracles", "OracleTypeError"), ("universe", "OutOfStructureError"),
    ("universe", "InvalidCodeError"), ("universe", "PowersetCapError"),
    ("logic", "RankError"),
])
def test_library_input_errors_share_the_base_main_catches(module, name):
    from ordq.ordcalc import InputError
    error = getattr(getattr(ordq, module), name)
    assert issubclass(error, InputError)
    assert issubclass(error, TypeError) == (name == "OracleTypeError")


def run_subprocess(*argv, env=None, interpreter_flags=(), umask=-1):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return subprocess.run([sys.executable, *interpreter_flags, "-m", "ordq.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src, **(env or {})),
                          capture_output=True, text=True, timeout=120, umask=umask)


class TestWrittenFileMode:
    """A new report has the mode the process's umask leaves of 0o666, and a
    report or ledger that replaces a regular file keeps that file's mode."""

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                             ids=["umask-022", "umask-077", "umask-002"])
    def test_a_report_follows_the_umask(self, tmp_path, umask, mode):
        out = tmp_path / "r.json"
        proc = run_subprocess("run", SHIPPED_SUITE, "--output", str(out), umask=umask)
        assert proc.returncode == 0, proc.stderr
        assert stat.S_IMODE(out.stat().st_mode) == mode

    @pytest.mark.parametrize("old", [0o600, 0o640], ids=["600", "640"])
    @pytest.mark.parametrize("argv", [
        ("run", SHIPPED_SUITE, "--output"),
        ("reduce", "nextcard_via_deccard", "--input", "w", "--ledger"),
    ], ids=["report", "ledger"])
    def test_a_replaced_file_keeps_its_mode(self, tmp_path, argv, old):
        out = tmp_path / "r.json"
        out.write_text("old\n", encoding="utf-8")
        out.chmod(old)
        proc = run_subprocess(*argv, str(out), umask=0o022)
        assert proc.returncode == 0, proc.stderr
        assert stat.S_IMODE(out.stat().st_mode) == old
        assert out.read_text(encoding="utf-8") != "old\n"
        fresh = tmp_path / "fresh.json"
        proc = run_subprocess(*argv, str(fresh), umask=0o022)
        assert proc.returncode == 0, proc.stderr
        assert stat.S_IMODE(fresh.stat().st_mode) == 0o644


class TestFileEncoding:
    """Scenarios are read, and reports and ledgers written, as UTF-8 in any
    locale."""

    def test_utf8_scenario_reads_in_the_c_locale(self, tmp_path):
        path = tmp_path / "scenario.json"
        blob = {"reduction": "powercard_via_pot", "instances": ["{{}}"],
                "note": "\u03c9 \u2192 2^\u03c9"}     # a field nothing reads
        path.write_bytes(json.dumps(blob, ensure_ascii=False).encode("utf-8"))
        proc = run_subprocess("run", str(path), env={
            "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"})
        assert proc.returncode == 0, proc.stderr
        assert "all checks passed" in proc.stdout

    @pytest.mark.parametrize("argv", [
        ["run", os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "src", "ordq", "scenarios", "nextcard_suite.json"), "--output"],
        ["reduce", "powercard_via_pot", "--input", "{{}}", "--ledger"],
    ], ids=["run-output", "reduce-ledger"])
    def test_files_name_their_encoding(self, tmp_path, argv):
        # an open() without an encoding warns under -X warn_default_encoding,
        # and -W error turns the warning into an exit 1 with a traceback
        out = tmp_path / "out.json"
        proc = run_subprocess(*argv, str(out), interpreter_flags=(
            "-X", "warn_default_encoding", "-W", "error::EncodingWarning"))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        json.loads(out.read_text(encoding="utf-8"))


class TestSelftest:
    def test_exits_zero(self, capsys):
        assert run_cli("selftest") == 0
        out = capsys.readouterr().out
        assert "suites passed" in out
        assert out.count("ok - ") == 4

    def test_a_broken_check_fails_under_dash_o(self):
        # python -O strips assert statements; the suites' checks must survive it
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        script = ("import sys, ordq.cli as c, ordq.selftest as s\n"
                  "s.left_sub = lambda a, b: a\n"
                  "sys.exit(c.main(['selftest']))\n")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "FAIL - ordinal arithmetic: left subtraction round trip" in proc.stdout
        assert "selftest: 1 of 4 suites failed" in proc.stdout
