"""Command line behavior: expression grammar, exit codes, ledger files,
scenario validation, and byte-stable output."""

import json
import os

import pytest

import ordq
from ordq import cli
from ordq import universe as u
from ordq.ordcalc import parse_ordinal as P, render


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

    def test_wrong_field_type_exits_2(self, capsys, tmp_path):
        path = self.scenario(tmp_path, budget="lots")
        assert run_cli("run", path) == 2
        assert "budget" in capsys.readouterr().err

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
        path = os.path.join(os.path.dirname(ordq.__file__),
                            "scenarios", "nextcard_suite.json")
        assert os.path.exists(path)
        assert run_cli("run", path) == 0
        assert "all checks passed" in capsys.readouterr().out


class TestSelftest:
    def test_exits_zero(self, capsys):
        assert run_cli("selftest") == 0
        out = capsys.readouterr().out
        assert "suites passed" in out
        assert out.count("ok - ") == 4
