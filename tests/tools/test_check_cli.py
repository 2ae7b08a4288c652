"""Tests for ``repro check``: six analyzers, one parse, one report."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli
from repro.tools.check.cli import main as check_main
from repro.tools.check.runner import TOOL_NAMES, run_check
from repro.tools.exitcodes import EXIT_CRASH, EXIT_FINDINGS, EXIT_USAGE

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
FIXTURES = Path(__file__).resolve().parent


def run_main(argv):
    out = io.StringIO()
    code = check_main(argv, out=out)
    return code, out.getvalue()


def test_clean_tree_exits_zero_with_all_six_sections():
    code, output = run_main([str(REPO_SRC / "repro")])
    assert code == 0
    for name in TOOL_NAMES:
        assert f"== repro {name} ==" in output
    assert "across 6 analyzer(s)" in output


def test_merged_json_nests_every_tool_and_totals_the_summary():
    code, output = run_main([
        str(FIXTURES / "wire_fixtures" / "w503_lifecycle"),
        "--format", "json",
    ])
    assert code == EXIT_FINDINGS
    report = json.loads(output)
    assert sorted(report["tools"]) == sorted(TOOL_NAMES)
    assert report["summary"]["exit_code"] == EXIT_FINDINGS
    assert report["summary"]["crashed"] == []
    per_tool = sum(len(report["tools"][name]["violations"])
                   for name in TOOL_NAMES)
    assert report["summary"]["violations"] == per_tool
    wire = report["tools"]["wire"]
    assert {v["code"] for v in wire["violations"]} == {"W503"}


def test_tools_subset_runs_only_the_named_analyzers():
    code, output = run_main([
        str(FIXTURES / "wire_fixtures" / "w503_lifecycle"),
        "--tools", "lint,wire", "--format", "json",
    ])
    report = json.loads(output)
    assert sorted(report["tools"]) == ["lint", "wire"]


def test_unknown_tool_is_a_usage_error(capsys):
    code, _ = run_main([
        str(REPO_SRC / "repro"), "--tools", "lint,quantum",
    ])
    assert code == EXIT_USAGE
    assert "unknown analyzer(s): quantum" in capsys.readouterr().err


@pytest.mark.parametrize("selection", [",", " , ", ""])
def test_an_empty_tool_selection_is_a_usage_error(selection, tmp_path,
                                                   capsys):
    # A selection naming no analyzer must not pass as a green gate, even
    # on a tree with findings.
    (tmp_path / "dirty.py").write_text(
        "import random\n\nVALUE = random.random()\n"
        "FLAG = random.randint(0, 1)\n", encoding="utf-8")
    assert run_main([str(tmp_path), "--tools", "lint"])[0] == EXIT_FINDINGS
    code, output = run_main([str(tmp_path), "--tools", selection])
    assert code == EXIT_USAGE
    assert output == ""
    assert "--tools names no analyzer" in capsys.readouterr().err


@pytest.mark.parametrize("tools, message", [
    ([], "--tools names no analyzer"),
    (["lnt"], "unknown analyzer(s): lnt"),
    (["lint", "quantum"], "unknown analyzer(s): quantum"),
], ids=["empty", "misspelled", "one-unknown"])
def test_run_check_rejects_a_selection_that_runs_nothing_known(tools,
                                                                message):
    # The Python API must not pass vacuously either: this tree has a
    # W503 finding.
    with pytest.raises(ValueError) as excinfo:
        run_check([FIXTURES / "wire_fixtures" / "w503_lifecycle"],
                  tools=tools)
    assert str(excinfo.value).startswith(message)


def test_nonexistent_path_is_a_usage_error():
    code, _ = run_main(["definitely/not/a/path"])
    assert code == EXIT_USAGE


def test_artifacts_dir_gets_one_report_per_tool(tmp_path):
    artifacts = tmp_path / "reports"
    code, output = run_main([
        str(FIXTURES / "wire_fixtures" / "w503_lifecycle"),
        "--tools", "shape,wire", "--artifacts-dir", str(artifacts),
        "--format", "json",
    ])
    written = sorted(p.name for p in artifacts.iterdir())
    assert written == ["shape-report.json", "wire-report.json"]
    wire = json.loads((artifacts / "wire-report.json").read_text())
    assert wire["summary"]["exit_code"] == EXIT_FINDINGS


def test_a_crashing_tool_reports_exit_three_without_silencing_others(
        monkeypatch):
    import repro.tools.check.runner as check_runner

    def boom(loaded):
        raise RuntimeError("synthetic lint crash")

    monkeypatch.setattr(check_runner, "_run_lint_shared", boom)
    report = run_check([REPO_SRC / "repro"])
    assert report.exit_code == EXIT_CRASH
    assert "synthetic lint crash" in report.crashes["lint"]
    assert "lint" not in report.results
    # The other five analyzers still delivered their results.
    assert sorted(report.results) == ["flow", "perf", "race", "shape",
                                      "wire"]


def test_worst_exit_code_wins_across_tools():
    # The fixture only trips wire; every other analyzer is clean, and
    # the merged exit code is still 1.
    report = run_check([FIXTURES / "wire_fixtures" / "w503_lifecycle"],
                       root=FIXTURES / "wire_fixtures" / "w503_lifecycle")
    assert report.results["wire"].exit_code == EXIT_FINDINGS
    assert report.results["lint"].exit_code in (0, 1)
    assert report.exit_code >= EXIT_FINDINGS


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.check",
         str(REPO_SRC / "repro"), "--tools", "lint"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "== repro lint ==" in proc.stdout


def test_repro_cli_check_subcommand():
    out = io.StringIO()
    code = repro.cli.main(
        ["check", str(REPO_SRC / "repro"), "--tools", "wire"], out=out)
    assert code == 0
    assert "== repro wire ==" in out.getvalue()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_show_suppressed_flows_through_to_every_tool(fmt):
    code, output = run_main([
        str(REPO_SRC / "repro"), "--show-suppressed", "--format", fmt,
    ])
    assert code == 0
    assert "suppressed" in output
