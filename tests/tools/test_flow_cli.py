"""Tests for the ``repro flow`` command-line front ends and exit codes."""

import io
import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import repro.cli
from repro.tools.driver import main

flow_main = partial(main, "flow")

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
FIXTURES = Path(__file__).resolve().parent / "flow_fixtures"


def run_main(argv):
    out = io.StringIO()
    code = flow_main(argv, out=out)
    return code, out.getvalue()


def test_list_rules_prints_all_five_families():
    code, output = run_main(["--list-rules"])
    assert code == 0
    for rule_code in ("F101", "F102", "F103", "F104", "F105"):
        assert rule_code in output


def test_clean_tree_exits_zero():
    code, output = run_main([str(REPO_SRC / "repro")])
    assert code == 0
    assert "0 violations" in output


def test_violating_fixture_exits_one_with_json_report(tmp_path):
    # Analyze only the F103 fixture: self-contained, no spec needed for
    # the other families because F105 needs --spec to find drift.
    spec = tmp_path / "spec.json"
    code, _ = run_main([
        str(FIXTURES / "f103_seed"), "--update-spec", "--spec", str(spec),
    ])
    assert code == 0 and spec.exists()
    code, output = run_main([
        str(FIXTURES / "f103_seed"), "--format", "json", "--spec", str(spec),
    ])
    assert code == 1
    report = json.loads(output)
    assert report["summary"]["exit_code"] == 1
    codes = {v["code"] for v in report["violations"]}
    assert codes == {"F103"}


def test_update_spec_then_rerun_is_clean(tmp_path):
    spec = tmp_path / "api_spec.json"
    fixture = tmp_path / "tree"
    shutil.copytree(FIXTURES / "f105_drift" / "repro", fixture / "repro")
    code, output = run_main([str(fixture), "--update-spec", "--spec", str(spec)])
    assert code == 0
    assert "wrote API surface" in output
    code, _ = run_main([str(fixture), "--spec", str(spec)])
    assert code == 0
    # Drift the tree: the rerun must now fail with F105.
    surface = fixture / "repro" / "learn" / "surface.py"
    surface.write_text(
        surface.read_text(encoding="utf-8").replace(
            "threshold=0.5", "threshold=0.75"
        ),
        encoding="utf-8",
    )
    code, output = run_main([
        str(fixture), "--spec", str(spec), "--format", "json",
    ])
    assert code == 1
    report = json.loads(output)
    assert any(v["code"] == "F105" for v in report["violations"])


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.flow", "--list-rules"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "F101" in proc.stdout


def test_repro_cli_flow_subcommand():
    out = io.StringIO()
    code = repro.cli.main(["flow", "--list-rules"], out=out)
    assert code == 0
    assert "F104" in out.getvalue()


def test_show_suppressed_includes_justified_suppressions():
    code, output = run_main([
        str(FIXTURES / "f102_leak"), "--show-suppressed",
    ])
    assert code == 1  # the unsuppressed leaks in leaky.py
    assert "suppressed:" in output
    assert "calibration" in output
