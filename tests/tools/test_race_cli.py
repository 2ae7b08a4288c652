"""Tests for the ``repro race`` command-line front ends and exit codes."""

import io
import json
import subprocess
import sys
from functools import partial
from pathlib import Path

import repro.cli
from repro.tools.driver import main

race_main = partial(main, "race")

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
FIXTURES = Path(__file__).resolve().parent / "race_fixtures"

C_CODES = ("C201", "C202", "C203", "C204", "C205", "C206")


def run_main(argv):
    out = io.StringIO()
    code = race_main(argv, out=out)
    return code, out.getvalue()


def test_list_rules_prints_all_six_rules():
    code, output = run_main(["--list-rules"])
    assert code == 0
    for rule_code in C_CODES:
        assert rule_code in output


def test_clean_tree_exits_zero():
    code, output = run_main([str(REPO_SRC / "repro")])
    assert code == 0
    assert "0 violations" in output


def test_violating_fixture_exits_one_with_json_report():
    code, output = run_main([
        str(FIXTURES / "c203_check_then_act"), "--format", "json",
    ])
    assert code == 1
    report = json.loads(output)
    assert report["summary"]["exit_code"] == 1
    codes = {v["code"] for v in report["violations"]}
    assert codes == {"C203"}
    assert all(v["path"].endswith("bad.py")
               for v in report["violations"])


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.race", "--list-rules"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "C201" in proc.stdout


def test_repro_cli_race_subcommand():
    out = io.StringIO()
    code = repro.cli.main(["race", "--list-rules"], out=out)
    assert code == 0
    assert "C206" in out.getvalue()


def test_race_suppression_with_reason_is_honored(tmp_path):
    source = FIXTURES / "c203_check_then_act" / "bad.py"
    patched = tmp_path / "patched.py"
    patched.write_text(
        source.read_text(encoding="utf-8").replace(
            "if item is None:  # another thread can insert between check "
            "and store",
            "if item is None:  # repro: disable=C203 -- single-writer "
            "phase, documented in the fixture",
        ),
        encoding="utf-8",
    )
    code, output = run_main([str(tmp_path), "--show-suppressed"])
    assert code == 1  # ensure_membership still fires
    assert "suppressed: single-writer phase" in output
    assert output.count("C203") == 2


def test_race_suppression_without_reason_is_r000(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "import threading\n\n\n"
        "def idle():\n"
        "    pass  # repro: disable=C205\n",
        encoding="utf-8",
    )
    code, output = run_main([str(tmp_path)])
    assert code == 1
    assert "R000" in output and "justification" in output
