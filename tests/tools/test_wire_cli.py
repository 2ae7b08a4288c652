"""Tests for the ``repro wire`` command-line front ends and exit codes."""

import io
import json
import subprocess
import sys
from functools import partial
from pathlib import Path

import repro.cli
from repro.tools.driver import main

wire_main = partial(main, "wire")

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
FIXTURES = Path(__file__).resolve().parent / "wire_fixtures"

W_CODES = ("W501", "W502", "W503", "W504", "W505", "W506")


def run_main(argv):
    out = io.StringIO()
    code = wire_main(argv, out=out)
    return code, out.getvalue()


def test_list_rules_prints_all_six_rules():
    code, output = run_main(["--list-rules"])
    assert code == 0
    for rule_code in W_CODES:
        assert rule_code in output


def test_clean_tree_exits_zero():
    code, output = run_main([str(REPO_SRC / "repro")])
    assert code == 0
    assert "0 violations" in output


def test_violating_fixture_exits_one_with_json_report():
    code, output = run_main([
        str(FIXTURES / "w503_lifecycle"), "--format", "json",
    ])
    assert code == 1
    report = json.loads(output)
    assert report["summary"]["exit_code"] == 1
    codes = {v["code"] for v in report["violations"]}
    assert codes == {"W503"}
    assert all(v["path"].endswith("bad.py")
               for v in report["violations"])


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.wire", "--list-rules"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "W501" in proc.stdout


def test_repro_cli_wire_subcommand():
    out = io.StringIO()
    code = repro.cli.main(["wire", "--list-rules"], out=out)
    assert code == 0
    assert "W506" in out.getvalue()


def test_wire_suppression_with_reason_is_honored(tmp_path):
    source = FIXTURES / "w503_lifecycle" / "bad.py"
    patched = tmp_path / "patched.py"
    patched.write_text(
        source.read_text(encoding="utf-8").replace(
            "    handle = open(path)",
            "    handle = open(path)  # repro: disable=W503 -- "
            "fixture documents the leak",
        ),
        encoding="utf-8",
    )
    code, output = run_main([str(tmp_path), "--show-suppressed"])
    assert code == 1  # the socket and thread leaks still fire
    assert "suppressed: fixture documents the leak" in output
    assert output.count("W503") == 3


def test_wire_suppression_without_reason_is_r000(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        '"""Mod."""\n\n\n'
        "def idle():\n"
        "    pass  # repro: disable=W503\n",
        encoding="utf-8",
    )
    code, output = run_main([str(tmp_path)])
    assert code == 1
    assert "R000" in output and "justification" in output


def test_update_spec_round_trips(tmp_path):
    pkg = FIXTURES / "w501_contract" / "pkg"
    spec = tmp_path / "spec.py"

    code, output = run_main(["--update-spec", "--spec", str(spec), str(pkg)])
    assert code == 0
    assert "wrote derived wire contract (2 route(s), 4 client method(s), " \
        "0 error kind(s))" in output
    first = spec.read_text(encoding="utf-8")
    assert "'GET /health'" in first and "'predict'" in first

    # A check run against the freshly written spec reports no drift —
    # only the fixture's deliberate client/server cross-findings remain.
    code, output = run_main([
        str(pkg), "--spec", str(spec), "--format", "json",
    ])
    report = json.loads(output)
    messages = [v["message"] for v in report["violations"]]
    assert not any("spec" in message for message in messages)

    # Regenerating is a fixed point: byte-identical output.
    code, _ = run_main(["--update-spec", "--spec", str(spec), str(pkg)])
    assert code == 0
    assert spec.read_text(encoding="utf-8") == first


def test_fixture_spec_match_is_update_spec_output(tmp_path):
    # The checked-in fixture specs are real --update-spec output, so
    # the drift fixtures stay one recorded fact away from reality.
    pkg = FIXTURES / "w506_metrics" / "pkg"
    spec = tmp_path / "spec.py"
    code, _ = run_main(["--update-spec", "--spec", str(spec), str(pkg)])
    assert code == 0
    assert spec.read_text(encoding="utf-8") == \
        (FIXTURES / "w506_metrics" / "spec_match.py").read_text(
            encoding="utf-8")
