"""Tests for the ``repro perf`` command-line front ends and exit codes."""

import io
import json
import subprocess
import sys
from functools import partial
from pathlib import Path

import repro.cli
from repro.tools.driver import main

perf_main = partial(main, "perf")

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
FIXTURES = Path(__file__).resolve().parent / "perf_fixtures"

P_CODES = ("P301", "P302", "P303", "P304", "P305", "P306")


def run_main(argv):
    out = io.StringIO()
    code = perf_main(argv, out=out)
    return code, out.getvalue()


def test_list_rules_prints_all_six_rules():
    code, output = run_main(["--list-rules"])
    assert code == 0
    for rule_code in P_CODES:
        assert rule_code in output


def test_clean_tree_exits_zero():
    code, output = run_main([str(REPO_SRC / "repro")])
    assert code == 0
    assert "0 violations" in output


def test_violating_fixture_exits_one_with_json_report():
    code, output = run_main([
        str(FIXTURES / "p301_axis_loop"), "--format", "json",
    ])
    assert code == 1
    report = json.loads(output)
    assert report["summary"]["exit_code"] == 1
    codes = {v["code"] for v in report["violations"]}
    assert codes == {"P301"}
    assert all(v["path"].endswith("bad.py")
               for v in report["violations"])


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.tools.perf", "--list-rules"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "P301" in proc.stdout


def test_repro_cli_perf_subcommand():
    out = io.StringIO()
    code = repro.cli.main(["perf", "--list-rules"], out=out)
    assert code == 0
    assert "P306" in out.getvalue()


def test_perf_suppression_with_reason_is_honored(tmp_path):
    source = FIXTURES / "p302_growth" / "bad.py"
    patched = tmp_path / "patched.py"
    patched.write_text(
        source.read_text(encoding="utf-8").replace(
            "out = np.append(out, value)  # copies the prefix every "
            "iteration",
            "out = np.append(out, value)  # repro: disable=P302 -- "
            "bounded to three items in this fixture",
        ),
        encoding="utf-8",
    )
    code, output = run_main([str(tmp_path), "--show-suppressed"])
    assert code == 1  # the list self-concatenation still fires
    assert "suppressed: bounded to three items" in output
    assert output.count("P302") == 2


def test_perf_suppression_without_reason_is_r000(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "import numpy as np\n\n\n"
        "def idle():\n"
        "    pass  # repro: disable=P301\n",
        encoding="utf-8",
    )
    code, output = run_main([str(tmp_path)])
    assert code == 1
    assert "R000" in output and "justification" in output


def test_update_spec_round_trips(tmp_path):
    pkg = FIXTURES / "p305_spec" / "pkg"
    spec = tmp_path / "spec.py"

    code, output = run_main(["--update-spec", "--spec", str(spec), str(pkg)])
    assert code == 0
    assert "wrote derived complexity of 1 estimator(s)" in output
    first = spec.read_text(encoding="utf-8")
    assert "SlowKNN" in first and "'fit'" in first

    # A check run against the freshly written spec reports no drift.
    code, output = run_main([
        str(pkg), "--spec", str(spec), "--format", "json",
    ])
    report = json.loads(output)
    assert "P305" not in {v["code"] for v in report["violations"]}

    # Regenerating is a fixed point: byte-identical output.
    code, _ = run_main(["--update-spec", "--spec", str(spec), str(pkg)])
    assert code == 0
    assert spec.read_text(encoding="utf-8") == first


def test_top_appends_ranked_hotspot_section():
    code, output = run_main([str(FIXTURES / "p301_axis_loop"), "--top", "2"])
    assert code == 1
    assert "top 2 hotspot(s) of 2 finding(s):" in output
    assert output.index("hotspot") > output.index("P301")


def test_profile_reweights_the_hotspot_ranking(tmp_path):
    # Without a profile the two P301s tie and sort by line: 8 before 15.
    # A profile charging 9s to per_sample_collect (def at line 13) must
    # put the line-15 finding on top.
    profile = tmp_path / "profile.json"
    profile.write_text(
        json.dumps([{"file": "bad.py", "line": 13, "cumtime": 9.0}]),
        encoding="utf-8",
    )
    code, plain = run_main([str(FIXTURES / "p301_axis_loop"), "--top", "1"])
    assert code == 1
    assert "bad.py:8" in plain.split("hotspot(s)")[1]
    code, ranked = run_main([
        str(FIXTURES / "p301_axis_loop"), "--top", "1",
        "--profile", str(profile),
    ])
    assert code == 1
    assert "bad.py:15" in ranked.split("hotspot(s)")[1]


def test_unreadable_profile_is_a_usage_error(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text("not json", encoding="utf-8")
    code, _ = run_main([
        str(FIXTURES / "p301_axis_loop"), "--profile", str(profile),
    ])
    assert code == 2
