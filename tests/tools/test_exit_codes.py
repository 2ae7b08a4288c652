"""The shared exit-code taxonomy, enforced across all six analyzers.

Every CLI — ``repro lint``/``flow``/``race``/``perf``/``shape``/
``wire`` plus the combined ``repro check`` driver — must agree on what
its exit code means: 0 clean, 1 findings, 2 usage error, 3 the
analyzer itself crashed.  CI and the pre-commit hook branch on these,
so they are part of the tools' contract, not an implementation detail.
"""

import io
from functools import partial
from pathlib import Path

import pytest

import repro.cli
import repro.tools.check.cli as check_cli
from repro.tools import driver
from repro.tools.driver import ANALYZERS
from repro.tools.exitcodes import (
    EXIT_CLEAN,
    EXIT_CRASH,
    EXIT_FINDINGS,
    EXIT_USAGE,
    run_guarded,
)

FIXTURES = Path(__file__).resolve().parent / "perf_fixtures"

#: ``repro check`` shares the taxonomy but has no ``--list-rules``.
ALL_TOOLS = [*ANALYZERS, "check"]


def tool_main(name):
    """The ``python -m repro.tools.<name>`` entry point."""
    return check_cli.main if name == "check" else partial(driver.main, name)


def test_the_taxonomy_constants():
    assert (EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, EXIT_CRASH) == (0, 1, 2, 3)


@pytest.mark.parametrize("name", ALL_TOOLS)
def test_nonexistent_path_is_usage_error_everywhere(name, capsys):
    code = tool_main(name)(["definitely/not/a/path"], out=io.StringIO())
    assert code == EXIT_USAGE
    assert "no such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize("name", ALL_TOOLS)
def test_no_python_files_is_usage_error_everywhere(name, tmp_path, capsys):
    code = tool_main(name)([str(tmp_path)], out=io.StringIO())
    assert code == EXIT_USAGE
    assert "no python files found" in capsys.readouterr().err


@pytest.mark.parametrize("name", list(ANALYZERS))
def test_list_rules_is_clean_everywhere(name):
    out = io.StringIO()
    code = tool_main(name)(["--list-rules"], out=out)
    assert code == EXIT_CLEAN
    printed = [line.split()[0] for line in out.getvalue().splitlines()]
    assert printed == [rule.code for rule in ANALYZERS[name].rules()]


@pytest.mark.parametrize("name", ALL_TOOLS)
def test_analyzer_crash_is_exit_3_everywhere(name, monkeypatch, capsys):
    def boom(args, out=None):
        raise RuntimeError("synthetic analyzer crash")

    if name == "check":
        monkeypatch.setattr(check_cli, "run_check_command", boom)
    else:
        monkeypatch.setattr(driver, "run_command", boom)
    code = tool_main(name)([str(FIXTURES / "p301_axis_loop")],
                           out=io.StringIO())
    assert code == EXIT_CRASH
    err = capsys.readouterr().err
    assert "internal error" in err
    assert "synthetic analyzer crash" in err  # traceback reaches the user


@pytest.mark.parametrize("subcommand", ALL_TOOLS)
def test_repro_cli_propagates_usage_errors(subcommand):
    code = repro.cli.main(
        [subcommand, "definitely/not/a/path"], out=io.StringIO())
    assert code == EXIT_USAGE


def test_findings_exit_one_through_the_perf_cli():
    code = tool_main("perf")([str(FIXTURES / "p302_growth")],
                             out=io.StringIO())
    assert code == EXIT_FINDINGS


def test_findings_exit_one_through_the_shape_cli():
    fixtures = FIXTURES.parent / "shape_fixtures"
    code = tool_main("shape")(
        [str(fixtures / "s401_shape")], out=io.StringIO())
    assert code == EXIT_FINDINGS


def test_findings_exit_one_through_the_wire_cli():
    fixtures = FIXTURES.parent / "wire_fixtures"
    code = tool_main("wire")(
        [str(fixtures / "w503_lifecycle")], out=io.StringIO())
    assert code == EXIT_FINDINGS


def test_findings_exit_one_through_the_check_cli():
    fixtures = FIXTURES.parent / "wire_fixtures"
    code = tool_main("check")(
        [str(fixtures / "w503_lifecycle")], out=io.StringIO())
    assert code == EXIT_FINDINGS


class _ClosedPipe(io.StringIO):
    """An output stream whose reader has gone away (``| head``)."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("name", ALL_TOOLS)
def test_closed_output_stream_is_usage_error_not_crash(name, capsys):
    argv = [str(FIXTURES / "p301_axis_loop")] if name == "check" \
        else ["--list-rules"]
    code = tool_main(name)(argv, out=_ClosedPipe())
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "Traceback" not in err


def test_run_guarded_reraises_control_flow_exits():
    def bail(args, out=None):
        raise SystemExit(7)

    with pytest.raises(SystemExit):
        run_guarded(bail, None)


# -- the serving subcommands share the same taxonomy ---------------------


def test_loadgen_clean_run_exits_zero(tmp_path):
    report_path = tmp_path / "report.json"
    out = io.StringIO()
    code = repro.cli.main([
        "loadgen", "--loopback", "--platform", "bigml",
        "--clients", "2", "--predicts", "1", "--seed", "3",
        "--samples", "24", "--compare-serial",
        "--output", str(report_path),
    ], out=out)
    assert code == EXIT_CLEAN
    import json

    report = json.loads(report_path.read_text())
    assert report["requests_failed"] == 0
    assert report["serial_equivalent"] is True
    assert report["overall_latency"]["p99"] >= report["overall_latency"]["p50"]


def test_loadgen_usage_errors_exit_two(capsys):
    # argparse rejects a missing target (--url/--loopback) with SystemExit 2.
    with pytest.raises(SystemExit) as excinfo:
        repro.cli.main(["loadgen", "--clients", "2"], out=io.StringIO())
    assert excinfo.value.code == EXIT_USAGE
    # Config validation failures map to the same usage exit code.
    code = repro.cli.main(
        ["loadgen", "--loopback", "--clients", "0"], out=io.StringIO())
    assert code == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_loadgen_failed_requests_exit_one(capsys):
    # An unreachable server: every request fails, reported as findings.
    code = repro.cli.main([
        "loadgen", "--url", "http://127.0.0.1:9",  # port 9: discard
        "--platform", "bigml", "--clients", "1", "--predicts", "0",
    ], out=io.StringIO())
    assert code == EXIT_FINDINGS
    assert "requests failed" in capsys.readouterr().err


def test_serve_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        repro.cli.main(["serve", "--platform", "quantum"],
                       out=io.StringIO())
    assert excinfo.value.code == EXIT_USAGE
    code = repro.cli.main(["serve", "--max-body-bytes", "0"],
                          out=io.StringIO())
    assert code == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_serve_request_budget_run_exits_zero():
    import threading

    out = io.StringIO()
    codes = []

    def serve():
        codes.append(repro.cli.main([
            "serve", "--platform", "bigml", "--port", "0",
            "--max-requests", "2",
        ], out=out))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    url = None
    for _ in range(200):
        text = out.getvalue()
        if " at http://" in text:
            url = text.split(" at ")[1].split()[0]
            break
        thread.join(timeout=0.05)
    assert url is not None, f"server never announced itself: {out.getvalue()!r}"

    from repro.serving import HTTPPlatformClient

    client = HTTPPlatformClient(url, "bigml")
    assert client.health()["status"] == "ok"
    assert client.health()["status"] == "ok"
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert codes == [EXIT_CLEAN]
