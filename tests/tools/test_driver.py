"""The analyzer registry and the one driver every analyzer runs through.

The six analyzers share a command line, a rule loop and a suppression
vocabulary, so what those do is tested once here, parametrized over
the registry; each ``test_<tool>_cli.py`` keeps only what is specific
to its tool.
"""

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.tools.driver import ANALYZERS, known_codes, main
from repro.tools.lint import ENGINE_CODE, lint_paths

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

_DIRTY = textwrap.dedent("""
    import numpy as np

    __all__ = ["sample"]


    def sample():
        \"\"\"Draw without a seed (deliberately violates R001).\"\"\"
        return np.random.default_rng()
""")


def test_each_rule_code_belongs_to_exactly_one_analyzer():
    owners = {}
    for name, analyzer in ANALYZERS.items():
        for rule in analyzer.rules():
            assert rule.code not in owners, (rule.code, owners[rule.code])
            owners[rule.code] = name
    assert known_codes() == set(owners) | {ENGINE_CODE}


@pytest.mark.parametrize("name", list(ANALYZERS))
def test_json_report_is_parseable_everywhere(name, tmp_path):
    (tmp_path / "dirty.py").write_text(_DIRTY, encoding="utf-8")
    out = io.StringIO()
    code = main(name, ["--format", "json", str(tmp_path)], out=out)
    report = json.loads(out.getvalue())
    assert report["summary"]["exit_code"] == code
    assert report["summary"]["files"] == 1
    assert report["summary"]["violations"] == len(report["violations"])
    if name == "lint":
        assert [v["code"] for v in report["violations"]] == ["R001"]


@pytest.mark.parametrize(
    "name", [name for name, analyzer in ANALYZERS.items()
             if analyzer.spec_path is not None])
def test_update_spec_is_a_fixed_point(name, tmp_path):
    # Rederiving the real tree must reproduce the committed spec byte
    # for byte, so `--update-spec` never churns the diff.
    checked_in = ANALYZERS[name].spec_path
    spec = tmp_path / checked_in.name
    code = main(name, ["--update-spec", "--spec", str(spec),
                       str(REPO_SRC / "repro")], out=io.StringIO())
    assert code == 0
    assert spec.read_text(encoding="utf-8") == \
        checked_in.read_text(encoding="utf-8")


def test_lint_never_builds_the_flow_index(tmp_path, monkeypatch):
    import repro.tools.flow.graph as graph

    def refuse(*args, **kwargs):
        raise AssertionError("lint built a flow index it never reads")

    monkeypatch.setattr(graph, "build_index", refuse)
    (tmp_path / "dirty.py").write_text(_DIRTY, encoding="utf-8")
    result = lint_paths([tmp_path])
    assert [v.code for v in result.violations] == ["R001"]
