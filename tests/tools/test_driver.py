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

from repro.tools.driver import ANALYZERS, analyze, known_codes, main
from repro.tools.flow.graph import FlowIndex
from repro.tools.indexing import load_indexed_project
from repro.tools.lint import ENGINE_CODE, lint_paths
from repro.tools.lint.engine import EstimatorSpecRule, load_spec
from repro.tools.perf import complexity
from repro.tools.shape import contracts

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
TOOLS_TESTS = Path(__file__).resolve().parent

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


#: The estimator-spec rules: analyzer -> (fixture package, renderer,
#: the rule's wording of each case the shared spec diff yields).
ESTIMATOR_SPECS = {
    "perf": (
        TOOLS_TESTS / "perf_fixtures" / "p305_spec" / "pkg",
        complexity.render_spec,
        {
            "missing": "complexity spec is missing or unreadable at "
                       "{path}; run `repro perf --update-spec`",
            "unrecorded": "estimator {cls} is not in the complexity spec; "
                          "run `repro perf --update-spec` to record its "
                          "derived cost {derived!r}",
            "differs": "derived complexity of {cls} ({derived!r}) "
                       "disagrees with the spec ({changed!r}); vectorize "
                       "back to the recorded depth or run `repro perf "
                       "--update-spec` to accept the change",
            "stale": "spec entry {stale} matches no analyzed estimator "
                     "(renamed or removed); run `repro perf "
                     "--update-spec` to drop it",
        },
    ),
    "shape": (
        TOOLS_TESTS / "shape_fixtures" / "s405_contract" / "pkg",
        contracts.render_spec,
        {
            "missing": "array-contract spec is missing or unreadable at "
                       "{path}; run `repro shape --update-spec`",
            "unrecorded": "estimator {cls} is not in the array-contract "
                          "spec; run `repro shape --update-spec` to "
                          "record its derived contract",
            "differs": "derived array contract of {cls} disagrees with "
                       "the spec on fit; restore the recorded contract "
                       "or run `repro shape --update-spec` to accept the "
                       "change",
            "stale": "spec entry {stale} matches no analyzed estimator "
                     "(renamed or removed); run `repro shape "
                     "--update-spec` to drop it",
        },
    ),
}


@pytest.mark.parametrize("name", list(ESTIMATOR_SPECS))
def test_estimator_spec_diff_words_its_four_cases(name, tmp_path):
    pkg, render, wording = ESTIMATOR_SPECS[name]
    rule = next(rule for rule in ANALYZERS[name].rules()
                if isinstance(rule, EstimatorSpecRule))
    loaded = load_indexed_project([pkg], root=pkg, context_paths=())
    derived = rule.derive(ANALYZERS[name].model(loaded))
    (cls, entry), = derived.items()
    stale = f"{cls.rpartition('.')[0]}.Gone"
    if name == "perf":
        changed = {**entry, "fit": {"samples": 3}}
    else:
        changed = {**entry, "fit": {**entry["fit"], "out_dtype": "object"}}

    def messages(spec, path):
        if spec is not None:
            path.write_text(render(spec), encoding="utf-8")
        result = analyze(name, [pkg], rules=[type(rule)()], root=pkg,
                         context_paths=(), spec_path=path)
        return [v.message for v in result.violations]

    fields = dict(cls=cls, derived=entry, changed=changed, stale=stale,
                  path=tmp_path / "absent.py")
    assert messages(None, tmp_path / "absent.py") == [
        wording["missing"].format(**fields)]
    assert messages({}, tmp_path / "empty.py") == [
        wording["unrecorded"].format(**fields)]
    assert sorted(messages({cls: changed, stale: entry},
                           tmp_path / "drift.py")) == [
        wording["differs"].format(**fields),
        wording["stale"].format(**fields)]
    assert messages(derived, tmp_path / "match.py") == []


@pytest.mark.parametrize("name, variable", [
    ("perf", "COMPLEXITY"),
    ("shape", "ARRAY_CONTRACTS"),
    ("wire", "WIRE_SPEC"),
])
def test_load_spec_reads_only_a_dict_literal(name, variable, tmp_path):
    checked_in = load_spec(ANALYZERS[name].spec_path, variable)
    assert isinstance(checked_in, dict) and checked_in
    unparseable = tmp_path / "unparseable.py"
    unparseable.write_text(f"{variable} = {{\n", encoding="utf-8")
    not_a_dict = tmp_path / "list.py"
    not_a_dict.write_text(f"{variable} = [1, 2]\n", encoding="utf-8")
    not_literal = tmp_path / "call.py"
    not_literal.write_text(f"{variable} = dict(a=1)\n", encoding="utf-8")
    for path in (tmp_path / "missing.py", unparseable, not_a_dict,
                 not_literal):
        assert load_spec(path, variable) is None, path.name


def test_the_call_target_map_is_built_once_per_index(tmp_path,
                                                      monkeypatch):
    calls, builds = [], []
    original = FlowIndex.call_targets

    def counting(self):
        calls.append(self)
        if self._call_targets is None:
            builds.append(self)
        return original(self)

    monkeypatch.setattr(FlowIndex, "call_targets", counting)
    (tmp_path / "mod.py").write_text(
        "def helper(X):\n    return X\n\n\n"
        "def fit(X):\n    for row in X:\n        helper(row)\n",
        encoding="utf-8")
    loaded = load_indexed_project([tmp_path], root=tmp_path,
                                  context_paths=())
    loaded.loop_model().depth_summary()
    loaded.shape_model().validated_params()
    loaded.concurrency_model()
    assert builds == [loaded.index]
    assert len(calls) >= 3  # perf, shape and race all read it
    assert ("mod", "helper") in loaded.index.call_targets().values()
