"""Cross-tool suppression round-trip: one comment syntax, six analyzers.

``repro lint``, ``repro flow``, ``repro race``, ``repro perf``,
``repro shape``, and ``repro wire`` share the ``# repro: disable=CODE
-- reason`` syntax in one source tree, so each tool must treat the
other tools' codes as *known* (no R000 unknown-code finding) while
still reporting a genuinely unknown code.
"""

import pytest

from repro.tools.driver import ANALYZERS, analyze
from repro.tools.flow import flow_paths
from repro.tools.lint import lint_paths
from repro.tools.perf import perf_paths
from repro.tools.race import race_paths
from repro.tools.shape import shape_paths
from repro.tools.wire import wire_paths


def write_tree(tmp_path, body):
    (tmp_path / "mod.py").write_text(body, encoding="utf-8")
    return tmp_path


def r000_messages(result):
    return [v.message for v in result.unsuppressed if v.code == "R000"]


SOURCE_WITH_COMPANION_SUPPRESSIONS = '''\
"""Module carrying suppressions owned by all six analyzers."""

__all__ = ["work"]


def work(items):
    total = 0  # repro: disable=R001 -- lint-owned code, documented
    for item in items:  # repro: disable=F104 -- flow-owned code, documented
        total += item  # repro: disable=C202 -- race-owned code, documented
    # repro: disable=P301 -- perf-owned code, documented
    # repro: disable=S403 -- shape-owned code, documented
    # repro: disable=W503 -- wire-owned code, documented
    return total
'''


def test_lint_accepts_flow_race_perf_and_shape_codes(tmp_path):
    tree = write_tree(tmp_path, SOURCE_WITH_COMPANION_SUPPRESSIONS)
    result = lint_paths([tree], root=tree)
    assert r000_messages(result) == []


def test_flow_accepts_lint_race_perf_and_shape_codes(tmp_path):
    tree = write_tree(tmp_path, SOURCE_WITH_COMPANION_SUPPRESSIONS)
    result = flow_paths([tree], root=tree, context_paths=())
    assert r000_messages(result) == []


def test_race_accepts_lint_flow_perf_and_shape_codes(tmp_path):
    tree = write_tree(tmp_path, SOURCE_WITH_COMPANION_SUPPRESSIONS)
    result = race_paths([tree], root=tree, context_paths=())
    assert r000_messages(result) == []


def test_perf_accepts_lint_flow_race_and_shape_codes(tmp_path):
    tree = write_tree(tmp_path, SOURCE_WITH_COMPANION_SUPPRESSIONS)
    result = perf_paths([tree], root=tree, context_paths=())
    assert r000_messages(result) == []


def test_shape_accepts_lint_flow_race_and_perf_codes(tmp_path):
    tree = write_tree(tmp_path, SOURCE_WITH_COMPANION_SUPPRESSIONS)
    result = shape_paths([tree], root=tree, context_paths=())
    assert r000_messages(result) == []


def test_wire_accepts_the_other_five_tools_codes(tmp_path):
    tree = write_tree(tmp_path, SOURCE_WITH_COMPANION_SUPPRESSIONS)
    result = wire_paths([tree], root=tree, context_paths=())
    assert r000_messages(result) == []


@pytest.mark.parametrize("name", list(ANALYZERS))
def test_every_analyzer_rejects_a_truly_unknown_code(name, tmp_path):
    tree = write_tree(tmp_path, (
        '"""Module with a bogus suppression code."""\n\n'
        '__all__ = []\n\n'
        'VALUE = 1  # repro: disable=Z999 -- no tool owns this code\n'
    ))
    result = analyze(name, [tree], root=tree, context_paths=())
    assert any("Z999" in message for message in r000_messages(result))


@pytest.mark.parametrize("name", list(ANALYZERS))
def test_every_analyzer_accepts_every_registered_code(name, tmp_path):
    codes = sorted(rule.code for analyzer in ANALYZERS.values()
                   for rule in analyzer.rules())
    body = "".join(f"# repro: disable={code} -- owned by a registered "
                   f"analyzer\n" for code in codes)
    tree = write_tree(tmp_path, f'"""All codes."""\n\n__all__ = []\n{body}')
    result = analyze(name, [tree], root=tree, context_paths=())
    assert r000_messages(result) == []
