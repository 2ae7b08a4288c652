"""Dogfood gate: the repro source tree must satisfy its own C-rules.

This enforces the concurrency invariants documented in DESIGN.md §7.2:
a consistent lock order (C201), no off-lock writes from worker threads
(C202), atomic check-then-act on shared mappings (C203), picklable
process-pool boundaries (C204), no blocking while holding a lock
(C205), and no RNG object shared between concurrent workers (C206).
A failure here means a change put the campaign scheduler's or parallel
grid search's bit-identical-to-serial determinism contract at risk —
run ``repro race`` for the full report; genuinely safe sites need a
``# repro: disable=C2xx -- invariant`` comment stating why.
"""

from pathlib import Path

import repro
from repro.tools.race import race_paths

SOURCE_ROOT = Path(repro.__file__).resolve().parent


def test_source_tree_has_no_unsuppressed_race_violations():
    result = race_paths([SOURCE_ROOT])
    report = "\n".join(
        f"{v.location}: {v.code} {v.message}" for v in result.unsuppressed
    )
    assert result.unsuppressed == [], f"repro race found:\n{report}"
    assert result.n_files > 50  # the whole tree was actually scanned


def test_every_race_suppression_carries_a_reason():
    result = race_paths([SOURCE_ROOT])
    for violation in result.suppressed:
        assert violation.reason, (
            f"{violation.location}: suppressed {violation.code} without a "
            "reason (use '# repro: disable=CODE -- why')"
        )


def test_the_analyzer_still_sees_the_concurrent_code():
    # Guard against the gate passing vacuously: the model must contain
    # the scheduler's worker closure, its locks, and the known (documented)
    # suppressions in the service layer.
    from repro.tools.flow import build_flow_index
    from repro.tools.race.concurrency import build_concurrency

    index = build_flow_index([SOURCE_ROOT])
    con = build_concurrency(index)
    worker = con.facts[
        ("repro.service.scheduler", "CampaignScheduler._execute.<locals>.worker")
    ]
    assert worker.is_thread_target
    assert any(str(lock).endswith("Telemetry._lock")
               for lock in con.lock_kinds)

    result = race_paths([SOURCE_ROOT])
    suppressed_codes = {v.code for v in result.suppressed}
    assert "C203" in suppressed_codes  # telemetry private helpers
