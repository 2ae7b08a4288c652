"""Dogfood gate: the repro source tree must satisfy its own W-rules.

This enforces the wire-contract invariants documented in DESIGN.md
§7.5: derived routes and client expectations matching each other and
the checked-in ``wire_spec.py`` (W501), a complete round-trippable
error taxonomy (W502), no resource acquired without exception-path
protection (W503), nothing JSON-unsafe reaching a protocol encode
site (W504), no indefinitely blocking call reachable from a gateway
handler (W505), and a ``/metrics/summary`` surface matching the spec
(W506).  A failure here means a change moved the HTTP surface, raised
a new unmapped error kind, or leaked a resource without recording or
fixing it — run ``repro wire`` for the full report; intentional
contract changes are recorded with ``repro wire --update-spec``.
"""

from pathlib import Path

import repro
from repro.tools.wire import wire_paths

SOURCE_ROOT = Path(repro.__file__).resolve().parent


def test_source_tree_has_no_unsuppressed_wire_violations():
    result = wire_paths([SOURCE_ROOT])
    report = "\n".join(
        f"{v.location}: {v.code} {v.message}" for v in result.unsuppressed
    )
    assert result.unsuppressed == [], f"repro wire found:\n{report}"
    assert result.n_files > 50  # the whole tree was actually scanned


def test_every_wire_suppression_carries_a_reason():
    result = wire_paths([SOURCE_ROOT])
    for violation in result.suppressed:
        assert violation.reason, (
            f"{violation.location}: suppressed {violation.code} without a "
            "reason (use '# repro: disable=CODE -- why')"
        )


def test_the_analyzer_still_sees_the_serving_layer():
    # Guard against the gate passing vacuously: the wire model must
    # really derive the gateway's route table, the client's
    # expectations, and the protocol's taxonomy.
    from repro.tools.flow import build_flow_index
    from repro.tools.shape.arrays import build_shape_model
    from repro.tools.wire.wiremodel import build_wire_model

    index = build_flow_index([SOURCE_ROOT])
    model = build_wire_model(index, build_shape_model(index))

    routes = model.routes()
    assert "GET /health" in routes
    assert "POST /platforms/*/models/*/predict" in routes
    predict = routes["POST /platforms/*/models/*/predict"]
    assert predict["operation"] == "batch_predict"
    assert predict["request"] == ("X",)
    assert predict["response"] == ("predictions",)
    assert set(predict["statuses"]) >= {200, 400, 413}

    entries = model.client_entries()
    assert entries["upload_dataset"]["payload"] == ("X", "name", "y")
    assert entries["get_model"]["path"] == "/platforms/*/models/*"

    # W502 stays quiet because the taxonomy really is complete, not
    # because the analyzer lost sight of the raise sites.
    assert model.taxonomies, "no ERROR_STATUS/KIND_TO_ERROR module found"
    mapped = set(model.taxonomies[0].kind_to_error)
    assert "NotFittedError" in mapped  # the PR-10 dogfood fix
    assert "ValidationError" in model.raised_kinds
    assert "DeadlineExceededError" in model.constructed_kinds


def test_checked_in_spec_matches_a_fresh_derivation():
    from repro.tools.flow import build_flow_index
    from repro.tools.shape.arrays import build_shape_model
    from repro.tools.lint.engine import load_spec
    from repro.tools.wire.spec import derive_wire_spec
    from repro.tools.wire.spec import DEFAULT_SPEC_PATH
    from repro.tools.wire.wiremodel import build_wire_model

    spec = load_spec(DEFAULT_SPEC_PATH, "WIRE_SPEC")
    assert spec, "wire_spec.py is missing or empty"
    assert len(spec["routes"]) >= 11  # the serving surface, Table-1 style
    assert len(spec["client"]) >= 10
    index = build_flow_index([SOURCE_ROOT])
    derived = derive_wire_spec(build_wire_model(index,
                                                build_shape_model(index)))
    assert derived == spec, (
        "derived wire contract drifted from wire_spec.py; run "
        "`repro wire --update-spec` to record an intentional change"
    )
