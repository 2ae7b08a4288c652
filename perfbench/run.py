"""Run one benchmark workload and print its report.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 6 --trace 0

Workloads: ``grid``, ``campaign_http``, ``serve`` and ``check`` (see
``perfbench/README.md``).  With ``--trace 0`` the run measures the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it runs the
workload once untraced and once with spans recorded around each layer's
calls, and reports the per-layer metrics and the tracing overhead.

Every metric is printed with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A failed output gate prints the reason and exits 1 without
a result; a checkout without the package source exits 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

import harness
from spans import Tracer

WORKLOADS = ("grid", "campaign_http", "serve", "check")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _format(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _print_report(args, outcome, names, units) -> dict:
    """Print every metric with its unit; returns the JSON metrics."""
    kind = "per-layer (traced run)" if args.trace else "end-to-end"
    print(f"perfbench {args.workload}: seed {args.seed}, "
          f"{args.seconds:g} s, {kind} metrics")
    metrics = {}
    for name in names:
        if name in outcome.metrics:
            value = outcome.metrics[name]
            detail = outcome.details.get(name, "")
        else:
            value, detail = 0.0, "layer does no work on this workload"
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"  {name:<34} {_format(value):>14} {units[name]:<6} {detail}")
    if outcome.notes:
        print("  also measured:")
    for name, value, unit, detail in outcome.notes:
        print(f"  {name:<34} {_format(value):>14} {unit:<6} {detail}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  {'failed_share':<34} {_format(share):>14} {'share':<6} "
          f"{outcome.failed} raised or refused of {outcome.attempted} "
          "operations attempted")
    return metrics


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not harness.source_present():
        print(f"error: no package source at {harness.SRC / 'repro'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text("utf-8"))
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [metric["name"] for metric in section]
    units = {metric["name"]: metric["unit"] for metric in section}
    sys.path.insert(0, str(harness.SRC))
    workload = importlib.import_module(args.workload)

    with harness.WorkDir() as workdir:
        try:
            if args.trace:
                tracer = Tracer()
                outcome = workload.run_traced(args.seed, args.seconds,
                                              workdir, tracer)
                dump = (harness.WORK_ROOT / f"spans-{args.workload}-"
                        f"seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}.jsonl")
                tracer.write(dump)
                outcome.notes.append(("spans", len(tracer.spans), "count",
                                      f"written to {dump.relative_to(harness.ROOT)}"))
            else:
                outcome = workload.run(args.seed, args.seconds, workdir)
        except harness.GateFailure as exc:
            print(f"GATE FAILED: {exc}", file=sys.stderr)
            return 1
    metrics = _print_report(args, outcome, names, units)
    print(json.dumps({"correct": True, "attempted": int(outcome.attempted),
                      "failed": int(outcome.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
