"""The repository's benchmark of record.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig5-sweep --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` wraps each layer's public entry points in spans and
reports the per-layer metrics instead.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it name every metric with its unit.
Exit code 0 when a result was printed, 2 when the program could not be
imported or a workload crashed.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT)]

from common import check_counters, clear_scratch, fingerprint  # noqa: E402
from report import END_TO_END, PER_LAYER, SERVICE_LAYER  # noqa: E402

UNITS = {**END_TO_END, **PER_LAYER, **SERVICE_LAYER}

#: Workload name -> the module in this directory that runs it.
WORKLOADS = {
    "fig5-sweep": "fig5_sweep",
    "availability-mc": "availability_mc",
    "service-trip": "service_trip",
}


def _print_summary(args, report, env, mismatches) -> None:
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value, unit, note in report.named:
        print(f"{name:28s} {value:14.6g} {unit:6s} {note}")
    if report.per_layer:
        print("# per-layer (self-time rows add up to traced_wall_s)")
        for name, value in report.per_layer.items():
            print(f"{name:28s} {value:14.6g} {UNITS[name]}")
    for name, value in sorted(report.counters.items()):
        print(f"counter {name} = {value!r}")
    for message in mismatches:
        print(f"COUNTER MISMATCH {message}", file=sys.stderr)
    for error in report.errors:
        print(f"CHECK FAILED {error}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import repro
        import benchmarks.conftest  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}: {exc}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"imported {repro.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2

    module = importlib.import_module(WORKLOADS[args.workload])
    try:
        report = module.run(args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        clear_scratch()

    env = fingerprint()
    mismatches = check_counters(args.workload, args.seed, report.counters,
                                env)
    _print_summary(args, report, env, mismatches)
    values = report.per_layer if args.trace else report.end_to_end
    metrics = {name: {"value": value, "unit": UNITS[name]}
               for name, value in values.items()}
    print(json.dumps({
        "correct": not report.errors and not mismatches,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
