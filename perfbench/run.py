"""Benchmark command for the mission pipeline and the fleet service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``mission-cold``, ``mission-warm-faulted``, ``service-drain``
(see ``workloads.py`` and ``METRICS.md``).  With ``--trace 0`` it prints
every end-to-end metric; with ``--trace 1`` the same workload runs with
spans around each layer's entry points and it prints the per-layer
metrics instead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when an output check fails, 2 when the program cannot be found.

Scratch data goes under ``.perfbench/`` at the root of the checkout and
is removed when the run ends.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("mission-cold", "mission-warm-faulted", "service-drain")


def calibration_seconds() -> float:
    """The repository's machine calibration (``benchmarks/perf_guard.py``)."""
    spec = importlib.util.spec_from_file_location(
        "perf_guard", ROOT / "benchmarks" / "perf_guard.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.calibration_seconds()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not (ROOT / "benchmarks" / "perf_guard.py").is_file():
        print(f"error: program sources not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import layers
    import workloads
    from harness import NullTracer, Tracer

    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else NullTracer()
    instrumentation = layers.install(tracer) if args.trace else None
    try:
        calibration = calibration_seconds()
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, tracer, work)
    finally:
        if instrumentation is not None:
            instrumentation.undo()
        shutil.rmtree(work, ignore_errors=True)

    metrics = (workloads.layer_metrics(tracer, outcome, calibration)
               if args.trace else outcome.metrics)
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{outcome.iterations} iteration(s)")
    for note in outcome.notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(f"  {'failed_fraction':32s} {outcome.failed / outcome.attempted:14.6g} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    if not args.trace:
        print(f"  {'calibration_s':32s} {calibration:14.6g} s")
    print(f"checks: {outcome.checks.passed} passed, "
          f"{len(outcome.checks.failures)} failed")
    for failure in outcome.checks.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.checks.ok,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if outcome.checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
