"""Day-compute and crew-truth performance regression guard.

The fleet-batched sensing API bought a >5x speedup of the per-day hot
path (``compute_day``: wear + sensor synthesis + localization + summary
reduction), and the vectorized crew-truth loops about 3x on
``simulate_mission``; this guard keeps both.  It measures

1. a fixed numpy **calibration workload** (pins the machine's array
   throughput),
2. the **day-compute** path on the standard one-day benchmark mission
   (``MissionConfig(days=2, seed=13, events=None)``, day 2), and
3. **crew truth**: ``simulate_mission`` of that same mission,

then compares each machine-normalized ratio (``day_compute /
calibration``, ``truth / calibration``) against its checked-in budget
(``benchmarks/perf_budget.json``).  A run more than ``headroom`` (25%)
over either budget exits non-zero, and every run writes its raw
measurements to ``benchmarks/output/day_compute_guard.json`` for
artifact upload and cross-run diffing.

Run it directly::

    PYTHONPATH=src python benchmarks/perf_guard.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

BUDGET_PATH = Path(__file__).parent / "perf_budget.json"
REPORT_PATH = Path(__file__).parent / "output" / "day_compute_guard.json"


def calibration_seconds(rounds: int = 3) -> float:
    """Best-of-``rounds`` timing of a fixed array workload.

    Three passes of sqrt/log10/column-cumsum over a 2000x2000 float64
    matrix — a mix of elementwise transcendental and strided traffic
    that tracks how fast this machine runs the pipeline's own numpy
    kernels.  Normalizing by it makes the budget portable between a
    laptop and a CI runner.
    """
    rng = np.random.default_rng(0)
    a = rng.random((2000, 2000))
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(3):
            b = np.sqrt(a)
            b += np.log10(a + 1.0)
            b = np.cumsum(b, axis=0)
        best = min(best, time.perf_counter() - t0)
    return best


def _guard_config():
    from repro.core.config import MissionConfig

    return MissionConfig(days=2, seed=13, events=None)


def truth_seconds(rounds: int = 3) -> float:
    """Best-of-``rounds`` timing of ``simulate_mission`` on the guard mission."""
    from repro.crew.behavior import simulate_mission

    cfg = _guard_config()
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        simulate_mission(cfg)
        best = min(best, time.perf_counter() - t0)
    return best


def day_compute_seconds(rounds: int = 3) -> float:
    """Best-of-``rounds`` timing of one full instrumented day."""
    from repro.badges.assignment import BadgeAssignment
    from repro.badges.pipeline import SensingModels, make_fleet
    from repro.badges.sdcard import SdCardAccountant
    from repro.core.rng import RngRegistry
    from repro.crew.behavior import simulate_mission
    from repro.exec.executor import compute_day
    from repro.localization.pipeline import Localizer

    cfg = _guard_config()
    truth = simulate_mission(cfg)
    assignment = BadgeAssignment(cfg=cfg, roster=truth.roster)
    models = SensingModels.default(cfg, truth.plan)
    localizer = Localizer(truth.plan, models.beacons)
    best = float("inf")
    for _ in range(rounds):
        rngs = RngRegistry(3)
        fleet = make_fleet(assignment, rngs)
        t0 = time.perf_counter()
        compute_day(
            cfg, truth, 2, assignment, models, localizer, fleet, rngs,
            SdCardAccountant(), None,
        )
        best = min(best, time.perf_counter() - t0)
    return best


def run_guard(rounds: int = 3) -> dict:
    """Measure, compare against the budgets, and write the report."""
    budget = json.loads(BUDGET_PATH.read_text())
    headroom = 1.0 + budget["headroom"]
    calibration_s = calibration_seconds(rounds)
    day_compute_s = day_compute_seconds(rounds)
    truth_s = truth_seconds(rounds)
    ratio = day_compute_s / calibration_s
    truth_ratio = truth_s / calibration_s
    limit = budget["day_compute_per_calibration"] * headroom
    truth_limit = budget["truth_per_calibration"] * headroom
    report = {
        "calibration_s": round(calibration_s, 4),
        "day_compute_s": round(day_compute_s, 4),
        "day_compute_per_calibration": round(ratio, 3),
        "budget_per_calibration": budget["day_compute_per_calibration"],
        "headroom": budget["headroom"],
        "limit_per_calibration": round(limit, 3),
        "truth_s": round(truth_s, 4),
        "truth_per_calibration": round(truth_ratio, 3),
        "truth_budget_per_calibration": budget["truth_per_calibration"],
        "truth_limit_per_calibration": round(truth_limit, 3),
        "ok": ratio <= limit and truth_ratio <= truth_limit,
    }
    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def main() -> int:
    report = run_guard()
    print(json.dumps(report, indent=2))
    failed = False
    for stage, key, limit_key, budget_key in (
        ("day-compute", "day_compute_per_calibration", "limit_per_calibration",
         "budget_per_calibration"),
        ("crew truth", "truth_per_calibration", "truth_limit_per_calibration",
         "truth_budget_per_calibration"),
    ):
        if report[key] > report[limit_key]:
            failed = True
            print(
                f"PERF REGRESSION: {stage} is {report[key]:.2f}x the calibration "
                f"workload, limit {report[limit_key]:.2f}x "
                f"(budget {report[budget_key]:.2f}x + "
                f"{report['headroom']:.0%} headroom)",
                file=sys.stderr,
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
