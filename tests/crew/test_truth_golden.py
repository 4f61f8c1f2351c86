"""Golden digests of the crew ground truth.

``simulate_mission`` must stay byte-for-byte reproducible: every
``DayTrace`` array, every schedule slot and every event record of the
missions below is hashed and compared with digests captured before the
movement and conversation hot loops were vectorized.  Any change to one
random draw, its order, or the floating-point arithmetic that turns
draws into positions fails here (DESIGN §13, "Crew truth: draw-order
contract").

The third mission runs 5 s frames without scripted events, so short
slots truncate walks mid-path and EVA windows are filled outside.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import MissionConfig
from repro.crew.behavior import simulate_mission
from repro.crew.trace import MissionTruth

_ARRAYS = (
    "room", "x", "y", "walking", "speaking", "loudness", "machine_speech", "activity",
)

#: SHA-256 of :func:`truth_digest`, by mission config.
GOLDEN = {
    "seed0": "5a7b45a373120107a041e2c3c1a3c10b7033a4b449a2125b018ef97a8a99330d",
    "seed7": "4003f9bd389a929cf18245ddbc76cb9c9b00a99cdc049877ec14024e33f20caf",
    "days3-seed5-dt5": "c1ceee4a791830e8d6ff562824430981404a25bdc0a47d807c57231f72903a4b",
}

CONFIGS = {
    "seed0": lambda: MissionConfig(seed=0),
    "seed7": lambda: MissionConfig(seed=7),
    "days3-seed5-dt5": lambda: MissionConfig(days=3, seed=5, frame_dt=5.0, events=None),
}


def truth_digest(truth: MissionTruth) -> str:
    """SHA-256 over every trace array's bytes, the schedules and the events."""
    h = hashlib.sha256()

    def array(a: np.ndarray) -> None:
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())

    for (astro, day) in sorted(truth.traces):
        trace = truth.traces[(astro, day)]
        h.update(repr((astro, day, trace.t0, trace.dt)).encode())
        for name in _ARRAYS:
            array(getattr(trace, name))
    for day in sorted(truth.schedules):
        sched = truth.schedules[day]
        h.update(repr((day, sched.start_s, sched.end_s)).encode())
        for astro in sorted(sched.slots):
            for slot in sched.slots[astro]:
                h.update(repr(
                    (astro, slot.t0, slot.t1, int(slot.activity), slot.room, slot.label)
                ).encode())
    for event in truth.events:
        h.update(repr((event.day, event.time_s, event.kind, event.info)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_truth_matches_golden_digest(name):
    truth = simulate_mission(CONFIGS[name]())
    assert truth_digest(truth) == GOLDEN[name]
