"""Golden test for the fleet-batched sensing hot path.

The fleet-batched path (:func:`repro.badges.pipeline.sense_day` +
:meth:`repro.localization.pipeline.Localizer.localize_fleet`) must stay
**bit-identical** to the checked-in golden digests below.  They were
captured from the per-badge reference drivers that the batched path
replaced (and that agreed with it byte for byte), so any change to one
RNG draw, one dtype or one field of a summary or a pairwise link fails
here.  Per badge, each model consumes its day-scoped RNG stream in the
documented order, so batching across badges may not move a single draw.

Cache fingerprints are config-derived, so the batched path must also
leave them untouched: a cache populated before it landed still
addresses the same artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.analytics.dataset import BadgeDaySummary
from repro.badges.assignment import BadgeAssignment
from repro.badges.pipeline import SensingModels, make_fleet, sense_day
from repro.badges.sdcard import SdCardAccountant
from repro.core.config import MissionConfig
from repro.core.rng import RngRegistry, mission_sensing_registry
from repro.crew.behavior import simulate_mission
from repro.exec import hashing
from repro.localization.pipeline import Localizer

#: ``_digest`` of every badge-day summary of the mission below, by
#: ``(badge, day)``; badge 12 is the always-on reference badge.
GOLDEN_SUMMARIES = {
    (0, 2): "d81250070fad6a72822d9a7860ed6a17",
    (1, 2): "5f23f36c4e65aded1d19abdbe5c74075",
    (2, 2): "3bbe277efadfde2b79989e4c7ef0f55a",
    (3, 2): "3c800aa2626f3412dfc6e3eefd2324b3",
    (4, 2): "10f6c988e91d42428e328d1ed03af325",
    (5, 2): "29b5a0c5f0c98471e09e2d84567fd637",
    (12, 2): "18b3c0b4f4339fbde7ea3408017e1bf9",
}

#: ``_pairwise_digest`` of each instrumented day's badge-to-badge links.
GOLDEN_PAIRWISE = {2: "f415442ea28ffc486d775c45fb7b6f11"}

#: Cache fingerprints of the mission below; moving them orphans every
#: cached artifact, so a change here must be a deliberate schema bump.
GOLDEN_FINGERPRINTS = {
    "truth": "d4be62137291fcab83cee0179004118c",
    "sensing": "aad72a65061f3b31c16fcae90c754393",
}


@pytest.fixture(scope="module")
def cfg():
    return MissionConfig(days=2, seed=13, events=None)


@pytest.fixture(scope="module")
def truth(cfg):
    return simulate_mission(cfg)


@pytest.fixture(scope="module")
def mission_parts(cfg, truth):
    assignment = BadgeAssignment(cfg=cfg, roster=truth.roster)
    models = SensingModels.default(cfg, truth.plan)
    localizer = Localizer(truth.plan, models.beacons)
    return assignment, models, localizer


def _digest(summary: BadgeDaySummary) -> str:
    """Byte-level digest of every field of one summary."""
    h = hashlib.blake2b(digest_size=16)
    for f in dataclasses.fields(summary):
        value = getattr(summary, f.name)
        h.update(f.name.encode())
        if isinstance(value, np.ndarray):
            h.update(str(value.dtype).encode())
            h.update(value.tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def _pairwise_digest(pairwise) -> str:
    """Byte-level digest of one day's sub-GHz RSSI and IR contacts."""
    assert set(pairwise.subghz_rssi) == set(pairwise.ir_contact)
    h = hashlib.blake2b(digest_size=16)
    for pair in sorted(pairwise.subghz_rssi):
        h.update(repr(pair).encode())
        h.update(pairwise.subghz_rssi[pair].tobytes())
        h.update(pairwise.ir_contact[pair].tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def batched(cfg, truth, mission_parts):
    """Summaries and pairwise links of every instrumented day."""
    assignment, models, localizer = mission_parts
    rngs = mission_sensing_registry(cfg.seed)
    fleet = make_fleet(assignment, rngs)
    sdcard = SdCardAccountant()
    summaries: dict[tuple[int, int], BadgeDaySummary] = {}
    pairwise: dict[int, object] = {}
    for day in cfg.instrumented_days:
        observations, pairwise[day] = sense_day(
            truth, day, assignment, models, fleet, rngs, sdcard
        )
        badge_ids = list(observations)
        locs = localizer.localize_fleet(
            [observations[b].ble_rssi for b in badge_ids],
            [observations[b].active for b in badge_ids],
        )
        for badge_id, loc in zip(badge_ids, locs):
            summaries[(badge_id, day)] = BadgeDaySummary.from_observations(
                observations[badge_id], loc
            )
    return summaries, pairwise


class TestGoldenEquivalence:
    def test_same_badge_days(self, batched):
        summaries, _ = batched
        assert set(summaries) == set(GOLDEN_SUMMARIES)

    def test_summaries_byte_identical(self, batched):
        summaries, _ = batched
        for key, summary in summaries.items():
            assert _digest(summary) == GOLDEN_SUMMARIES[key], key

    def test_pairwise_byte_identical(self, batched):
        _, pairwise = batched
        assert set(pairwise) == set(GOLDEN_PAIRWISE)
        for day, links in pairwise.items():
            assert links.subghz_rssi  # an empty day would vacuously match
            assert _pairwise_digest(links) == GOLDEN_PAIRWISE[day], day

    def test_batch_of_one_equals_fleet_row(self, cfg, truth, mission_parts):
        """One badge alone is the same bits as its row of a fleet batch."""
        assignment, models, localizer = mission_parts
        rngs = RngRegistry(cfg.seed)
        fleet = make_fleet(assignment, rngs)
        observations, _ = sense_day(
            truth, 2, assignment, models, fleet, rngs, SdCardAccountant()
        )
        badge_ids = list(observations)
        fleet_locs = localizer.localize_fleet(
            [observations[b].ble_rssi for b in badge_ids],
            [observations[b].active for b in badge_ids],
        )
        for badge_id, fleet_loc in zip(badge_ids, fleet_locs):
            obs = observations[badge_id]
            (solo,) = localizer.localize_fleet([obs.ble_rssi], [obs.active])
            for field in ("room", "x", "y"):
                assert (
                    getattr(fleet_loc, field).tobytes()
                    == getattr(solo, field).tobytes()
                ), (badge_id, field)

    def test_ble_batch_of_one_equals_fleet_row(self, mission_parts):
        _, models, _ = mission_parts
        plan = models.plan
        frames = 200
        rooms = np.stack([
            np.full(frames, plan.room(name).index, dtype=np.int8)
            for name in ("kitchen", "office")
        ])
        xy = np.stack([
            np.tile(np.array(plan.room(name).rect.center), (frames, 1))
            for name in ("kitchen", "office")
        ])
        active = np.ones((2, frames), dtype=bool)
        fleet = models.ble.scan_fleet(
            plan, models.beacons, xy, rooms, active,
            [np.random.default_rng(s) for s in (1, 2)],
        )
        for b, seed in enumerate((1, 2)):
            solo = models.ble.scan_fleet(
                plan, models.beacons, xy[b:b + 1], rooms[b:b + 1],
                active[b:b + 1], [np.random.default_rng(seed)],
            )
            assert solo[0].tobytes() == fleet[b].tobytes(), b


class TestCacheFingerprintsUnchanged:
    """The batched path must not move any config-derived cache key."""

    def test_fingerprints_are_config_pure(self, cfg):
        assert hashing.truth_fingerprint(cfg) == hashing.truth_fingerprint(
            MissionConfig(days=2, seed=13, events=None)
        )
        assert hashing.sensing_fingerprint(cfg) == hashing.sensing_fingerprint(
            MissionConfig(days=2, seed=13, events=None)
        )
        assert hashing.truth_fingerprint(cfg) == GOLDEN_FINGERPRINTS["truth"]
        assert hashing.sensing_fingerprint(cfg) == GOLDEN_FINGERPRINTS["sensing"]

    def test_schema_version_not_bumped_by_redesign(self):
        # The batched path produces the same bits as the per-badge path,
        # so cached artifacts stay valid and the schema stays at 1.
        assert hashing.SCHEMA_VERSION == 1
