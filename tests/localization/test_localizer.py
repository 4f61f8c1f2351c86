"""End-to-end localizer tests against ground truth (session fixtures)."""

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.habitat.beacons import place_beacons
from repro.localization.pipeline import Localizer


class TestLocalizerOnMission:
    def test_room_detection_effectively_perfect(self, sensing):
        """The paper: "the room the badge located in was detected
        perfectly"."""
        correct = total = 0
        for summary in sensing.summaries.values():
            if summary.true_room is None:
                continue
            mask = summary.active & (summary.room >= 0)
            correct += int((summary.room[mask] == summary.true_room[mask]).sum())
            total += int(mask.sum())
        assert total > 0
        assert correct / total > 0.995

    def test_known_fraction_high_while_active(self, sensing):
        for summary in sensing.summaries.values():
            active = summary.active
            known = (summary.room >= 0) & active
            assert known.sum() / max(active.sum(), 1) > 0.95

    def test_positions_inside_detected_rooms(self, sensing, truth):
        summary = sensing.summary(1, 2)
        ok = (summary.room >= 0) & ~np.isnan(summary.x)
        pts = np.column_stack([summary.x[ok], summary.y[ok]]).astype(np.float64)
        located = truth.plan.locate_many(pts)
        assert (located == summary.room[ok]).mean() > 0.999

    def test_position_error_subcell(self, sensing, truth, mission_cfg):
        """Median position error below ~2 heatmap cells."""
        from repro.badges.wear import WearModel
        from repro.core.rng import RngRegistry

        summary = sensing.summary(1, 2)
        rngs = RngRegistry(mission_cfg.seed).spawn("sensing")
        wear = WearModel(mission_cfg, truth.plan).simulate_day(
            truth.trace("B", 2), rngs.get("badges.1.day2"),
            truth.roster.profile("B").wear_diligence,
        )
        mask = wear.active & (summary.room >= 0) & ~np.isnan(summary.x)
        err = np.hypot(
            summary.x[mask] - wear.badge_xy[mask, 0],
            summary.y[mask] - wear.badge_xy[mask, 1],
        )
        assert np.median(err) < 0.6

    def test_inactive_frames_unknown(self, sensing):
        summary = sensing.summary(0, 2)
        assert (summary.room[~summary.active] == -1).all()
        assert np.isnan(summary.x[~summary.active]).all()


class TestDeadBeaconMasking:
    """Graceful degradation: dead beacons are masked, detection continues."""

    @pytest.fixture()
    def loc(self, truth):
        return Localizer(truth.plan, place_beacons(truth.plan, 9))

    @pytest.fixture()
    def scan(self):
        rng = np.random.default_rng(0)
        rssi = rng.uniform(-90.0, -50.0, size=(60, 9)).astype(np.float32)
        return rssi, np.ones(60, dtype=bool)

    def test_masked_beacons_recorded(self, loc, scan):
        rssi, active = scan
        result = loc.localize_fleet([rssi], [active], dead_beacons=[3, 7, 3])[0]
        assert result.masked_beacons == (3, 7)

    def test_input_rssi_not_mutated(self, loc, scan):
        rssi, active = scan
        before = rssi.copy()
        loc.localize_fleet([rssi], [active], dead_beacons=[2])
        np.testing.assert_array_equal(rssi, before)

    def test_detection_continues_with_dead_beacons(self, loc, scan):
        rssi, active = scan
        result = loc.localize_fleet([rssi], [active], dead_beacons=[0, 1, 2])[0]
        assert (result.room >= 0).sum() > 0  # still detecting rooms

    def test_no_dead_beacons_identical_to_default(self, loc, scan):
        rssi, active = scan
        base = loc.localize_fleet([rssi], [active])[0]
        masked = loc.localize_fleet([rssi], [active], dead_beacons=[])[0]
        np.testing.assert_array_equal(base.room, masked.room)

    def test_out_of_range_ids_ignored(self, loc, scan):
        rssi, active = scan
        result = loc.localize_fleet([rssi], [active], dead_beacons=[-1, 99, 4])[0]
        assert result.masked_beacons == (4,)

class TestLocalizerConstruction:
    def test_requires_beacons(self, truth):
        with pytest.raises(ConfigError):
            Localizer(truth.plan, [])

    def test_smoothing_option_runs(self, truth, mission_cfg):
        beacons = place_beacons(truth.plan, 9)
        loc = Localizer(truth.plan, beacons, smooth_window=7)
        n = 50
        rssi = np.full((n, 9), -70.0, dtype=np.float32)
        active = np.ones(n, dtype=bool)
        result = loc.localize_fleet([rssi], [active])[0]
        assert result.room.shape == (n,)
        assert result.known_fraction() > 0.9
