"""The end-to-end per-day localizer.

Scans -> (optional smoothing) -> room detection -> in-room weighted
centroid, with estimates clamped into the detected room's geometry.
This is the positioning algorithm "based on triangulation" the paper fed
its beacon messages into.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.errors import ConfigError
from repro.habitat.beacons import Beacon, beacon_positions, beacon_rooms
from repro.habitat.floorplan import FloorPlan
from repro.localization.room_detector import RoomDetector
from repro.localization.rssi import boxcar_smooth
from repro.localization.trilateration import localize_rooms
from repro.obs import _state as _obs
from repro.obs import metrics as _metrics
from repro.obs import span


@dataclass
class LocalizationResult:
    """Per-frame localization output for one badge-day."""

    room: np.ndarray   # int8; -1 unknown
    x: np.ndarray      # float32; NaN unknown
    y: np.ndarray      # float32; NaN unknown
    #: Beacons masked out of this day's scans (fault injection); room
    #: detection degraded gracefully instead of consuming dead columns.
    masked_beacons: tuple[int, ...] = ()

    def known_fraction(self) -> float:
        """Fraction of frames with a room fix."""
        return float((self.room >= 0).mean())


class Localizer:
    """Localizes badge-days from their BLE scan matrices."""

    def __init__(
        self,
        plan: FloorPlan,
        beacons: list[Beacon],
        smooth_window: int | None = 5,
        vote_window: int = 3,
        tx_power_dbm: float = -59.0,
        path_loss_exponent: float = 2.2,
        refine: bool = True,
    ):
        if not beacons:
            raise ConfigError("localizer needs at least one beacon")
        self.plan = plan
        self.beacons = beacons
        self.beacon_xy = beacon_positions(beacons)
        self.beacon_room = beacon_rooms(beacons).astype(np.int64)
        self.smooth_window = smooth_window
        self.detector = RoomDetector(self.beacon_room, vote_window=vote_window)
        self.tx_power_dbm = float(tx_power_dbm)
        self.path_loss_exponent = float(path_loss_exponent)
        self.refine = bool(refine)

    def localize_fleet(
        self,
        scans: "Sequence[np.ndarray]",
        actives: "Sequence[np.ndarray]",
        dead_beacons: "Iterable[int] | None" = None,
    ) -> list[LocalizationResult]:
        """Localize a whole fleet's badge-days in one batched call.

        Smoothing and room detection stay per badge (their windows must
        not leak across badge-days), then all frames are stacked and the
        position solve runs room-compacted over the whole fleet at once
        (:func:`repro.localization.trilateration.localize_rooms`).  Every
        per-frame estimate is row-independent, so each badge-day's result
        is bit-identical to localizing it alone.

        Args:
            scans: per badge, ``(frames, n_beacons)`` scan matrices.
            actives: per badge, ``(frames,)`` recording masks.
            dead_beacons: beacon indices masked to NaN for every badge.

        Returns:
            One :class:`LocalizationResult` per input badge-day.
        """
        if len(scans) != len(actives):
            raise ConfigError("scans and actives must align")
        if not scans:
            return []
        total = int(sum(s.shape[0] for s in scans))
        with span("localization.day", badges=len(scans), frames=total):
            masked: tuple[int, ...] = ()
            if dead_beacons:
                masked = tuple(sorted(
                    b for b in {int(b) for b in dead_beacons}
                    if 0 <= b < scans[0].shape[1]
                ))
            rooms = []
            smoothed = []
            with span("localization.room_detect", badges=len(scans)):
                for rssi, active in zip(scans, actives):
                    if masked:
                        rssi = rssi.copy()
                        rssi[:, list(masked)] = np.nan
                        if _obs.enabled:
                            _metrics.counter(
                                "localization.dead_beacon_days",
                                "badge-days localized with masked (dead) beacons",
                            ).inc()
                    if self.smooth_window is not None and self.smooth_window > 1:
                        rssi = boxcar_smooth(rssi, window=self.smooth_window)
                    smoothed.append(rssi)
                    rooms.append(self.detector.detect(rssi, active))
            room_all = np.concatenate(rooms)
            rssi_all = smoothed[0] if len(smoothed) == 1 else np.concatenate(smoothed)
            with span("localization.solve", badges=len(scans)):
                # Weighted centroid + optional Gauss-Newton, compacted to
                # each detected room's own beacon columns.  Range-based
                # least squares recovers positions outside the beacons'
                # convex hull (the centroid alone compresses the occupancy
                # maps toward the room centers).
                xy = localize_rooms(
                    rssi_all,
                    room_all,
                    self.beacon_xy,
                    self.beacon_room,
                    tx_power_dbm=self.tx_power_dbm,
                    path_loss_exponent=self.path_loss_exponent,
                    refine=self.refine,
                )
                xy = self._clamp_to_rooms(xy, room_all)
            results = []
            offset = 0
            for rssi in scans:
                n = rssi.shape[0]
                sl = slice(offset, offset + n)
                offset += n
                result = LocalizationResult(
                    room=room_all[sl].astype(np.int8),
                    x=xy[sl, 0].astype(np.float32),
                    y=xy[sl, 1].astype(np.float32),
                    masked_beacons=masked,
                )
                results.append(result)
                if _obs.enabled:
                    _metrics.counter(
                        "localization.days", "badge-days localized"
                    ).inc()
                    _metrics.histogram(
                        "localization.known_fraction", "fraction of frames with a room fix"
                    ).observe(result.known_fraction())
            return results

    def _clamp_to_rooms(self, xy: np.ndarray, room: np.ndarray) -> np.ndarray:
        """Clamp estimates into the detected room's rectangle."""
        out = np.array(xy, copy=True)
        eps = 1e-6  # keep clamped points off shared walls
        dtype = out.dtype
        bounds = np.array(
            [
                (r.rect.x0 + eps, r.rect.x1 - eps, r.rect.y0 + eps, r.rect.y1 - eps)
                for r in self.plan.rooms
            ],
            dtype=dtype,
        )
        safe = np.maximum(room, 0)
        out[:, 0] = np.clip(out[:, 0], bounds[safe, 0], bounds[safe, 1])
        out[:, 1] = np.clip(out[:, 1], bounds[safe, 2], bounds[safe, 3])
        out[room < 0] = np.nan
        return out
