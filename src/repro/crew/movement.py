"""Movement model: from schedule slots to frame-aligned trajectories.

Astronauts walk between rooms along door-constrained paths through the
main hall, and wander within rooms while working (more if energetic,
barely if reserved).  The impaired astronaut A moves slowly, keeps to
the middle of rooms, and "did not approach corners" — realized by a
shrunken wandering extent around the room center (paper Fig. 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.crew.astronaut import Profile
from repro.crew.schedule import Slot
from repro.crew.tasks import Activity
from repro.habitat.floorplan import OUTSIDE, FloorPlan
from repro.habitat.geometry import Point, Rect

#: Mean seconds between in-room position changes, by activity, for an
#: astronaut of mobility 1.0 (scaled by 1/mobility otherwise).
DWELL_MEAN_S: dict[Activity, float] = {
    Activity.WORK: 20.0,
    Activity.MEAL: 420.0,
    Activity.BRIEFING: 600.0,
    Activity.BREAK: 70.0,
    Activity.PERSONAL: 150.0,
    Activity.EXERCISE: 25.0,
    Activity.RESTROOM: 240.0,
    Activity.CONSOLATION: 600.0,
    Activity.EVA_PREP: 30.0,
    Activity.EVA_POST: 30.0,
    Activity.EVA: 35.0,
}

#: Margin kept from walls when sampling anchors (meters).
WALL_MARGIN_M = 0.5

#: Radius of the shared table area used during group gatherings.
GATHER_RADIUS_M = 1.1


@dataclass
class DayArrays:
    """Mutable per-day output arrays being filled by the movement model."""

    room: np.ndarray
    x: np.ndarray
    y: np.ndarray
    walking: np.ndarray
    activity: np.ndarray

    @classmethod
    def empty(cls, n_frames: int) -> "DayArrays":
        return cls(
            room=np.full(n_frames, OUTSIDE, dtype=np.int8),
            x=np.full(n_frames, np.nan, dtype=np.float32),
            y=np.full(n_frames, np.nan, dtype=np.float32),
            walking=np.zeros(n_frames, dtype=bool),
            activity=np.zeros(n_frames, dtype=np.int8),
        )


def wander_rect(profile: Profile, room_rect: Rect) -> Rect:
    """The sub-rectangle an astronaut wanders within.

    Centered on the room center and scaled by the profile's wander
    extent; impaired A (extent 0.35) thus never reaches corners.
    """
    inner = room_rect.shrink(WALL_MARGIN_M)
    cx, cy = inner.center
    half_w = inner.width / 2.0 * profile.wander_extent
    half_h = inner.height / 2.0 * profile.wander_extent
    return Rect(cx - half_w, cy - half_h, cx + half_w, cy + half_h)


def _anchor_sampler(profile: Profile, room_rect: Rect,
                    activity: Activity) -> Callable[[np.random.Generator], Point]:
    """:func:`sample_anchor` with the slot's geometry computed once.

    The returned ``draw(rng)`` makes scalar draws in the order of the
    draw-order contract (DESIGN §13): x then y for a wander anchor (the
    same two doubles ``Rect.sample(rng, 1)`` consumes), angle then
    radius around the shared table for group activities.
    """
    if activity.is_group:
        cx, cy = room_rect.center
        table = room_rect.shrink(WALL_MARGIN_M / 2)
        lo_x, lo_y, hi_x, hi_y = table.x0, table.y0, table.x1, table.y1

        def draw(rng: np.random.Generator) -> Point:
            angle = rng.uniform(0.0, 2.0 * np.pi)
            radius = rng.uniform(0.3, GATHER_RADIUS_M)
            # np.cos/np.sin, not math: the two may differ in the last bit.
            x = cx + radius * np.cos(angle)
            y = cy + radius * np.sin(angle)
            return (min(max(x, lo_x), hi_x), min(max(y, lo_y), hi_y))

        return draw
    area = wander_rect(profile, room_rect)
    x0, y0, x1, y1 = area.x0, area.y0, area.x1, area.y1

    def draw(rng: np.random.Generator) -> Point:
        return (rng.uniform(x0, x1), rng.uniform(y0, y1))

    return draw


def sample_anchor(profile: Profile, room_rect: Rect, activity: Activity,
                  rng: np.random.Generator) -> Point:
    """Sample a position to settle at for the current activity."""
    return _anchor_sampler(profile, room_rect, activity)(rng)


def _rasterize_walk(a: Point, waypoints: list[Point], speed: float, dt: float) -> np.ndarray:
    """Positions at each frame while walking a -> waypoints at ``speed``.

    Frame ``k`` (1-based) sits ``min(k * speed * dt, total)`` along the
    path, interpolated within its segment in float64; a zero-length
    segment is divided by 1.0 instead of 0.
    """
    points = np.array([a] + list(waypoints), dtype=np.float64)
    lengths = [float(np.hypot(q[0] - p[0], q[1] - p[1]))
               for p, q in zip(points, points[1:])]
    total = sum(lengths)
    n_frames = max(1, math.ceil(total / (speed * dt)))
    dist_at = np.minimum(np.arange(1, n_frames + 1) * speed * dt, total)
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    seg_idx = np.searchsorted(cum, dist_at, side="right") - 1
    seg_idx = np.clip(seg_idx, 0, len(lengths) - 1)
    seg_len = np.array([length if length > 0 else 1.0 for length in lengths])
    frac = (dist_at - cum[seg_idx]) / seg_len[seg_idx]
    start = points[seg_idx]
    delta = (points[1:] - points[:-1])[seg_idx]
    return start + frac[:, None] * delta


class MovementModel:
    """Fills a day's trajectory arrays from a slot list."""

    def __init__(self, plan: FloorPlan, dt: float = 1.0):
        self.plan = plan
        self.dt = float(dt)

    def fill_day(
        self,
        profile: Profile,
        slots: list[Slot],
        t0: float,
        n_frames: int,
        rng: np.random.Generator,
        mobility_factor: float = 1.0,
    ) -> DayArrays:
        """Simulate one astronaut's day.

        ``mobility_factor`` is the scripted per-day modifier (calm day 3,
        post-incident bustle, famine lethargy).
        """
        arrays = DayArrays.empty(n_frames)
        plan, dt = self.plan, self.dt
        # Wake up in the bedroom.
        bedroom = plan.room("bedroom")
        cur_pos: Point = bedroom.rect.center
        cur_room_name = "bedroom"

        for slot in slots:
            i0 = int(round((slot.t0 - t0) / dt))
            i1 = int(round((slot.t1 - t0) / dt))
            i0, i1 = max(0, i0), min(n_frames, i1)
            if i1 <= i0:
                continue
            if slot.activity == Activity.ABSENT:
                arrays.activity[i0:i1] = int(Activity.ABSENT)
                cur_room_name = ""
                continue
            if slot.room is None:  # EVA on the surface
                self._fill_outside(arrays, profile, i0, i1, rng)
                cur_pos = plan.room("airlock").rect.center
                cur_room_name = "airlock"
                continue
            i = i0
            if slot.room != cur_room_name or not cur_room_name:
                origin = cur_room_name or "airlock"
                anchor = sample_anchor(profile, plan.room(slot.room).rect, slot.activity, rng)
                waypoints = plan.path(origin, slot.room, cur_pos, anchor)
                walk = _rasterize_walk(cur_pos, waypoints[1:], profile.walk_speed, dt)
                n_walk = min(len(walk), i1 - i)
                if n_walk > 0:
                    seg = walk[:n_walk]
                    arrays.x[i:i + n_walk] = seg[:, 0]
                    arrays.y[i:i + n_walk] = seg[:, 1]
                    arrays.room[i:i + n_walk] = plan.locate_many(seg)
                    arrays.walking[i:i + n_walk] = True
                    arrays.activity[i:i + n_walk] = int(Activity.TRANSIT)
                    cur_pos = (float(seg[-1, 0]), float(seg[-1, 1]))
                    i += n_walk
                if n_walk == len(walk):
                    cur_room_name = slot.room
                else:  # slot too short to arrive; stay mid-path
                    cur_room_name = plan.name_of(int(plan.locate(cur_pos)))
            if cur_room_name == slot.room:
                cur_pos = self._wander(
                    arrays, profile, slot, i, i1, cur_pos, rng, mobility_factor
                )
        return arrays

    # -- internals ------------------------------------------------------

    def _wander(
        self,
        arrays: DayArrays,
        profile: Profile,
        slot: Slot,
        i_start: int,
        i_end: int,
        pos: Point,
        rng: np.random.Generator,
        mobility_factor: float,
    ) -> Point:
        """Dwell/move loop inside the slot's room; returns final position.

        The loop only draws and keeps scalar books: each dwell or walk
        is recorded as a run, and the frames are written afterwards in
        one array pass (:func:`_paint_runs`).
        """
        if i_start >= i_end:
            return pos
        dt, speed = self.dt, profile.walk_speed
        room = self.plan.room(slot.room)
        draw_anchor = _anchor_sampler(profile, room.rect, slot.activity)
        threshold = _min_wander_distance(profile, room.rect)
        dwell_scale = DWELL_MEAN_S.get(slot.activity, 90.0) / max(
            profile.mobility * mobility_factor, 0.05
        )
        runs: list[tuple] = []  # (first frame, x, y, dx, dy, length, walking)
        x, y = pos
        i = i_start
        while i < i_end:
            dwell_s = min(max(rng.exponential(dwell_scale), 8.0), 900.0)
            runs.append((i, x, y, 0.0, 0.0, 0.0, False))
            i += max(1, int(round(dwell_s / dt)))
            if i >= i_end:
                break
            tx, ty, dist = _distant_anchor(draw_anchor, threshold, x, y, rng)
            n_walk = min(max(1, math.ceil(dist / (speed * dt))), i_end - i)
            runs.append((i, x, y, tx - x, ty - y, dist, True))
            # The walk's last frame, with the rasterizer's arithmetic.
            frac = min(n_walk * speed * dt, dist) / (dist if dist > 0 else 1.0)
            x, y = x + frac * (tx - x), y + frac * (ty - y)
            i += n_walk
        _paint_runs(arrays, runs, i_end, speed, dt)
        span = slice(i_start, i_end)
        arrays.room[span] = room.index
        arrays.activity[span] = int(slot.activity)
        return (x, y)

    def _fill_outside(self, arrays: DayArrays, profile: Profile, i0: int, i1: int,
                      rng: np.random.Generator) -> None:
        """Fill an EVA window: on the regolith, outside badge coverage."""
        hangar = self.plan.hangar
        field = hangar.shrink(0.5)
        x0, y0, x1, y1 = field.x0, field.y0, field.x1, field.y1
        i = i0
        pos = hangar.center
        while i < i1:
            n_dwell = max(1, int(rng.exponential(DWELL_MEAN_S[Activity.EVA])))
            j = min(i + n_dwell, i1)
            arrays.x[i:j] = pos[0]
            arrays.y[i:j] = pos[1]
            i = j
            if i >= i1:
                break
            pos = (rng.uniform(x0, x1), rng.uniform(y0, y1))
        arrays.room[i0:i1] = OUTSIDE
        arrays.activity[i0:i1] = int(Activity.EVA)


def _min_wander_distance(profile: Profile, room_rect: Rect,
                         min_distance: float = 1.3) -> float:
    """How far a wander target must be from the current position.

    People cross the room to fetch a tool, not shuffle 20 cm; the
    minimum is capped by the wanderable area so constrained movers (A)
    are not forced beyond their comfortable extent.
    """
    allowed = wander_rect(profile, room_rect)
    cap = 0.7 * float(np.hypot(allowed.width, allowed.height))
    return min(min_distance, cap)


def _distant_anchor(
    draw_anchor: Callable[[np.random.Generator], Point],
    threshold: float,
    x: float,
    y: float,
    rng: np.random.Generator,
    tries: int = 5,
) -> tuple[float, float, float]:
    """A wander target at least ``threshold`` away, after up to ``tries``
    redraws; returns ``(tx, ty, distance)``."""
    tx, ty = draw_anchor(rng)
    # np.hypot, not math.hypot: the two may round differently.
    dist = float(np.hypot(tx - x, ty - y))
    for _ in range(tries):
        if dist >= threshold:
            break
        tx, ty = draw_anchor(rng)
        dist = float(np.hypot(tx - x, ty - y))
    return tx, ty, dist


def _paint_runs(arrays: DayArrays, runs: list[tuple], i_end: int, speed: float,
                dt: float) -> None:
    """Write the positions and walking flags of ``runs`` up to ``i_end``.

    A dwell holds its start position; frame ``k`` (1-based) of a walk
    sits ``min(k * speed * dt, length)`` along its single segment — the
    same float64 operations as :func:`_rasterize_walk`, so the frames
    are bit-identical to rasterizing each walk on its own.
    """
    first, x, y, dx, dy, length, walking = map(np.array, zip(*runs))
    counts = np.diff(first, append=i_end)
    k = np.arange(first[0], i_end) - np.repeat(first, counts) + 1
    length = np.repeat(length, counts)
    walking = np.repeat(walking, counts)
    frac = np.minimum(k * speed * dt, length) / np.where(length > 0, length, 1.0)
    x = np.repeat(x, counts)
    y = np.repeat(y, counts)
    span = slice(first[0], i_end)
    arrays.x[span] = np.where(walking, x + frac * np.repeat(dx, counts), x)
    arrays.y[span] = np.where(walking, y + frac * np.repeat(dy, counts), y)
    arrays.walking[span] |= walking
