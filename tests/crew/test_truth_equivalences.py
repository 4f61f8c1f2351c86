"""Oracles for the two equivalences the fast crew-truth loops rely on.

1. The array-arithmetic walk rasterizer (and the batched run painter
   that ``_wander`` uses) gives the same bits as the original per-frame
   loop, kept here as the oracle.
2. ``speaker_cdf(w).searchsorted(rng.random(), side="right")`` picks
   the same speaker from the same draw as ``rng.choice(n, p=w/sum(w))``,
   and leaves the generator in the same state.  A numpy upgrade that
   changes ``Generator.choice`` fails here before it silently moves the
   conversation stream.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crew.conversation import speaker_cdf
from repro.crew.movement import DayArrays, _paint_runs, _rasterize_walk

#: Derandomized and capped, like the quality suite's tier-1 profile.
TIER1 = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

coords = st.floats(-25.0, 40.0, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords)
speeds = st.floats(0.05, 3.0)
frame_dts = st.sampled_from([0.25, 1.0, 2.0, 5.0, 60.0])


def per_frame_oracle(a, waypoints, speed, dt):
    """The rasterizer as a per-frame loop (the original implementation)."""
    points = [a] + list(waypoints)
    lengths = [float(np.hypot(q[0] - p[0], q[1] - p[1]))
               for p, q in zip(points, points[1:])]
    total = sum(lengths)
    n_frames = max(1, int(np.ceil(total / (speed * dt))))
    dist_at = np.minimum(np.arange(1, n_frames + 1) * speed * dt, total)
    out = np.empty((n_frames, 2), dtype=np.float64)
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    seg_idx = np.clip(np.searchsorted(cum, dist_at, side="right") - 1, 0, len(lengths) - 1)
    for k in range(n_frames):
        i = seg_idx[k]
        seg_len = lengths[i] if lengths[i] > 0 else 1.0
        frac = (dist_at[k] - cum[i]) / seg_len
        p, q = points[i], points[i + 1]
        out[k, 0] = p[0] + frac * (q[0] - p[0])
        out[k, 1] = p[1] + frac * (q[1] - p[1])
    return out


@st.composite
def paths(draw):
    """A start and 1-5 waypoints; some repeat the previous point."""
    start = draw(points)
    waypoints, prev = [], start
    for _ in range(draw(st.integers(1, 5))):
        prev = prev if draw(st.booleans()) and draw(st.booleans()) else draw(points)
        waypoints.append(prev)
    return start, waypoints


@TIER1
@given(paths(), speeds, frame_dts)
def test_rasterize_walk_equals_per_frame_loop(path, speed, dt):
    start, waypoints = path
    got = _rasterize_walk(start, waypoints, speed, dt)
    want = per_frame_oracle(start, waypoints, speed, dt)
    assert got.tobytes() == want.tobytes()


@TIER1
@given(points, st.floats(0.0, 0.05), st.floats(0.0, 2 * np.pi), speeds, frame_dts)
def test_sub_frame_walks_arrive_in_one_frame(start, reach, angle, speed, dt):
    end = (start[0] + reach * np.cos(angle), start[1] + reach * np.sin(angle))
    got = _rasterize_walk(start, [end], speed, dt)
    assert got.tobytes() == per_frame_oracle(start, [end], speed, dt).tobytes()
    if reach < speed * dt:
        assert got.shape == (1, 2)


@TIER1
@given(
    points,
    st.lists(st.tuples(st.integers(1, 40), points, st.booleans()), min_size=1, max_size=6),
    speeds,
    frame_dts,
)
def test_painted_runs_equal_rasterized_walks(start, legs, speed, dt):
    """Runs painted in one pass hold the same float32 bits as dwells
    filled by slice and walks rasterized one by one and truncated."""
    n = sum(frames for frames, _, _ in legs)
    painted, want = DayArrays.empty(n), DayArrays.empty(n)
    runs, i, pos = [], 0, start
    for frames, target, walking in legs:
        if walking:
            dist = float(np.hypot(target[0] - pos[0], target[1] - pos[1]))
            runs.append((i, pos[0], pos[1], target[0] - pos[0], target[1] - pos[1], dist, True))
            walk = per_frame_oracle(pos, [target], speed, dt)[:frames]
            want.x[i:i + len(walk)] = walk[:, 0]
            want.y[i:i + len(walk)] = walk[:, 1]
            want.walking[i:i + len(walk)] = True
            frames = len(walk)
            pos = (float(walk[-1, 0]), float(walk[-1, 1]))
        else:
            runs.append((i, pos[0], pos[1], 0.0, 0.0, 0.0, False))
            want.x[i:i + frames] = pos[0]
            want.y[i:i + frames] = pos[1]
        i += frames
    _paint_runs(painted, runs, i, speed, dt)
    for name in ("x", "y", "walking"):
        assert getattr(painted, name)[:i].tobytes() == getattr(want, name)[:i].tobytes()


@TIER1
@given(
    st.lists(st.floats(0.01, 5.0), min_size=1, max_size=8),
    st.integers(0, 2**32 - 1),
)
def test_cdf_search_equals_generator_choice(weights, seed):
    talk = np.array(weights)
    cdf = speaker_cdf(talk)
    via_choice, via_cdf = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(25):
        want = int(via_choice.choice(talk.size, p=talk / talk.sum()))
        got = int(cdf.searchsorted(via_cdf.random(), side="right"))
        assert got == want
    assert via_cdf.random() == via_choice.random()
