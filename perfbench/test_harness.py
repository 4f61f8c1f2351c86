"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import numpy as np
import pytest

import harness
from harness import Checks, Instrumentation, Span, Tracer, self_times, summarize


# -- self time ------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        # Two children overlapping each other (two threads): 2..6 and 4..8
        # cover 6 s of the root, not 8.
        Span(1, "child", 2.0, 6.0, 0, 2),
        Span(2, "child", 4.0, 8.0, 0, 3),
        Span(3, "grandchild", 5.0, 6.0, 2, 3),
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(4.0)
    assert got["child"] == pytest.approx(4.0 + 3.0)
    assert got["grandchild"] == pytest.approx(1.0)


def test_spans_in_threads_parent_to_the_span_that_spawned_them():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work():
        with tracer.span("worker"):
            barrier.wait(timeout=5)
            with tracer.span("inner"):
                time.sleep(0.01)

    with tracer.span("root"):
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()

    by_id = {s.span_id: s for s in tracer.spans}
    root = next(s for s in tracer.spans if s.name == "root")
    workers = [s for s in tracer.spans if s.name == "worker"]
    inners = [s for s in tracer.spans if s.name == "inner"]
    # Plain threads start with an empty context: their spans are roots of
    # their own, never children of the other thread's open span.
    assert all(w.parent is None for w in workers)
    assert len({w.thread for w in workers}) == 2
    for inner in inners:
        parent = by_id[inner.parent]
        assert parent.name == "worker" and parent.thread == inner.thread
    assert root.parent is None


def test_asyncio_tasks_keep_separate_parent_chains():
    tracer = Tracer()

    def blocking(tag):
        with tracer.span(f"job.{tag}"):
            time.sleep(0.02)

    async def worker(tag):
        with tracer.span(f"task.{tag}"):
            await asyncio.sleep(0)
            await asyncio.to_thread(blocking, tag)

    async def main():
        await asyncio.gather(worker("a"), worker("b"))

    with tracer.span("root"):
        asyncio.run(main())

    by_name = {s.name: s for s in tracer.spans}
    by_id = {s.span_id: s for s in tracer.spans}
    for tag in "ab":
        job, task = by_name[f"job.{tag}"], by_name[f"task.{tag}"]
        assert by_id[job.parent] is task
        assert by_id[task.parent] is by_name["root"]
    got = tracer.self_times()
    # Each task's self time excludes its job running in another thread.
    for tag in "ab":
        assert got[f"task.{tag}"] < by_name[f"job.{tag}"].duration
    assert got["root"] < by_name["root"].duration


def test_instrumentation_wraps_and_restores_functions_and_methods():
    import types
    import sys

    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def compute(x):
        return x * 2

    class Model:
        def run(self, x):
            return x * 2 + 1

        @classmethod
        def build(cls, x):
            return cls().run(x)

    mod.compute = compute
    user.compute = compute  # bound by "from fakepkg.mod import compute"
    sys.modules["fakepkg.mod"] = mod
    sys.modules["fakepkg.user"] = user
    try:
        tracer = Tracer()
        inst = Instrumentation(tracer, "fakepkg")
        counted = []
        inst.function(mod, "compute", "layer.compute",
                      lambda t, args, kwargs, result: counted.append(result))
        inst.method(Model, "run", "layer.run")
        inst.method(Model, "build", "layer.build")
        assert user.compute is not compute
        assert Model.build(3) == 7
        assert user.compute(5) == 10
        assert [s.name for s in tracer.spans].count("layer.compute") == 1
        assert {s.name for s in tracer.spans} == {"layer.compute", "layer.run",
                                                  "layer.build"}
        assert counted == [10]
        with tracer.suspended():
            assert user.compute(6) == 12
            tracer.add("ignored")
        assert len(tracer.spans) == 3 and "ignored" not in tracer.counts
        inst.undo()
        assert mod.compute is compute and user.compute is compute
        assert Model.__dict__["run"].__name__ == "run"
        assert isinstance(Model.__dict__["build"], classmethod)
    finally:
        del sys.modules["fakepkg.mod"], sys.modules["fakepkg.user"]


# -- timing rule ------------------------------------------------------------------

@pytest.mark.parametrize("n, pct", [(5, None), (19, None), (100, 90.0),
                                    (999, 90.0), (1000, 99.0), (10000, 99.9)])
def test_summary_reports_the_highest_percentile_with_ten_samples_beyond(n, pct):
    got = summarize(float(i) for i in range(1, n + 1))
    assert got["n"] == n
    assert got["p50"] == pytest.approx((n + 1) / 2)
    if pct is None:
        assert "pct" not in got
    else:
        assert got["pct"] == pct
        beyond = sum(1 for i in range(1, n + 1) if i > got["value"])
        assert beyond >= 10


def test_describe_states_the_sample_count():
    text = harness.describe(summarize(range(100)), "ms")
    assert "n=100" in text and "p90" in text


# -- output checks ----------------------------------------------------------------

def _fake_outputs():
    from repro.analytics.dataset import BadgeDaySummary
    from repro.badges.pipeline import PairwiseDay

    n = 8
    arrays = dict(active=np.ones(n, bool), worn=np.ones(n, bool),
                  room=np.zeros(n, np.int8), x=np.zeros(n, np.float32),
                  y=np.zeros(n, np.float32), accel_rms=np.arange(n, dtype=np.float32),
                  voice_db=np.zeros(n, np.float32),
                  dominant_pitch_hz=np.zeros(n, np.float32),
                  pitch_stability=np.zeros(n, np.float32),
                  sound_db=np.zeros(n, np.float32))
    summary = BadgeDaySummary(badge_id=0, day=2, t0=0.0, dt=1.0, **arrays)
    pairwise = PairwiseDay(day=2, ir_contact={(0, 1): np.zeros(n, bool)},
                           subghz_rssi={(0, 1): np.zeros(n, np.float32)})
    return {(0, 2): summary}, {2: pairwise}


def test_a_flipped_byte_changes_the_digest():
    import workloads

    summaries, pairwise = _fake_outputs()
    before = workloads.sensing_digest(summaries, pairwise)
    summaries[(0, 2)].accel_rms.view(np.uint8)[3] ^= 1
    assert workloads.sensing_digest(summaries, pairwise) != before
    summaries[(0, 2)].accel_rms.view(np.uint8)[3] ^= 1
    pairwise[2].subghz_rssi[(0, 1)].view(np.uint8)[0] ^= 0x80
    assert workloads.sensing_digest(summaries, pairwise) != before


def test_a_corrupted_digest_fails_the_check(tmp_path, monkeypatch):
    import workloads

    summaries, pairwise = _fake_outputs()
    digest = workloads.sensing_digest(summaries, pairwise)
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"mission-cold": {"7": digest}}))
    monkeypatch.setattr(workloads, "GOLDEN_PATH", golden)

    ok = Checks()
    workloads.check_digest(ok, "mission-cold", 7, digest)
    assert ok.ok and ok.passed == 1

    corrupted = ("0" if digest[0] != "0" else "1") + digest[1:]
    bad = Checks()
    workloads.check_digest(bad, "mission-cold", 7, corrupted)
    assert not bad.ok and len(bad.failures) == 1


def test_a_failed_check_makes_the_command_exit_nonzero(monkeypatch, capsys):
    import run
    import workloads

    def broken(seed, seconds, tracer, work):
        checks = Checks()
        checks.expect(False, "digest mismatch")
        return workloads.Outcome(metrics={"setup_s": (1.0, "s")}, iterations=1,
                                 attempted=1, failed=0, checks=checks)

    monkeypatch.setitem(workloads.WORKLOADS, "mission-cold", broken)
    monkeypatch.setattr(run, "calibration_seconds", lambda: 0.3)
    assert run.main(["--workload", "mission-cold", "--seed", "1"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
