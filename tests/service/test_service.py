"""FleetService loop: drain semantics, retries, recovery, probes.

``execute_job`` is monkeypatched to synthetic work so these stay
tier-1-fast; the real mission path is covered by the chaos suite.
"""

import dataclasses
import threading
import time
from pathlib import Path

import pytest

from repro import MissionConfig
from repro.service import (
    FleetClient,
    FleetService,
    ServiceConfig,
    serve,
)
from repro.service import service as service_mod
from repro.service.config import NOMINAL_JOB_S


@pytest.fixture()
def root(tmp_path):
    return str(tmp_path / "fleet")


def fake_execute(results_dir):
    """A stand-in worker: records executions, returns a fake artifact."""
    calls = []

    def execute(job, *, cache_dir, results_dir):
        calls.append(job.fingerprint)
        return str(results_dir / f"{job.fingerprint}.pkl"), "digest-" + job.fingerprint[:6]

    return execute, calls


def config(root, **kwargs) -> ServiceConfig:
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("lease_s", 5.0)
    kwargs.setdefault("retry_backoff_s", 0.0)
    return ServiceConfig(root=root, **kwargs)


def submit_all(root, configs, **kwargs):
    with FleetClient(root, create=True) as client:
        return [client.submit(cfg, **kwargs) for cfg in configs]


class TestConfig:
    def test_fields_are_pinned(self):
        """Seven knobs; the heartbeat is derived from the lease, the poll
        interval, backoff seed and nominal job time are constants."""
        assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
            "root", "n_workers", "queue_depth", "lease_s", "max_attempts",
            "retry_backoff_s", "job_timeout_s"]
        assert ServiceConfig(root="r", lease_s=9.0).heartbeat_s == 3.0
        assert service_mod.POLL_S == 0.05
        assert NOMINAL_JOB_S == 5.0

    def test_service_publishes_only_what_clients_read(self, root):
        serve(config(root, n_workers=3), drain=True)
        with FleetClient(root) as client:
            assert client.registry.get_meta("n_workers") == 3
            assert client.registry.get_meta("nominal_job_s") is None


class TestDrain:
    def test_drains_to_empty_exactly_once(self, root, monkeypatch):
        execute, calls = fake_execute(root)
        monkeypatch.setattr(service_mod.worker_mod, "execute_job", execute)
        cfgs = [MissionConfig(days=2, seed=s) for s in range(4)]
        receipts = submit_all(root, cfgs + cfgs)  # every config twice
        assert sum(r.deduped for r in receipts) == 4
        stats = serve(config(root), drain=True)
        assert stats["completed"] == 4
        assert sorted(calls) == sorted({r.fingerprint for r in receipts})
        with FleetClient(root) as client:
            for receipt in receipts:
                record = client.status(receipt.job_id)
                assert record.state == "done"
                assert record.completions == 1

    def test_empty_registry_drains_immediately(self, root):
        stats = serve(config(root), drain=True)
        assert stats["completed"] == 0

    def test_failing_job_retries_then_dead_letters(self, root, monkeypatch):
        def explode(job, **kwargs):
            raise RuntimeError("sensor bus on fire")

        monkeypatch.setattr(service_mod.worker_mod, "execute_job", explode)
        submit_all(root, [MissionConfig(days=2, seed=1)])
        stats = serve(config(root, max_attempts=3), drain=True)
        assert stats["dead"] == 1
        assert stats["failed"] == 2  # two requeues before the budget died
        with FleetClient(root) as client:
            overview = client.overview()
            assert overview["counts"]["dead"] == 1
            (letter,) = overview["dead_letters"]
            assert "sensor bus on fire" in letter["error"]
            assert letter["attempts"] == 3

    def test_flaky_job_eventually_completes(self, root, monkeypatch):
        attempts = {"n": 0}

        def flaky(job, *, results_dir, **kwargs):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise RuntimeError("transient")
            return str(results_dir / "r.pkl"), "digest"

        monkeypatch.setattr(service_mod.worker_mod, "execute_job", flaky)
        (receipt,) = submit_all(root, [MissionConfig(days=2, seed=1)])
        stats = serve(config(root, max_attempts=3), drain=True)
        assert stats["completed"] == 1
        assert attempts["n"] == 3
        with FleetClient(root) as client:
            record = client.status(receipt.job_id)
            assert record.state == "done"
            assert record.attempts == 3
            assert record.completions == 1

    def test_probe_reports_drained(self, root, monkeypatch):
        execute, _ = fake_execute(root)
        monkeypatch.setattr(service_mod.worker_mod, "execute_job", execute)
        submit_all(root, [MissionConfig(days=2, seed=1)])
        serve(config(root), drain=True)
        with FleetClient(root) as client:
            probe = client.health()
            assert probe["state"] == "drained"
            assert probe["live"]  # this very process
            assert not probe["ready"]


class TestServeMode:
    def test_request_stop_ends_serve(self, root, monkeypatch):
        """Without drain, the loop runs until asked to stop."""
        execute, calls = fake_execute(root)
        monkeypatch.setattr(service_mod.worker_mod, "execute_job", execute)
        submit_all(root, [MissionConfig(days=2, seed=1)])
        service = FleetService(config(root))

        def stop_once_done():
            deadline = time.monotonic() + 30.0
            with FleetClient(root) as client:
                while time.monotonic() < deadline:
                    if client.overview()["counts"]["done"] == 1:
                        break
                    time.sleep(0.02)
            service.request_stop()

        stopper = threading.Thread(target=stop_once_done)
        stopper.start()
        import asyncio

        stats = asyncio.run(service.run(drain=False))
        stopper.join()
        assert stats["completed"] == 1
        with FleetClient(root) as client:
            assert client.health()["state"] == "stopped"

    def test_startup_recovers_dead_owner_leases(self, root, monkeypatch):
        """Registry rows leased by a dead pid are requeued and completed."""
        execute, calls = fake_execute(root)
        monkeypatch.setattr(service_mod.worker_mod, "execute_job", execute)
        (receipt,) = submit_all(root, [MissionConfig(days=2, seed=1)])
        with FleetClient(root) as client:
            orphan = client.registry.lease_next(
                owner="ghost", pid=2 ** 22 + 12345, now=time.time(),
                lease_s=3600.0)
            assert orphan is not None
        stats = serve(config(root), drain=True)
        assert stats["recovered_on_start"] == 1
        assert stats["completed"] == 1
        with FleetClient(root) as client:
            record = client.status(receipt.job_id)
            assert record.state == "done"
            assert record.completions == 1

    def test_job_timeout_requeues_hung_job(self, root, monkeypatch):
        """A hung worker stops heartbeating; the sweep reclaims the job."""
        hangs = {"n": 0}

        def hang_once(job, *, results_dir, **kwargs):
            hangs["n"] += 1
            if hangs["n"] == 1:
                time.sleep(1.5)  # well past lease_s + timeout below
            return str(results_dir / "r.pkl"), "digest"

        monkeypatch.setattr(service_mod.worker_mod, "execute_job", hang_once)
        (receipt,) = submit_all(root, [MissionConfig(days=2, seed=1)])
        stats = serve(
            config(root, n_workers=1, lease_s=0.3, job_timeout_s=0.2,
                   max_attempts=3),
            drain=True)
        assert hangs["n"] >= 2
        assert stats["requeued"] >= 1
        with FleetClient(root) as client:
            record = client.status(receipt.job_id)
            assert record.state == "done"
            assert record.completions == 1  # the hung attempt never acked


class TestStoreLeaseCollision:
    def test_quality_twins_both_complete_without_dead_letters(self, root,
                                                              monkeypatch):
        """Two submissions of one mission that differ only in ``quality``
        share a store key.  The one that finds the key's writer lease held
        never ran, so it is requeued with its attempt refunded — never
        walked to the dead-letter table by the collision."""
        from repro import obs
        from repro.exec.cache import MissionCache
        from repro.exec.checkpoint import CheckpointJournal, JournalBusyError

        cfg = MissionConfig(days=2, seed=11, frame_dt=10.0, events=None)
        real = service_mod.worker_mod.execute_job
        guard = threading.Lock()
        collided = threading.Event()
        calls = []

        def execute(job, *, cache_dir, results_dir):
            with guard:
                calls.append(job.quality)
                first = len(calls) == 1
            if first:
                # Hold the shared key's writer lease until the twin has
                # run into it, so the collision is certain, not a race.
                with CheckpointJournal(MissionCache(cache_dir), cfg,
                                       owner="holder"):
                    assert collided.wait(timeout=120)
            try:
                return real(job, cache_dir=cache_dir, results_dir=results_dir)
            except JournalBusyError:
                collided.set()
                raise

        monkeypatch.setattr(service_mod.worker_mod, "execute_job", execute)
        receipts = [submit_all(root, [cfg], quality=q)[0] for q in ("auto", "gate")]
        assert receipts[0].fingerprint != receipts[1].fingerprint
        obs.reset()
        obs.enable()
        try:
            stats = serve(config(root, retry_backoff_s=0.05), drain=True)
            collisions = obs.logging.buffer.matching("store-lease-collision")
        finally:
            obs.reset()

        assert collided.is_set()
        assert stats["store_busy"] >= 1
        assert len(collisions) == stats["store_busy"]
        assert (stats["completed"], stats["failed"], stats["dead"]) == (2, 0, 0)
        # One day store: the service home keeps no separate journal.
        assert sorted(p.name for p in Path(root).iterdir()
                      if p.is_dir()) == ["cache", "results"]
        with FleetClient(root) as client:
            assert client.overview()["dead_letters"] == []
            for receipt in receipts:
                record = client.status(receipt.job_id)
                assert record.state == "done"
                assert record.completions == 1
                # Collisions are refunded: one charged attempt each.
                assert record.attempts == 1
