"""The long-running mission fleet service.

The durable registry is the service's only queue.  ``FleetService.run()``
drives one asyncio loop of ``n_workers`` **worker** tasks, each running
the whole job protocol straight against the registry:
:meth:`~repro.service.registry.MissionRegistry.lease_next` →
``mark_running`` → the mission in a thread
(:func:`repro.service.worker.execute_job`) under a heartbeat that keeps
the lease alive → ``complete`` / ``fail`` / ``release``.  A worker only
leases when it is free to run the job, so no lease ever waits unstarted;
an idle worker asks again after :data:`POLL_S` (or as soon as the
service stops).  A job that outlives the optional per-job deadline stops
being heartbeated on purpose, and the lease-expiry sweep reclaims it.

Beside the workers, a **supervisor** requeues expired leases with
seeded-jitter exponential backoff (dead-lettering past the retry
budget), refreshes the health probe and the ``service.queue_depth``
gauge, and detects drain or stop; it ends the run by setting the one
stop event the workers exit on once idle.  Backpressure lives at the
registry, where admission control rejects submissions past the
configured backlog.

Crash recovery is a property of the registry + store, not of this
loop: on startup the service requeues every lease whose owning process
died (``kill -9`` leaves them mid-flight), and each re-leased job
*resumes* from the days already in the shared store.  A stale worker
that somehow survives cannot double-acknowledge (lease tokens) or
interleave day writes (the store's per-key writer lease) — exactly-once
execution per fingerprint holds across restarts.  A job that finds its
store key held by another live worker never ran, so it is requeued
after backoff with its attempt refunded rather than failed.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import time
from typing import Optional

from repro.core.backoff import BackoffPolicy
from repro.exec.checkpoint import JournalBusyError
from repro.faults.service import ServiceChaos
from repro.obs import _state as _obs
from repro.obs import get_logger
from repro.obs import metrics as _metrics
from repro.service import worker as worker_mod
from repro.service.config import ServiceConfig
from repro.service.registry import JobRecord, MissionRegistry

log = get_logger("repro.service")

#: Seconds an idle worker (or the supervisor) waits before asking the
#: registry again; a stop request cuts the wait short.
POLL_S = 0.05


class FleetService:
    """Supervised async mission fleet service over one durable registry."""

    def __init__(self, config: ServiceConfig, *,
                 chaos: Optional[ServiceChaos] = None):
        self.config = config
        self.chaos = chaos or ServiceChaos()
        self.owner = f"{socket.gethostname()}:{os.getpid()}"
        self.registry: Optional[MissionRegistry] = None
        self._backoff = BackoffPolicy(base_s=config.retry_backoff_s, seed=0)
        self._stop = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.stats = {
            "completed": 0, "failed": 0, "dead": 0, "requeued": 0,
            "recovered_on_start": 0, "lease_lost": 0, "store_busy": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the service to shut down gracefully.  Safe from signal
        handlers and from other threads: while the service runs, the
        stop event is set on its own loop (asyncio events are not
        thread-safe)."""
        if self._loop is None:
            self._stop.set()
        else:
            self._loop.call_soon_threadsafe(self._stop.set)

    async def run(self, *, drain: bool = False,
                  install_signal_handlers: bool = False) -> dict:
        """Serve until stopped — or, with ``drain=True``, until the
        registry holds no runnable work.  Returns the run's stats."""
        cfg = self.config
        for path in (cfg.cache_dir, cfg.results_dir):
            path.mkdir(parents=True, exist_ok=True)
        self.registry = MissionRegistry.open(cfg.db_path, create=True)
        self.registry.set_meta(
            queue_depth=cfg.queue_depth, max_attempts=cfg.max_attempts,
            n_workers=cfg.n_workers)
        now = time.time()
        recovered = self.registry.recover_orphans(
            now=now, backoff=lambda attempts: 0.0)
        recovered += self.registry.recover_expired(
            now=now, backoff=self._backoff.delay_s)
        self.stats["recovered_on_start"] = len(recovered)
        if recovered:
            log.warning("startup-recovery", jobs=recovered)
        self.registry.set_probe(owner=self.owner, pid=os.getpid(),
                                state="ready", now=now)

        loop = self._loop = asyncio.get_running_loop()
        if install_signal_handlers:
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, self.request_stop)
                except (NotImplementedError, RuntimeError):
                    pass

        workers = [
            asyncio.create_task(self._worker(), name=f"service-worker-{i}")
            for i in range(cfg.n_workers)
        ]
        drained = False
        try:
            drained = await self._supervise(drain=drain)
        finally:
            # Graceful shutdown: workers finish and acknowledge their
            # in-flight job, then exit without leasing another.
            self._stop.set()
            await asyncio.gather(*workers, return_exceptions=True)
            self._loop = None
            self.registry.set_probe(
                owner=self.owner, pid=os.getpid(),
                state="drained" if drained else "stopped", now=time.time())
            self.registry.close()
        return dict(self.stats)

    async def _idle(self) -> None:
        """Wait one poll interval, or less if a stop is requested."""
        try:
            await asyncio.wait_for(self._stop.wait(), timeout=POLL_S)
        except asyncio.TimeoutError:
            pass

    # -- supervisor ---------------------------------------------------------

    async def _supervise(self, *, drain: bool) -> bool:
        """Sweep expired leases and refresh the probe until stopped;
        returns True when the run ended because the registry drained."""
        cfg = self.config
        registry = self.registry
        last_probe = 0.0
        while not self._stop.is_set():
            now = time.time()
            requeued = registry.recover_expired(
                now=now, backoff=self._backoff.delay_s)
            self.stats["requeued"] += len(requeued)
            if now - last_probe >= cfg.heartbeat_s:
                last_probe = now
                counts = registry.counts()
                registry.set_probe(owner=self.owner, pid=os.getpid(),
                                   state="ready", now=now,
                                   detail=str(counts))
                if _obs.enabled:
                    _metrics.gauge(
                        "service.queue_depth",
                        "jobs occupying backlog slots (queued+leased+running)",
                    ).set(registry.active_count())
            if drain and registry.active_count() == 0:
                log.info("drain-complete", stats=dict(self.stats))
                return True
            await self._idle()
        return False

    # -- workers ------------------------------------------------------------

    async def _worker(self) -> None:
        cfg = self.config
        registry = self.registry
        while not self._stop.is_set():
            job = registry.lease_next(owner=self.owner, pid=os.getpid(),
                                      now=time.time(), lease_s=cfg.lease_s)
            if job is None:
                await self._idle()
                continue
            now = time.time()
            if not registry.mark_running(job.job_id, job.lease_token, now):
                self.stats["lease_lost"] += 1
                continue
            beat = asyncio.create_task(
                self._heartbeat(job, started=now),
                name=f"heartbeat-{job.job_id}")
            try:
                path, digest = await asyncio.to_thread(
                    worker_mod.execute_job, job,
                    cache_dir=cfg.cache_dir, results_dir=cfg.results_dir)
            except JournalBusyError as exc:
                self._collided(job, exc)
            except Exception as exc:  # noqa: BLE001 — any job error is a job failure
                self._fail(job, f"{type(exc).__name__}: {exc}")
            else:
                self._complete(job, path, digest)
            finally:
                beat.cancel()

    def _complete(self, job: JobRecord, path: str, digest: str) -> None:
        done_at = time.time()
        if not self.registry.complete(job.job_id, job.lease_token,
                                      result_path=path, result_digest=digest,
                                      now=done_at):
            self.stats["lease_lost"] += 1
            log.warning("stale-completion-rejected", job_id=job.job_id)
            return
        self.stats["completed"] += 1
        if _obs.enabled and job.leased_at is not None:
            _metrics.histogram(
                "service.lease_age_s", "lease age at completion, seconds",
            ).observe(done_at - job.leased_at, tenant=job.tenant)
        self.chaos.on_completion(self.stats["completed"])

    def _collided(self, job: JobRecord, exc: JournalBusyError) -> None:
        """Another live worker holds this job's store key: the attempt
        never ran, so requeue it after backoff with the attempt refunded
        (a collision must not walk the job to the dead-letter table)."""
        self.stats["store_busy"] += 1
        backoff_s = self._backoff.delay_s(job.attempts)
        if not self.registry.release(job.job_id, job.lease_token,
                                     time.time(), backoff_s=backoff_s):
            self.stats["lease_lost"] += 1
        log.warning("store-lease-collision", job_id=job.job_id,
                    error=str(exc), backoff_s=backoff_s)

    def _fail(self, job: JobRecord, error: str) -> None:
        outcome = self.registry.fail(
            job.job_id, job.lease_token, error=error, now=time.time(),
            backoff_s=self._backoff.delay_s(job.attempts))
        if outcome == "dead":
            self.stats["dead"] += 1
        elif outcome == "failed":
            self.stats["failed"] += 1
        else:
            self.stats["lease_lost"] += 1
        log.warning("job-attempt-failed", job_id=job.job_id, error=error,
                    outcome=outcome or "lease-lost")

    async def _heartbeat(self, job: JobRecord, *, started: float) -> None:
        cfg = self.config
        while True:
            await asyncio.sleep(cfg.heartbeat_s)
            if (cfg.job_timeout_s is not None
                    and time.time() - started > cfg.job_timeout_s):
                # Deliberately stop renewing: the lease expires and the
                # supervisor requeues the job against its retry budget.
                log.warning("job-deadline-passed", job_id=job.job_id)
                return
            self.registry.heartbeat(job.job_id, job.lease_token,
                                    now=time.time(), lease_s=cfg.lease_s)


def serve(config: ServiceConfig, *, drain: bool = False,
          chaos: Optional[ServiceChaos] = None,
          install_signal_handlers: bool = False) -> dict:
    """Synchronous entry point: run a fleet service on a fresh loop."""
    service = FleetService(config, chaos=chaos)
    return asyncio.run(service.run(
        drain=drain, install_signal_handlers=install_signal_handlers))
