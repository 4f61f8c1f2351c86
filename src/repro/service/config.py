"""Configuration of the mission fleet service.

One :class:`ServiceConfig` describes a service *home*: a directory
holding the durable registry database plus the stores every worker
shares — the content-addressed mission store (whose stored days are
also the checkpoints a re-leased job resumes from) and the result
artifacts.  Everything a restart needs to recover in-flight work lives
under this one root.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.errors import ConfigError

#: Registry database file name inside the service root.
DB_NAME = "registry.db"

#: Default bounded backlog (queued + leased + running) before admission
#: control starts rejecting submissions.
DEFAULT_QUEUE_DEPTH = 256


@dataclass(frozen=True)
class ServiceConfig:
    """How a fleet service runs — never what its missions compute.

    Attributes:
        root: service home directory (registry DB, store, and results
            all live under it; created on demand).
        n_workers: concurrent mission workers (asyncio tasks, each
            running its leased mission in a thread).
        queue_depth: admission bound on the backlog; a submission that
            would push queued+leased+running past it is rejected with a
            :class:`~repro.service.errors.QueueFullError` carrying a
            retry-after hint.
        lease_s: lease duration granted to a worker; heartbeats extend
            it, and a lease whose deadline passes without one is
            requeued (the holder is presumed dead or hung).
        heartbeat_s: interval between lease heartbeats; must leave
            comfortable slack under ``lease_s``.
        max_attempts: per-job retry budget — lease acquisitions,
            including post-crash re-leases — before the job moves to
            the dead-letter table instead of requeueing.
        retry_backoff_s: base of the exponential requeue backoff
            (:class:`~repro.core.backoff.BackoffPolicy`, capped at its
            default 30 s).
        backoff_seed: seed of the jitter RNG so retry schedules are
            reproducible.
        job_timeout_s: optional per-job wall-clock deadline; a job
            running longer stops being heartbeated, its lease expires,
            and it is requeued against the retry budget.
        poll_s: scheduler poll interval (lease scans, probe refresh).
        nominal_job_s: rough per-job service time used only to compute
            the retry-after hint handed to rejected submitters.
    """

    root: str
    n_workers: int = 2
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    lease_s: float = 30.0
    heartbeat_s: Optional[float] = None
    max_attempts: int = 3
    retry_backoff_s: float = 0.25
    backoff_seed: int = 0
    job_timeout_s: Optional[float] = None
    poll_s: float = 0.05
    nominal_job_s: float = 5.0

    def __post_init__(self) -> None:
        if not str(self.root):
            raise ConfigError("service root must be a non-empty path")
        if self.n_workers < 1:
            raise ConfigError("n_workers must be >= 1")
        if self.queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")
        if self.lease_s <= 0:
            raise ConfigError("lease_s must be positive")
        if self.heartbeat_s is not None and not 0 < self.heartbeat_s < self.lease_s:
            raise ConfigError("heartbeat_s must lie in (0, lease_s)")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.retry_backoff_s < 0:
            raise ConfigError("retry_backoff_s must be >= 0")
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ConfigError("job_timeout_s must be positive or None")
        if self.poll_s <= 0:
            raise ConfigError("poll_s must be positive")
        if self.nominal_job_s <= 0:
            raise ConfigError("nominal_job_s must be positive")

    # -- derived paths ---------------------------------------------------

    @property
    def root_path(self) -> Path:
        return Path(self.root)

    @property
    def db_path(self) -> Path:
        return self.root_path / DB_NAME

    @property
    def cache_dir(self) -> Path:
        return self.root_path / "cache"

    @property
    def results_dir(self) -> Path:
        return self.root_path / "results"

    @property
    def effective_heartbeat_s(self) -> float:
        """Heartbeat interval: explicit, or a third of the lease."""
        return self.heartbeat_s if self.heartbeat_s is not None else self.lease_s / 3.0

    def retry_after_s(self, depth: int) -> float:
        """Suggested wait for a rejected submitter: time for the current
        backlog to drain one slot, given the worker pool."""
        return max(1.0, depth * self.nominal_job_s / self.n_workers)
