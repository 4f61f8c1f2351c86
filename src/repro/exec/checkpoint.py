"""The day store's writer lease: crash recovery without a second copy.

A multi-day mission sweep on Mars-analog infrastructure has no operator
to restart it: a killed process must not cost the whole run (the ICAres-1
deployment itself lost days of data to dead batteries and full SD cards).
The mission store (:class:`~repro.exec.cache.MissionCache`) already makes
the execution engine crash-safe, because a day in the store *is* a
checkpoint:

* as each :class:`~repro.exec.executor.DayOutcome` completes — serially,
  from a pool worker, or salvaged out of a broken pool — it is written as
  one atomic, checksummed artifact (:mod:`repro.exec.integrity`) under
  ``<root>/sensing-<sensing-key>/dayNN.pkl``;
* a rerun against the same store (``ExecutionConfig(cache_dir=...)`` /
  ``repro run --cache DIR``) serves every stored day that passes checksum
  verification and computes only the remainder, **bit-identical** to an
  uninterrupted run (day outcomes are self-contained and the SD-card
  accountant is rebuilt by replaying outcomes in day order);
* days are keyed by the config's sensing fingerprint, so a changed
  config simply finds no days — stale outcomes can never leak into the
  wrong mission;
* a corrupt or truncated day (the crash may have been mid-write, the
  disk may be failing) is quarantined and recomputed, never served.

What the store needs on top is one writer per sensing key:
:class:`CheckpointJournal` is that lease, and :meth:`~CheckpointJournal.record`
writes a completed day through the store while holding it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro.core.config import MissionConfig
from repro.core.errors import DataError
from repro.exec import integrity
from repro.obs import get_logger

if TYPE_CHECKING:
    from repro.exec.cache import MissionCache
    from repro.exec.executor import DayOutcome

log = get_logger("repro.exec.checkpoint")

#: Name of the per-key exclusive-lease marker inside ``sensing-<key>/``.
LOCK_NAME = "writer.lock"


class JournalBusyError(DataError):
    """Another live process holds this sensing key's writer lease.

    Two writers interleaving days into one key would be indistinguishable
    from corruption after the fact; the second one gets this clean,
    catchable error instead.
    """


class CheckpointJournal:
    """Exclusive writer lease over one config's days in a mission store.

    ``with CheckpointJournal(cache, cfg) as lease:`` takes the lease
    (raising :class:`JournalBusyError` when a live process holds it) and
    releases it on exit.  Readers never take it: a fully stored mission
    is replayed without locking.
    """

    def __init__(self, cache: "MissionCache", cfg: MissionConfig, *,
                 owner: str = ""):
        self.cache = cache
        self.cfg = cfg
        self.owner = owner
        self.dir = cache.day_dir(cfg)
        self._lock_path = self.dir / LOCK_NAME
        self._locked = False

    # -- exclusive lease -------------------------------------------------
    #
    # Two processes computing the same sensing key would interleave
    # writes into one directory; an ``O_EXCL`` lease marker (pid + owner
    # recorded inside) makes the key single-writer.  A marker whose pid
    # is no longer alive is *stale* — the holder was killed without
    # releasing — and may be broken; the break goes through ``os.rename``
    # to a unique name so two concurrent breakers can never each unlink
    # the other's freshly acquired lock.

    def acquire(self) -> None:
        """Take the key's exclusive lease (idempotent per instance).

        Raises:
            JournalBusyError: a live process already holds the lease.
        """
        if self._locked:
            return
        self.dir.mkdir(parents=True, exist_ok=True)
        payload = json.dumps({
            "pid": os.getpid(), "owner": self.owner, "acquired_at": time.time(),
        }).encode("utf-8")
        for attempt in range(2):
            try:
                fd = os.open(self._lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                holder = self._read_lock()
                holder_pid = holder.get("pid", -1) if holder is not None else -1
                if attempt == 0 and not integrity.pid_alive(int(holder_pid)):
                    self._break_stale_lock()
                    continue
                raise JournalBusyError(
                    f"store {self.dir} is held by "
                    f"{holder or 'an unreadable lock'}; a second writer would "
                    "interleave day writes"
                ) from None
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            self._locked = True
            return

    def _read_lock(self) -> Optional[dict]:
        try:
            return json.loads(self._lock_path.read_text())
        except (OSError, ValueError):
            return None  # vanished, or crashed mid-write: treat as stale

    def _break_stale_lock(self) -> None:
        # Rename-then-unlink: only one breaker wins the rename, so a
        # racer can never unlink the lock the winner is about to take.
        stale = self._lock_path.with_name(
            f"{LOCK_NAME}.stale.{os.getpid()}.{time.time_ns()}")
        try:
            os.rename(self._lock_path, stale)
        except OSError:
            return  # someone else broke (or took) it first
        log.warning("store-stale-lock-broken", store=str(self.dir))
        try:
            os.unlink(stale)
        except OSError:
            pass

    def close(self) -> None:
        """Release the exclusive lease (no-op if never acquired)."""
        if self._locked:
            try:
                os.unlink(self._lock_path)
            except OSError:
                pass
            self._locked = False

    def __enter__(self) -> "CheckpointJournal":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- days ------------------------------------------------------------

    def day_path(self, day: int) -> Path:
        """Where the store keeps ``day`` of this config."""
        return self.cache.day_path(self.cfg, day)

    def record(self, outcome: "DayOutcome") -> None:
        """Store one completed day (atomic, checksummed, idempotent).

        Worker telemetry snapshots are transient driver-merge payloads
        and are stripped before persisting.
        """
        if outcome.telemetry is not None:
            outcome = dataclasses.replace(outcome, telemetry=None)
        self.cache.store_day(self.cfg, outcome)
