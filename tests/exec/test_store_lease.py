"""Stateful property test: the day store's writer lease against a model.

Simulated processes (distinct pids) take, release, die holding, and
write through the per-key lease of :mod:`repro.exec.checkpoint`, while
days are recorded, read back, and corrupted on disk.  A small reference
model predicts every outcome:

* at most one live process ever holds the lease;
* a dead holder's lock can always be broken by the next acquirer;
* a recorded day reads back identical;
* a corrupt day is a counted miss, moved to quarantine, never served.

Process identity is simulated by giving each lease its own view of
``os.getpid`` and by patching :func:`repro.exec.integrity.pid_alive`
to the model's set of live pids, so no real process is spawned.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.config import MissionConfig
from repro.exec import checkpoint, integrity
from repro.exec.cache import MissionCache
from repro.exec.checkpoint import LOCK_NAME, CheckpointJournal, JournalBusyError
from repro.exec.executor import DayOutcome

#: Derandomized and capped, like the quality suite's profile: every run
#: explores the identical example sequence at a fixed cost.
settings.register_profile(
    "store-lease-tier1",
    derandomize=True,
    max_examples=25,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CFG = MissionConfig(days=4, seed=3, events=None)
DAYS = CFG.instrumented_days
SLOTS = range(3)


class _ProcessOs:
    """The ``os`` module as seen from one simulated process."""

    def __init__(self, pid: int):
        self._pid = pid

    def getpid(self) -> int:
        return self._pid

    def __getattr__(self, name):
        return getattr(os, name)


class StoreLeaseMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="store-lease-"))
        self.live = {os.getpid()}
        self._patch = mock.patch.object(
            integrity, "pid_alive", lambda pid: pid in self.live)
        self._patch.start()
        self.next_pid = 2 ** 22
        # One process per slot; a killed slot restarts under a new pid.
        self.procs = {slot: self._spawn() for slot in SLOTS}
        self.holder: int | None = None  # slot the model says holds the lease
        self.dead_lock = False          # a killed holder's marker is on disk
        self.stored: dict[int, float] = {}  # day -> token written
        self.corrupt: set[int] = set()
        self.quarantined = 0
        self.serial = 0

    def teardown(self):
        self._patch.stop()
        shutil.rmtree(self.root, ignore_errors=True)

    def _spawn(self) -> tuple[int, CheckpointJournal]:
        pid = self.next_pid
        self.next_pid += 1
        self.live.add(pid)
        return pid, CheckpointJournal(MissionCache(self.root), CFG, owner=f"p{pid}")

    def _as(self, slot: int):
        return mock.patch.object(checkpoint, "os", _ProcessOs(self.procs[slot][0]))

    @property
    def lock_path(self) -> Path:
        return MissionCache(self.root).day_dir(CFG) / LOCK_NAME

    # -- rules ---------------------------------------------------------

    @rule(slot=st.sampled_from(SLOTS))
    def acquire(self, slot):
        journal = self.procs[slot][1]
        with self._as(slot):
            try:
                journal.acquire()
            except JournalBusyError:
                # Only a *live* other holder may refuse us.
                assert self.holder is not None and self.holder != slot
                return
        assert self.holder in (None, slot), "took a lease a live process holds"
        self.holder = slot
        self.dead_lock = False

    @precondition(lambda self: self.holder is not None)
    @rule()
    def kill_holder(self):
        """kill -9: the holder never releases, its marker stays behind."""
        pid, _ = self.procs[self.holder]
        self.live.discard(pid)
        self.procs[self.holder] = self._spawn()
        self.holder = None
        self.dead_lock = True

    @rule(slot=st.sampled_from(SLOTS))
    def release(self, slot):
        with self._as(slot):
            self.procs[slot][1].close()
        if self.holder == slot:
            self.holder = None

    @precondition(lambda self: self.holder is not None)
    @rule(day=st.sampled_from(DAYS))
    def record(self, day):
        self.serial += 1
        token = float(self.serial)
        outcome = DayOutcome(day=day, active_seconds={0: token},
                             telemetry={"transient": True})
        with self._as(self.holder):
            self.procs[self.holder][1].record(outcome)
        self.stored[day] = token
        self.corrupt.discard(day)

    @rule(day=st.sampled_from(DAYS))
    def load(self, day):
        cache = MissionCache(self.root)
        got = cache.load_day(CFG, day)
        if day in self.corrupt:
            assert got is None, "a corrupt day was served"
            assert cache.stats()["misses"]["day"] == 1
            assert cache.stats()["quarantined"]["day"] == 1
            self.quarantined += 1
            self.corrupt.discard(day)
            del self.stored[day]
        elif day in self.stored:
            assert got is not None
            assert got.day == day
            assert got.active_seconds == {0: self.stored[day]}
            assert got.telemetry is None
            assert cache.stats()["hits"]["day"] == 1
        else:
            assert got is None
            assert cache.stats()["misses"]["day"] == 1
            assert cache.stats()["quarantined"]["day"] == 0

    @precondition(lambda self: bool(set(self.stored) - self.corrupt))
    @rule(data=st.data())
    def corrupt_day(self, data):
        day = data.draw(st.sampled_from(sorted(set(self.stored) - self.corrupt)))
        path = MissionCache(self.root).day_path(CFG, day)
        blob = bytearray(path.read_bytes())
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= 0x20
        path.write_bytes(bytes(blob))
        self.corrupt.add(day)

    # -- invariants ------------------------------------------------------

    @invariant()
    def at_most_one_live_holder(self):
        held = [slot for slot, (pid, journal) in self.procs.items()
                if journal._locked and pid in self.live]
        assert held == ([] if self.holder is None else [self.holder])

    @invariant()
    def marker_names_the_holder(self):
        if self.holder is not None:
            marker = json.loads(self.lock_path.read_text())
            assert marker["pid"] == self.procs[self.holder][0]
        else:
            assert self.lock_path.exists() == self.dead_lock

    @invariant()
    def dead_holders_lock_can_be_broken(self):
        """Whenever the lease is free or held by the dead, a live
        process can take it (probe on a throwaway copy of the store)."""
        if self.holder is not None or not self.lock_path.exists():
            return
        probe_root = Path(tempfile.mkdtemp(prefix="store-lease-probe-"))
        try:
            shutil.copytree(self.root, probe_root, dirs_exist_ok=True)
            with mock.patch.object(checkpoint, "os", _ProcessOs(os.getpid())):
                with CheckpointJournal(MissionCache(probe_root), CFG):
                    pass
        finally:
            shutil.rmtree(probe_root, ignore_errors=True)

    @invariant()
    def quarantine_keeps_every_specimen(self):
        qdir = self.root / integrity.QUARANTINE_DIR
        found = len(list(qdir.iterdir())) if qdir.exists() else 0
        assert found == self.quarantined


StoreLeaseMachine.TestCase.settings = settings.get_profile("store-lease-tier1")
TestStoreLease = StoreLeaseMachine.TestCase
