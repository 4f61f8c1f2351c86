"""Stateful property test: the job registry against a reference model.

Simulated workers (distinct pids) submit, lease, run, heartbeat,
acknowledge, fail and release jobs — with current *and* stale lease
tokens — while the synthetic clock advances past lease deadlines and
the service restarts (reopening the database), sometimes after a worker
process died holding leases.  A
small reference model predicts every return value and every row:

* every audited transition is ``- → queued`` or an edge of
  :data:`~repro.service.registry.VALID_TRANSITIONS`, and each job's
  audit trail is a path (each row starts where the previous one ended);
* a job completes at most once, and only from ``running``;
* terminal rows never change (apart from the dedup ``submit_count``);
* ``attempts`` never exceeds ``max_attempts``;
* ``active_count()`` equals the model's count of active jobs.

Process liveness is simulated by patching
:func:`repro.exec.integrity.pid_alive` to the model's set of live pids,
so no real process is spawned.  This is the safety net for moving the
service's workers into separate processes.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional
from unittest import mock

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.exec import integrity
from repro.service.registry import ACTIVE_STATES, VALID_TRANSITIONS, MissionRegistry

#: Derandomized and capped, like the store-lease suite's profile: every
#: run explores the identical example sequence at a fixed cost.
settings.register_profile(
    "registry-tier1",
    derandomize=True,
    max_examples=50,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

LEASE_S = 10.0
MAX_ATTEMPTS = 2
FINGERPRINTS = [f"{i:02d}" + "a" * 30 for i in range(6)]
SLOTS = range(2)


def expiry_backoff(attempts: int) -> float:
    return 2.0 * attempts


@dataclass
class ModelJob:
    job_id: str
    submitted_at: float
    state: str = "queued"
    attempts: int = 0
    submit_count: int = 1
    completions: int = 0
    token: Optional[str] = None
    pid: Optional[int] = None
    deadline: Optional[float] = None
    not_before: float = 0.0
    #: Every lease token ever granted, newest first.
    tokens: list = field(default_factory=list)

    def owns(self, token: str) -> bool:
        return token == self.token and self.state in ("leased", "running")

    def drop_lease(self) -> None:
        self.token = self.pid = self.deadline = None

    def requeue(self, state: str, not_before: float) -> None:
        self.state, self.not_before = state, not_before
        self.drop_lease()


class RegistryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="registry-machine-"))
        self.path = self.dir / "registry.db"
        self.registry = MissionRegistry.open(self.path, create=True)
        self.now = 1000.0
        self.next_pid = 2 ** 22
        self.live: set[int] = set()
        self.pids = {slot: self._spawn() for slot in SLOTS}
        self._patch = mock.patch.object(
            integrity, "pid_alive", lambda pid: pid in self.live)
        self._patch.start()
        self.jobs: dict[str, ModelJob] = {}  # by fingerprint
        self.frozen: dict[str, dict] = {}    # terminal rows, by job id

    def teardown(self):
        self._patch.stop()
        self.registry.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _spawn(self) -> int:
        pid = self.next_pid
        self.next_pid += 1
        self.live.add(pid)
        return pid

    def _leased_jobs(self) -> list[ModelJob]:
        return [j for j in self.jobs.values() if j.tokens]

    def _pick(self, data) -> tuple[ModelJob, str]:
        """A job that was ever leased, and one of its tokens.  Running,
        then leased jobs and their current token come first, so the
        simplest choice is the one a live worker would make."""
        held = sorted(self._leased_jobs(),
                      key=lambda j: (j.state != "running",
                                     j.state != "leased", j.job_id))
        job = data.draw(st.sampled_from(held))
        return job, data.draw(st.sampled_from(job.tokens))

    def _recovered(self, job: ModelJob, backoff_s: float) -> None:
        if job.attempts >= MAX_ATTEMPTS:
            job.state = "dead"
            job.drop_lease()
        else:
            job.requeue("queued", self.now + backoff_s)

    def _mark_running(self, job: ModelJob, token: str) -> None:
        expected = job.owns(token) and job.state == "leased"
        assert self.registry.mark_running(job.job_id, token, self.now) == expected
        if expected:
            job.state = "running"

    def _complete(self, job: ModelJob, token: str) -> None:
        expected = job.owns(token) and job.state == "running"
        assert self.registry.complete(
            job.job_id, token, result_path="r", result_digest="d",
            now=self.now) == expected
        if expected:
            # The done row keeps its last holder's token and pid.
            job.state, job.completions = "done", job.completions + 1
            job.deadline = None

    def _fail(self, job: ModelJob, token: str, backoff_s: float) -> None:
        outcome = self.registry.fail(job.job_id, token, error="boom",
                                     now=self.now, backoff_s=backoff_s)
        if not job.owns(token):
            assert outcome is None
        elif job.attempts >= MAX_ATTEMPTS:
            assert outcome == "dead"
            job.state = "dead"
            job.drop_lease()
        else:
            assert outcome == "failed"
            job.requeue("failed", self.now + backoff_s)

    def _release(self, job: ModelJob, token: str, backoff_s: float) -> None:
        expected = job.owns(token)
        assert self.registry.release(job.job_id, token, self.now,
                                     backoff_s=backoff_s) == expected
        if expected:
            job.attempts -= 1
            job.requeue("queued", self.now + backoff_s)

    # -- rules ---------------------------------------------------------

    @initialize(n=st.integers(1, len(FINGERPRINTS)))
    def backlog(self, n):
        """Start every run with work queued, so leasing has something to
        take whichever rules the run enables."""
        for i in range(n):
            self.submit(i)

    @rule(i=st.sampled_from(range(len(FINGERPRINTS))))
    def submit(self, i):
        fingerprint = FINGERPRINTS[i]
        record, deduped = self.registry.submit(
            fingerprint=fingerprint, config={"i": i}, now=self.now,
            max_attempts=MAX_ATTEMPTS)
        known = self.jobs.get(fingerprint)
        assert deduped == (known is not None)
        if known is None:
            self.jobs[fingerprint] = ModelJob(record.job_id, self.now)
        else:
            assert record.job_id == known.job_id
            known.submit_count += 1

    @precondition(lambda self: bool(self.jobs))
    @rule(data=st.data())
    def duplicate_submit(self, data):
        fingerprint = data.draw(st.sampled_from(sorted(self.jobs)))
        record, deduped = self.registry.submit(
            fingerprint=fingerprint, config={}, now=self.now)
        assert deduped and record.job_id == self.jobs[fingerprint].job_id
        self.jobs[fingerprint].submit_count += 1

    @rule(slot=st.sampled_from(SLOTS), then=st.sampled_from(
        ["complete", "fail", "release", "keep-running", "die-before-start"]))
    def lease(self, slot, then):
        """A worker leases the oldest due job, marks it running and
        acknowledges it with ``then`` — or keeps running it, or dies
        between ``lease_next`` and ``mark_running``, leaving it leased."""
        due = sorted(
            (j for j in self.jobs.values()
             if j.state in ("queued", "failed") and j.not_before <= self.now
             and j.attempts < MAX_ATTEMPTS),
            key=lambda j: (j.submitted_at, j.job_id))
        pid = self.pids[slot]
        record = self.registry.lease_next(owner=f"w{slot}", pid=pid,
                                          now=self.now, lease_s=LEASE_S)
        if not due:
            assert record is None
            return
        job = due[0]
        assert record is not None and record.job_id == job.job_id
        job.state, job.attempts = "leased", job.attempts + 1
        job.token, job.pid = record.lease_token, pid
        job.deadline = self.now + LEASE_S
        job.tokens.insert(0, record.lease_token)
        if then == "die-before-start":
            # Work that never ran cannot be acknowledged, even by the
            # lease holder.
            self._complete(job, job.token)
            return
        self._mark_running(job, job.token)
        if then == "complete":
            self._complete(job, job.token)
        elif then == "fail":
            self._fail(job, job.token, 0.0)
        elif then == "release":
            self._release(job, job.token, 0.0)

    # Stale or current holders acting on a lease after the fact.

    @precondition(lambda self: bool(self._leased_jobs()))
    @rule(data=st.data())
    def mark_running(self, data):
        self._mark_running(*self._pick(data))

    @precondition(lambda self: bool(self._leased_jobs()))
    @rule(data=st.data())
    def heartbeat(self, data):
        job, token = self._pick(data)
        expected = job.owns(token)
        assert self.registry.heartbeat(job.job_id, token, now=self.now,
                                       lease_s=LEASE_S) == expected
        if expected:
            job.deadline = self.now + LEASE_S

    @precondition(lambda self: bool(self._leased_jobs()))
    @rule(data=st.data())
    def complete(self, data):
        self._complete(*self._pick(data))

    @precondition(lambda self: bool(self._leased_jobs()))
    @rule(data=st.data(), backoff_s=st.sampled_from([0.0, 5.0]))
    def fail(self, data, backoff_s):
        self._fail(*self._pick(data), backoff_s)

    @precondition(lambda self: bool(self._leased_jobs()))
    @rule(data=st.data(), backoff_s=st.sampled_from([0.0, 5.0]))
    def release(self, data, backoff_s):
        self._release(*self._pick(data), backoff_s)

    @rule(dt=st.sampled_from([LEASE_S + 1.0, LEASE_S / 2, 1.0]))
    def advance_and_recover_expired(self, dt):
        self.now += dt
        expired = [j for j in self.jobs.values()
                   if j.state in ("leased", "running") and j.deadline < self.now]
        recovered = self.registry.recover_expired(now=self.now,
                                                  backoff=expiry_backoff)
        assert sorted(recovered) == sorted(j.job_id for j in expired)
        for job in expired:
            self._recovered(job, expiry_backoff(job.attempts))

    @rule(slot=st.sampled_from(SLOTS), kill=st.sampled_from([True, False]))
    def restart(self, slot, kill):
        """A service restart: reopen the registry and requeue every
        lease whose holder died — with ``kill``, worker ``slot`` was
        SIGKILLed first — without waiting out the deadlines."""
        if kill:
            self.live.discard(self.pids[slot])
            self.pids[slot] = self._spawn()
        self.registry.close()
        self.registry = MissionRegistry.open(self.path)
        orphans = [j for j in self.jobs.values()
                   if j.state in ("leased", "running") and j.pid not in self.live]
        recovered = self.registry.recover_orphans(now=self.now,
                                                  backoff=lambda attempts: 0.0)
        assert sorted(recovered) == sorted(j.job_id for j in orphans)
        for job in orphans:
            self._recovered(job, 0.0)

    # -- invariants ------------------------------------------------------

    @invariant()
    def rows_match_model(self):
        for job in self.jobs.values():
            got = self.registry.get(job.job_id)
            assert (got.state, got.attempts, got.submit_count,
                    got.completions, got.lease_token, got.lease_pid,
                    got.lease_deadline) == (
                job.state, job.attempts, job.submit_count, job.completions,
                job.token, job.pid, job.deadline)
            if got.state in ("queued", "failed"):
                assert got.not_before == job.not_before
        dead = sorted(j.job_id for j in self.jobs.values() if j.state == "dead")
        assert sorted(d["job_id"] for d in self.registry.dead_letters()) == dead

    @invariant()
    def transitions_are_legal_paths(self):
        for job in self.jobs.values():
            moves = [(src, dst) for _, src, dst, _ in
                     self.registry.transitions(job.job_id)]
            assert moves[0] == ("-", "queued")
            for (_, prev), (src, dst) in zip(moves, moves[1:]):
                assert dst in VALID_TRANSITIONS[src], (src, dst)
                assert src == prev, moves

    @invariant()
    def completes_at_most_once(self):
        for record in self.registry.jobs():
            assert record.completions <= 1
            assert record.completions == (record.state == "done")

    @invariant()
    def terminal_rows_never_change(self):
        for record in self.registry.jobs():
            if not record.terminal:
                continue
            row = record.to_dict()
            del row["submit_count"]  # a duplicate submission still counts
            assert self.frozen.setdefault(record.job_id, row) == row

    @invariant()
    def attempts_within_budget(self):
        for record in self.registry.jobs():
            assert 0 <= record.attempts <= record.max_attempts

    @invariant()
    def active_count_matches_model(self):
        active = sum(j.state in ACTIVE_STATES for j in self.jobs.values())
        assert self.registry.active_count() == active


RegistryMachine.TestCase.settings = settings.get_profile("registry-tier1")
TestRegistryMachine = RegistryMachine.TestCase
