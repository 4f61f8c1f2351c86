"""Tier-2 chaos: SIGKILL the fleet service mid-drain, restart, verify.

The ISSUE-10 acceptance scenario end to end, with real processes:

* ≥200 concurrent submissions (8 distinct fingerprints, the rest
  duplicates) are admitted from racing threads;
* a `repro serve --drain` subprocess SIGKILLs itself mid-drain via
  deterministic crash injection (``--chaos-kill-after``);
* a restarted drain recovers every in-flight lease and finishes;
* every fingerprint executed **exactly once** per completion record and
  produced a result artifact **bit-identical** (equal content digest)
  to an uninterrupted baseline drain — zero lost jobs, zero double
  executions, zero dead letters.

Set ``REPRO_SERVICE_CHAOS_DIR`` to persist the service roots (registry
DB + day store) for post-mortem; the nightly CI job uploads them on
failure.
"""

import concurrent.futures
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.config import MissionConfig
from repro.service import FleetClient, ServiceConfig, serve

REPO = Path(__file__).resolve().parents[2]

N_DISTINCT = 8
N_SUBMISSIONS = 200
KILL_AFTER = 3


def _configs() -> list[MissionConfig]:
    return [MissionConfig(days=2, seed=s, frame_dt=10.0, events=None)
            for s in range(N_DISTINCT)]


def _chaos_root(tmp_path: Path, name: str) -> Path:
    base = os.environ.get("REPRO_SERVICE_CHAOS_DIR")
    root = (Path(base) if base else tmp_path) / name
    if root.exists():
        shutil.rmtree(root)
    return root


def _submit_concurrently(root: Path) -> list:
    """200 racing submissions from 16 threads, each with its own client."""
    cfgs = _configs()
    work = [cfgs[i % N_DISTINCT] for i in range(N_SUBMISSIONS)]

    def one(cfg):
        with FleetClient(root, create=True) as client:
            return client.submit(cfg, tenant=f"crew-{cfg.seed % 2}")

    FleetClient(root, create=True).close()  # initialize the schema once
    with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
        receipts = list(pool.map(one, work))
    return receipts


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _drain_subprocess(root: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", "drain", "--service", str(root),
         "--workers", "2", "--lease-s", "10", *extra],
        env=_env(), cwd=str(REPO), capture_output=True, text=True,
        timeout=600)


@pytest.mark.tier2
class TestServiceKilledMidDrain:
    def test_exactly_once_across_sigkill_restart(self, tmp_path):
        # -- baseline: an uninterrupted drain on its own root -------------
        baseline_root = _chaos_root(tmp_path, "baseline")
        with FleetClient(baseline_root, create=True) as client:
            baseline_receipts = [client.submit(cfg) for cfg in _configs()]
        stats = serve(ServiceConfig(root=str(baseline_root), n_workers=2,
                                    lease_s=10.0), drain=True)
        assert stats["completed"] == N_DISTINCT
        with FleetClient(baseline_root) as client:
            baseline_digests = {
                r.fingerprint: client.status(r.job_id).result_digest
                for r in baseline_receipts
            }

        # -- chaos: concurrent submissions, then a self-SIGKILL drain -----
        root = _chaos_root(tmp_path, "chaos")
        receipts = _submit_concurrently(root)
        assert len(receipts) == N_SUBMISSIONS
        assert sum(r.deduped for r in receipts) == N_SUBMISSIONS - N_DISTINCT
        assert len({r.fingerprint for r in receipts}) == N_DISTINCT

        killed = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--service", str(root),
             "--drain", "--workers", "2", "--lease-s", "10",
             "--chaos-kill-after", str(KILL_AFTER)],
            env=_env(), cwd=str(REPO), capture_output=True, text=True,
            timeout=600)
        assert killed.returncode == -9, (
            f"service was not SIGKILLed (rc={killed.returncode}):\n"
            f"{killed.stdout}{killed.stderr}")

        with FleetClient(root) as client:
            counts = client.overview()["counts"]
        assert counts["done"] >= KILL_AFTER      # progress landed durably
        assert counts["done"] < N_DISTINCT       # ...but the drain died early

        # -- restart: the surviving registry drains to empty --------------
        done = _drain_subprocess(root)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "drained: " in done.stdout

        # -- exactly-once + bit-identity -----------------------------------
        with FleetClient(root) as client:
            overview = client.overview()
            assert overview["counts"]["done"] == N_DISTINCT
            assert overview["counts"]["dead"] == 0
            assert overview["counts"]["queued"] == 0
            assert overview["counts"]["failed"] == 0
            assert overview["dead_letters"] == []
            assert overview["submitted"] == N_SUBMISSIONS
            assert overview["deduped"] == N_SUBMISSIONS - N_DISTINCT
            for fingerprint in {r.fingerprint for r in receipts}:
                record = client.status(fingerprint)
                assert record.state == "done"
                # One durable completion acknowledgement, ever.
                assert record.completions == 1
                # Identical artifact content to the uninterrupted run.
                assert record.result_digest == baseline_digests[fingerprint]
                # The payload itself verifies (checksum) and matches.
                payload = client.result(fingerprint)
                assert payload["fingerprint"] == fingerprint

    def test_restart_after_kill_is_idempotent(self, tmp_path):
        """Draining an already-drained registry recovers nothing, redoes
        nothing — the restart path is safe to run any number of times."""
        root = _chaos_root(tmp_path, "idempotent")
        with FleetClient(root, create=True) as client:
            receipt = client.submit(_configs()[0])
        first = _drain_subprocess(root)
        assert first.returncode == 0, first.stdout + first.stderr
        again = _drain_subprocess(root)
        assert again.returncode == 0, again.stdout + again.stderr
        assert "completed=0" in again.stdout
        with FleetClient(root) as client:
            assert client.status(receipt.job_id).completions == 1
