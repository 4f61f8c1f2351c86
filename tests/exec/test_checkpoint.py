"""The day store as checkpoint: crash recovery must be bit-identical.

A store-on run writes each completed day as it lands, so a rerun against
the same store is a resume; :class:`CheckpointJournal` is the store's
per-key writer lease.
"""

import json
import os

import pytest

from repro.core.config import ExecutionConfig, MissionConfig
from repro.exec.cache import MissionCache
from repro.exec.checkpoint import LOCK_NAME, CheckpointJournal, JournalBusyError
from repro.experiments.mission import run_mission

from tests.exec.test_executor import assert_bit_identical


@pytest.fixture(scope="module")
def cfg():
    return MissionConfig(days=3, seed=5, frame_dt=5.0, events=None)


@pytest.fixture(scope="module")
def baseline(cfg):
    """Uninterrupted serial run — the bit-identity reference."""
    return run_mission(cfg)


def store(tmp_path, **kwargs) -> ExecutionConfig:
    return ExecutionConfig(cache_dir=str(tmp_path), **kwargs)


def journal(tmp_path, cfg, owner: str = "") -> CheckpointJournal:
    return CheckpointJournal(MissionCache(tmp_path), cfg, owner=owner)


def stored_days(tmp_path, cfg) -> list[int]:
    day_dir = MissionCache(tmp_path).day_dir(cfg)
    return sorted(int(p.stem[3:]) for p in day_dir.glob("day*.pkl"))


class TestJournalUnit:
    def test_record_load_round_trip(self, cfg, tmp_path, baseline):
        stored = run_mission(cfg, execution=store(tmp_path))
        assert stored_days(tmp_path, cfg) == [2, 3]
        # One copy per day: the store's own file, and no lease left over.
        day_dir = journal(tmp_path, cfg).dir
        assert sorted(p.name for p in day_dir.iterdir()) == [
            "day02.pkl", "day03.pkl"]
        assert journal(tmp_path, cfg).day_path(2) == day_dir / "day02.pkl"
        cache = MissionCache(tmp_path)
        outcome = cache.load_day(cfg, 2)
        assert outcome is not None
        assert outcome.day == 2
        assert outcome.telemetry is None
        assert set(outcome.summaries) == {
            b for (b, d) in baseline.sensing.summaries if d == 2
        }
        assert stored.cache_stats["misses"]["day"] == 2

    def test_journal_keyed_by_sensing_fingerprint(self, cfg, tmp_path):
        import dataclasses

        run_mission(cfg, execution=store(tmp_path))
        other_cfg = dataclasses.replace(
            cfg, wear_compliance_start=0.4, wear_compliance_end=0.4
        )
        # A changed config finds no stored days — stale checkpoints can
        # never leak into the wrong mission.
        assert stored_days(tmp_path, other_cfg) == []
        assert journal(tmp_path, other_cfg).dir != journal(tmp_path, cfg).dir

    def test_missing_day_is_none(self, cfg, tmp_path):
        cache = MissionCache(tmp_path)
        assert cache.load_day(cfg, 2) is None
        assert cache.stats() == {
            "hits": {"truth": 0, "day": 0},
            "misses": {"truth": 0, "day": 1},
            "quarantined": {"truth": 0, "day": 0},
        }

    def test_corrupt_record_quarantined_not_served(self, cfg, tmp_path):
        run_mission(cfg, execution=store(tmp_path))
        path = journal(tmp_path, cfg).day_path(2)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 3] ^= 0x10
        path.write_bytes(bytes(blob))
        cache = MissionCache(tmp_path)
        assert cache.load_day(cfg, 2) is None
        assert cache.quarantined["day"] == 1
        assert (tmp_path / "quarantine" / path.name).exists()
        # Day 3 is untouched and still loads.
        assert cache.load_day(cfg, 3) is not None
        assert cache.hits["day"] == 1


class TestResume:
    def test_full_resume_is_bit_identical(self, cfg, tmp_path, baseline):
        run_mission(cfg, execution=store(tmp_path))
        resumed = run_mission(cfg, execution=store(tmp_path))
        assert_bit_identical(baseline, resumed)
        # Every day served from the store, nothing recomputed.
        assert resumed.cache_stats["hits"]["day"] == 2
        assert resumed.cache_stats["misses"]["day"] == 0

    def test_partial_resume_recomputes_the_rest(self, cfg, tmp_path, baseline):
        """The crash scenario: only day 2 made it to the store."""
        run_mission(cfg, execution=store(tmp_path))
        journal(tmp_path, cfg).day_path(3).unlink()
        resumed = run_mission(cfg, execution=store(tmp_path))
        assert_bit_identical(baseline, resumed)
        assert resumed.cache_stats["hits"]["day"] == 1
        assert resumed.cache_stats["misses"]["day"] == 1
        # Day 3 recomputed and stored again.
        assert stored_days(tmp_path, cfg) == [2, 3]

    def test_corrupt_checkpoint_recomputed_bit_identical(self, cfg, tmp_path,
                                                         baseline):
        """A crash mid-write leaves a bad record: quarantine + recompute."""
        run_mission(cfg, execution=store(tmp_path))
        path = journal(tmp_path, cfg).day_path(2)
        path.write_bytes(path.read_bytes()[:-7])
        resumed = run_mission(cfg, execution=store(tmp_path))
        assert_bit_identical(baseline, resumed)
        assert resumed.cache_stats["hits"]["day"] == 1
        assert resumed.cache_stats["quarantined"]["day"] == 1
        assert (tmp_path / "quarantine" / path.name).exists()

    def test_resume_with_parallel_workers(self, cfg, tmp_path, baseline):
        run_mission(cfg, execution=store(tmp_path))
        journal(tmp_path, cfg).day_path(3).unlink()
        resumed = run_mission(cfg, execution=store(tmp_path, n_workers=2))
        assert_bit_identical(baseline, resumed)
        assert resumed.cache_stats["hits"]["day"] == 1

    def test_custom_stack_disables_journal(self, cfg, tmp_path, baseline):
        from repro.badges.pipeline import SensingModels

        models = SensingModels.default(cfg, baseline.truth.plan)
        result = run_mission(cfg, models=models, execution=store(tmp_path))
        assert result.cache_stats["hits"]["day"] == 0
        assert result.cache_stats["misses"]["day"] == 0
        assert stored_days(tmp_path, cfg) == []


class TestJournalLease:
    """The O_EXCL writer lease: one live writer per sensing key."""

    def test_second_resumer_gets_busy_error(self, cfg, tmp_path):
        with journal(tmp_path, cfg, owner="one"):
            with pytest.raises(JournalBusyError, match="held by"):
                journal(tmp_path, cfg, owner="two").acquire()

    def test_close_releases_the_lease(self, cfg, tmp_path):
        holder = journal(tmp_path, cfg)
        holder.acquire()
        holder.close()
        second = journal(tmp_path, cfg)
        second.acquire()
        second.close()
        second.close()  # idempotent

    def test_context_manager_releases(self, cfg, tmp_path):
        with journal(tmp_path, cfg) as held:
            assert (held.dir / LOCK_NAME).exists()
            # The lease lives next to the days it guards.
            assert held.dir == MissionCache(tmp_path).day_dir(cfg)
        assert not (held.dir / LOCK_NAME).exists()

    def test_stale_lock_of_dead_holder_is_broken(self, cfg, tmp_path):
        """A kill -9'd holder leaves its marker; the pid check breaks it."""
        ghost = journal(tmp_path, cfg)
        ghost.dir.mkdir(parents=True)
        (ghost.dir / LOCK_NAME).write_text(
            json.dumps({"pid": 2 ** 22 + 12345, "owner": "ghost",
                        "acquired_at": 0.0}))
        with journal(tmp_path, cfg) as taker:
            assert json.loads((taker.dir / LOCK_NAME).read_text())["pid"] == os.getpid()

    def test_unreadable_lock_is_treated_as_stale(self, cfg, tmp_path):
        ghost = journal(tmp_path, cfg)
        ghost.dir.mkdir(parents=True)
        (ghost.dir / LOCK_NAME).write_bytes(b"\x00 crash mid-write")
        with journal(tmp_path, cfg):
            pass

    def test_live_holder_is_never_stolen(self, cfg, tmp_path):
        """Our own pid in the marker means the holder is alive."""
        twin = journal(tmp_path, cfg)
        twin.dir.mkdir(parents=True)
        (twin.dir / LOCK_NAME).write_text(
            json.dumps({"pid": os.getpid(), "owner": "twin",
                        "acquired_at": 0.0}))
        with pytest.raises(JournalBusyError):
            journal(tmp_path, cfg).acquire()

    def test_non_exclusive_journal_ignores_the_lease(self, cfg, tmp_path,
                                                     baseline):
        """Readers never contend: a fully stored mission replays while
        another process holds the key's writer lease."""
        run_mission(cfg, execution=store(tmp_path))
        with journal(tmp_path, cfg, owner="rival"):
            replay = run_mission(cfg, execution=store(tmp_path))
        assert_bit_identical(baseline, replay)
        assert replay.cache_stats["hits"]["day"] == 2

    def test_run_mission_releases_on_exit(self, cfg, tmp_path):
        run_mission(cfg, execution=store(tmp_path))
        assert not (journal(tmp_path, cfg).dir / LOCK_NAME).exists()
        # The key is immediately writable by the next process.
        with journal(tmp_path, cfg):
            pass

    def test_concurrent_run_mission_raises_busy(self, cfg, tmp_path):
        with journal(tmp_path, cfg, owner="rival"):
            with pytest.raises(JournalBusyError):
                run_mission(cfg, execution=store(tmp_path))

    def test_busy_error_is_exported(self):
        from repro.core.errors import DataError
        from repro.exec import JournalBusyError as exported

        assert exported is JournalBusyError
        assert issubclass(JournalBusyError, DataError)


class TestConfig:
    def test_checkpoint_active(self, tmp_path):
        """The store is the checkpoint: ``cache_dir`` is its only switch."""
        assert ExecutionConfig(cache_dir=str(tmp_path)).cache_active
        assert not ExecutionConfig().cache_active


class TestCli:
    def test_run_resume_mentions_restored_days(self, tmp_path, capsys):
        from repro.__main__ import main

        ckpt = tmp_path / "ckpt"
        base = ["run", "--days", "3", "--seed", "5", "--no-events",
                "--cache", str(ckpt)]
        assert main(base) == 0
        assert "from checkpoint" not in capsys.readouterr().out
        assert main(base) == 0
        out = capsys.readouterr().out
        assert f"resumed 2 day(s) from checkpoint {ckpt}" in out
        # A run killed after day 2 resumes just that day.
        cli_cfg = MissionConfig(days=3, seed=5, events=None)
        MissionCache(ckpt).day_path(cli_cfg, 3).unlink()
        assert main(base) == 0
        assert "resumed 1 day(s) from checkpoint" in capsys.readouterr().out

    def test_concurrent_cli_writer_is_one_line_exit_2(self, tmp_path, capsys):
        from repro.__main__ import main

        ckpt = tmp_path / "ckpt"
        cli_cfg = MissionConfig(days=2, seed=5, events=None)
        with journal(ckpt, cli_cfg, owner="rival"):
            rc = main(["run", "--days", "2", "--seed", "5", "--no-events",
                       "--cache", str(ckpt)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("repro: store ") and "held by" in err[0]
