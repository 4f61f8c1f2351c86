"""The parallel executor: bit-identical results, fallbacks, API shape.

The determinism tests are the contract the whole subsystem rests on:
``run_mission(cfg, execution=ExecutionConfig(n_workers=4))`` must equal
the serial run *bitwise*, summary for summary, because the analyses are
regression-tested against exact values.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.config import ExecutionConfig, MissionConfig
from repro.core.errors import ConfigError
from repro.exec.executor import ExecutorUnavailable, run_days_parallel
from repro.experiments.mission import MissionResult, run_mission
from repro.faults import FaultCampaign

SUMMARY_ARRAYS = (
    "active", "worn", "room", "x", "y", "accel_rms", "voice_db",
    "dominant_pitch_hz", "pitch_stability", "sound_db", "true_room",
)


def assert_bit_identical(a: MissionResult, b: MissionResult) -> None:
    assert set(a.sensing.summaries) == set(b.sensing.summaries)
    for key in sorted(a.sensing.summaries):
        sa, sb = a.sensing.summaries[key], b.sensing.summaries[key]
        for name in SUMMARY_ARRAYS:
            va, vb = getattr(sa, name), getattr(sb, name)
            if va is None or vb is None:
                assert va is None and vb is None, (key, name)
            else:
                # tobytes() compares exactly, NaNs and all.
                assert va.dtype == vb.dtype and va.tobytes() == vb.tobytes(), (
                    key, name)
        assert sa.bytes_recorded == sb.bytes_recorded, key
        assert sa.n_sync_events == sb.n_sync_events, key
    assert set(a.sensing.pairwise) == set(b.sensing.pairwise)
    for day in a.sensing.pairwise:
        pa, pb = a.sensing.pairwise[day], b.sensing.pairwise[day]
        assert set(pa.ir_contact) == set(pb.ir_contact)
        for pair in pa.ir_contact:
            assert pa.ir_contact[pair].tobytes() == pb.ir_contact[pair].tobytes()
            assert pa.subghz_rssi[pair].tobytes() == pb.subghz_rssi[pair].tobytes()
    assert a.sdcard.total_gib() == b.sdcard.total_gib()


@pytest.fixture(scope="module")
def cfg():
    return MissionConfig(days=3, seed=5, frame_dt=5.0, events=None)


@pytest.fixture(scope="module")
def serial_result(cfg):
    return run_mission(cfg)


class TestParallelDeterminism:
    def test_parallel_equals_serial_bitwise(self, cfg, serial_result):
        parallel = run_mission(cfg, execution=ExecutionConfig(n_workers=4))
        assert_bit_identical(serial_result, parallel)
        assert parallel.execution.worker_count == 4

    def test_two_workers_equal_serial(self, cfg, serial_result):
        parallel = run_mission(cfg, execution=ExecutionConfig(n_workers=2))
        assert_bit_identical(serial_result, parallel)

    def test_default_execution_is_serial(self, serial_result):
        assert serial_result.execution.n_workers == "serial"
        assert not serial_result.execution.parallel


class TestSerialFallback:
    def test_fault_plan_falls_back_and_matches(self):
        plan = FaultCampaign.reference(days=3, seed=1).generate()
        cfg = MissionConfig(days=3, seed=5, frame_dt=5.0, events=None,
                            fault_plan=plan)
        serial = run_mission(cfg)
        forced = run_mission(cfg, execution=ExecutionConfig(n_workers=4))
        assert_bit_identical(serial, forced)

    def test_run_days_parallel_refuses_fault_plans(self, cfg):
        plan = FaultCampaign.reference(days=3, seed=1).generate()
        faulted = dataclasses.replace(cfg, fault_plan=plan)
        with pytest.raises(ExecutorUnavailable):
            run_days_parallel(faulted, None, None, None, [2, 3], 4)

    def test_unpicklable_override_falls_back(self, cfg, serial_result):
        from repro.badges.pipeline import SensingModels

        class UnpicklableModels(SensingModels):
            def __reduce__(self):
                raise pickle.PicklingError("deliberately unpicklable")

        models = SensingModels.default(cfg, serial_result.truth.plan)
        bad = UnpicklableModels(**{
            f.name: getattr(models, f.name)
            for f in dataclasses.fields(SensingModels)
        })
        result = run_mission(
            cfg, truth=serial_result.truth, models=bad,
            execution=ExecutionConfig(n_workers=4),
        )
        assert_bit_identical(serial_result, result)


class TestExecutionConfig:
    def test_serial_literal(self):
        execution = ExecutionConfig()
        assert execution.worker_count == 1
        assert not execution.parallel
        assert not execution.cache_active

    @pytest.mark.parametrize("bad", [0, -1, "parallel", 2.5])
    def test_invalid_workers_rejected(self, bad):
        with pytest.raises(ConfigError):
            ExecutionConfig(n_workers=bad)

    def test_auto_workers_sizes_to_the_machine(self, monkeypatch):
        import repro.core.config as config_mod

        execution = ExecutionConfig(n_workers="auto")
        monkeypatch.setattr(config_mod.os, "cpu_count", lambda: 2)
        assert execution.worker_count == 1
        assert not execution.parallel
        monkeypatch.setattr(config_mod.os, "cpu_count", lambda: 8)
        assert execution.worker_count == 8
        assert execution.parallel
        monkeypatch.setattr(config_mod.os, "cpu_count", lambda: None)
        assert execution.worker_count == 1

    def test_auto_serial_considers_mission_size(self):
        auto = ExecutionConfig(n_workers="auto")
        threshold = ExecutionConfig.AUTO_POOL_MIN_UNITS
        assert auto.auto_serial(threshold - 1)
        assert not auto.auto_serial(threshold)
        # Explicit pool sizes and "serial" are never second-guessed.
        assert not ExecutionConfig(n_workers=4).auto_serial(1)
        assert not ExecutionConfig(n_workers="serial").auto_serial(1)

    def test_empty_cache_dir_rejected(self):
        with pytest.raises(ConfigError):
            ExecutionConfig(cache_dir="")

    def test_cache_dir_is_the_only_switch(self, tmp_path):
        """The store has one switch, ``cache_dir``; no other field selects
        whether it (or its days, the crash checkpoint) is used."""
        assert ExecutionConfig(cache_dir=str(tmp_path)).cache_active
        assert not ExecutionConfig(cache_dir=None).cache_active
        assert [f.name for f in dataclasses.fields(ExecutionConfig)] == [
            "n_workers", "cache_dir", "day_deadline_s", "max_day_retries",
            "retry_backoff_s", "pool_failure_limit", "supervisor_seed"]

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecutionConfig().n_workers = 4


class TestRedesignedApi:
    def test_overrides_are_keyword_only(self, cfg, serial_result):
        with pytest.raises(TypeError):
            run_mission(cfg, serial_result.truth)

    def test_truth_reuse_still_works(self, cfg, serial_result):
        result = run_mission(cfg, truth=serial_result.truth)
        assert_bit_identical(serial_result, result)

    def test_result_to_dict_is_json_clean(self, serial_result):
        import json

        data = serial_result.to_dict()
        json.dumps(data)  # must not raise
        assert data["days"] == [2, 3]
        assert data["badge_days"] == len(serial_result.sensing.summaries)
        assert data["cache"] is None

    def test_result_to_text_mentions_the_mission(self, serial_result):
        text = serial_result.to_text()
        assert "3 days" in text
        assert "seed 5" in text

    def test_deprecated_report_aliases_are_gone(self, serial_result):
        assert not hasattr(serial_result, "telemetry_report")
        assert not hasattr(serial_result, "reliability_report")
