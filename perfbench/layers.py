"""Which entry points of the program get a span, and under which layer name.

Every span is opened by the benchmark around a public function or method
of :mod:`repro`; the program itself carries no benchmark code.  Counters
(bytes, hits, badge-days, ...) are taken from the arguments and return
values at the same boundaries.

Self-time metrics are reported as ``<span name>.s``.  The mapping from
each layer to the end-to-end metric it should move is in ``METRICS.md``.
"""

from __future__ import annotations

import os

from harness import Instrumentation, Tracer


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer: Tracer) -> Instrumentation:
    """Wrap every traced entry point; call ``.undo()`` to restore them."""
    from repro.analytics import dataset
    from repro.badges import pipeline, wear
    from repro.badges.sensors import accelerometer, environment, imu, microphone
    from repro.crew import behavior, conversation, movement, schedule
    from repro.exec import cache, checkpoint, executor
    from repro.experiments import mission  # noqa: F401  (binds names to wrap)
    from repro.faults import data, scenario
    from repro.localization import pipeline as localization
    from repro.quality import gate
    from repro.radio import ble, infrared, subghz, timesync
    from repro.service import registry, worker

    inst = Instrumentation(tracer, "repro")

    # crew truth
    inst.function(behavior, "simulate_mission", "crew.simulate_mission")
    inst.function(schedule, "build_day_schedule", "crew.schedule")
    inst.method(movement.MovementModel, "fill_day", "crew.movement")
    inst.method(conversation.ConversationModel, "generate", "crew.conversation")

    # badge and radio sensing
    def badge_days(t, args, kwargs, result):
        t.add("badges.badge_days", len(result[0]))

    inst.function(pipeline, "sense_day", "badges.sense_day", badge_days)
    inst.method(wear.WearModel, "simulate_day", "badges.wear")
    inst.method(timesync.TimeSyncSimulator, "run_day", "radio.timesync")
    inst.method(ble.BleScanModel, "scan_fleet", "radio.ble")
    for cls, name in ((accelerometer.AccelerometerModel, "badges.motion"),
                      (imu.ImuModel, "badges.motion"),
                      (microphone.MicrophoneModel, "badges.microphone"),
                      (environment.EnvironmentSensors, "badges.environment")):
        inst.method(cls, "synthesize", name)
        inst.method(cls, "synthesize_fleet", name)
    inst.method(subghz.SubGhzModel, "pairwise", "radio.pairwise")
    inst.method(infrared.IrModel, "pairwise", "radio.pairwise")

    # localization
    def frames(t, args, kwargs, result):
        t.add("localization.frames", sum(len(r.room) for r in result))

    inst.method(localization.Localizer, "localize_fleet",
                "localization.localize_fleet", frames)

    # exec: day compute, summaries, the day store and the journal
    inst.function(executor, "compute_day", "exec.compute_day")
    inst.method(dataset.BadgeDaySummary, "from_observations", "exec.summary")

    def loaded(path_of):
        def after(t, args, kwargs, result):
            t.add("exec.cache.lookups")
            if result is not None:
                t.add("exec.cache.hits")
                t.add("exec.cache.load.bytes", _file_bytes(path_of(*args)))
        return after

    inst.method(cache.MissionCache, "load_truth", "exec.cache.load",
                loaded(lambda self, cfg: self.truth_path(cfg)))
    inst.method(cache.MissionCache, "load_day", "exec.cache.load",
                loaded(lambda self, cfg, day: self.day_path(cfg, day)))

    def stored_truth(t, args, kwargs, result):
        self, cfg, _ = args
        t.add("exec.cache.store.bytes", _file_bytes(self.truth_path(cfg)))

    def stored_day(t, args, kwargs, result):
        self, cfg, outcome = args
        t.add("exec.cache.store.bytes", _file_bytes(self.day_path(cfg, outcome.day)))

    def recorded(t, args, kwargs, result):
        self, outcome = args
        t.add("exec.checkpoint.record.bytes", _file_bytes(self.day_path(outcome.day)))

    inst.method(cache.MissionCache, "store_truth", "exec.cache.store", stored_truth)
    inst.method(cache.MissionCache, "store_day", "exec.cache.store", stored_day)
    inst.method(checkpoint.CheckpointJournal, "record", "exec.checkpoint.record",
                recorded)

    # faults and the quality gate
    inst.function(data, "apply_data_faults", "faults.apply_data_faults")
    inst.function(executor, "degrade_day", "faults.degrade_day")

    def gated(t, args, kwargs, result):
        report = result[1]
        t.add("quality.badge_days", len(report.verdicts))
        t.add("quality.ok", report.n_ok)

    inst.function(gate, "gate_sensing", "quality.gate", gated)

    # the Section-VI support bus under the fault plan
    def delivered(t, args, kwargs, report):
        t.add("support.bus.sent", report.bus_sent)
        t.add("support.bus.delivered", report.bus_delivered)

    inst.function(scenario, "run_support_scenario", "support.scenario", delivered)

    # the fleet service
    inst.method(registry.MissionRegistry, "lease_next", "service.lease")
    inst.method(registry.MissionRegistry, "mark_running", "service.lease")
    inst.method(registry.MissionRegistry, "heartbeat", "service.heartbeat")
    inst.method(registry.MissionRegistry, "complete", "service.complete")

    def result_bytes(t, args, kwargs, result):
        t.add("service.result.bytes", _file_bytes(result[0]))

    inst.function(worker, "execute_job", "service.execute_job", result_bytes)
    return inst
