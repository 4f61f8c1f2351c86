"""The three benchmark workloads, driven through the program's public APIs.

Each workload takes the benchmark seed, builds its inputs from it and
returns a :class:`Outcome`: the end-to-end metrics of the run, the
per-layer numbers when a :class:`~harness.Tracer` was passed, operation
counts, and the result of its output checks.

* ``mission-cold`` — the 14-day paper mission, serial, store off, then
  Figures 2-6, Table I and the deployment stats.  Crew truth, sensing and
  localization do almost all the work.
* ``mission-warm-faulted`` — the same mission under the reference fault
  campaign plus data-corruption days, gated, replayed from a store that
  set-up filled.  Truth and sensing do no work; store reads, the support
  bus scenario, fault injection and the gate do.
* ``service-drain`` — 12 distinct 2-day missions drained by
  ``repro serve --drain`` with 2 workers while one client submits
  duplicates open-loop at 4/s.  Store writes, registry transactions and
  worker concurrency dominate.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from harness import Checks, Tracer, blake, describe, summarize, wrapper_cost_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"

#: Missions per service drain, worker count, and duplicate-submission rate.
SERVICE_JOBS = 12
SERVICE_WORKERS = 2
SUBMIT_RATE_PER_S = 4.0
#: A drain that runs past this is killed and the run fails.
DRAIN_DEADLINE_S = 120.0
#: Fresh-interpreter set-ups timed per run (median reported).
SETUP_REPEATS = 9


@dataclass
class Outcome:
    metrics: dict[str, tuple[float, str]]
    iterations: int
    attempted: int
    failed: int
    checks: Checks
    notes: list[str] = field(default_factory=list)
    #: Service-side samples of a drain (submit latency, waits, retries).
    service: dict = field(default_factory=dict)


# -- inputs --------------------------------------------------------------------

def faulted_campaign(seed: int):
    """The reference campaign plus a few data-corruption days."""
    from repro.faults.campaign import FaultCampaign

    return dataclasses.replace(
        FaultCampaign.reference(days=14, seed=seed),
        bitrot_days=2, truncated_days=2, duplicated_days=1, stuck_days=2,
        clock_desyncs=1)


def faulted_config(seed: int):
    from repro.core.config import MissionConfig

    campaign = faulted_campaign(seed)
    return campaign, MissionConfig(seed=seed, fault_plan=campaign.generate())


def service_configs(seed: int) -> list:
    from repro.core.config import MissionConfig

    seeds = random.Random(seed).sample(range(1, 1_000_000), SERVICE_JOBS)
    return [MissionConfig(days=2, seed=s) for s in seeds]


# -- outputs -------------------------------------------------------------------

def sensing_digest(summaries: dict, pairwise: dict) -> str:
    """Digest of every byte of the badge-day summaries and pairwise data."""
    h = hashlib.blake2b(digest_size=16)

    def array(a: np.ndarray) -> None:
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())

    for key in sorted(summaries):
        summary = summaries[key]
        h.update(repr(key).encode())
        for f in dataclasses.fields(summary):
            value = getattr(summary, f.name)
            h.update(f.name.encode())
            if isinstance(value, np.ndarray):
                array(value)
            else:
                h.update(repr(value).encode())
    for day in sorted(pairwise):
        for label, table in (("ir", pairwise[day].ir_contact),
                             ("subghz", pairwise[day].subghz_rssi)):
            for pair in sorted(table):
                h.update(f"{day}{label}{pair}".encode())
                array(table[pair])
    return h.hexdigest()


def report_hashes(result) -> dict:
    """Digest, quality-report bytes and reliability-report bytes of a run."""
    return {
        "digest": sensing_digest(result.sensing.summaries, result.sensing.pairwise),
        "quality": (blake(result.quality.to_json().encode())
                    if result.quality is not None else None),
        "reliability": (blake(json.dumps(result.reliability.to_dict(),
                                         sort_keys=True).encode())
                        if result.reliability is not None else None),
    }


def figures_and_tables(result, tracer) -> list:
    """Figures 2-6, Table I and the deployment stats of one mission."""
    from repro.experiments import figures, tables

    with tracer.span("experiments.figures"):
        out = [figures.fig2(result), figures.fig3(result), figures.fig4(result),
               figures.fig5(result), figures.fig6(result)]
    with tracer.span("experiments.tables"):
        out += [tables.build_table1(result), tables.build_deployment_stats(result)]
    return out


def view_of_payload(cfg, payload: dict) -> SimpleNamespace:
    """What the figure functions read from a mission result, rebuilt from
    a service result payload (which carries no ground truth)."""
    from repro.analytics.dataset import MissionSensing
    from repro.badges.assignment import BadgeAssignment
    from repro.crew.roster import icares_roster
    from repro.habitat.floorplan import lunares_floorplan

    plan = lunares_floorplan()
    sensing = MissionSensing(
        cfg=cfg, plan=plan,
        assignment=BadgeAssignment(cfg=cfg, roster=icares_roster(cfg.crew_size)))
    sensing.summaries.update(payload["summaries"])
    sensing.pairwise.update(payload["pairwise"])
    return SimpleNamespace(cfg=cfg, sensing=sensing, truth=SimpleNamespace(plan=plan))


def write_store(store: Path, cfg, result) -> None:
    """Write a mission's truth and day outcomes through the program's own
    store writer (``MissionCache``), as a run with the store on does."""
    from repro.exec.cache import MissionCache
    from repro.exec.executor import DayOutcome

    cache = MissionCache(store)
    cache.store_truth(cfg, result.truth)
    for day in sorted(result.sensing.pairwise):
        summaries = {b: s for (b, d), s in result.sensing.summaries.items() if d == day}
        cache.store_day(cfg, DayOutcome(
            day=day, summaries=summaries, pairwise=result.sensing.pairwise[day],
            active_seconds={b: s.recorded_seconds() for b, s in summaries.items()}))


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- fresh-interpreter set-up ---------------------------------------------------

def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def prepare(mode: str, *args: str) -> tuple[float, dict]:
    """Run one set-up step in a fresh interpreter; returns (wall s, its JSON)."""
    cmd = [sys.executable, str(HERE / "prepare.py"), mode, *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=program_env(), capture_output=True, text=True,
                          timeout=170)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up step {mode!r} failed ({proc.returncode}):\n"
                           + proc.stderr[-2000:])
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def check_digest(checks: Checks, workload: str, seed: int, digest: str) -> None:
    """A digest must equal the checked-in golden one, when its seed has one."""
    golden = json.loads(GOLDEN_PATH.read_text()).get(workload, {})
    if str(seed) in golden:
        checks.expect(digest == golden[str(seed)],
                      f"{workload} seed {seed}: digest {digest} != golden "
                      f"{golden[str(seed)]}")


# -- workloads -----------------------------------------------------------------

def mission_cold(seed: int, seconds: float, tracer, work: Path) -> Outcome:
    from repro import run_mission
    from repro.core.config import MissionConfig
    from repro.exec.cache import MissionCache

    setup = statistics.median(prepare("import")[0] for _ in range(SETUP_REPEATS))
    cfg = MissionConfig(seed=seed)
    checks = Checks()
    times, digests = [], set()
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        result = None  # let the previous mission go before the next one runs
        t0 = time.perf_counter()
        with tracer.span("time_to_figures"):
            result = run_mission(cfg)
            figures_and_tables(result, tracer)
        times.append(time.perf_counter() - t0)
        digests.add(sensing_digest(result.sensing.summaries, result.sensing.pairwise))
    rss = peak_rss_mb()

    # The last mission goes into a store through the program's writer, so
    # store_mb_per_job counts the bytes a store-on run writes.  A fresh
    # interpreter then replays it from that store with one day removed:
    # it recomputes that day and must reproduce every mission's digest.
    store = work / "store"
    with tracer.suspended():  # not part of the workload: no store writes on cold
        write_store(store, cfg, result)
    store_bytes = tree_bytes(store)
    days = sorted(result.sensing.pairwise)
    dropped = days[seed % len(days)]
    del result
    MissionCache(store).day_path(cfg, dropped).unlink()
    _, replay = prepare("recompute", "--seed", str(seed), "--dir", str(store))
    checks.expect(replay["misses"] == {"truth": 0, "day": 1},
                  f"replay with day {dropped} removed: misses {replay['misses']}")
    checks.expect(digests == {replay["digest"]},
                  f"mission digests {sorted(digests)} != fresh replay's "
                  f"{replay['digest']} (day {dropped} recomputed)")
    check_digest(checks, "mission-cold", seed, replay["digest"])
    return Outcome(
        metrics={
            "setup_s": (setup, "s"),
            "time_to_figures_s": (statistics.median(times), "s"),
            "drain_jobs_per_s": (len(times) / sum(times), "1/s"),
            "store_mb_per_job": (store_bytes / 1e6, "MB"),
            "peak_rss_mb": (rss, "MB"),
        },
        iterations=len(times), attempted=len(times), failed=0, checks=checks,
        notes=[f"time_to_figures {describe(summarize(times), 's')}",
               "store_mb_per_job: the store is off while timed; bytes of the "
               "mission written through MissionCache afterwards",
               f"fresh-interpreter replay recomputed day {dropped}"])


def mission_warm_faulted(seed: int, seconds: float, tracer, work: Path) -> Outcome:
    from repro import run_mission
    from repro.core.config import ExecutionConfig
    from repro.reliability import CoverageModel, ReliabilityModel

    store = work / "store"
    setup, reference = prepare("store", "--seed", str(seed), "--dir", str(store))
    store_bytes = tree_bytes(store)
    campaign, cfg = faulted_config(seed)
    execution = ExecutionConfig(n_workers="serial", cache_dir=str(store))
    checks = Checks()
    times = []
    start = time.perf_counter()
    while len(times) < 2 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        with tracer.span("time_to_figures"):
            result = run_mission(cfg, execution=execution, quality="gate")
            with tracer.span("reliability.predict"):
                ReliabilityModel(campaign).predict()
            with tracer.span("reliability.coverage_predict"):
                CoverageModel(campaign, cfg).predict()
            figures_and_tables(result, tracer)
        times.append(time.perf_counter() - t0)
        misses = result.cache_stats["misses"]
        checks.expect(misses["truth"] == 0 and misses["day"] == 0,
                      f"replay missed the store: {result.cache_stats}")
        got = report_hashes(result)
        for key, want in reference.items():
            checks.expect(got[key] == want,
                          f"replay {key} {got[key]} != cold run's {want}")
        del result
    return Outcome(
        metrics={
            "setup_s": (setup, "s"),
            "time_to_figures_s": (statistics.median(times), "s"),
            "drain_jobs_per_s": (len(times) / sum(times), "1/s"),
            "store_mb_per_job": (store_bytes / 1e6, "MB"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
        iterations=len(times), attempted=len(times) + 1, failed=0, checks=checks,
        notes=[f"time_to_figures {describe(summarize(times), 's')}",
               "set-up: one cold faulted mission filling the store"])


class OpenLoop:
    """One client thread submitting duplicates on a fixed schedule."""

    def __init__(self, home: Path, cfgs: list, t0: float) -> None:
        self.home, self.cfgs, self.t0 = home, cfgs, t0
        self.stop = threading.Event()
        self.late_s: list[float] = []
        self.latency_s: list[float] = []
        self.deduped = self.rejected = 0
        self.thread = threading.Thread(target=self._run, name="open-loop")

    def _run(self) -> None:
        from repro.service import FleetClient, ServiceError

        with FleetClient(self.home) as client:
            k = 0
            while True:
                due = self.t0 + k / SUBMIT_RATE_PER_S
                if self.stop.wait(max(0.0, due - time.perf_counter())):
                    return
                sent = time.perf_counter()
                try:
                    receipt = client.submit(self.cfgs[k % len(self.cfgs)])
                except ServiceError:  # queue full, registry locked: refused
                    self.rejected += 1
                else:
                    self.deduped += receipt.deduped
                done = time.perf_counter()
                self.late_s.append(sent - due)
                self.latency_s.append(done - due)
                k += 1

    @property
    def attempted(self) -> int:
        return len(self.latency_s)


def _drain_subprocess(home: Path, loop: OpenLoop, work: Path) -> tuple[float, int, float]:
    """``repro serve --drain`` as a child process; returns
    (drain wall s, exit code, child peak RSS MB)."""
    cmd = [sys.executable, "-m", "repro", "serve", "--service", str(home),
           "--workers", str(SERVICE_WORKERS), "--drain"]
    with open(work / "serve.out", "wb") as out, open(work / "serve.err", "wb") as err:
        proc = subprocess.Popen(cmd, env=program_env(), stdout=out, stderr=err)
    waited: dict = {}

    def reap() -> None:
        _, status, usage = os.wait4(proc.pid, 0)
        waited["end"] = time.perf_counter()
        waited["status"] = status
        waited["usage"] = usage
        loop.stop.set()

    reaper = threading.Thread(target=reap, name="drain-reaper")
    reaper.start()
    loop.thread.start()
    try:
        if not loop.stop.wait(DRAIN_DEADLINE_S):
            proc.kill()
        reaper.join()
    finally:
        loop.stop.set()
        loop.thread.join()
        if reaper.is_alive():
            proc.kill()
            reaper.join()
    proc.returncode = os.waitstatus_to_exitcode(waited["status"])
    return (waited["end"] - loop.t0, proc.returncode,
            waited["usage"].ru_maxrss / 1024.0)


def _drain_in_process(home: Path, loop: OpenLoop) -> tuple[float, int, float]:
    from repro.service import FleetService, ServiceConfig

    service = FleetService(ServiceConfig(root=str(home), n_workers=SERVICE_WORKERS))
    loop.thread.start()
    try:
        asyncio.run(service.run(drain=True))
    finally:
        end = time.perf_counter()
        loop.stop.set()
        loop.thread.join()
    return end - loop.t0, 0, peak_rss_mb()


def service_drain(seed: int, seconds: float, tracer, work: Path) -> Outcome:
    from repro.experiments.submission import submission_fingerprint
    from repro.service import FleetClient

    homes = [work / f"home{i}" for i in range(SETUP_REPEATS)]
    setup = statistics.median(
        prepare("service", "--seed", str(seed), "--dir", str(h))[0] for h in homes)
    home = homes[-1]
    cfgs = service_configs(seed)
    fingerprints = [submission_fingerprint(c) for c in cfgs]
    checks = Checks()
    traced = isinstance(tracer, Tracer)

    drain_started = time.time()
    loop = OpenLoop(home, cfgs, time.perf_counter())
    with tracer.span("time_to_figures"):
        if traced:
            drain_s, rc, rss = _drain_in_process(home, loop)
        else:
            drain_s, rc, rss = _drain_subprocess(home, loop, work)
        checks.expect(rc == 0, f"drain exited with {rc}")

        t0 = time.perf_counter()
        done = bad_jobs = 0
        digests = {}
        waits, retries = [], 0
        with FleetClient(home) as client:
            for cfg, fp in zip(cfgs, fingerprints):
                record = client.status(fp)
                moves = client.registry.transitions(record.job_id)
                completions = [m for m in moves if m[2] == "done"]
                ok = checks.expect(
                    record.state == "done" and record.completions == 1
                    and len(completions) == 1,
                    f"job {fp}: state {record.state}, "
                    f"{record.completions} completions")
                if not ok:
                    bad_jobs += 1
                    continue
                done += 1
                retries += record.attempts - 1
                running = [m[0] for m in moves if m[2] == "running"]
                waits.append(running[0] - max(record.submitted_at, drain_started))
                try:
                    payload = client.result(fp)
                except Exception as exc:  # noqa: BLE001 — any read failure fails the check
                    checks.expect(False, f"job {fp}: result does not verify: {exc!r}")
                    continue
                figures_and_tables(view_of_payload(cfg, payload), tracer)
                digests[fp] = sensing_digest(payload["summaries"], payload["pairwise"])
                del payload
            checks.expect(client.registry.dead_letters() == [],
                          "dead letters present")
        fetch_s = time.perf_counter() - t0

    # One job against run_mission of its config outside the service (in a
    # fresh interpreter, so a traced run does not trace it).
    pick = seed % SERVICE_JOBS
    _, local = prepare("reference", "--seed", str(seed), "--index", str(pick))
    checks.expect(digests.get(fingerprints[pick]) == local["digest"],
                  f"job {fingerprints[pick]} digest != run_mission's")

    store_bytes = tree_bytes(home)
    submit = summarize([x * 1e3 for x in loop.latency_s]) if loop.latency_s else None
    notes = [f"drain {done} jobs in {drain_s:.2f} s, results+figures {fetch_s:.2f} s",
             f"open loop: {loop.attempted} duplicate submissions at "
             f"{SUBMIT_RATE_PER_S:g}/s, {loop.deduped} deduplicated, "
             f"{loop.rejected} rejected"]
    if submit is not None:
        notes.append("submit latency " + describe(submit, "ms"))
    return Outcome(
        metrics={
            "setup_s": (setup, "s"),
            "time_to_figures_s": (drain_s + fetch_s, "s"),
            "drain_jobs_per_s": (done / drain_s, "1/s"),
            "store_mb_per_job": (store_bytes / 1e6 / SERVICE_JOBS, "MB"),
            "peak_rss_mb": (rss, "MB"),
        },
        iterations=1,
        attempted=SERVICE_JOBS + loop.attempted,
        failed=bad_jobs + loop.rejected,
        checks=checks, notes=notes,
        service={
            "submit": submit,
            "late": summarize([x * 1e3 for x in loop.late_s]) if loop.late_s else None,
            "dedup_ratio": loop.deduped / loop.attempted if loop.attempted else 0.0,
            "queue_wait_s": statistics.mean(waits) if waits else 0.0,
            "retries": retries,
            "drain_s": drain_s,
        })


WORKLOADS = {
    "mission-cold": mission_cold,
    "mission-warm-faulted": mission_warm_faulted,
    "service-drain": service_drain,
}


# -- per-layer metrics of a traced run -----------------------------------------

#: Layer spans reported as self seconds, in report order.
SELF_TIME_SPANS = (
    "crew.simulate_mission", "crew.schedule", "crew.movement", "crew.conversation",
    "badges.sense_day", "badges.wear", "radio.timesync", "radio.ble",
    "badges.motion", "badges.microphone", "badges.environment", "radio.pairwise",
    "localization.localize_fleet",
    "exec.compute_day", "exec.summary", "exec.cache.load", "exec.cache.store",
    "exec.checkpoint.record",
    "faults.apply_data_faults", "faults.degrade_day", "quality.gate",
    "support.scenario",
    "reliability.predict", "reliability.coverage_predict",
    "experiments.figures", "experiments.tables",
    "service.lease", "service.complete", "service.execute_job",
)


def layer_metrics(tracer: Tracer, outcome: Outcome, calibration_s: float) -> dict:
    """Per-layer numbers of a traced run, per workload iteration."""
    n = outcome.iterations
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIME_SPANS:
        out[f"{name}.s"] = (self_s.get(name, 0.0) / n, "s")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["badges.badge_days"] = (counts["badges.badge_days"] / n, "count")
    out["localization.frames"] = (counts["localization.frames"] / n, "count")
    out["exec.cache.load.bytes"] = (counts["exec.cache.load.bytes"] / n, "bytes")
    out["exec.cache.store.bytes"] = (counts["exec.cache.store.bytes"] / n, "bytes")
    out["exec.cache.lookups"] = (counts["exec.cache.lookups"] / n, "count")
    out["exec.cache.hit_ratio"] = (
        ratio(counts["exec.cache.hits"], counts["exec.cache.lookups"]), "ratio")
    out["exec.checkpoint.record.bytes"] = (
        counts["exec.checkpoint.record.bytes"] / n, "bytes")
    out["quality.badge_days"] = (counts["quality.badge_days"] / n, "count")
    out["quality.ok_ratio"] = (
        ratio(counts["quality.ok"], counts["quality.badge_days"]), "ratio")
    out["support.bus.sent"] = (counts["support.bus.sent"] / n, "count")
    out["support.delivery_ratio"] = (
        ratio(counts["support.bus.delivered"], counts["support.bus.sent"]), "ratio")

    service = outcome.service
    submit = service.get("submit") or {}
    late = service.get("late") or {}
    # CPU, not wall, seconds inside jobs: two workers sharing one
    # interpreter lock read near 0.5 however busy they look.
    busy = sum(s.cpu for s in tracer.spans if s.name == "service.execute_job")
    out["service.submit.ms_p50"] = (submit.get("p50", 0.0), "ms")
    out["service.submit.ms_p90"] = (submit.get("value", 0.0), "ms")
    out["service.dedup_ratio"] = (service.get("dedup_ratio", 0.0), "ratio")
    out["service.heartbeat.calls"] = (calls.get("service.heartbeat", 0) / n, "count")
    out["service.result.bytes"] = (counts["service.result.bytes"] / n, "bytes")
    out["service.queue_wait.s"] = (service.get("queue_wait_s", 0.0), "s")  # per job
    out["service.worker_busy_fraction"] = (
        ratio(busy, SERVICE_WORKERS * service["drain_s"]) if service else 0.0, "ratio")
    out["service.retries"] = (service.get("retries", 0), "count")

    roots = [s for s in tracer.spans if s.name == "time_to_figures"]
    traced_s = sum(s.duration for s in roots)
    layer_self = sum(self_s.get(name, 0.0) for name in SELF_TIME_SPANS)
    wrapped = len(tracer.spans) - len(roots)
    out["calibration_s"] = (calibration_s, "s")
    out["loadgen.late_ms_p90"] = (late.get("value", 0.0), "ms")
    out["trace.time_to_figures_s"] = (traced_s / n, "s")
    out["trace.layer_coverage"] = (ratio(layer_self, traced_s), "ratio")
    out["trace.spans"] = (len(tracer.spans) / n, "count")
    out["trace.overhead_fraction"] = (
        ratio(wrapped * wrapper_cost_s(), traced_s), "ratio")
    return out
