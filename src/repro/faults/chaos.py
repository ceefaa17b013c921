"""The chaos harness: real workloads under randomized fault schedules.

Each chaos run drives one *scenario* — a dataset build, a protocol run,
a cluster-worker fleet, or the serving tier's job/registry flow — with a
seed-derived failpoint schedule armed, treating every surfaced fault as
a simulated kill and re-entering the workload until it either finishes
or the round budget runs out.  The schedule is then disarmed, ``fsck
--repair`` scrubs the scenario's stores, one clean resume completes the
workload, and the result's fingerprint is compared byte-for-byte against
a clean baseline computed with no faults armed.  Any divergence fails
the run: crash-anywhere byte-identity is the invariant under test, not a
best effort.

Everything is deterministic in ``(seed, scenario, run index)``: the
schedule, the per-site RNG streams, and the workloads themselves, so a
failing run replays exactly.  The harness also carries two one-shot
drills: a **crash drill** that re-runs a tiny build in a subprocess with
a ``crash`` failpoint armed through the environment (asserting the
``os._exit`` status and that resume heals the store), and a **disabled
overhead** measurement showing the cost of dormant failpoints relative
to one checkpoint write.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.faults.core import CRASH_EXIT_STATUS, ENV_FAILPOINTS, FaultInjected, armed, registry
from repro.faults.fsck import fsck_cache

#: Scenario names, in the order ``repro-experiments chaos`` runs them.
SCENARIOS = ("build", "protocol", "cluster", "serve")

#: Fault actions a schedule may draw.  ``crash`` is excluded — it calls
#: ``os._exit`` and is drilled separately in a subprocess.
_ACTIONS = ("error", "enospc", "torn")

#: Rounds of fault-armed re-entry before the harness gives up and moves
#: to repair; generous — each round resumes from checkpoints, so even a
#: schedule that fires every round converges once its budget is spent.
MAX_ROUNDS = 8


@dataclass(frozen=True)
class ChaosRun:
    """One schedule driven over one scenario, and its verdict."""

    scenario: str
    index: int
    schedule: str
    rounds: int  # fault-armed attempts used
    faults: int  # injections actually fired
    repaired: int  # fsck findings repaired before the clean resume
    fingerprint: str
    identical: bool  # fingerprint == the scenario's clean baseline


@dataclass
class ChaosReport:
    """Everything one ``chaos`` invocation learned."""

    seed: int
    baselines: dict[str, str] = field(default_factory=dict)
    runs: list[ChaosRun] = field(default_factory=list)
    crash_drill: dict | None = None
    overhead: dict | None = None
    elapsed: float = 0.0

    @property
    def divergent(self) -> list[ChaosRun]:
        return [run for run in self.runs if not run.identical]

    @property
    def faults_injected(self) -> int:
        return sum(run.faults for run in self.runs)

    @property
    def ok(self) -> bool:
        if self.divergent:
            return False
        if self.crash_drill is not None and not self.crash_drill.get("ok"):
            return False
        if self.overhead is not None and not self.overhead.get("ok"):
            return False
        return True

    def payload(self) -> dict:
        return {
            "seed": self.seed,
            "runs": len(self.runs),
            "faults_injected": self.faults_injected,
            "identical": len(self.runs) - len(self.divergent),
            "divergent": [
                {
                    "scenario": run.scenario,
                    "index": run.index,
                    "schedule": run.schedule,
                    "fingerprint": run.fingerprint,
                }
                for run in self.divergent
            ],
            "baselines": dict(self.baselines),
            "crash_drill": self.crash_drill,
            "overhead": self.overhead,
            "elapsed_seconds": self.elapsed,
            "ok": self.ok,
        }

    def render(self) -> str:
        per_scenario: dict[str, list[ChaosRun]] = {}
        for run in self.runs:
            per_scenario.setdefault(run.scenario, []).append(run)
        lines = [
            f"chaos: {len(self.runs)} fault schedules over "
            f"{len(per_scenario)} scenarios (seed {self.seed}), "
            f"{self.faults_injected} faults injected in {self.elapsed:.1f}s"
        ]
        for name, runs in per_scenario.items():
            identical = sum(1 for run in runs if run.identical)
            faults = sum(run.faults for run in runs)
            lines.append(
                f"  {name}: {identical}/{len(runs)} byte-identical after "
                f"faults + fsck + resume ({faults} injections)"
            )
        for run in self.divergent:
            lines.append(
                f"  DIVERGED {run.scenario}#{run.index} "
                f"[{run.schedule}]: {run.fingerprint} != "
                f"{self.baselines.get(run.scenario)}"
            )
        if self.crash_drill is not None:
            status = "ok" if self.crash_drill.get("ok") else "FAILED"
            lines.append(
                f"  crash drill: exit {self.crash_drill.get('exit_status')}, "
                f"resume {'byte-identical' if self.crash_drill.get('identical') else 'DIVERGED'} "
                f"[{status}]"
            )
        if self.overhead is not None:
            lines.append(
                f"  disabled failpoints: {self.overhead['fire_ns']:.0f} ns/site-check, "
                f"{self.overhead['overhead_fraction']:.5%} of one checkpoint write "
                f"[{'ok' if self.overhead.get('ok') else 'OVER BUDGET'}]"
            )
        lines.append("chaos: PASS" if self.ok else "chaos: FAIL")
        return "\n".join(lines)


# ------------------------------------------------------------------ schedules
def generate_schedule(rng: random.Random, sites: tuple[str, ...]) -> str:
    """One randomized ``site=policy:action`` schedule over the sites."""
    chosen = rng.sample(list(sites), rng.randint(1, min(3, len(sites))))
    parts = []
    for site in chosen:
        policy = rng.choice(
            ("once", f"nth-{rng.randint(1, 4)}", f"prob-{rng.choice((0.2, 0.4))}")
        )
        parts.append(f"{site}={policy}:{rng.choice(_ACTIONS)}")
    return ",".join(parts)


def _chaos_scale():
    from repro.experiments.config import Scale

    return Scale(name="smoke", programs=("crc", "search"), n_machines=4, n_settings=6)


# ------------------------------------------------------------------ scenarios
class _Scenario:
    """One workload the harness can damage and heal.

    ``drive`` runs the workload with faults armed (exceptions are the
    caller's problem — they are simulated kills); ``finish`` completes
    it cleanly and returns the output fingerprint.  Both are resumable
    against the same ``run_dir``, which is the whole point.
    """

    name: str = ""
    sites: tuple[str, ...] = ()

    def drive(self, run_dir: Path) -> None:
        self.finish(run_dir)

    def finish(self, run_dir: Path) -> str:
        raise NotImplementedError


class BuildScenario(_Scenario):
    name = "build"
    sites = ("store.manifest", "store.shard.npz", "store.shard.sidecar")

    def __init__(self):
        from repro.experiments.dataset import grid_for_scale

        self.scale = _chaos_scale()
        self.grid = grid_for_scale(self.scale, chunk_machines=2)

    def _store(self, run_dir: Path):
        from repro.store.store import ExperimentStore

        root = run_dir / f"store-{self.scale.name}-{self.grid.fingerprint()}"
        return ExperimentStore(self.grid, root)

    def finish(self, run_dir: Path) -> str:
        from repro.store.runner import ExperimentRunner

        store = self._store(run_dir)
        ExperimentRunner(store).run()
        return store.fingerprint()


class ProtocolScenario(_Scenario):
    name = "protocol"
    sites = ("fold.manifest", "fold.shard")

    def __init__(self, training):
        from repro.evalrun.variants import protocol_fingerprint, variant_by_key
        from repro.programs.mibench import mibench_program

        self.training = training
        self.variants = [variant_by_key("base")]
        self.fingerprint = protocol_fingerprint(training, self.variants)
        self.programs = [mibench_program(name) for name in training.program_names]

    def _store(self, run_dir: Path):
        from repro.evalrun.foldstore import FoldStore

        root = run_dir / f"protocol-smoke-{self.fingerprint}"
        return FoldStore(
            self.fingerprint,
            self.variants,
            list(self.training.program_names),
            root=root,
        )

    def finish(self, run_dir: Path) -> str:
        from repro.evalrun.pipeline import EvaluationPipeline

        store = self._store(run_dir)
        EvaluationPipeline(self.training, self.programs, store).run()
        return store.fingerprint()


class ClusterScenario(BuildScenario):
    """A fleet of in-process cluster workers draining one store.

    The workers run in threads (they share the process-global failpoint
    registry, so the schedule bites all of them) with a short lease TTL
    so claims orphaned by a simulated kill are reclaimed within the
    round budget rather than waiting out the production TTL.
    """

    name = "cluster"
    sites = (
        "lease.claim",
        "lease.heartbeat",
        "lease.release",
        "store.shard.npz",
        "progress.write",
    )
    WORKERS = 2
    LEASE_TTL = 0.5

    def drive(self, run_dir: Path) -> None:
        from repro.store.runner import ExperimentRunner

        failures: list[BaseException] = []

        def worker() -> None:
            try:
                runner = ExperimentRunner(
                    self._store(run_dir),
                    executor="cluster",
                    lease_ttl=self.LEASE_TTL,
                )
                runner.run()
            except BaseException as error:  # noqa: BLE001 - simulated kill
                failures.append(error)

        threads = [
            threading.Thread(target=worker, name=f"chaos-worker-{index}")
            for index in range(self.WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        # A worker that merely skipped contended/corrupt-lease units
        # exits "successfully" with work left; surface that as a kill
        # too so the harness re-enters instead of declaring the round
        # done with pending shards.
        if self._store(run_dir).pending_keys():
            raise FaultInjected("<cluster-drain-pending>", "reenter", 0)


class ServeScenario(_Scenario):
    """The serving tier's durable flow: persistent jobs + the registry.

    One persistent :class:`JobManager` runs the protocol as a background
    job (journalling every fold event), then a model is registered and
    promoted.  A fault anywhere — job meta, journal append, registry
    stage or pointer — kills the round; the next round restarts the
    manager, which recovers the journal and re-enqueues unfinished jobs,
    exactly like a restarted server.
    """

    name = "serve"
    sites = (
        "jobs.meta",
        "jobs.append",
        "registry.model",
        "registry.pointer",
        "fold.shard",
    )
    JOB_TIMEOUT = 30.0

    def __init__(self, training):
        self.protocol = ProtocolScenario(training)
        self.training = training

    def _run_jobs(self, run_dir: Path) -> None:
        from repro.service.jobs import JobManager

        store = self.protocol._store(run_dir)

        def run_protocol(job) -> dict:
            from repro.evalrun.pipeline import EvaluationPipeline

            pipeline = EvaluationPipeline(
                self.training, self.protocol.programs, self.protocol._store(run_dir)
            )
            stats = pipeline.run(
                on_fold=lambda key, done, total: job.emit(
                    {"event": "fold", "fold": key.stem(), "done": done, "total": total}
                )
            )
            return {"folds_computed": stats.folds_computed}

        manager = JobManager(run_protocol, root=run_dir / "jobs")
        if manager.degraded_reasons:
            raise FaultInjected("<serve-degraded>", "reenter", 0)
        # Recovery re-enqueues unfinished jobs; submit a fresh one only
        # when nothing live remains and folds are still pending (a prior
        # round's job may have journalled a terminal "failed").
        live = [job for job in manager._jobs.values() if not job.done]
        if not live and store.pending_keys():
            live = [manager.submit({"only": "base"})]
        deadline = time.time() + self.JOB_TIMEOUT
        for job in live:
            while not job.done and time.time() < deadline:
                worker = manager._worker
                if worker is None or not worker.is_alive():
                    break  # the drain thread died to a fault: a dead server
                time.sleep(0.01)
        if store.pending_keys():
            raise FaultInjected("<serve-pending-folds>", "reenter", 0)

    def _run_registry(self, run_dir: Path) -> str:
        from repro.api.registry import ModelRegistry
        from repro.evalrun.variants import make_predictor

        registry_store = ModelRegistry(run_dir / "registry")
        if not registry_store.versions():
            predictor = make_predictor(self.protocol.variants[0], self.training).fit(
                self.training
            )
            registry_store.register(
                predictor, fingerprint=self.training.fingerprint()
            )
        version = registry_store.versions()[0]
        entry = registry_store.promote(version)
        return entry.digest

    def drive(self, run_dir: Path) -> None:
        self._run_jobs(run_dir)
        self._run_registry(run_dir)

    def finish(self, run_dir: Path) -> str:
        self._run_jobs(run_dir)
        digest = self._run_registry(run_dir)
        return f"{self.protocol._store(run_dir).fingerprint()}+{digest}"


# -------------------------------------------------------------------- harness
def _chaos_once(
    scenario: _Scenario, run_dir: Path, schedule: str, seed: int, index: int
) -> ChaosRun:
    """Damage → repair → resume → verify, for one schedule."""
    reg = registry()
    reg.reset_stats()
    rounds = 0
    with armed(schedule, seed=seed):
        while rounds < MAX_ROUNDS:
            rounds += 1
            try:
                scenario.drive(run_dir)
                break
            except Exception:  # noqa: BLE001 - any surfaced fault is a simulated kill
                continue
        faults = reg.stats()["total_injected"]
    report = fsck_cache(run_dir, repair=True)
    fingerprint = scenario.finish(run_dir)
    return ChaosRun(
        scenario=scenario.name,
        index=index,
        schedule=schedule,
        rounds=rounds,
        faults=faults,
        repaired=sum(1 for finding in report.problems if finding.repaired),
        fingerprint=fingerprint,
        identical=False,  # caller compares against the baseline
    )


def _crash_drill(work: Path, baseline: str, scenario: BuildScenario) -> dict:
    """Kill a real build with ``os._exit`` mid-checkpoint, then heal it.

    The ``crash`` action cannot run in-process (it would take the
    harness down with it), so the build runs in a subprocess with the
    schedule armed through the environment — the same path a crashing
    production worker would take.
    """
    run_dir = work / "crash-drill"
    run_dir.mkdir(parents=True, exist_ok=True)
    script = (
        "from repro.faults.chaos import BuildScenario\n"
        "from pathlib import Path\n"
        f"BuildScenario().finish(Path({str(run_dir)!r}))\n"
    )
    env = dict(os.environ)
    env[ENV_FAILPOINTS] = "store.shard.npz=nth-2:crash"
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(Path(__file__).resolve().parents[2]), env.get("PYTHONPATH")) if path
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    report = fsck_cache(run_dir, repair=True)
    fingerprint = scenario.finish(run_dir)
    return {
        "exit_status": proc.returncode,
        "repaired": sum(1 for finding in report.problems if finding.repaired),
        "identical": fingerprint == baseline,
        "ok": proc.returncode == CRASH_EXIT_STATUS and fingerprint == baseline,
    }


def measure_disabled_overhead(iterations: int = 200_000) -> dict:
    """Cost of a dormant failpoint site, relative to one checkpoint write.

    Acceptance is <1 % overhead with failpoints disabled: each durable
    write crosses a handful of ``fire()`` fast paths, so the comparison
    is (fire cost × sites per checkpoint) against the wall time of one
    representative shard-sized atomic write.
    """
    import tempfile

    from repro.faults.core import fire
    from repro.ioutil import atomic_write_bytes

    assert not registry().active, "measure with no schedule armed"
    start = time.perf_counter()
    for _ in range(iterations):
        fire("bench.site")
    fire_seconds = (time.perf_counter() - start) / iterations

    payload = b"x" * 8192  # a small shard's npz is a few KiB
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "bench.bin"
        writes = 50
        start = time.perf_counter()
        for _ in range(writes):
            atomic_write_bytes(target, payload, fsync=True)
        write_seconds = (time.perf_counter() - start) / writes

    sites_per_checkpoint = 4  # npz + sidecar + retry/manifest crossings
    fraction = (fire_seconds * sites_per_checkpoint) / write_seconds
    return {
        "fire_ns": fire_seconds * 1e9,
        "checkpoint_write_ms": write_seconds * 1e3,
        "sites_per_checkpoint": sites_per_checkpoint,
        "overhead_fraction": fraction,
        "budget_fraction": 0.01,
        "ok": fraction < 0.01,
    }


def run_chaos(
    scenarios: tuple[str, ...] | None = None,
    schedules: int = 5,
    seed: int = 0,
    workdir: str | Path | None = None,
    drills: bool = True,
    progress=None,
) -> ChaosReport:
    """Drive ``schedules`` randomized fault schedules over each scenario.

    Each (scenario, index) pair gets its own working directory and its
    own deterministic schedule, so any count — the acceptance bar is
    hundreds — runs embarrassingly independently and any failure replays
    from ``(seed, scenario, index)`` alone.
    """
    import tempfile

    if registry().active:
        raise RuntimeError(
            "chaos harness needs the failpoint registry to itself; disarm first"
        )
    chosen = SCENARIOS if scenarios is None else tuple(scenarios)
    unknown = set(chosen) - set(SCENARIOS)
    if unknown:
        raise ValueError(f"unknown chaos scenarios: {sorted(unknown)}")
    report = ChaosReport(seed=seed)
    started = time.time()
    cleanup = None
    if workdir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        workdir = cleanup.name
    work = Path(workdir)
    # Faults that kill a job-manager drain thread would otherwise dump
    # a traceback per kill; that is the harness working as intended, so
    # keep the output readable.
    previous_excepthook = threading.excepthook
    threading.excepthook = lambda hook_args: None
    try:
        build = BuildScenario()
        training = None
        if any(name in chosen for name in ("protocol", "serve")) or drills:
            from repro.store.store import ExperimentStore

            # One clean dataset feeds the protocol/serve scenarios.
            training_dir = work / "training"
            store = ExperimentStore(
                build.grid, training_dir / f"store-{build.scale.name}-{build.grid.fingerprint()}"
            )
            from repro.store.runner import ExperimentRunner

            ExperimentRunner(store).run()
            training = store.assemble()
        instances: dict[str, _Scenario] = {}
        for name in chosen:
            if name == "build":
                instances[name] = build
            elif name == "protocol":
                instances[name] = ProtocolScenario(training)
            elif name == "cluster":
                instances[name] = ClusterScenario()
            elif name == "serve":
                instances[name] = ServeScenario(training)
        for name, scenario in instances.items():
            baseline_dir = work / f"{name}-baseline"
            report.baselines[name] = scenario.finish(baseline_dir)
            if progress is not None:
                progress(f"{name}: baseline {report.baselines[name]}")
            for index in range(schedules):
                rng = random.Random(f"{seed}:{name}:{index}")
                schedule = generate_schedule(rng, scenario.sites)
                run_dir = work / f"{name}-{index:04d}"
                run = _chaos_once(scenario, run_dir, schedule, seed + index, index)
                run = dataclasses.replace(
                    run, identical=run.fingerprint == report.baselines[name]
                )
                report.runs.append(run)
                if progress is not None:
                    verdict = "identical" if run.identical else "DIVERGED"
                    progress(
                        f"{name}#{index}: [{schedule}] {run.faults} faults, "
                        f"{run.rounds} rounds, {run.repaired} repaired — {verdict}"
                    )
                # Keep the workspace bounded: a healthy run's stores are
                # byte-identical to the baseline, so only failures are
                # worth keeping for inspection.
                if run.identical:
                    shutil.rmtree(run_dir, ignore_errors=True)
        if drills:
            crash_baseline = report.baselines.get("build")
            if crash_baseline is None:
                crash_baseline = build.finish(work / "build-baseline")
            report.crash_drill = _crash_drill(work, crash_baseline, build)
            if progress is not None:
                progress(f"crash drill: {report.crash_drill}")
            report.overhead = measure_disabled_overhead()
    finally:
        threading.excepthook = previous_excepthook
        report.elapsed = time.time() - started
        if cleanup is not None:
            cleanup.cleanup()
    return report
