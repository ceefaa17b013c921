"""The serial workloads: ``build``, ``protocol`` and ``tune``.

The program only ever sees the generated inputs.  The seed draws the
parts of them that do not change how much work a run is (each workload
says which), so that runs with different seeds stay comparable.  A
workload has four parts:

* ``prepare`` — warm state built outside any timing, in a child process
  so its memory does not count towards the measured process's peak RSS;
* ``setup`` — everything from process start until the first operation
  is ready, split into stages with a host probe between them;
* ``run_round`` — one round of identical work, recording each operation
  as a busy interval with a host probe between operations;
* ``check`` — the output checks; a failed check fails its operations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from host import HostClock, Intervals

HERE = Path(__file__).resolve().parent
PINS = json.loads((HERE / "pins.json").read_text())


def child_command(*args: str) -> list[str]:
    """A helper process of this benchmark (``run.py`` with internal flags)."""
    return [sys.executable, str(HERE / "run.py"), *args]


def run_child(args: list[str], timeout: float = 170) -> str:
    """Run a helper process to completion from the checkout root; return
    its stdout."""
    proc = subprocess.run(
        args, cwd=HERE.parent, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[1:])} failed:\n{proc.stderr[-2000:]}")
    return proc.stdout


@dataclasses.dataclass
class Context:
    """What a workload may touch: its seed, its scratch directory, the clock."""

    seed: int
    work: Path
    clock: HostClock


class Stages:
    """Set-up stages separated by host probes (the program is idle there)."""

    def __init__(self, clock: HostClock, start: float):
        self.clock = clock
        self.segments: list[tuple[float, float]] = []
        self._start = start

    def mark(self) -> None:
        end = time.perf_counter()
        self.segments.append((self._start, end))
        self._start = self.clock.idle()


class OpTimer:
    """Marks operation boundaries from a progress callback.

    The callback runs between operations of a serial run, so the probe
    it takes never overlaps program work."""

    def __init__(self, clock: HostClock, intervals: Intervals):
        self.clock = clock
        self.intervals = intervals
        self.start = clock.idle()

    def boundary(self, op: bool) -> None:
        self.intervals.add(self.start, time.perf_counter(), op)
        self.start = self.clock.idle()


# ---------------------------------------------------------------------- build
class Build:
    """Cold serial build of a seeded grid over all 35 MiBench programs.

    One operation is one shard (one program x every machine of the grid),
    written to an empty on-disk store through a fresh compiler.  The seed
    draws the machines; the flag settings are one fixed sample, because
    compiling them is ~94% of the work and a per-seed draw of six
    settings moves that cost by more than any bound could allow."""

    name = "build"
    #: A round takes ~3 s; 2.5 gives four rounds in 10 s, so that p90
    #: rests on 14 shards beyond it rather than 10.
    nominal_round_s = 2.5
    prepared = False
    N_MACHINES = 4
    N_SETTINGS = 6
    SETTING_SEED = 7
    #: Shards per run recomputed through a cache-less compiler.
    RECOMPUTE_SAMPLE = 3

    def scale(self, seed: int):
        from repro.experiments.config import Scale
        from repro.programs.mibench import MIBENCH_ORDER

        return Scale(
            name="perfbench-build",
            programs=MIBENCH_ORDER,
            n_machines=self.N_MACHINES,
            n_settings=self.N_SETTINGS,
            machine_seed=seed,
            setting_seed=self.SETTING_SEED,
        )

    def setup(self, ctx: Context, stages: Stages) -> dict:
        from repro.api import Session
        from repro.experiments.dataset import grid_for_scale
        from repro.programs.mibench import mibench_suite
        from repro.store.store import ExperimentStore

        stages.mark()  # imports
        scale = self.scale(ctx.seed)
        grid = grid_for_scale(scale, chunk_machines=self.N_MACHINES)
        programs = mibench_suite(scale.programs)
        stages.mark()  # grid sampled, programs built
        root = ctx.work / f"setup-store-{time.perf_counter_ns()}"
        Session(scale, cache_dir=ctx.work, jobs=1, executor="serial")
        ExperimentStore(grid, root=root)
        stages.mark()  # session + empty store open
        return {"scale": scale, "grid": grid, "programs": programs}

    def run_round(self, state: dict, ctx: Context, intervals: Intervals, index: int):
        from repro.api import Session
        from repro.store.store import ExperimentStore

        timer = OpTimer(ctx.clock, intervals)
        session = Session(state["scale"], cache_dir=ctx.work, jobs=1, executor="serial")
        store = ExperimentStore(state["grid"], root=ctx.work / f"build-{index}")
        timer.boundary(op=False)
        session.data.build(store=store, progress=lambda _: timer.boundary(op=True))
        timer.boundary(op=False)
        return store

    def check(self, state: dict, ctx: Context, stores: list) -> tuple[int, list[str]]:
        """Every shard verifies on read; a seeded sample of the last
        round's shards is recomputed bit-identically by a cache-less
        compiler and the scalar ``simulate_analytic`` reference."""
        import random

        import numpy as np
        from repro.compiler.pipeline import Compiler
        from repro.store.compute import compute_shard
        from repro.store.store import StoreError

        failed, notes = 0, []
        for store in stores:
            for key in store.grid.shard_keys():
                try:
                    store.read_shard(key, verify=True)
                except (StoreError, OSError) as error:
                    failed += 1
                    notes.append(f"shard {key.stem()}: {error}")
        last = stores[-1]
        keys = list(last.grid.shard_keys())
        settings = list(last.grid.settings)
        for key in random.Random(ctx.seed).sample(keys, self.RECOMPUTE_SAMPLE):
            expected = compute_shard(
                state["programs"][key.program], last.grid.chunk_of(key),
                settings, Compiler(cache=False), vectorize=False,
            )
            stored = last.read_shard(key, verify=True)
            if not all(np.array_equal(a, b) for a, b in zip(expected, stored)):
                failed += 1
                notes.append(f"shard {key.stem()}: recomputation differs")
        return failed, notes


# ------------------------------------------------------------------- protocol
class Protocol:
    """Warm-store paper protocol (the ``report`` command) over the TINY
    dataset, with a fresh fold store per round.  One operation is one fold.

    The input does not depend on the seed: reseeded datasets moved the
    protocol's cost by up to 40% between seeds, and the report
    fingerprint of TINY is pinned (as in ``tests/golden``)."""

    name = "protocol"
    nominal_round_s = 7.0
    prepared = True

    def session(self, ctx: Context):
        from repro.api import Session

        return Session("tiny", cache_dir=ctx.work / "cache", jobs=1, executor="serial")

    def prepare(self, ctx: Context) -> None:
        self.session(ctx).data.dataset()

    def setup(self, ctx: Context, stages: Stages) -> dict:
        from repro.api import Session  # noqa: F401 - the import stage

        stages.mark()  # imports
        session = self.session(ctx)
        data = session.data.dataset()
        stages.mark()  # warm dataset read from the store
        store = session.protocol.store(data)
        stages.mark()  # fold store open
        shutil.rmtree(store.root, ignore_errors=True)
        return {}

    def run_round(self, state: dict, ctx: Context, intervals: Intervals, index: int):
        timer = OpTimer(ctx.clock, intervals)
        session = self.session(ctx)
        data = session.data.dataset()
        store = session.protocol.store(data)
        timer.boundary(op=False)
        run = session.protocol.run(
            store=store, on_fold=lambda *_: timer.boundary(op=True)
        )
        timer.boundary(op=False)
        fingerprint = run.report.fingerprint if run.report is not None else None
        shutil.rmtree(store.root, ignore_errors=True)
        return fingerprint, run.stats

    def check(self, state: dict, ctx: Context, outputs: list) -> tuple[int, list[str]]:
        """Each round's report fingerprint equals the pinned value."""
        pinned = PINS["protocol_report"]
        failed, notes = 0, []
        for fingerprint, stats in outputs:
            if fingerprint != pinned or stats.folds_skipped:
                failed += stats.folds_computed
                notes.append(
                    f"report fingerprint {fingerprint} (pinned {pinned}), "
                    f"{stats.folds_skipped} folds found already in a fresh store"
                )
        return failed, notes


# ----------------------------------------------------------------------- tune
class Tune:
    """The first three search seeds of the ``tournament --smoke`` grid.

    One operation is one strategy x pair x seed search run.  The input
    does not depend on the seed: other slices of the smoke grid's seeds
    cost up to 15% more or less, and the tournament digest is pinned."""

    name = "tune"
    nominal_round_s = 7.5
    prepared = True
    SEEDS = (0, 1, 2)

    def session(self, ctx: Context):
        from repro.api import Session

        return Session("tiny", cache_dir=ctx.work / "cache", jobs=1, executor="serial")

    def prepare(self, ctx: Context) -> None:
        self.session(ctx).data.dataset()

    def setup(self, ctx: Context, stages: Stages) -> dict:
        from repro.cli import SMOKE_TOURNAMENT

        stages.mark()  # imports
        session = self.session(ctx)
        session.data.dataset()
        stages.mark()  # warm dataset read from the store
        model = session.models.fit()
        stages.mark()  # model fit
        programs = [session.program(name) for name in SMOKE_TOURNAMENT["programs"]]
        machines = session.machines(SMOKE_TOURNAMENT["machines"])
        stages.mark()  # programs built, machines sampled
        return {"model": model, "programs": programs, "machines": machines}

    def run_round(self, state: dict, ctx: Context, intervals: Intervals, index: int):
        from repro.cli import SMOKE_TOURNAMENT

        timer = OpTimer(ctx.clock, intervals)
        session = self.session(ctx)
        started = [False]

        def progress(_message: str) -> None:
            # Called before each search run: it ends the previous run.
            timer.boundary(op=started[0])
            started[0] = True

        result = session.eval.tournament(
            programs=state["programs"],
            machines=state["machines"],
            budget=SMOKE_TOURNAMENT["budget"],
            seeds=self.SEEDS,
            tolerance=SMOKE_TOURNAMENT["tolerance"],
            model=state["model"],
            progress=progress,
        )
        timer.boundary(op=True)
        return result

    def check(self, state: dict, ctx: Context, results: list) -> tuple[int, list[str]]:
        """The tournament JSON digest is pinned and model-seeded search
        out-economises random on it (the smoke gate)."""
        from repro.autotune.tournament import check_model_beats_random

        pinned = PINS["tune_tournament"]
        failed, notes = 0, []
        for result in results:
            digest = hashlib.sha256(result.json_text().encode()).hexdigest()[:16]
            ok, message = check_model_beats_random(result)
            if digest != pinned or not ok:
                failed += len(result.runs)
                notes.append(f"tournament digest {digest} (pinned {pinned}); {message}")
        return failed, notes


SERIAL_WORKLOADS = {w.name: w for w in (Build(), Protocol(), Tune())}
