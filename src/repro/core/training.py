"""Training-data generation (§3.2).

For M program/microarchitecture pairs, evaluate N uniform-random flag
settings each and record execution times, plus the -O3 baseline run that
provides both the speedup reference and the performance-counter features.
The same N settings are shared across pairs (each program is compiled once
per setting and the binary timed on every machine), matching the paper's
7-million-simulation protocol of §4.4.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.compiler.flags import DEFAULT_SPACE, FlagSetting
from repro.compiler.ir import Program
from repro.compiler.pipeline import Compiler
from repro.parallel import resolve_jobs, run_batch
from repro.core.distribution import IIDDistribution, good_settings_by_runtime
from repro.machine.params import MicroArch
from repro.sim.counters import COUNTER_NAMES


@dataclass
class TrainingSet:
    """Runtimes of N settings × P programs × A machines, plus -O3 data."""

    program_names: list[str]
    machines: list[MicroArch]
    settings: list[FlagSetting]
    #: runtimes[p, s, m] in seconds
    runtimes: np.ndarray
    #: o3_runtimes[p, m] in seconds
    o3_runtimes: np.ndarray
    #: counters[p, m, k] — Table 1 counters of the -O3 run
    counters: np.ndarray
    extended: bool = False
    metadata: dict = field(default_factory=dict)
    #: code_features[p, j] — machine-independent static features of the -O3
    #: binary (the §9 extension); ``None`` for counter-only datasets.
    code_features: np.ndarray | None = None

    def __post_init__(self) -> None:
        P, S, M = (
            len(self.program_names),
            len(self.settings),
            len(self.machines),
        )
        if self.runtimes.shape != (P, S, M):
            raise ValueError(f"runtimes shape {self.runtimes.shape} != {(P, S, M)}")
        if self.o3_runtimes.shape != (P, M):
            raise ValueError("o3_runtimes shape mismatch")
        if self.counters.shape != (P, M, len(COUNTER_NAMES)):
            raise ValueError("counters shape mismatch")
        if self.code_features is not None and self.code_features.shape[0] != P:
            raise ValueError("code_features rows must match programs")

    # ------------------------------------------------------------ accessors
    def program_index(self, name: str) -> int:
        return self.program_names.index(name)

    def machine_index(self, machine: MicroArch) -> int:
        return self.machines.index(machine)

    def speedups(self) -> np.ndarray:
        """speedups[p, s, m] over -O3 (greater is faster)."""
        return self.o3_runtimes[:, None, :] / self.runtimes

    def best_runtime(self, program: int, machine: int) -> float:
        """The iterative-compilation 'Best' for one pair (§5.1.2)."""
        return float(self.runtimes[program, :, machine].min())

    def best_speedup(self, program: int, machine: int) -> float:
        return float(
            self.o3_runtimes[program, machine]
            / self.best_runtime(program, machine)
        )

    def best_setting(self, program: int, machine: int) -> FlagSetting:
        index = int(np.argmin(self.runtimes[program, :, machine]))
        return self.settings[index]

    def good_settings(
        self, program: int, machine: int, quantile: float = 0.05
    ) -> list[FlagSetting]:
        """The paper's top-5 % set e-Y for one pair."""
        return good_settings_by_runtime(
            self.settings, self.runtimes[program, :, machine], quantile
        )

    def pair_distribution(
        self, program: int, machine: int, quantile: float = 0.05
    ) -> IIDDistribution:
        """g(y|X) for one training pair (eqs. 4–5)."""
        return IIDDistribution.fit(self.good_settings(program, machine, quantile))

    def fingerprint(self) -> str:
        """Content digest of the whole training set.

        Covers programs, machines, settings, and every measured runtime, so
        a model persisted alongside this fingerprint can be checked against
        the data that produced it.
        """
        digest = hashlib.sha256()
        digest.update(repr(self.program_names).encode())
        for machine in self.machines:
            digest.update(repr(machine).encode())
        for setting in self.settings:
            digest.update(repr(setting.as_indices()).encode())
        for array in (self.runtimes, self.o3_runtimes, self.counters):
            digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
        if self.code_features is not None:
            digest.update(
                np.ascontiguousarray(self.code_features, dtype=float).tobytes()
            )
        digest.update(repr(self.extended).encode())
        return digest.hexdigest()[:16]


def _program_rows(
    program: Program,
    machines: Sequence[MicroArch],
    settings: Sequence[FlagSetting],
    compiler: Compiler | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One program's slice of the training matrices.

    Deterministic in its inputs alone, so worker processes computing
    different programs produce exactly what a serial loop would.  This is
    the compile-once/simulate-many hot path shared with the sharded
    :mod:`repro.store` builds, imported lazily to avoid a package cycle.
    """
    from repro.store.compute import compute_shard

    return compute_shard(program, machines, settings, compiler)


def _program_rows_task(
    work: tuple[Program, Sequence[MicroArch], Sequence[FlagSetting], bool],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Picklable process-pool entry point.

    ``work`` is ``(program, machines, settings, compiler cache
    enabled)``.  The caller's compiler cannot cross the process
    boundary, so each task uses a worker compiler with the same cache
    setting — keeping parallel results identical to serial ones.
    """
    from repro.store.compute import compute_shard_task

    return compute_shard_task(work)


def generate_training_set(
    programs: Sequence[Program],
    machines: Sequence[MicroArch],
    n_settings: int,
    seed: int,
    extended: bool = False,
    compiler: Compiler | None = None,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
) -> TrainingSet:
    """Evaluate ``n_settings`` random settings on every pair (§3.2).

    With ``jobs > 1`` (negative: all cores) the per-program work — the
    embarrassingly parallel axis, since each program is compiled and
    simulated independently — fans out over a process pool; results are
    identical to a serial run.
    """
    active_compiler = compiler if compiler is not None else Compiler()
    settings = DEFAULT_SPACE.sample_many(n_settings, seed)

    from repro.core.code_features import CODE_FEATURE_NAMES

    P, S, M = len(programs), len(settings), len(machines)
    runtimes = np.empty((P, S, M), dtype=float)
    o3_runtimes = np.empty((P, M), dtype=float)
    counters = np.empty((P, M, len(COUNTER_NAMES)), dtype=float)
    code_features = np.empty((P, len(CODE_FEATURE_NAMES)), dtype=float)

    jobs = resolve_jobs(jobs)
    if jobs > 1 and P > 1:
        if progress is not None:
            progress(f"training data: {P} programs across {jobs} workers")
        rows = run_batch(
            _program_rows_task,
            [
                (
                    program,
                    list(machines),
                    settings,
                    active_compiler.cache_enabled,
                )
                for program in programs
            ],
            jobs=jobs,
            executor="process",
        )
        for p, (run_slab, o3_row, counter_rows, code_row) in enumerate(rows):
            runtimes[p] = run_slab
            o3_runtimes[p] = o3_row
            counters[p] = counter_rows
            code_features[p] = code_row
    else:
        for p, program in enumerate(programs):
            if progress is not None:
                progress(f"training data: {program.name} ({p + 1}/{P})")
            (
                runtimes[p],
                o3_runtimes[p],
                counters[p],
                code_features[p],
            ) = _program_rows(program, machines, settings, active_compiler)

    return TrainingSet(
        program_names=[program.name for program in programs],
        machines=list(machines),
        settings=settings,
        runtimes=runtimes,
        o3_runtimes=o3_runtimes,
        counters=counters,
        extended=extended,
        metadata={"seed": seed, "n_settings": n_settings},
        code_features=code_features,
    )
