"""The store-backed runtime oracle.

Cross-validation needs the runtime of (program, predicted setting,
machine) triples.  The training matrix assembled from the experiment
store already holds the runtime of *every* grid setting on every
machine, so the oracle answers those lookups without touching the
compiler or simulator at all; only settings the model synthesised
outside the sampled grid fall back to compile-and-simulate — and that
fallback is memoised compile-once/simulate-once, shared across every
fold that asks.  A fold's fallback settings compile as one
``compile_many`` batch through the compiler's pass memo, which keeps
each program's passes across folds, and each (binary, machine) pair is
priced with one ``simulate_analytic`` call.

The oracle also guards fold evaluation against silently swapping in a
different binary: every compiled binary is checked to carry exactly the
requested program and canonical setting before its simulation is
trusted.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import Program
from repro.compiler.pipeline import Compiler
from repro.core.training import TrainingSet
from repro.machine.params import MicroArch
from repro.sim.analytic import simulate_analytic


class OracleError(RuntimeError):
    """Fold evaluation was handed the wrong binary or an unknown pair."""


class RuntimeOracle:
    """Runtimes for (program, setting, machine), precomputed-first.

    Args:
        training: the assembled experiment-store matrix; its
            ``runtimes[p, s, m]`` grid answers every in-grid lookup.
        programs: :class:`Program` objects for the training programs
            (needed only for the out-of-grid compile fallback).
        compiler: memoising compiler for the fallback; a private one is
            created when omitted.

    Thread-safe: concurrent callers may share one instance; duplicate
    work is benign (identical deterministic values) and the counters are
    lock-guarded.
    """

    def __init__(
        self,
        training: TrainingSet,
        programs: Sequence[Program] | Mapping[str, Program],
        compiler: Compiler | None = None,
    ):
        self.training = training
        if isinstance(programs, Mapping):
            self._programs = dict(programs)
        else:
            self._programs = {program.name: program for program in programs}
        self.compiler = compiler if compiler is not None else Compiler()
        self._program_index = {
            name: index for index, name in enumerate(training.program_names)
        }
        self._machine_index = {
            machine: index for index, machine in enumerate(training.machines)
        }
        self._setting_index = {
            setting.canonical(): index
            for index, setting in enumerate(training.settings)
        }
        #: (program, canonical setting, machine index) -> seconds, for
        #: out-of-grid settings only (in-grid lookups read the matrix).
        self._fallback_runtimes: dict[tuple[str, FlagSetting, int], float] = {}
        self._lock = threading.Lock()
        self.simulation_calls = 0
        self.store_hits = 0

    # ------------------------------------------------------------ indexing
    def program_index(self, name: str) -> int:
        try:
            return self._program_index[name]
        except KeyError:
            raise OracleError(f"unknown program {name!r}") from None

    def machine_index(self, machine: MicroArch) -> int:
        try:
            return self._machine_index[machine]
        except KeyError:
            raise OracleError(f"machine not in the training grid: {machine}") from None

    # ------------------------------------------------------------- lookups
    def o3_runtime(self, program: str, machine: MicroArch) -> float:
        p = self.program_index(program)
        m = self.machine_index(machine)
        return float(self.training.o3_runtimes[p, m])

    def best_runtime(self, program: str, machine: MicroArch) -> float:
        p = self.program_index(program)
        m = self.machine_index(machine)
        return self.training.best_runtime(p, m)

    def runtime(
        self, program: str, setting: FlagSetting, machine: MicroArch
    ) -> float:
        """Seconds for one triple: grid lookup first, simulate only if new."""
        return self._runtimes(program, [setting], [machine])[0]

    def runtime_many(
        self,
        program: str,
        settings: Sequence[FlagSetting],
        machines: Sequence[MicroArch],
    ) -> list[float]:
        """Seconds for ``(program, settings[i], machines[i])`` triples.

        The batched form of :meth:`runtime`: answers, the fallback memo
        and the ``store_hits``/``simulation_calls`` counters are exactly
        what the same sequence of :meth:`runtime` calls produces, but
        every out-of-grid setting compiles in one
        :meth:`~repro.compiler.pipeline.Compiler.compile_many` batch.
        """
        if len(settings) != len(machines):
            raise ValueError("settings and machines must pair up")
        return self._runtimes(program, settings, machines)

    def _runtimes(
        self,
        program: str,
        settings: Sequence[FlagSetting],
        machines: Sequence[MicroArch],
    ) -> list[float]:
        """Both public lookups' one body; neither calls the other, so a
        wrapper around either sees each lookup once."""
        p = self.program_index(program)
        machine_indices = [self.machine_index(machine) for machine in machines]
        canonicals = [setting.canonical() for setting in settings]

        answers: list[float | None] = [None] * len(settings)
        #: canonical -> [(position, machine index)] still needing a fallback.
        pending: dict[FlagSetting, list[tuple[int, int]]] = {}
        store_hits = 0
        for position, (canonical, m) in enumerate(zip(canonicals, machine_indices)):
            s = self._setting_index.get(canonical)
            if s is not None:
                store_hits += 1
                answers[position] = float(self.training.runtimes[p, s, m])
                continue
            cached = self._fallback_runtimes.get((program, canonical, m))
            if cached is not None:
                answers[position] = cached
            else:
                pending.setdefault(canonical, []).append((position, m))
        if store_hits:
            with self._lock:
                self.store_hits += store_hits
        if not pending:
            return answers

        binaries = self._compile_checked(program, list(pending))
        for (canonical, places), binary in zip(pending.items(), binaries):
            # A setting may pair with the same machine twice; simulate
            # each distinct machine once, as memoised per-triple calls do.
            seconds_by_machine: dict[int, float] = {}
            for position, m in places:
                seconds = seconds_by_machine.get(m)
                if seconds is None:
                    seconds = simulate_analytic(
                        binary, self.training.machines[m]
                    ).seconds
                    seconds_by_machine[m] = seconds
                answers[position] = seconds
            with self._lock:
                self.simulation_calls += len(seconds_by_machine)
                for m, seconds in seconds_by_machine.items():
                    self._fallback_runtimes[(program, canonical, m)] = seconds
        return answers

    # ------------------------------------------------------------ fallback
    def _compile_checked(
        self, program: str, canonicals: Sequence[FlagSetting]
    ) -> list:
        """Compile one ``compile_many`` batch through the memoising
        compiler, verifying every binary's identity.

        Each returned binary must be *the* binary of (program, setting):
        a cache or executor bug that swapped in another program's binary,
        or one compiled under different flags, would silently corrupt
        every downstream paper number, so it is checked here instead of
        trusted.
        """
        source = self._programs.get(program)
        if source is None:
            raise OracleError(f"no Program object for {program!r}")
        binaries = self.compiler.compile_many(source, canonicals)
        for canonical, binary in zip(canonicals, binaries, strict=True):
            if binary.program_name != program:
                raise OracleError(
                    f"binary swap: asked for {program!r}, "
                    f"got {binary.program_name!r}"
                )
            recorded = (
                binary.setting.canonical() if binary.setting is not None else None
            )
            if recorded != canonical:
                raise OracleError(
                    f"binary swap: {program!r} binary was compiled under a "
                    "different flag setting than requested"
                )
        return binaries
