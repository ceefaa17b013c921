"""The store-backed runtime oracle.

Cross-validation needs the runtime of (program, predicted setting,
machine) triples.  The training matrix assembled from the experiment
store already holds the runtime of *every* grid setting on every
machine, so the oracle answers those lookups without touching the
compiler or simulator at all; only settings the model synthesised
outside the sampled grid are priced, through one memoising
:class:`~repro.search.evaluator.Pricer` per program shared across every
fold that asks.  A fold's out-of-grid settings compile as one
``compile_many`` batch through the compiler's pass memo, which keeps
each program's passes across folds, each binary is checked to carry
exactly the requested program and canonical setting before its run is
trusted, and each (binary, machine) pair is priced with one
``simulate_analytic`` call.
"""

from __future__ import annotations

import threading
from typing import Mapping, Sequence

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import Program
from repro.compiler.pipeline import Compiler
from repro.core.training import TrainingSet
from repro.machine.params import MicroArch
from repro.search.evaluator import OracleError, Pricer


class RuntimeOracle:
    """Runtimes for (program, setting, machine), precomputed-first.

    Args:
        training: the assembled experiment-store matrix; its
            ``runtimes[p, s, m]`` grid answers every in-grid lookup.
        programs: :class:`Program` objects for the training programs
            (needed only to price out-of-grid settings).
        compiler: memoising compiler the pricers share; a private one is
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
        #: Program name -> the pricer of its out-of-grid settings
        #: (in-grid lookups read the matrix).
        self._pricers: dict[str, Pricer] = {}
        self._lock = threading.Lock()
        self.store_hits = 0

    @property
    def simulation_calls(self) -> int:
        """Out-of-grid runs so far, summed over the per-program pricers."""
        return sum(pricer.simulations for pricer in list(self._pricers.values()))

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
        """Seconds for one triple: grid lookup first, priced only if new."""
        return self._runtimes(program, [setting], [machine])[0]

    def runtime_many(
        self,
        program: str,
        settings: Sequence[FlagSetting],
        machines: Sequence[MicroArch],
    ) -> list[float]:
        """Seconds for ``(program, settings[i], machines[i])`` triples.

        The batched form of :meth:`runtime`: answers, the pricers' memos
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
        answers: list[float] = [0.0] * len(settings)
        misses: list[int] = []
        for position, (setting, m) in enumerate(zip(settings, machine_indices)):
            s = self._setting_index.get(setting.canonical())
            if s is None:
                misses.append(position)
            else:
                answers[position] = float(self.training.runtimes[p, s, m])
        if len(misses) < len(settings):
            with self._lock:
                self.store_hits += len(settings) - len(misses)
        if misses:
            seconds = self._pricer(program).seconds(
                [settings[i] for i in misses], [machines[i] for i in misses]
            )
            for position, value in zip(misses, seconds):
                answers[position] = value
        return answers

    def _pricer(self, program: str) -> Pricer:
        pricer = self._pricers.get(program)
        if pricer is None:
            source = self._programs.get(program)
            if source is None:
                raise OracleError(f"no Program object for {program!r}")
            with self._lock:
                pricer = self._pricers.setdefault(
                    program, Pricer(source, self.compiler)
                )
        return pricer
