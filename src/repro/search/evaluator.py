"""Evaluation oracle shared by the iterative-compilation baselines.

One *evaluation* is one compile-and-run of a flag setting on a fixed
program/machine pair — the costly unit the paper counts (its "Best" uses
1000 of them; its model uses one profile run).  The evaluator memoises, so
revisiting a setting is free, matching how an iterative-compilation driver
would cache results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.compiler.binary import CompiledBinary
from repro.compiler.flags import FlagSetting, o3_setting
from repro.compiler.ir import Program
from repro.compiler.pipeline import Compiler
from repro.machine.params import MicroArch
from repro.sim.analytic import SimulationResult, simulate_analytic


@dataclass
class Evaluator:
    """Runtime oracle for one (program, machine) pair.

    ``simulate`` makes the timing tier pluggable: it defaults to the fast
    analytic model, and :class:`repro.api.Session` injects a simulator
    backend's ``run`` here so searches can target the trace tier too.
    Every fresh binary is priced by one ``simulate`` call.
    """

    program: Program
    machine: MicroArch
    compiler: Compiler = field(default_factory=Compiler)
    simulate: Callable[[CompiledBinary, MicroArch], SimulationResult] | None = None

    def __post_init__(self) -> None:
        self._cache: dict[FlagSetting, float] = {}
        self.evaluations = 0

    def evaluate(self, setting: FlagSetting) -> float:
        """Runtime in seconds of the program compiled with ``setting``."""
        return self.evaluate_many([setting])[0]

    def evaluate_many(self, settings: Sequence[FlagSetting]) -> list[float]:
        """Runtimes of many settings, memoised per canonical setting.

        Compiles the uncached settings (first-seen order) as one
        :meth:`~repro.compiler.pipeline.Compiler.compile_many` batch and
        prices each fresh binary on this evaluator's machine with one
        ``simulate`` call.  ``evaluations`` counts the fresh settings.
        """
        canonicals = [setting.canonical() for setting in settings]
        fresh = [
            canonical
            for canonical in dict.fromkeys(canonicals)
            if canonical not in self._cache
        ]
        if fresh:
            runner = self.simulate if self.simulate is not None else simulate_analytic
            binaries = self.compiler.compile_many(self.program, fresh)
            for canonical, binary in zip(fresh, binaries):
                self._cache[canonical] = runner(binary, self.machine).seconds
                self.evaluations += 1
        return [self._cache[canonical] for canonical in canonicals]

    def is_cached(self, setting: FlagSetting) -> bool:
        """Whether evaluating ``setting`` would be a memo hit.

        The autotune scorer asks this *before* pricing a batch to count
        fresh simulations (the paper's costly unit) separately from
        budgeted evaluations; canonicalisation is applied, so gated
        aliases of a cached setting report cached too.
        """
        return setting.canonical() in self._cache

    def o3_runtime(self) -> float:
        return self.evaluate(o3_setting())

    def speedup(self, setting: FlagSetting) -> float:
        return self.o3_runtime() / self.evaluate(setting)


def evaluations_to_reach(
    trajectory: Sequence[float], target_runtime: float
) -> int | None:
    """First evaluation index (1-based) reaching ``target_runtime``.

    Boundary semantics, pinned (consumers cap or gate on this):

    * reaching means ``runtime <= target_runtime`` — equality counts;
    * a search that first reaches the target on its *final* evaluation
      returns ``len(trajectory)``, never ``None``;
    * ``None`` means exactly one thing: no recorded evaluation reached
      the target.  It is **not** a sentinel for "reached at the budget
      cap" — callers that charge unreached runs the full budget must
      test for ``None`` explicitly rather than comparing against
      ``len(trajectory)``, because a legitimate final-evaluation match
      also equals the budget.
    """
    for index, runtime in enumerate(trajectory, start=1):
        if runtime <= target_runtime:
            return index
    return None

