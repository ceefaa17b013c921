"""Reproduction of the paper's tables and headline claims.

* Table 1 — the 11 performance counters (definition + a sample -O3 run);
* Table 2 — the microarchitecture space (exactly 288,000 configurations);
* the §1/§5 headline numbers: mean speedup (1.16x), fraction of the
  iterative-compilation gain (67 %), best case (4.3x), correlation (0.93);
* the §4.4 wrong-passes numbers: 0.7x average, 0.2x worst case;
* the §5.3 claim: ≈50 random-search evaluations to match the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.flags import o3_setting
from repro.core.crossval import CrossValResult
from repro.experiments.dataset import ExperimentData
from repro.machine.params import BASE_GRID, EXTENDED_GRID, MicroArchSpace
from repro.machine.xscale import xscale
from repro.sim.analytic import simulate_analytic
from repro.sim.counters import COUNTER_NAMES


# ------------------------------------------------------------------- table 1
@dataclass
class Table1Result:
    """Counter names plus a sample reading from an XScale -O3 run."""

    counters: list[str]
    sample_program: str
    sample_values: dict[str, float]

    def render(self) -> str:
        lines = [
            "Table 1: performance counters "
            f"(sample: {self.sample_program} at -O3 on XScale)",
        ]
        for name in self.counters:
            lines.append(f"  {name:18s} {self.sample_values[name]:10.4f}")
        return "\n".join(lines)


def table1(data: ExperimentData) -> Table1Result:
    program = data.programs[0]
    binary = data.compiler.compile(program, o3_setting())
    result = simulate_analytic(binary, xscale())
    values = dict(zip(COUNTER_NAMES, result.counters.vector()))
    return Table1Result(
        counters=list(COUNTER_NAMES),
        sample_program=program.name,
        sample_values=values,
    )


# ------------------------------------------------------------------- table 2
@dataclass
class Table2Result:
    """The microarchitecture design space."""

    parameters: dict[str, tuple[int, ...]]
    base_size: int
    extended_size: int
    xscale: dict[str, int]

    def render(self) -> str:
        lines = ["Table 2: microarchitectural parameters"]
        for name, values in self.parameters.items():
            lines.append(
                f"  {name:14s} {values[0]}..{values[-1]} "
                f"({len(values)} values), XScale={self.xscale[name]}"
            )
        lines.append(
            f"  base space: {self.base_size:,} configurations (paper: 288,000)"
        )
        lines.append(f"  extended space (§7): {self.extended_size:,}")
        return "\n".join(lines)


def table2() -> Table2Result:
    reference = xscale()
    parameters = dict(BASE_GRID)
    xscale_values = {name: getattr(reference, name) for name in BASE_GRID}
    for name in EXTENDED_GRID:
        xscale_values[name] = getattr(reference, name)
    return Table2Result(
        parameters=parameters,
        base_size=MicroArchSpace().size(),
        extended_size=MicroArchSpace(extended=True).size(),
        xscale=xscale_values,
    )


# ------------------------------------------------------------------ headline
@dataclass
class HeadlineResult:
    """The paper's abstract/§5 numbers, measured on this reproduction."""

    mean_model_speedup: float  # paper: 1.16
    mean_best_speedup: float  # paper: 1.23
    fraction_of_best: float  # paper: 0.67
    correlation: float  # paper: 0.93
    best_case_model: float  # paper: 4.3
    best_case_available: float  # paper: 4.85
    worst_setting_mean: float  # paper: ~0.7
    worst_setting_min: float  # paper: ~0.2

    def render(self) -> str:
        return "\n".join(
            [
                "Headline numbers (paper values in parentheses)",
                f"  mean model speedup over -O3: {self.mean_model_speedup:.3f} (1.16)",
                f"  mean best speedup over -O3:  {self.mean_best_speedup:.3f} (1.23)",
                f"  fraction of best achieved:   {self.fraction_of_best:.2%} (67%)",
                f"  model/best correlation:      {self.correlation:.3f} (0.93)",
                f"  best-case model speedup:     {self.best_case_model:.2f}x (4.3x)",
                f"  best-case available:         {self.best_case_available:.2f}x (4.85x)",
                f"  wrong-passes mean speedup:   {self.worst_setting_mean:.2f}x (~0.7x)",
                f"  wrong-passes worst case:     {self.worst_setting_min:.2f}x (~0.2x)",
            ]
        )


def headline(data: ExperimentData, crossval: CrossValResult) -> HeadlineResult:
    speedups = data.training.speedups()  # [P, S, M]
    worst = speedups.min(axis=1)  # worst setting per pair
    return HeadlineResult(
        mean_model_speedup=crossval.mean_speedup(),
        mean_best_speedup=crossval.mean_best_speedup(),
        fraction_of_best=crossval.fraction_of_best(),
        correlation=crossval.correlation_with_best(),
        best_case_model=max(outcome.speedup for outcome in crossval.outcomes),
        best_case_available=max(
            outcome.best_speedup for outcome in crossval.outcomes
        ),
        worst_setting_mean=float(worst.mean()),
        worst_setting_min=float(worst.min()),
    )


# ------------------------------------------------------- iterations to match
@dataclass
class IterationsToMatchResult:
    """§5.3: random iterative compilation evaluations needed to reach the
    model's single-profile-run performance."""

    programs: list[str]
    mean_evaluations: np.ndarray  # per program (capped at budget)
    unmatched_fraction: np.ndarray  # pairs where the budget never matched
    budget: int

    @property
    def overall_mean(self) -> float:
        """Paper: ≈50 on average."""
        return float(self.mean_evaluations.mean())

    def render(self) -> str:
        lines = [
            "Iterations to match the model (random iterative compilation)",
            f"{'program':12s} {'mean evals':>10s} {'unmatched':>10s}",
        ]
        for index, name in enumerate(self.programs):
            lines.append(
                f"{name:12s} {self.mean_evaluations[index]:10.1f} "
                f"{self.unmatched_fraction[index]:10.2%}"
            )
        lines.append(
            f"{'AVERAGE':12s} {self.overall_mean:10.1f}   (paper: ~50, budget "
            f"{self.budget})"
        )
        return "\n".join(lines)


def iterations_to_match(
    data: ExperimentData, crossval: CrossValResult
) -> IterationsToMatchResult:
    """Replay the training matrix as a random-search trajectory per pair.

    The training settings are i.i.d. uniform draws, so the running minimum
    over their given order *is* a random search; the first index at which
    it reaches the model's runtime is the §5.3 statistic.
    """
    runtimes = data.training.runtimes  # [P, S, M]
    trajectory = np.minimum.accumulate(runtimes, axis=1)
    budget = runtimes.shape[1]

    model_runtime = {
        (outcome.program, outcome.machine): outcome.predicted_runtime
        for outcome in crossval.outcomes
    }
    programs = list(data.training.program_names)
    mean_evaluations = np.zeros(len(programs))
    unmatched = np.zeros(len(programs))
    for p, name in enumerate(programs):
        evaluations = []
        misses = 0
        for m, machine in enumerate(data.training.machines):
            target = model_runtime[(name, machine)]
            reached = np.nonzero(trajectory[p, :, m] <= target)[0]
            if len(reached) > 0:
                evaluations.append(int(reached[0]) + 1)
            else:
                evaluations.append(budget)
                misses += 1
        mean_evaluations[p] = float(np.mean(evaluations))
        unmatched[p] = misses / len(data.training.machines)
    return IterationsToMatchResult(
        programs=programs,
        mean_evaluations=mean_evaluations,
        unmatched_fraction=unmatched,
        budget=budget,
    )
