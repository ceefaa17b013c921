"""Leave-one-out cross-validation results (§5.1.1).

For every (program, microarchitecture) pair the protocol predicts the
best passes using a model that never consults training data from that
program or that machine, compiles the program with the prediction,
executes it on the machine, and compares against -O3 and against the
iterative-compilation "Best" (§5.1.2).  The protocol itself runs as
checkpointed folds in :mod:`repro.evalrun.pipeline`; this module holds
the per-pair outcome and the aggregates the paper reports over them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compiler.flags import FlagSetting
from repro.machine.params import MicroArch


@dataclass
class PairOutcome:
    """One leave-one-out prediction, evaluated."""

    program: str
    machine: MicroArch
    predicted: FlagSetting
    predicted_runtime: float
    o3_runtime: float
    best_runtime: float

    @property
    def speedup(self) -> float:
        """Predicted-setting speedup over -O3 (the paper's headline unit)."""
        return self.o3_runtime / self.predicted_runtime

    @property
    def best_speedup(self) -> float:
        return self.o3_runtime / self.best_runtime

    @property
    def fraction_of_best(self) -> float:
        """(model gain) / (best gain); 1.0 = matched iterative compilation.

        Measured in gained time so that a pair with no headroom does not
        divide by zero; clipped below at 0."""
        best_gain = self.o3_runtime - self.best_runtime
        model_gain = self.o3_runtime - self.predicted_runtime
        if best_gain <= 0.0:
            return 1.0
        return max(model_gain / best_gain, 0.0)


@dataclass
class CrossValResult:
    """All pairs of the leave-one-out sweep (Figure 5(b)'s data)."""

    outcomes: list[PairOutcome] = field(default_factory=list)

    def mean_speedup(self) -> float:
        """Arithmetic mean speedup over -O3 (the paper's 1.16x)."""
        return float(np.mean([outcome.speedup for outcome in self.outcomes]))

    def mean_best_speedup(self) -> float:
        """Mean Best speedup (the paper's 1.23x upper bound)."""
        return float(np.mean([outcome.best_speedup for outcome in self.outcomes]))

    def fraction_of_best(self) -> float:
        """Aggregate fraction of the iterative-compilation gain achieved
        (the paper's 67 %): mean gained speedup over mean available."""
        model = np.array([outcome.speedup for outcome in self.outcomes])
        best = np.array([outcome.best_speedup for outcome in self.outcomes])
        available = float(np.mean(best) - 1.0)
        achieved = float(np.mean(model) - 1.0)
        if available <= 0.0:
            return 1.0
        return achieved / available

    def correlation_with_best(self) -> float:
        """Pearson correlation between predicted and best speedups across
        the joint space (the paper's 0.93)."""
        model = np.array([outcome.speedup for outcome in self.outcomes])
        best = np.array([outcome.best_speedup for outcome in self.outcomes])
        if model.std() < 1e-12 or best.std() < 1e-12:
            return 1.0
        return float(np.corrcoef(model, best)[0, 1])

    def by_program(self) -> dict[str, list[PairOutcome]]:
        grouped: dict[str, list[PairOutcome]] = {}
        for outcome in self.outcomes:
            grouped.setdefault(outcome.program, []).append(outcome)
        return grouped

    def by_machine(self) -> dict[MicroArch, list[PairOutcome]]:
        grouped: dict[MicroArch, list[PairOutcome]] = {}
        for outcome in self.outcomes:
            grouped.setdefault(outcome.machine, []).append(outcome)
        return grouped
