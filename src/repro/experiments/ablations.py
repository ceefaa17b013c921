"""Ablations of the model's design choices (DESIGN.md §5).

The paper fixes K = 7, β = 1, a top-5 % good-set, the (c, d) feature pair
and a *factorised* (IID) distribution, asserting insensitivity or arguing
simplicity.  Each ablation re-runs leave-one-out cross-validation with
one choice varied, so those assertions are measured rather than assumed.
The varied predictors are variants of the checkpointed protocol
(:mod:`repro.evalrun.variants` holds the swept values) and the report
renders each sweep as an :class:`AblationResult`:

* ``ablate-k`` — neighbourhood size (paper: "not sensitive");
* ``ablate-beta`` — the softmax sharpness of eq. 6;
* ``ablate-quantile`` — the "good settings" threshold;
* ``ablate-features`` — counters only vs descriptors only vs both
  (the §5.3 crc analysis predicts counters alone are not enough);
* ``ablate-iid`` — the paper's IID mode against
  :class:`JointVotePredictor`, a dependence-aware variant that votes
  over *concrete* good settings of the K neighbours, preserving
  inter-flag correlations the factorisation discards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compiler.flags import FlagSetting
from repro.core.features import FeatureNormaliser, feature_vector
from repro.core.predictor import DEFAULT_BETA, DEFAULT_K, DEFAULT_QUANTILE
from repro.core.training import TrainingSet
from repro.machine.params import MicroArch
from repro.sim.counters import PerfCounters


@dataclass
class AblationRow:
    label: str
    mean_speedup: float
    fraction_of_best: float
    correlation: float


@dataclass
class AblationResult:
    title: str
    rows: list[AblationRow]

    def render(self) -> str:
        lines = [
            self.title,
            f"{'variant':22s} {'mean speedup':>12s} {'frac of best':>12s} "
            f"{'correlation':>11s}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.label:22s} {row.mean_speedup:12.3f} "
                f"{row.fraction_of_best:12.2%} {row.correlation:11.3f}"
            )
        return "\n".join(lines)


class JointVotePredictor:
    """Dependence-aware alternative to the factorised IID mode.

    Prediction collects the *concrete* good settings of the K nearest
    training pairs and returns the one with the highest total neighbour
    weight — a mode over observed joint settings, so inter-flag
    correlations are preserved at the cost of never synthesising an unseen
    combination (which the IID mode does).
    """

    def __init__(
        self,
        k: int = DEFAULT_K,
        beta: float = DEFAULT_BETA,
        quantile: float = DEFAULT_QUANTILE,
        extended: bool = False,
    ):
        self.k = k
        self.beta = beta
        self.quantile = quantile
        self.extended = extended
        self._features: np.ndarray | None = None
        self._pairs: list[tuple[str, MicroArch, list[FlagSetting]]] = []
        self._normaliser: FeatureNormaliser | None = None

    @property
    def is_fitted(self) -> bool:
        return self._features is not None

    def fit(self, training: TrainingSet) -> "JointVotePredictor":
        self.extended = training.extended
        raw = []
        self._pairs = []
        for p, name in enumerate(training.program_names):
            for m, machine in enumerate(training.machines):
                counters = PerfCounters(*training.counters[p, m, :])
                raw.append(feature_vector(counters, machine, self.extended))
                self._pairs.append(
                    (name, machine, training.good_settings(p, m, self.quantile))
                )
        matrix = np.array(raw)
        self._normaliser = FeatureNormaliser.fit(matrix)
        self._features = self._normaliser.transform(matrix)
        return self

    def predict(
        self,
        counters: PerfCounters,
        machine: MicroArch,
        exclude_program: str | None = None,
        exclude_machine: MicroArch | None = None,
        code_features=None,
    ) -> FlagSetting:
        del code_features  # the joint-vote variant uses (c, d) only
        query = self._normaliser.transform(
            feature_vector(counters, machine, self.extended)
        )
        keep = [
            index
            for index, (name, mach, _) in enumerate(self._pairs)
            if (exclude_program is None or name != exclude_program)
            and (exclude_machine is None or mach != exclude_machine)
        ]
        distances = np.linalg.norm(self._features[keep] - query, axis=1)
        order = np.argsort(distances, kind="stable")[: self.k]
        logits = -self.beta * (distances[order] - distances[order].min())
        weights = np.exp(logits)
        weights /= weights.sum()

        votes: dict[FlagSetting, float] = {}
        for weight, position in zip(weights, order):
            _, _, good = self._pairs[keep[int(position)]]
            for setting in good:
                votes[setting] = votes.get(setting, 0.0) + weight / len(good)
        # Deterministic tie-break via the settings' index encoding.
        return max(votes.items(), key=lambda item: (item[1], item[0].as_indices()))[0]
