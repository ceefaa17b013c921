"""The IID multinomial distribution over optimisation passes (§3.3.1).

For one program/microarchitecture pair, the model distribution over flag
settings factorises per dimension (eq. 4):

    g(y) = ∏_ℓ g(y_ℓ),   g(y_ℓ = s_ℓ^(j)) = θ_ℓ^j

Fitting by minimising the KL divergence to the empirical distribution over
the "good" settings — the top 5 % of the sampled space — reduces to the
maximum-likelihood counting estimator of eq. 5: θ_ℓ^j is the fraction of
good settings in which pass ℓ takes value j.  The mode of the factorised
distribution (eq. 1) is the per-dimension argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.compiler.flags import DEFAULT_SPACE, FlagSetting, FlagSpace


@dataclass
class IIDDistribution:
    """Per-dimension multinomials θ over the flag space."""

    space: FlagSpace
    theta: list[np.ndarray]  # theta[dim][value_index], each sums to 1

    def __post_init__(self) -> None:
        if len(self.theta) != len(self.space):
            raise ValueError("one multinomial per flag dimension required")
        for spec, probs in zip(self.space.specs, self.theta):
            if len(probs) != spec.cardinality:
                raise ValueError(f"{spec.name}: wrong multinomial arity")
            # θ can come from a file on disk.  The ufunc reductions skip
            # np.sum/np.min's dispatch (this runs per predicted
            # distribution), and the sum test is phrased so NaN fails it.
            if not abs(float(np.add.reduce(probs)) - 1.0) <= 1e-6:
                raise ValueError(f"{spec.name}: probabilities must sum to 1")
            if np.minimum.reduce(probs) < 0.0:
                raise ValueError(f"{spec.name}: probabilities must be non-negative")

    # ------------------------------------------------------------- fitting
    @staticmethod
    def fit(
        good_settings: Sequence[FlagSetting],
        space: FlagSpace = DEFAULT_SPACE,
        smoothing: float = 0.0,
    ) -> "IIDDistribution":
        """Maximum-likelihood fit (eq. 5) with optional Laplace smoothing.

        The empirical distribution weights the good settings uniformly, as
        in the paper (footnote 1).
        """
        if not good_settings:
            raise ValueError("cannot fit a distribution to zero settings")
        theta: list[np.ndarray] = []
        columns = zip(*(setting.as_indices() for setting in good_settings))
        for spec, column in zip(space.specs, columns):
            counts = [smoothing] * spec.cardinality
            for index in column:
                counts[index] += 1.0
            counts = np.array(counts, dtype=float)
            theta.append(counts / counts.sum())
        return IIDDistribution(space=space, theta=theta)

    # ----------------------------------------------------------- inference
    def mode(self) -> FlagSetting:
        """The most probable setting (eq. 1); factorisation makes the joint
        argmax the per-dimension argmax.  Ties break to the lower index,
        deterministically."""
        indices = [int(np.argmax(probs)) for probs in self.theta]
        return FlagSetting.from_indices(indices)

    def top_settings(self, count: int) -> list[tuple[FlagSetting, float]]:
        """The ``count`` most probable settings with their probabilities.

        Best-first over rank vectors (values ranked by probability, ties
        to the lower index).  A vector's one canonical parent is itself
        with its last non-zero dimension stepped back, so a popped vector
        whose last stepped dimension is ``L`` pushes a child per ``d >= L``
        with a next rank; no ``seen`` set.  On the ``(-p, ranks)`` heap a
        parent sorts before its children (p no smaller, ranks smaller), so
        the order, ties included, equals enumerating every child.  Each
        product runs left to right over the dimensions: bit-exact.
        """
        return [
            (FlagSetting.from_indices(indices), probability)
            for indices, probability in _best_first(self.theta, count)
        ]

    def log_prob(self, setting: FlagSetting) -> float:
        total = 0.0
        for dim_probs, index in zip(self.theta, setting.as_indices()):
            probability = float(dim_probs[index])
            if probability <= 0.0:
                return -math.inf
            total += math.log(probability)
        return total

    def sample(self, rng) -> FlagSetting:
        """Draw one setting from the factorised distribution."""
        indices = []
        for probs in self.theta:
            roll = rng.random()
            cumulative = 0.0
            picked = len(probs) - 1
            for index, probability in enumerate(probs):
                cumulative += probability
                if roll < cumulative:
                    picked = index
                    break
            indices.append(picked)
        return FlagSetting.from_indices(indices)

    def marginal(self, flag_name: str) -> np.ndarray:
        dim = self.space.names.index(flag_name)
        return self.theta[dim].copy()

    # ------------------------------------------------------------- algebra
    @staticmethod
    def mix(
        distributions: Sequence["IIDDistribution"], weights: Sequence[float]
    ) -> "IIDDistribution":
        """Convex combination (the KNN predictive distribution of eq. 6)."""
        if len(distributions) != len(weights) or not distributions:
            raise ValueError("need matching, non-empty distributions/weights")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        space = distributions[0].space
        mixed: list[np.ndarray] = []
        for dim in range(len(space)):
            acc = np.zeros_like(distributions[0].theta[dim])
            for distribution, weight in zip(distributions, weights):
                acc += (weight / total) * distribution.theta[dim]
            mixed.append(acc)
        return IIDDistribution(space=space, theta=mixed)

    def cross_entropy(self, settings: Sequence[FlagSetting]) -> float:
        """H(p̃, g) against a uniform empirical distribution over
        ``settings`` (eq. 3's objective, negated)."""
        if not settings:
            raise ValueError("empty empirical set")
        return -sum(self.log_prob(setting) for setting in settings) / len(settings)

    def kl_from_empirical(self, settings: Sequence[FlagSetting]) -> float:
        """KL(p̃ ‖ g) up to the constant entropy of p̃ (eq. 2): reported as
        cross-entropy minus the empirical entropy over distinct settings."""
        distinct: dict[FlagSetting, int] = {}
        for setting in settings:
            distinct[setting] = distinct.get(setting, 0) + 1
        total = len(settings)
        empirical_entropy = -sum(
            (count / total) * math.log(count / total)
            for count in distinct.values()
        )
        return self.cross_entropy(settings) - empirical_entropy


def _best_first(
    theta: Sequence[np.ndarray], count: int
) -> list[tuple[list[int], float]]:
    """:meth:`IIDDistribution.top_settings` over any multinomials."""
    import heapq

    if count < 1:
        raise ValueError(f"count must be >= 1: {count}")
    cardinalities = np.array([len(probs) for probs in theta])
    dims = len(cardinalities)
    every_dim = np.arange(dims)
    unit = np.eye(dims, dtype=int)
    # One [dims, max_cardinality] table, padded with -inf so the padding
    # ranks last; a stable argsort breaks ties to the lower value index.
    valid = np.arange(cardinalities.max()) < cardinalities[:, None]
    table = np.full(valid.shape, -np.inf)
    table[valid] = np.concatenate(theta).astype(float)
    order = np.argsort(-table, axis=1, kind="stable")
    # ranked[d, r]: the probability of dimension d's r-th ranked value.
    ranked = np.take_along_axis(table, order, axis=1)
    orders = order.tolist()
    last_rank = (cardinalities - 1).tolist()

    mode = np.multiply.accumulate(ranked[:, 0])[-1].item()
    heap = [(-mode, (0,) * dims, 0)]
    out: list[tuple[list[int], float]] = []
    while heap:
        negative, ranks, last = heapq.heappop(heap)
        out.append(
            ([order[rank] for order, rank in zip(orders, ranks)], -negative)
        )
        if len(out) == count:
            break
        stepped = [d for d in range(last, dims) if ranks[d] < last_rank[d]]
        # Row c of ``children`` is child c: the parent with dimension
        # stepped[c] moved to its next rank.  Its factors form column c
        # of ``block``, and a running product down the rows multiplies
        # each column left to right like a scalar loop.
        children = np.array(ranks) + unit[stepped]
        block = ranked[every_dim[:, None], children.T]
        products = np.multiply.accumulate(block, axis=0)[-1].tolist()
        for child, dim, product in zip(children.tolist(), stepped, products):
            heapq.heappush(heap, (-product, tuple(child), dim))
    return out


def good_settings_by_runtime(
    settings: Sequence[FlagSetting],
    runtimes: np.ndarray,
    quantile: float = 0.05,
) -> list[FlagSetting]:
    """The paper's e-Y: settings within the top ``quantile`` by speed.

    ``runtimes[i]`` is the runtime of ``settings[i]``; lower is better.  At
    least one setting is always returned.

    Tie rule: the cut size ``n * quantile`` rounds half **up** (50 samples
    at 5 % keep 3, 70 keep 4), so equidistant boundaries behave
    monotonically in ``n`` — unlike banker's rounding, which kept 2 of 50
    but 4 of 70.
    """
    if len(settings) != len(runtimes):
        raise ValueError("settings/runtimes length mismatch")
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile out of (0, 1]: {quantile}")
    keep = max(1, math.floor(len(settings) * quantile + 0.5))
    order = np.argsort(runtimes, kind="stable")
    return [settings[index] for index in order[:keep]]
