"""The IID multinomial distribution over optimisation passes (§3.3.1).

For one program/microarchitecture pair, the model distribution over flag
settings factorises per dimension (eq. 4):

    g(y) = ∏_ℓ g(y_ℓ),   g(y_ℓ = s_ℓ^(j)) = θ_ℓ^j

Fitting by minimising the KL divergence to the empirical distribution over
the "good" settings — the top 5 % of the sampled space — reduces to the
maximum-likelihood counting estimator of eq. 5: θ_ℓ^j is the fraction of
good settings in which pass ℓ takes value j.  The mode of the factorised
distribution (eq. 1) is the per-dimension argmax.

θ is one zero-padded ``[D, Vmax]`` table, the layout of one row of the
ranking kernel's ``[P, D, Vmax]`` tensor (:mod:`repro.core.vector`), so a
predicted distribution wraps its row of the kernel's mixture as it is and
validation, ``fit`` and ``mode`` are whole-table operations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.compiler.flags import DEFAULT_SPACE, FLAG_NAMES, FlagSetting

_REASONS = (
    "entries past its cardinality must be 0",
    "probabilities must sum to 1",
    "probabilities must be non-negative",
)


@dataclass(eq=False)
class IIDDistribution:
    """Per-dimension multinomials θ over the flag space, as one table."""

    theta: np.ndarray  # [D, Vmax]: theta[d, j] = θ_d^j, zero-padded

    def __eq__(self, other: object) -> bool:
        """Value equality: bit-equal θ tables."""
        if not isinstance(other, IIDDistribution):
            return NotImplemented
        return np.array_equal(self.theta, other.theta)

    def __post_init__(self) -> None:
        # θ can come from a file on disk.  NaN fails the sum test; the first
        # failed (dimension, check) in row-major order names the error.
        theta = self.theta = np.ascontiguousarray(self.theta, dtype=float)
        valid = DEFAULT_SPACE.value_mask
        if theta.shape != valid.shape:
            raise ValueError(f"theta shape {theta.shape} != {valid.shape}")
        failed = np.array((
            np.where(valid, 0.0, theta).any(axis=1),
            ~(np.abs(np.add.reduce(theta, axis=1) - 1.0) <= 1e-6),
            (theta < 0.0).any(axis=1),
        )).T
        if failed.any():
            dim, check = divmod(int(np.argmax(failed)), len(_REASONS))
            raise ValueError(f"{FLAG_NAMES[dim]}: {_REASONS[check]}")

    @functools.cached_property
    def rows(self) -> tuple[tuple[float, ...], ...]:
        """θ per dimension as Python floats, cut to each cardinality."""
        pairs = zip(self.theta.tolist(), DEFAULT_SPACE.cardinalities())
        return tuple(tuple(row[:cardinality]) for row, cardinality in pairs)

    # ------------------------------------------------------------- fitting
    @staticmethod
    def fit(
        good_settings: Sequence[FlagSetting], smoothing: float = 0.0
    ) -> "IIDDistribution":
        """Maximum-likelihood fit (eq. 5) with optional Laplace smoothing.

        The empirical distribution weights the good settings uniformly, as
        in the paper (footnote 1).  The unbuffered scatter-add counts each
        cell in setting order, as a scalar loop would.
        """
        if not good_settings:
            raise ValueError("cannot fit a distribution to zero settings")
        indices = np.array([setting.as_indices() for setting in good_settings])
        counts = np.where(DEFAULT_SPACE.value_mask, float(smoothing), 0.0)
        np.add.at(counts, (np.arange(len(FLAG_NAMES)), indices), 1.0)
        return IIDDistribution(theta=counts / np.add.reduce(counts, axis=1)[:, None])

    # ----------------------------------------------------------- inference
    def mode(self) -> FlagSetting:
        """The most probable setting (eq. 1); factorisation makes the joint
        argmax the per-dimension argmax.  Ties break to the lower index,
        deterministically; padding (0) never beats a row's positive max."""
        return FlagSetting.from_indices(np.argmax(self.theta, axis=1).tolist())

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
        ranked = _best_first(self.theta, DEFAULT_SPACE.value_mask, count)
        return [
            (FlagSetting.from_indices(indices), probability)
            for indices, probability in ranked
        ]

    def log_prob(self, setting: FlagSetting) -> float:
        total = 0.0
        for row, index in zip(self.rows, setting.as_indices()):
            probability = row[index]
            if probability <= 0.0:
                return -math.inf
            total += math.log(probability)
        return total

    def sample(self, rng) -> FlagSetting:
        """Draw one setting from the factorised distribution."""
        indices = []
        for row in self.rows:
            roll = rng.random()
            cumulative = 0.0
            picked = len(row) - 1
            for index, probability in enumerate(row):
                cumulative += probability
                if roll < cumulative:
                    picked = index
                    break
            indices.append(picked)
        return FlagSetting.from_indices(indices)

    def marginal(self, flag_name: str) -> np.ndarray:
        dim = FLAG_NAMES.index(flag_name)
        return self.theta[dim, : DEFAULT_SPACE.cardinalities()[dim]].copy()

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
        mixed = np.zeros_like(distributions[0].theta)
        for distribution, weight in zip(distributions, weights):
            mixed += (weight / total) * distribution.theta
        return IIDDistribution(theta=mixed)

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
    theta: np.ndarray, valid: np.ndarray, count: int
) -> list[tuple[list[int], float]]:
    """:meth:`IIDDistribution.top_settings` over any zero-padded table
    ``theta`` whose real entries ``valid`` marks."""
    import heapq

    if count < 1:
        raise ValueError(f"count must be >= 1: {count}")
    cardinalities = np.add.reduce(valid, axis=1)
    dims = len(cardinalities)
    every_dim = np.arange(dims)
    unit = np.eye(dims, dtype=int)
    # Padding becomes -inf so it ranks last; a stable argsort breaks ties
    # to the lower value index.
    table = np.where(valid, theta, -np.inf)
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
