"""The one-table θ layout against the per-dimension-list distribution.

:class:`IIDDistribution` holds θ as one zero-padded ``[D, Vmax]`` table
and runs validation, ``fit`` and ``mode`` as whole-table operations.
:class:`ListDistribution` below is the list-of-arrays implementation it
replaced, kept with its code unchanged apart from names and docstrings,
as the oracle: for hypothesis-drawn θ tables, good-setting sets and
mixture weights, every result must be *equal* — not close — because
predicted settings, ``/predict`` replies and registry digests are bytes.
Malformed θ must still raise a ``ValueError`` that names the first bad
dimension.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.flags import DEFAULT_SPACE, FLAG_SPECS, FlagSetting, FlagSpace
from repro.core.distribution import IIDDistribution
from repro.core.vector import stack_state_arrays


@dataclass
class ListDistribution:
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

    @staticmethod
    def fit(
        good_settings: Sequence[FlagSetting],
        space: FlagSpace = DEFAULT_SPACE,
        smoothing: float = 0.0,
    ) -> "ListDistribution":
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
        return ListDistribution(space=space, theta=theta)

    def mode(self) -> FlagSetting:
        indices = [int(np.argmax(probs)) for probs in self.theta]
        return FlagSetting.from_indices(indices)

    def top_settings(self, count: int) -> list[tuple[FlagSetting, float]]:
        return [
            (FlagSetting.from_indices(indices), probability)
            for indices, probability in _list_best_first(self.theta, count)
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

    @staticmethod
    def mix(
        distributions: Sequence["ListDistribution"], weights: Sequence[float]
    ) -> "ListDistribution":
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
        return ListDistribution(space=space, theta=mixed)


def _list_best_first(
    theta: Sequence[np.ndarray], count: int
) -> list[tuple[list[int], float]]:
    import heapq

    if count < 1:
        raise ValueError(f"count must be >= 1: {count}")
    cardinalities = np.array([len(probs) for probs in theta])
    dims = len(cardinalities)
    every_dim = np.arange(dims)
    unit = np.eye(dims, dtype=int)
    valid = np.arange(cardinalities.max()) < cardinalities[:, None]
    table = np.full(valid.shape, -np.inf)
    table[valid] = np.concatenate(theta).astype(float)
    order = np.argsort(-table, axis=1, kind="stable")
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
        children = np.array(ranks) + unit[stepped]
        block = ranked[every_dim[:, None], children.T]
        products = np.multiply.accumulate(block, axis=0)[-1].tolist()
        for child, dim, product in zip(children.tolist(), stepped, products):
            heapq.heappush(heap, (-product, tuple(child), dim))
    return out


# ---------------------------------------------------------------- strategies
#: Weights that make exact ties, zeros and certain values.
special = st.sampled_from([0.0, 1.0, 0.5, 0.25, 1 / 3, 0.1, 3.0])
weight = st.one_of(special, st.floats(0.0, 10.0, allow_nan=False))


@st.composite
def theta_rows(draw) -> list[np.ndarray]:
    """One normalised multinomial per flag dimension."""
    rows = []
    for spec in FLAG_SPECS:
        values = np.array(
            draw(st.lists(weight, min_size=spec.cardinality,
                          max_size=spec.cardinality))
        )
        if not values.sum() > 0.0:
            values[draw(st.integers(0, spec.cardinality - 1))] = 1.0
        rows.append(values / values.sum())
    return rows


index_vectors = st.tuples(
    *(st.integers(0, spec.cardinality - 1) for spec in FLAG_SPECS)
)
flag_settings = st.builds(FlagSetting.from_indices, index_vectors)
smoothings = st.one_of(
    st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 3.0, allow_nan=False)
)


def padded(rows) -> np.ndarray:
    """Per-dimension rows in the zero-padded ``[D, Vmax]`` layout."""
    table = np.zeros((len(FLAG_SPECS), max(DEFAULT_SPACE.cardinalities())))
    for d, row in enumerate(rows):
        table[d, : len(row)] = row
    return table


def state_of(rows) -> dict:
    """A one-pair :meth:`OptimisationPredictor.get_state`-shaped payload."""
    return {
        "pairs": [{"features": [0.0], "theta": [list(row) for row in rows]}]
    }


def pair(rows) -> tuple[IIDDistribution, ListDistribution]:
    return (
        IIDDistribution(DEFAULT_SPACE, padded(rows)),
        ListDistribution(DEFAULT_SPACE, rows),
    )


def assert_same_theta(table: IIDDistribution, lists: ListDistribution) -> None:
    assert table.theta.shape == (len(FLAG_SPECS), max(DEFAULT_SPACE.cardinalities()))
    assert table.theta.flags.c_contiguous
    for row, probs, spec in zip(table.theta, lists.theta, FLAG_SPECS):
        assert row[: spec.cardinality].tolist() == probs.tolist()
        assert not row[spec.cardinality :].any()
    assert table.rows == tuple(tuple(probs.tolist()) for probs in lists.theta)


# --------------------------------------------------------------- equivalence
class TestSameResults:
    @settings(max_examples=150, deadline=None)
    @given(
        good=st.lists(flag_settings, min_size=1, max_size=25),
        smoothing=smoothings,
    )
    def test_fit(self, good, smoothing):
        table = IIDDistribution.fit(good, smoothing=smoothing)
        lists = ListDistribution.fit(good, smoothing=smoothing)
        assert_same_theta(table, lists)
        assert table.mode() == lists.mode()

    @settings(max_examples=150, deadline=None)
    @given(rows=theta_rows())
    def test_mode(self, rows):
        table, lists = pair(rows)
        assert_same_theta(table, lists)
        assert table.mode() == lists.mode()

    @settings(max_examples=100, deadline=None)
    @given(rows=theta_rows(), count=st.integers(1, 60))
    def test_top_settings_ties_included(self, rows, count):
        table, lists = pair(rows)
        assert table.top_settings(count) == lists.top_settings(count)

    @settings(max_examples=100, deadline=None)
    @given(
        mixture=st.lists(
            st.tuples(theta_rows(), weight.filter(lambda w: w > 0.0)),
            min_size=1, max_size=7,
        )
    )
    def test_mix(self, mixture):
        pairs = [pair(rows) for rows, _ in mixture]
        weights = [w for _, w in mixture]
        table = IIDDistribution.mix([t for t, _ in pairs], weights)
        lists = ListDistribution.mix([l for _, l in pairs], weights)
        assert_same_theta(table, lists)
        assert table.mode() == lists.mode()

    @settings(max_examples=100, deadline=None)
    @given(
        rows=theta_rows(),
        probes=st.lists(flag_settings, min_size=1, max_size=10),
    )
    def test_log_prob(self, rows, probes):
        table, lists = pair(rows)
        for setting in probes + [lists.mode()]:
            assert table.log_prob(setting) == lists.log_prob(setting)

    @settings(max_examples=100, deadline=None)
    @given(rows=theta_rows(), seed=st.integers(0, 2**32 - 1))
    def test_sample_under_one_seeded_rng(self, rows, seed):
        table, lists = pair(rows)
        table_rng, lists_rng = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert table.sample(table_rng) == lists.sample(lists_rng)
        assert table_rng.random() == lists_rng.random()

    @settings(max_examples=50, deadline=None)
    @given(rows=theta_rows())
    def test_marginal(self, rows):
        table, lists = pair(rows)
        for name in DEFAULT_SPACE.names:
            marginal = table.marginal(name)
            assert marginal.tolist() == lists.marginal(name).tolist()
            marginal[:] = 7.0  # a copy: the table is untouched
        assert_same_theta(table, lists)


# ----------------------------------------------------------------- rejection
def valid_rows() -> list[np.ndarray]:
    return [np.full(spec.cardinality, 1.0 / spec.cardinality) for spec in FLAG_SPECS]


def breaks(kind: str, cardinality: int) -> np.ndarray:
    """A row of ``cardinality`` that breaks the ``kind`` check."""
    row = np.full(cardinality, 1.0 / cardinality)
    if kind == "sum":
        row[0] += 0.5
    elif kind == "negative":
        row[0], row[-1] = row[0] + 1.0, row[-1] - 1.0
    elif kind == "nan":
        row[0] = np.nan
    return row


#: (first, second) bad dimensions, none of them the widest (30).
TWO_BAD_DIMS = [(3, 20), (0, 38), (25, 31)]


class TestRejection:
    @pytest.mark.parametrize("kind", ["sum", "negative", "nan"])
    @pytest.mark.parametrize("first,second", TWO_BAD_DIMS)
    def test_bad_values_name_the_first_bad_dimension(self, kind, first, second):
        rows = valid_rows()
        for dim in (second, first):
            rows[dim] = breaks(kind, FLAG_SPECS[dim].cardinality)
        name = FLAG_SPECS[first].name
        for build in (
            lambda: ListDistribution(DEFAULT_SPACE, rows),
            lambda: IIDDistribution(DEFAULT_SPACE, padded(rows)),
            lambda: IIDDistribution(
                DEFAULT_SPACE, stack_state_arrays(state_of(rows))[1][0]
            ),
        ):
            with pytest.raises(ValueError) as error:
                build()
            assert str(error.value).startswith(f"{name}: ")

    @pytest.mark.parametrize("first,second", TWO_BAD_DIMS)
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_arity_names_the_dimension(self, first, second, delta):
        rows = valid_rows()
        for dim in (second, first):
            rows[dim] = np.full(FLAG_SPECS[dim].cardinality + delta, 1.0)
            rows[dim] /= rows[dim].sum()
        name = FLAG_SPECS[first].name
        for build in (
            lambda: ListDistribution(DEFAULT_SPACE, rows),
            lambda: stack_state_arrays(state_of(rows)),
        ):
            with pytest.raises(ValueError, match="wrong multinomial arity") as error:
                build()
            assert str(error.value).startswith(f"{name}: ")

    def test_wrong_dimension_count(self):
        with pytest.raises(ValueError, match="one multinomial per flag"):
            stack_state_arrays(state_of(valid_rows()[:-1]))
        with pytest.raises(ValueError, match="theta shape"):
            IIDDistribution(DEFAULT_SPACE, padded(valid_rows())[:-1])
        with pytest.raises(ValueError, match="theta shape"):
            IIDDistribution(DEFAULT_SPACE, padded(valid_rows())[:, :-1])

    @pytest.mark.parametrize("first,second", TWO_BAD_DIMS)
    @pytest.mark.parametrize("padding", [0.25, -0.25, np.nan, 1e-300])
    def test_non_zero_padding_names_the_dimension(self, first, second, padding):
        table = padded(valid_rows())
        for dim in (second, first):
            table[dim, FLAG_SPECS[dim].cardinality] = padding
        with pytest.raises(ValueError, match="past its cardinality") as error:
            IIDDistribution(DEFAULT_SPACE, table)
        assert str(error.value).startswith(f"{FLAG_SPECS[first].name}: ")

    def test_valid_table_is_accepted_as_is(self):
        table = padded(valid_rows())
        assert IIDDistribution(DEFAULT_SPACE, table).theta is table
