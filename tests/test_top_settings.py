"""The top-N enumeration and the index-carrying ``FlagSetting``.

:meth:`IIDDistribution.top_settings` feeds the ranked ``/predict`` reply
and ``ModelSeededGenetic``'s seeding, so its output — every setting, its
order under ties and every probability bit — is a contract.  It
enumerates rank vectors through one canonical parent each;
:func:`reference_top` below is the enumeration it replaced (every child
of every popped node, deduplicated by a ``seen`` set), kept verbatim
apart from yielding index tuples so it runs on any number of dimensions.
The hypothesis suite asserts equal ``(indices, probability)`` lists for
random multinomials with exact ties, zeros and ``1.0`` entries.

``FlagSetting`` carries its value indices; the property tests check
that a setting built from indices and one built from a mapping agree in
``==``, ``hash`` and ``as_indices()`` through every way a setting is
copied or derived.
"""

from __future__ import annotations

import copy
import heapq
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.flags import FLAG_SPECS, FlagSetting
from repro.core.distribution import IIDDistribution, _best_first


def reference_top(theta, count: int) -> list[tuple[tuple[int, ...], float]]:
    """The all-children best-first heap with a ``seen`` set."""
    if count < 1:
        raise ValueError(f"count must be >= 1: {count}")
    # Per-dimension value indices, most probable first; ties break to
    # the lower value index, matching mode().
    orders = [
        sorted(range(len(probs)), key=lambda j: (-float(probs[j]), j))
        for probs in theta
    ]
    # The same probabilities, pre-gathered in rank order as python
    # floats: probability() is the enumeration's hot loop, and a
    # list index is several times cheaper than a numpy scalar read.
    # The multiply sequence is unchanged, so products are bit-exact.
    ranked_probs = [
        [float(probs[j]) for j in order]
        for probs, order in zip(theta, orders)
    ]

    def indices_of(ranks: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(order[rank] for order, rank in zip(orders, ranks))

    def probability(ranks: tuple[int, ...]) -> float:
        product = 1.0
        for dim_probs, rank in zip(ranked_probs, ranks):
            product *= dim_probs[rank]
        return product

    start = tuple(0 for _ in orders)
    heap = [(-probability(start), start)]
    seen = {start}
    ranked: list[tuple[tuple[int, ...], float]] = []
    while heap and len(ranked) < count:
        negative, ranks = heapq.heappop(heap)
        ranked.append((indices_of(ranks), -negative))
        for dim, rank in enumerate(ranks):
            if rank + 1 >= len(orders[dim]):
                continue
            child = ranks[:dim] + (rank + 1,) + ranks[dim + 1 :]
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (-probability(child), child))
    return ranked


def best_first(theta, count: int):
    """``_best_first`` over per-dimension arrays, packed into the zero-padded
    table and validity mask a distribution holds."""
    cardinalities = np.array([len(probs) for probs in theta])
    valid = np.arange(cardinalities.max()) < cardinalities[:, None]
    table = np.zeros(valid.shape)
    table[valid] = np.concatenate(theta)
    return _best_first(table, valid, count)


def as_tuples(ranked) -> list[tuple[tuple[int, ...], float]]:
    return [(tuple(indices), probability) for indices, probability in ranked]


def assert_bit_equal(candidate, reference) -> None:
    assert len(candidate) == len(reference)
    for (indices, probability), (ref_indices, ref_probability) in zip(
        candidate, reference
    ):
        assert tuple(indices) == ref_indices
        # Bit-identity (sign included), not closeness: replies are bytes.
        assert probability.hex() == ref_probability.hex()


#: Probabilities that make exact ties, zero products and certain values.
special = st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.125, 1 / 3, 0.1, 0.2])
entry = st.one_of(special, st.floats(0.0, 1.0, allow_nan=False))


@st.composite
def multinomials(draw):
    dims = draw(st.integers(1, 39))
    theta = []
    for _ in range(dims):
        values = np.array(draw(st.lists(entry, min_size=1, max_size=6)))
        if draw(st.booleans()) and values.sum() > 0:
            values = values / values.sum()
        theta.append(values)
    size = math.prod(len(values) for values in theta)
    count = draw(st.integers(1, min(size, 120) + 3))
    return theta, count


class TestCanonicalEnumeration:
    @settings(max_examples=300, deadline=None)
    @given(case=multinomials())
    def test_matches_all_children_heap(self, case):
        theta, count = case
        assert_bit_equal(
            as_tuples(best_first(theta, count)), reference_top(theta, count)
        )

    def test_exhausts_a_small_space_exactly_once(self):
        theta = [np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5]), np.array([1.0])]
        ranked = best_first(theta, 10)
        assert len(ranked) == 6
        assert len({tuple(indices) for indices, _ in ranked}) == 6
        assert_bit_equal(as_tuples(ranked), reference_top(theta, 10))

    def test_all_ties_follow_rank_order(self):
        theta = [np.full(3, 1 / 3)] * 4
        assert_bit_equal(
            as_tuples(best_first(theta, 81)), reference_top(theta, 81)
        )


def fitted_distribution(seed: int) -> IIDDistribution:
    rng = np.random.default_rng(seed)
    theta = []
    for spec in FLAG_SPECS:
        counts = rng.integers(0, 5, size=spec.cardinality).astype(float)
        counts[rng.integers(spec.cardinality)] += 1.0
        theta.append(counts / counts.sum())
    return IIDDistribution.fit(
        [
            FlagSetting.from_indices(
                [int(rng.choice(spec.cardinality, p=probs))
                 for spec, probs in zip(FLAG_SPECS, theta)]
            )
            for _ in range(7)
        ]
    )


class TestTopSettings:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("count", [1, 5, 20, 64])
    def test_flag_settings_match_reference(self, seed, count):
        distribution = fitted_distribution(seed)
        ranked = distribution.top_settings(count)
        reference = reference_top(distribution.rows, count)
        assert_bit_equal(
            [(setting.as_indices(), p) for setting, p in ranked], reference
        )
        assert ranked[0][0] == distribution.mode()

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            fitted_distribution(0).top_settings(0)


index_vectors = st.tuples(
    *(st.integers(0, spec.cardinality - 1) for spec in FLAG_SPECS)
)


def assert_same_setting(left: FlagSetting, right: FlagSetting) -> None:
    assert left == right
    assert hash(left) == hash(right)
    assert left.as_indices() == right.as_indices()
    assert dict(left) == dict(right)


class TestIndexCarryingSetting:
    @settings(max_examples=200, deadline=None)
    @given(indices=index_vectors)
    def test_from_indices_equals_mapping_construction(self, indices):
        built = FlagSetting.from_indices(indices)
        mapped = FlagSetting(dict(built))
        assert built.as_indices() == indices
        assert_same_setting(built, mapped)
        assert FlagSetting.from_indices(mapped.as_indices()) == mapped
        for left, right in (
            (pickle.loads(pickle.dumps(built)), mapped),
            (built, pickle.loads(pickle.dumps(mapped))),
            (copy.copy(built), copy.copy(mapped)),
            (copy.deepcopy(built), mapped),
            (built.canonical(), mapped.canonical()),
            (
                built.with_values(funroll_loops=True),
                mapped.with_values(funroll_loops=True),
            ),
        ):
            assert_same_setting(left, right)
            assert_same_setting(
                FlagSetting.from_indices(left.as_indices()), right
            )

    def test_pickled_mapping_setting_computes_its_indices(self):
        mapped = FlagSetting(dict(FlagSetting.from_indices([1] * 39)))
        clone = pickle.loads(pickle.dumps(mapped))
        assert clone.as_indices() == (1,) * 39

    @pytest.mark.parametrize(
        "bad", [-1, 2, 99, 1.0, 0.5, "0", None], ids=repr
    )
    def test_rejects_bad_indices(self, bad):
        indices = [0] * len(FLAG_SPECS)
        indices[3] = bad
        with pytest.raises(ValueError, match="indices must be integers"):
            FlagSetting.from_indices(indices)

    def test_rejects_out_of_range_per_dimension(self):
        for dim, spec in enumerate(FLAG_SPECS):
            indices = [0] * len(FLAG_SPECS)
            indices[dim] = spec.cardinality
            with pytest.raises(ValueError):
                FlagSetting.from_indices(indices)
            indices[dim] = -1
            with pytest.raises(ValueError):
                FlagSetting.from_indices(indices)
            indices[dim] = spec.cardinality - 1
            assert FlagSetting.from_indices(indices)[spec.name] == spec.values[-1]

    def test_accepts_numpy_integers(self):
        indices = np.zeros(len(FLAG_SPECS), dtype=np.int64)
        assert FlagSetting.from_indices(indices).as_indices() == (0,) * 39
        assert all(
            type(index) is int
            for index in FlagSetting.from_indices(indices).as_indices()
        )
