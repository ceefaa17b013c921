"""Vectorised prediction/ranking kernel for the §3.3.2 model.

This is the model-tier twin of :mod:`repro.sim.vector`: the scalar
KNN/softmax/mixture math in :class:`repro.core.predictor.OptimisationPredictor`
stays the executable reference, and this module prices whole *batches* of
queries against the fitted training pairs in a handful of numpy passes.

Bit-compatibility contract
--------------------------
Every batched result is **bit-identical** to the scalar reference, not
merely close.  The kernel earns that the same way the simulate kernel did —
by performing *the same float operations in the same order* per element:

* Distances: the scalar path computes ``np.linalg.norm(pair.features -
  query)``, which lowers to ``sqrt(dot(d, d))``.  The batched path computes
  ``np.sqrt(np.vecdot(diff, diff))`` over a C-contiguous ``[B, P, F]``
  difference tensor — ``np.vecdot`` runs the same pairwise dot kernel per
  row, so every distance matches to the last ulp.  (On numpy < 2.0, where
  ``vecdot`` does not exist, a per-row ``np.dot`` loop stands in.)
* Top-K: ``stable_topk`` reproduces ``np.argsort(kind="stable")[:k]``
  exactly — ``argpartition`` finds the k-th distance, ties at the pivot are
  repaired in index order, and the selected rows are re-sorted stably.
* Softmax: elementwise exp/shift, with the per-row normaliser reduced over
  the last axis of a C-contiguous array — the same ``add.reduce`` tree as
  the scalar path's ``weights.sum()``.
* Mixture: :meth:`IIDDistribution.mix` accumulates neighbour thetas in
  sequence; the batched kernel runs the identical ordered K-loop (never an
  einsum, whose reassociation would drift in the last ulp).  Both read
  one θ layout: a distribution's zero-padded ``[D, Vmax]`` table is one
  row of the ``[P, D, Vmax]`` tensor, so stacking the pairs is one
  ``np.stack`` and each mixed row becomes a distribution as it is.

Queries whose exclusion sets differ in *candidate count* may need a
different K (``min(k, candidates)``); :func:`nearest_groups` groups rows by
that effective K and each group runs as one rectangular kernel, so padding
never leaks into a reduction.  The same selection serves
``predict_distributions`` and ``OptimisationPredictor.neighbours``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.compiler.flags import DEFAULT_SPACE, FlagSpace
from repro.core.distribution import IIDDistribution

__all__ = [
    "PredictorTensors",
    "stack_state_arrays",
    "query_distances",
    "stable_topk",
    "nearest_groups",
    "predict_distributions",
]


if hasattr(np, "vecdot"):

    def _row_dots(diff: np.ndarray) -> np.ndarray:
        """dot(d, d) along the last axis — numpy >= 2.0 fast path."""
        return np.vecdot(diff, diff)

else:  # pragma: no cover - exercised only on numpy < 2.0

    def _row_dots(diff: np.ndarray) -> np.ndarray:
        flat = diff.reshape(-1, diff.shape[-1])
        out = np.empty(flat.shape[0], dtype=flat.dtype)
        for row in range(flat.shape[0]):
            out[row] = np.dot(flat[row], flat[row])
        return out.reshape(diff.shape[:-1])


@dataclass(frozen=True)
class PredictorTensors:
    """The fitted training pairs, stacked into ranking-ready arrays.

    ``features[p]`` is pair ``p``'s normalised, masked feature vector and
    ``theta[p, d, :cardinalities[d]]`` its per-dimension multinomial
    (zero-padded to the widest dimension).  ``program_ids``/``machine_ids``
    map each pair to a dense id so leave-one-out exclusion masks are two
    integer compares instead of P python equality checks.
    """

    features: np.ndarray  # [P, F] float64, C-contiguous
    theta: np.ndarray  # [P, D, Vmax] float64, zero-padded
    program_ids: np.ndarray  # [P] int64
    machine_ids: np.ndarray  # [P] int64
    program_index: dict
    machine_index: dict

    @classmethod
    def from_pairs(
        cls,
        pairs: Sequence,
        space: FlagSpace,
        features: np.ndarray | None = None,
        theta: np.ndarray | None = None,
    ) -> "PredictorTensors":
        """Stack fitted ``_TrainingPair``s, or take the ``(features,
        theta)`` stacks ``from_state`` already built (its pairs view their
        rows); shapes are checked against the pairs either way."""
        if not pairs:
            raise ValueError("cannot stack an empty training set")
        n_pairs = len(pairs)
        n_features = int(pairs[0].features.size)

        if features is None:
            features = np.array([pair.features for pair in pairs], dtype=float)
        if features.shape != (n_pairs, n_features):
            raise ValueError(
                f"features shape {features.shape} != {(n_pairs, n_features)}"
            )

        if theta is None:
            theta = np.stack([pair.distribution.theta for pair in pairs])
        expected = (n_pairs,) + space.value_mask.shape
        if theta.shape != expected:
            raise ValueError(f"theta shape {theta.shape} != {expected}")

        program_index: dict = {}
        machine_index: dict = {}
        program_ids = np.empty(n_pairs, dtype=np.int64)
        machine_ids = np.empty(n_pairs, dtype=np.int64)
        for p, pair in enumerate(pairs):
            program_ids[p] = program_index.setdefault(
                pair.program, len(program_index)
            )
            machine_ids[p] = machine_index.setdefault(
                pair.machine, len(machine_index)
            )
        return cls(
            features=features,
            theta=theta,
            program_ids=program_ids,
            machine_ids=machine_ids,
            program_index=program_index,
            machine_index=machine_index,
        )

    def candidate_mask(
        self, exclude_program, exclude_machine
    ) -> np.ndarray:
        """Boolean keep-mask over pairs — the §5.1.1 leave-one-out rule.

        An exclusion key the model never trained on matches nothing, like
        the scalar ``!=`` filter.
        """
        keep = np.ones(self.program_ids.shape[0], dtype=bool)
        if exclude_program is not None:
            pid = self.program_index.get(exclude_program, -1)
            keep &= self.program_ids != pid
        if exclude_machine is not None:
            mid = self.machine_index.get(exclude_machine, -1)
            keep &= self.machine_ids != mid
        return keep


def stack_state_arrays(
    model_state: dict, space: FlagSpace = DEFAULT_SPACE
) -> tuple[np.ndarray, np.ndarray]:
    """Stack a :meth:`get_state` payload's pairs into ``(features, theta)``
    (one scatter into the zero-padded layout); a θ row of the wrong length
    names its dimension.  Feeds ``from_state``."""
    entries = model_state["pairs"]
    if not entries:
        raise ValueError("cannot stack an empty model state")
    features = np.array([entry["features"] for entry in entries], dtype=float)
    lengths = [[len(probs) for probs in entry["theta"]] for entry in entries]
    if any(len(row) != len(space) for row in lengths):
        raise ValueError("one multinomial per flag dimension required")
    wrong = np.argwhere(np.array(lengths) != space.cardinalities())
    if wrong.size:
        raise ValueError(f"{space.names[wrong[0, 1]]}: wrong multinomial arity")
    theta = np.zeros((len(entries),) + space.value_mask.shape)
    theta[:, space.value_mask] = [
        list(itertools.chain.from_iterable(entry["theta"])) for entry in entries
    ]
    return features, theta


def query_distances(features: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Euclidean distances ``[B, P]``, bit-identical to the scalar
    ``np.linalg.norm(pair.features - query)`` per element."""
    diff = queries[:, None, :] - features[None, :, :]
    return np.sqrt(_row_dots(diff))


def stable_topk(distances: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest per row — exactly
    ``np.argsort(row, kind="stable")[:k]``, via argpartition + tie repair.

    ``argpartition`` is O(P) but breaks pivot ties arbitrarily; rows are
    repaired by taking every strictly-smaller entry plus the first
    (index-order) entries equal to the k-th value, then stably re-sorting
    the k survivors by distance.
    """
    n_rows, n_cols = distances.shape
    if k >= n_cols:
        return np.argsort(distances, axis=1, kind="stable")[:, :k]
    part = np.argpartition(distances, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(distances, part, axis=1).max(axis=1)
    less = distances < kth[:, None]
    equal = distances == kth[:, None]
    need = k - less.sum(axis=1)
    take = equal & (np.cumsum(equal, axis=1) <= need[:, None])
    selected = less | take  # exactly k True per row, index-ascending
    indices = np.nonzero(selected)[1].reshape(n_rows, k)
    chosen = np.take_along_axis(distances, indices, axis=1)
    order = np.argsort(chosen, axis=1, kind="stable")
    return np.take_along_axis(indices, order, axis=1)


def _mixture_theta(
    theta_nn: np.ndarray, nearest: np.ndarray, beta: float
) -> np.ndarray:
    """Softmax-weighted mixture over the K axis, one elementwise op at a
    time in the scalar reference's order.

    ``theta_nn`` is ``[B, K, D, V]``, ``nearest`` the matching ``[B, K]``
    distances; returns the mixed ``[B, D, V]`` theta.
    """
    d_min = nearest.min(axis=1, keepdims=True)
    weights = np.exp((-beta) * (nearest - d_min))
    weights = weights / weights.sum(axis=1, keepdims=True)

    # IIDDistribution.mix starts from python sum(weights) — a sequential
    # left fold — then accumulates (w/total) * theta term by term.  Both
    # loops are replicated verbatim; a numpy reduce or einsum would
    # re-associate the additions and drift in the last ulp.
    n_k = weights.shape[1]
    total = weights[:, 0].copy()
    for j in range(1, n_k):
        total = total + weights[:, j]
    scale = weights / total[:, None]
    mixed = np.zeros(
        (theta_nn.shape[0],) + theta_nn.shape[2:], dtype=theta_nn.dtype
    )
    for j in range(n_k):
        mixed += scale[:, j, None, None] * theta_nn[:, j]
    return mixed


def nearest_groups(
    tensors: PredictorTensors,
    queries: np.ndarray,
    candidate_indices: Sequence[np.ndarray],
    k: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The K nearest candidate pairs of every query, grouped by effective K.

    ``queries`` is the ``[B, F]`` matrix of normalised, masked query
    vectors; ``candidate_indices[b]`` the pair indices query ``b`` may
    consult (exclusions already applied by the predictor's audit gate).
    A query keeps ``min(k, candidates)`` neighbours, so queries are
    grouped by that K and each group is one rectangular ``stable_topk``:
    one ``(rows, top, distances)`` per group, with ``top`` and
    ``distances`` both ``[len(rows), K]`` and nearest first.
    """
    queries = np.ascontiguousarray(np.asarray(queries, dtype=float))
    distances = query_distances(tensors.features, queries)

    masked = np.full(distances.shape, np.inf)
    effective_k = np.empty(queries.shape[0], dtype=np.intp)
    for b, indices in enumerate(candidate_indices):
        if indices.size == 0:
            raise RuntimeError("no training pairs left after exclusions")
        masked[b, indices] = distances[b, indices]
        effective_k[b] = min(k, indices.size)

    groups = []
    for kk in np.unique(effective_k):
        rows = np.nonzero(effective_k == kk)[0]
        sub = masked[rows]
        top = stable_topk(sub, int(kk))
        groups.append((rows, top, np.take_along_axis(sub, top, axis=1)))
    return groups


def predict_distributions(
    tensors: PredictorTensors,
    queries: np.ndarray,
    candidate_indices: Sequence[np.ndarray],
    k: int,
    beta: float,
    space: FlagSpace,
) -> list[IIDDistribution]:
    """One kernel pass of ``predict_distribution`` for a whole batch:
    :func:`nearest_groups`, then each group's softmax mixture."""
    out: list[IIDDistribution | None] = [None] * len(candidate_indices)
    for rows, top, nearest in nearest_groups(tensors, queries, candidate_indices, k):
        mixed = _mixture_theta(tensors.theta[top], nearest, beta)
        for g, b in enumerate(rows):
            # A view into the mixed tensor, not a copy: the distribution
            # treats theta as read-only, and the values are bit-equal to
            # the scalar mix either way.
            out[int(b)] = IIDDistribution(space=space, theta=mixed[g])
    return out  # type: ignore[return-value]
