"""Feature vectors ``x = (c, d)`` for program/microarchitecture pairs (§3.2).

A pair is characterised by the 11 performance counters of a single -O3 run
(Table 1) concatenated with the 8 (or 10, extended) microarchitecture
descriptors (Table 2).  Counters and descriptors live on very different
scales, so the KNN combiner's Euclidean metric (eq. 6) operates on
z-normalised features; the normaliser is fit on the training pairs.

Feature names follow the paper's Figure 9 x-axis: descriptors first, then
counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.params import (
    DESCRIPTOR_NAMES,
    EXTENDED_DESCRIPTOR_NAMES,
    MicroArch,
)
from repro.sim.counters import COUNTER_NAMES, PerfCounters


def feature_names(extended: bool = False) -> tuple[str, ...]:
    """All feature names, descriptors first (Figure 9 order)."""
    descriptors = EXTENDED_DESCRIPTOR_NAMES if extended else DESCRIPTOR_NAMES
    return descriptors + COUNTER_NAMES


def feature_vector(
    counters: PerfCounters, machine: MicroArch, extended: bool = False
) -> np.ndarray:
    """Build ``x = (d, c)`` for one pair."""
    return np.array(
        machine.descriptor(extended) + counters.vector(), dtype=float
    )


def split_feature_vector(
    vector: np.ndarray, extended: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Split a feature vector back into (descriptors, counters)."""
    n_descriptors = len(EXTENDED_DESCRIPTOR_NAMES if extended else DESCRIPTOR_NAMES)
    return vector[:n_descriptors], vector[n_descriptors:]


@dataclass
class FeatureNormaliser:
    """Z-score normalisation fit on the training pairs."""

    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(matrix: np.ndarray) -> "FeatureNormaliser":
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ValueError("need a non-empty 2-D feature matrix")
        mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        return FeatureNormaliser(mean=mean, std=std)

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        return (matrix - self.mean) / self.std


def feature_mask(
    mode: str, extended: bool = False
) -> np.ndarray:
    """Boolean mask selecting feature subsets (for the ablation benches).

    ``mode``: ``both`` (the paper), ``counters`` only, or ``descriptors``
    only.
    """
    n_descriptors = len(EXTENDED_DESCRIPTOR_NAMES if extended else DESCRIPTOR_NAMES)
    n_total = n_descriptors + len(COUNTER_NAMES)
    mask = np.zeros(n_total, dtype=bool)
    if mode == "both":
        mask[:] = True
    elif mode == "descriptors":
        mask[:n_descriptors] = True
    elif mode == "counters":
        mask[n_descriptors:] = True
    else:
        raise ValueError(f"unknown feature mode {mode!r}")
    return mask
