"""Ablation: softmax sharpness beta in the KNN mixture (paper: beta = 1)."""

from repro.evalrun import ARTIFACTS

from conftest import emit


def test_ablate_beta(benchmark, data, protocol):
    result = benchmark.pedantic(
        ARTIFACTS["ablate-beta"].build, args=(data, protocol), rounds=1,
        iterations=1,
    )
    assert len(result.rows) == 4
    emit(result)
