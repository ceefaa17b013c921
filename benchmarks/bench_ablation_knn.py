"""Ablation: KNN neighbourhood size (paper claims insensitivity near K=7)."""

from repro.evalrun import ARTIFACTS

from conftest import emit


def test_ablate_k(benchmark, data, protocol):
    result = benchmark.pedantic(
        ARTIFACTS["ablate-k"].build, args=(data, protocol), rounds=1,
        iterations=1,
    )
    assert len(result.rows) == 6
    emit(result)
