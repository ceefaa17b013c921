"""Ablation: the paper's factorised IID mode vs a dependence-aware vote."""

from repro.evalrun import ARTIFACTS

from conftest import emit


def test_ablate_iid(benchmark, data, protocol):
    result = benchmark.pedantic(
        ARTIFACTS["ablate-iid"].build, args=(data, protocol), rounds=1,
        iterations=1,
    )
    assert len(result.rows) == 2
    emit(result)
