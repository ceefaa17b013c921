"""Ablation: the top-5% good-settings threshold (paper footnote 1)."""

from repro.evalrun import ARTIFACTS

from conftest import emit


def test_ablate_quantile(benchmark, data, protocol):
    result = benchmark.pedantic(
        ARTIFACTS["ablate-quantile"].build, args=(data, protocol), rounds=1,
        iterations=1,
    )
    assert len(result.rows) == 4
    emit(result)
