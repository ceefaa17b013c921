"""Ablation: counters-only / descriptors-only / both feature sources."""

from repro.evalrun import ARTIFACTS

from conftest import emit


def test_ablate_features(benchmark, data, protocol):
    result = benchmark.pedantic(
        ARTIFACTS["ablate-features"].build, args=(data, protocol), rounds=1,
        iterations=1,
    )
    both = next(r for r in result.rows if r.label.startswith("both"))
    assert both.mean_speedup > 1.0
    emit(result)
