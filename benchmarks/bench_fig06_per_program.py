"""Figure 6: per-program model vs best speedup (paper: 1.16x vs 1.23x)."""

from repro.experiments import figure6

from conftest import emit


def test_figure6(benchmark, data, protocol):
    result = benchmark.pedantic(
        figure6, args=(data, protocol.base), rounds=1, iterations=1
    )
    assert result.mean_model > 1.0
    assert result.mean_best >= result.mean_model - 0.05
    emit(result)
