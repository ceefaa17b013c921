"""Figure 5: best vs model-predicted speedup over the joint space.

Paper shape: the two surfaces are nearly identical (correlation 0.93).
"""

from repro.experiments import figure5

from conftest import emit


def test_figure5(benchmark, data, protocol):
    result = benchmark.pedantic(
        figure5, args=(data, protocol.base), rounds=1, iterations=1
    )
    assert result.correlation > 0.7
    emit(result)
