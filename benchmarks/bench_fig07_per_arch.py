"""Figure 7: per-microarchitecture model vs best speedup.

Paper shape: model between 1.08x and 1.35x, tracking the Best line; the
right (small-I-cache) end has the largest headroom.
"""

from repro.experiments import figure7

from conftest import emit


def test_figure7(benchmark, data, protocol):
    result = benchmark.pedantic(
        figure7, args=(data, protocol.base), rounds=1, iterations=1
    )
    regions = result.regions()
    assert regions["high-headroom"][1] >= regions["low-headroom"][1]
    emit(result)
