"""The paper's headline claims (abstract/§5.5/§4.4)."""

from repro.experiments import headline

from conftest import emit


def test_headline(benchmark, data, protocol):
    result = benchmark.pedantic(
        headline, args=(data, protocol.base), rounds=1, iterations=1
    )
    assert result.mean_model_speedup > 1.0
    assert 0.3 < result.fraction_of_best <= 1.2
    assert result.correlation > 0.7
    assert result.worst_setting_mean < 1.0
    emit(result)
