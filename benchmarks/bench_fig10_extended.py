"""Figure 10: the §7 extended space (frequency x issue width).

Paper shape: best 1.24x vs 1.23x on the base space; model 1.14x vs 1.16x —
the approach transfers without modification.
"""

from repro.experiments import Figure10Result, figure6

from conftest import emit


def test_figure10(benchmark, data, protocol, extended_data, extended_protocol):
    def run():
        return Figure10Result(
            base=figure6(data, protocol.base),
            extended=figure6(extended_data, extended_protocol.base),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.extended.mean_model > 1.0
    assert abs(result.extended.mean_model - result.base.mean_model) < 0.25
    emit(result)
