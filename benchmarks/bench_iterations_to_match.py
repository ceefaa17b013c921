"""§5.3: random-search evaluations needed to match the model (paper: ~50)."""

from repro.api import Session
from repro.experiments import iterations_to_match

from conftest import emit


def test_iterations_to_match(benchmark, data, protocol):
    result = benchmark.pedantic(
        iterations_to_match, args=(data, protocol.base), rounds=1, iterations=1
    )
    assert result.overall_mean >= 1.0
    emit(result)


def test_tournament_economics(benchmark, data):
    """The tournament's view of the same question: every strategy races
    on the bench scale's first two programs, and the leaderboard prints
    alongside the classic iterations-to-match number above."""
    session = Session(data.scale)

    def tournament():
        return session.eval.tournament(
            programs=[program.name for program in data.programs[:2]],
            machines=2,
            budget=30,
            seeds=(0, 1),
        )

    result = benchmark.pedantic(tournament, rounds=1, iterations=1)
    assert result.standings
    print()
    print(result.render())
