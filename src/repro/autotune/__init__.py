"""Model-guided autotuning: strategies, batched scoring, tournaments.

The subsystem that connects the paper's three pillars — the iterative
search baselines, the fitted predictive model, and the compile-and-price
evaluator (a view of the one :class:`~repro.search.evaluator.Pricer`:
batched compiles through the pass memo, a checked binary identity, one
simulator call per fresh binary) — into one framework:

* :mod:`~repro.autotune.core` — :class:`SearchBudget` /
  :class:`SearchTrace` / :class:`SearchContext` and the
  :class:`SearchStrategy` protocol;
* :mod:`~repro.autotune.scorer` — the budget-enforcing, batch-pricing
  :class:`BatchScorer`;
* :mod:`~repro.autotune.strategies` — the four iterative baselines
  (random, hill climbing, genetic, combined elimination);
* :mod:`~repro.autotune.guided` — :class:`ModelSeededGenetic` and
  :class:`BeamSearch`, where the model proposes and the simulator
  disposes;
* :mod:`~repro.autotune.tournament` — every strategy on one grid,
  scored by evaluations- and simulations-to-match-best.
"""

from repro.autotune.core import (
    SearchBudget,
    SearchContext,
    SearchStrategy,
    SearchTrace,
    TraceEntry,
    run_traced,
)
from repro.autotune.guided import GUIDED_STRATEGIES, BeamSearch, ModelSeededGenetic
from repro.autotune.scorer import BatchScorer
from repro.autotune.strategies import (
    BASELINE_STRATEGIES,
    CombinedElimination,
    Genetic,
    HillClimb,
    RandomSearch,
)
from repro.autotune.tournament import (
    ALL_STRATEGIES,
    StrategyStanding,
    TournamentResult,
    TournamentRun,
    check_model_beats_random,
    run_tournament,
)

__all__ = [
    "ALL_STRATEGIES",
    "BASELINE_STRATEGIES",
    "BatchScorer",
    "BeamSearch",
    "CombinedElimination",
    "GUIDED_STRATEGIES",
    "Genetic",
    "HillClimb",
    "ModelSeededGenetic",
    "RandomSearch",
    "SearchBudget",
    "SearchContext",
    "SearchStrategy",
    "SearchTrace",
    "StrategyStanding",
    "TournamentResult",
    "TournamentRun",
    "TraceEntry",
    "check_model_beats_random",
    "run_traced",
    "run_tournament",
]
