"""The four iterative-compilation baselines as search strategies.

Each class reproduces the original standalone search driver *bit for
bit* (pinned by ``tests/golden/search_golden.json``): identical RNG draw
sequences, identical evaluation order, identical tie-breaks.  Candidates
flow through the :class:`~repro.autotune.scorer.BatchScorer`, so
independent batches (a random sample, a GA generation, a CE probing
round) compile as one ``compile_many`` batch, and the budget is enforced
centrally.  The one observable divergence from the original drivers is
deliberate: genetic search and combined elimination could overshoot
their budget by one evaluation at boundary budgets; the scorer clamps
both exactly at it.
"""

from __future__ import annotations

import random

from repro.autotune.core import SearchContext, SearchStrategy
from repro.autotune.scorer import BatchScorer
from repro.compiler.flags import FlagSetting, FlagSpace


def _crossover(
    rng: random.Random, left: FlagSetting, right: FlagSetting
) -> FlagSetting:
    left_indices = left.as_indices()
    right_indices = right.as_indices()
    child = [
        left_indices[dim] if rng.random() < 0.5 else right_indices[dim]
        for dim in range(len(left_indices))
    ]
    return FlagSetting.from_indices(child)


def _mutate(
    rng: random.Random,
    setting: FlagSetting,
    space: FlagSpace,
    rate: float,
) -> FlagSetting:
    indices = list(setting.as_indices())
    for dim, spec in enumerate(space.specs):
        if rng.random() < rate:
            indices[dim] = rng.randrange(spec.cardinality)
    return FlagSetting.from_indices(indices)


def _all_on(space: FlagSpace) -> FlagSetting:
    values = {}
    for spec in space.specs:
        values[spec.name] = True if spec.is_boolean else spec.o3
    return FlagSetting(values)


class RandomSearch:
    """Uniform-random sampling (§4.3) — the whole budget in one batch."""

    name = "random"
    deterministic = False

    def run(self, scorer: BatchScorer, context: SearchContext) -> None:
        budget = scorer.remaining
        if budget == float("inf"):
            raise ValueError("random search needs a finite budget")
        settings = context.space.sample_distinct(int(budget), context.rng)
        scorer.score(settings, "sample")


class HillClimb:
    """First-improvement hill climbing with random restarts (Almagor
    et al. [2]).  Inherently sequential — each step depends on the last
    runtime — so candidates go through :meth:`BatchScorer.score_one`, a
    batch of one."""

    name = "hillclimb"
    deterministic = False

    def run(self, scorer: BatchScorer, context: SearchContext) -> None:
        space, rng = context.space, context.rng
        while not scorer.exhausted:
            current = space.sample(rng)
            current_runtime = scorer.score_one(current, "restart")
            if current_runtime is None:
                return
            improved = True
            while improved and not scorer.exhausted:
                improved = False
                for neighbour in space.neighbours(current):
                    runtime = scorer.score_one(neighbour, "neighbour")
                    if runtime is None:
                        return
                    if runtime < current_runtime:
                        current, current_runtime = neighbour, runtime
                        improved = True
                        break  # first-improvement step, then re-scan


class Genetic:
    """Generational GA (Cooper et al. [7], Kulkarni [24]): tournament
    selection, uniform crossover, per-dimension mutation, elitism of
    one.  Each generation is bred in full, then priced as one batch —
    the elite's re-score is a memo hit, costing an evaluation but no
    simulation, exactly as the legacy driver counted it."""

    name = "genetic"
    deterministic = False

    def __init__(
        self,
        population_size: int = 20,
        mutation_rate: float = 0.05,
        tournament: int = 3,
    ):
        self.population_size = population_size
        self.mutation_rate = mutation_rate
        self.tournament = tournament

    def _initial_population(
        self, scorer: BatchScorer, context: SearchContext
    ) -> list[FlagSetting]:
        count = min(self.population_size, int(min(scorer.remaining, 2**31)))
        return [context.space.sample(context.rng) for _ in range(count)]

    def _mutate_setting(
        self, rng: random.Random, setting: FlagSetting, context: SearchContext
    ) -> FlagSetting:
        """Mutation hook: uniform resampling here; model-guided subclasses
        redirect mutated dimensions toward the learned distribution."""
        return _mutate(rng, setting, context.space, self.mutation_rate)

    def _pick(
        self,
        rng: random.Random,
        population: list[FlagSetting],
        fitness: list[float],
    ) -> FlagSetting:
        contenders = rng.sample(
            range(len(population)), min(self.tournament, len(population))
        )
        winner = min(contenders, key=lambda index: fitness[index])
        return population[winner]

    def run(self, scorer: BatchScorer, context: SearchContext) -> None:
        rng = context.rng
        population = self._initial_population(scorer, context)
        fitness = scorer.score(population, "population")
        while not scorer.exhausted:
            scored = sorted(zip(fitness, range(len(population))))
            elite = population[scored[0][1]]
            next_population = [elite]
            # The legacy breeding condition, `spent + len(next) <= budget`,
            # rewritten in scorer terms; the scorer's truncation clamps
            # the one-past-budget brood the legacy driver allowed.
            while (
                len(next_population) < self.population_size
                and len(next_population) <= scorer.remaining
            ):
                child = _crossover(
                    rng,
                    self._pick(rng, population, fitness),
                    self._pick(rng, population, fitness),
                )
                child = self._mutate_setting(rng, child, context)
                next_population.append(child)
            population = next_population
            fitness = scorer.score(population, "offspring")
            if len(population) < 2:
                break


class CombinedElimination:
    """Combined elimination (Pan & Eigenmann [30]).

    Starts from everything-on; each *probing round* measures the
    relative improvement of disabling each still-enabled boolean flag
    alone — all independent against the fixed baseline, so the whole
    round prices as one batch — then greedily eliminates harmful flags
    (most harmful first), re-measuring interactions after each
    elimination.  Deterministic: no RNG is consulted.

    The converged point is the answer even when a rejected probe
    undercut it, so the trace's final setting is pinned explicitly.
    """

    name = "combined-elimination"
    deterministic = True

    def run(self, scorer: BatchScorer, context: SearchContext) -> None:
        space = context.space
        current = _all_on(space)
        current_runtime = scorer.score_one(current, "baseline")
        if current_runtime is None:
            return
        enabled = [spec.name for spec in space.specs if spec.is_boolean]

        improved = True
        while improved and not scorer.exhausted:
            improved = False
            names = list(enabled)
            candidates = [
                current.with_values(**{name: False}) for name in names
            ]
            runtimes = scorer.score(candidates, "probe")
            effects: list[tuple[float, str, FlagSetting, float]] = []
            for name, candidate, runtime in zip(names, candidates, runtimes):
                # Relative improvement of disabling `name` (negative =
                # harmful flag worth eliminating).
                effects.append(
                    (
                        (runtime - current_runtime) / current_runtime,
                        name,
                        candidate,
                        runtime,
                    )
                )
            effects.sort()
            for effect, name, candidate, runtime in effects:
                if effect >= 0.0:
                    break
                # Re-measure against the *current* baseline: interactions
                # may have changed since the probing round.
                if candidate != current.with_values(**{name: False}):
                    candidate = current.with_values(**{name: False})
                    if scorer.exhausted:
                        break
                    runtime = scorer.score_one(candidate, "re-measure")
                    if runtime is None:
                        break
                recheck = scorer.score_one(
                    current.with_values(**{name: False}), "recheck"
                )
                if recheck is None:
                    break
                if recheck < current_runtime:
                    current = current.with_values(**{name: False})
                    current_runtime = recheck
                    enabled.remove(name)
                    improved = True
        scorer.trace.set_final(current, current_runtime)


#: Baseline strategy registry: leaderboard name -> zero-config factory.
BASELINE_STRATEGIES: dict[str, type[SearchStrategy]] = {
    RandomSearch.name: RandomSearch,
    HillClimb.name: HillClimb,
    Genetic.name: Genetic,
    CombinedElimination.name: CombinedElimination,
}
