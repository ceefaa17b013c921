"""Model-guided search: the learned distribution steers the simulator.

The paper's claim (§5.3) is that one profile run plus the fitted model
focuses iterative search so sharply that matching the best-known setting
takes a fraction of the evaluations any pure-iterative baseline needs.
These strategies operationalise that claim two ways:

* :class:`ModelSeededGenetic` — the GA unchanged, except its initial
  population is the model's most probable settings
  (:meth:`IIDDistribution.top_settings`) instead of uniform noise; the
  GRACE pattern of seeding evolution from globally learned knowledge.
* :class:`BeamSearch` — the model's probability is a *surrogate score*:
  each round expands the beam's Hamming-1 neighbourhood, ranks the
  expansion by model log-probability alone, and lets the simulator
  price only the top-``width`` survivors.  Entirely deterministic.

Both consume the pair's predictive distribution from
``SearchContext.distribution``; the tournament charges them the one
profile run that distribution cost (the paper's deployment price).
"""

from __future__ import annotations

from repro.autotune.core import SearchContext, SearchStrategy
from repro.autotune.scorer import BatchScorer
from repro.autotune.strategies import Genetic
from repro.compiler.flags import DEFAULT_SPACE, FlagSetting


class ModelSeededGenetic(Genetic):
    """The GA with the model wired into both its random draws, GRACE-style.

    Two deviations from the plain :class:`Genetic`, both substituting
    the learned distribution for uniform noise (the paper's §5.3 recipe
    of focusing an existing search with the model):

    * the seed generation blends the model's ranking with its spread —
      the first quarter is the head of
      :meth:`IIDDistribution.top_settings` (the model's best guesses,
      which cluster tightly around the mode), the rest are draws from
      the distribution itself, whose per-dimension entropy supplies the
      diversity a GA needs to recombine;
    * mutation resamples each mutated dimension from the model's
      *marginal* for that dimension instead of uniformly, so drift stays
      inside the region the model believes in.

    Selection, crossover, elitism, and budget accounting are inherited
    verbatim, and the default population is smaller than the baseline
    GA's — a focused population needs fewer members per generation, and
    the freed budget buys more generations of refinement.
    """

    name = "model-genetic"
    deterministic = False

    def __init__(
        self,
        population_size: int = 12,
        mutation_rate: float = 0.05,
        tournament: int = 3,
    ):
        super().__init__(
            population_size=population_size,
            mutation_rate=mutation_rate,
            tournament=tournament,
        )

    def _initial_population(
        self, scorer: BatchScorer, context: SearchContext
    ) -> list[FlagSetting]:
        distribution = context.require_distribution(self.name)
        count = min(self.population_size, int(min(scorer.remaining, 2**31)))
        head = max(1, count // 4)
        population = [
            setting for setting, _ in distribution.top_settings(head)
        ]
        while len(population) < count:
            population.append(distribution.sample(context.rng))
        return population

    def _mutate_setting(
        self, rng, setting: FlagSetting, context: SearchContext
    ) -> FlagSetting:
        distribution = context.require_distribution(self.name)
        indices = list(setting.as_indices())
        for dim, probs in enumerate(distribution.rows):
            if rng.random() < self.mutation_rate:
                roll = rng.random()
                cumulative = 0.0
                picked = len(probs) - 1
                for index, probability in enumerate(probs):
                    cumulative += probability
                    if roll < cumulative:
                        picked = index
                        break
                indices[dim] = picked
        return FlagSetting.from_indices(indices)


class BeamSearch:
    """Model-surrogate beam search over the flag space.

    Seeds the beam with the model's most probable (canonicalised,
    deduplicated) settings, then repeats: expand every beam member's
    Hamming-1 neighbourhood, rank the unseen expansion by model
    log-probability (the surrogate — no simulator involved), and price
    only the top-``width`` survivors.  The beam is the best ``width``
    *priced* settings by runtime, so the simulator corrects the
    surrogate each round.  Stops after ``patience`` rounds without
    improvement.  No RNG: ties break on the canonical index encoding,
    making the strategy fully deterministic.
    """

    name = "beam"
    deterministic = True

    def __init__(self, width: int = 4, pool: int = 32, patience: int = 2):
        if width < 1:
            raise ValueError(f"width must be >= 1: {width}")
        self.width = width
        self.pool = pool
        self.patience = patience

    def run(self, scorer: BatchScorer, context: SearchContext) -> None:
        distribution = context.require_distribution(self.name)

        priced: dict[FlagSetting, float] = {}

        def price(candidates: list[FlagSetting], source: str) -> bool:
            """Score a batch; returns False when the budget cut it short."""
            runtimes = scorer.score(candidates, source)
            for setting, runtime in zip(candidates, runtimes):
                priced[setting] = runtime
            return len(runtimes) == len(candidates)

        # Seed: the model's ranking, collapsed to canonical settings (the
        # ranking can alias across gated dimensions) and deduplicated in
        # rank order.
        seeds: list[FlagSetting] = []
        seen: set[FlagSetting] = set()
        for setting, _ in distribution.top_settings(self.pool):
            canonical = setting.canonical()
            if canonical not in seen:
                seen.add(canonical)
                seeds.append(canonical)
        if not price(seeds[: self.width], "beam-seed"):
            return
        best = min(priced.values(), default=float("inf"))

        stale = 0
        while not scorer.exhausted and stale < self.patience:
            beam = [
                setting
                for setting, _ in sorted(
                    priced.items(),
                    key=lambda item: (item[1], item[0].as_indices()),
                )[: self.width]
            ]
            frontier: list[FlagSetting] = []
            for member in beam:
                for neighbour in DEFAULT_SPACE.neighbours(member):
                    canonical = neighbour.canonical()
                    if canonical not in seen:
                        seen.add(canonical)
                        frontier.append(canonical)
            if not frontier:
                return
            # The surrogate: model probability alone ranks the frontier;
            # only the survivors cost simulations.
            frontier.sort(
                key=lambda setting: (
                    -distribution.log_prob(setting),
                    setting.as_indices(),
                )
            )
            survivors = frontier[: self.width]
            if not price(survivors, "beam"):
                return
            round_best = min(priced[setting] for setting in survivors)
            if round_best < best:
                best = round_best
                stale = 0
            else:
                stale += 1


#: Model-guided strategy registry: leaderboard name -> zero-config factory.
GUIDED_STRATEGIES: dict[str, type[SearchStrategy]] = {
    ModelSeededGenetic.name: ModelSeededGenetic,
    BeamSearch.name: BeamSearch,
}
