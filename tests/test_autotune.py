"""The repro.autotune subsystem: core, scorer, strategies, tournament."""

import json
import math
import random
from pathlib import Path

import pytest

from repro.autotune import (
    ALL_STRATEGIES,
    BASELINE_STRATEGIES,
    BatchScorer,
    BeamSearch,
    GUIDED_STRATEGIES,
    ModelSeededGenetic,
    RandomSearch,
    SearchBudget,
    SearchContext,
    SearchStrategy,
    SearchTrace,
    check_model_beats_random,
    run_traced,
    run_tournament,
)
from repro.compiler.flags import DEFAULT_SPACE, o3_setting
from repro.core.distribution import IIDDistribution
from repro.machine.xscale import xscale
from repro.programs import mibench_program
from repro.search import Evaluator

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "search_golden.json").read_text()
)


def run_golden_case(evaluator: Evaluator, case: dict):
    """One golden case as a strategy run: ``budget`` and ``seed`` go to
    :func:`run_traced`, any other params to the strategy class."""
    params = dict(case["params"])
    budget = params.pop("budget")
    seed = params.pop("seed", 0)
    strategy = BASELINE_STRATEGIES[case["algorithm"]](**params)
    return run_traced(strategy, evaluator, budget, seed=seed)


def make_evaluator(program_name: str = "sha") -> Evaluator:
    return Evaluator(program=mibench_program(program_name), machine=xscale())


@pytest.fixture(scope="module")
def distribution() -> IIDDistribution:
    """A synthetic fitted distribution (10 uniform settings, smoothed)."""
    return IIDDistribution.fit(
        DEFAULT_SPACE.sample_many(10, seed=1), smoothing=1.0
    )


# ------------------------------------------------------------------ budget
class TestSearchBudget:
    def test_none_means_unbounded(self):
        assert SearchBudget(None).limit == math.inf

    def test_finite_limit(self):
        assert SearchBudget(25).limit == 25.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            SearchBudget(0)
        with pytest.raises(ValueError):
            SearchBudget(-3)


# ------------------------------------------------------------------- trace
class TestSearchTrace:
    def _trace(self, runtimes, fresh=None):
        trace = SearchTrace(o3_runtime=2.0)
        fresh = fresh if fresh is not None else [True] * len(runtimes)
        for runtime, is_fresh in zip(runtimes, fresh):
            trace.record(o3_setting(), runtime, "test", is_fresh)
        return trace

    def test_best_is_strict_less_first_wins(self):
        settings = DEFAULT_SPACE.sample_many(2, seed=0)
        trace = SearchTrace()
        trace.record(settings[0], 1.0, "a", True)
        trace.record(settings[1], 1.0, "b", True)  # tie: first wins
        assert trace.best_setting == settings[0]

    def test_trajectory_monotone_and_folded(self):
        trace = self._trace([3.0, 4.0, 2.0, 2.5])
        assert trace.trajectory == [3.0, 3.0, 2.0, 2.0]

    def test_simulations_count_only_fresh(self):
        trace = self._trace([3.0, 3.0, 2.0], fresh=[True, False, True])
        assert trace.evaluations == 3
        assert trace.simulations == 2

    def test_speedup_vs_o3_recorded(self):
        trace = self._trace([4.0, 1.0])
        assert trace.entries[0].speedup_vs_o3 == pytest.approx(0.5)
        assert trace.entries[1].speedup_vs_o3 == pytest.approx(2.0)

    def test_evaluations_to_reach_none_iff_never_reached(self):
        trace = self._trace([3.0, 2.0, 2.0])
        assert trace.evaluations_to_reach(3.0) == 1
        assert trace.evaluations_to_reach(2.0) == 2
        # Reached on the final evaluation: the index equals the length —
        # still not None.  None is reserved for "never reached".
        assert trace.evaluations_to_reach(2.0) is not None
        assert trace.evaluations_to_reach(1.9) is None

    def test_simulations_to_reach_counts_cache_misses(self):
        trace = self._trace([3.0, 2.5, 2.0], fresh=[True, False, True])
        assert trace.simulations_to_reach(2.0) == 2
        assert trace.simulations_to_reach(0.1) is None

    def test_set_final_overrides_result_not_trajectory(self):
        settings = DEFAULT_SPACE.sample_many(2, seed=3)
        trace = SearchTrace()
        trace.record(settings[0], 1.0, "probe", True)
        assert trace.answer == (settings[0], 1.0)  # no pin: the floor
        trace.record(settings[1], 2.0, "converged", True)
        trace.set_final(settings[1], 2.0)
        assert trace.answer == (settings[1], 2.0)
        # The convergence curve still reports the probe's floor.
        assert trace.trajectory == [1.0, 1.0]


# ------------------------------------------------------------------ scorer
class TestBatchScorer:
    def test_truncates_over_budget_batch(self):
        evaluator = make_evaluator()
        trace = SearchTrace()
        scorer = BatchScorer(evaluator, SearchBudget(5), trace)
        settings = DEFAULT_SPACE.sample_many(9, seed=2)
        runtimes = scorer.score(settings, "sample")
        assert len(runtimes) == 5
        assert trace.evaluations == 5
        assert scorer.exhausted

    def test_score_one_returns_none_when_exhausted(self):
        evaluator = make_evaluator()
        scorer = BatchScorer(evaluator, SearchBudget(1), SearchTrace())
        assert scorer.score_one(o3_setting(), "first") is not None
        assert scorer.score_one(o3_setting(), "second") is None

    def test_memo_hits_cost_no_simulation(self):
        evaluator = make_evaluator()
        trace = SearchTrace()
        scorer = BatchScorer(evaluator, SearchBudget(4), trace)
        setting = DEFAULT_SPACE.sample_many(1, seed=4)[0]
        scorer.score([setting, setting], "dup")
        scorer.score([setting], "dup-again")
        assert trace.evaluations == 3
        assert trace.simulations == 1

    def test_unbounded_budget_never_exhausts(self):
        evaluator = make_evaluator()
        scorer = BatchScorer(evaluator, SearchBudget(None), SearchTrace())
        assert scorer.remaining == math.inf
        assert not scorer.exhausted


# ------------------------------------------- golden baseline bit-identity
@pytest.mark.parametrize(
    "case",
    GOLDEN["cases"],
    ids=[f"{c['algorithm']}-{c['program']}" for c in GOLDEN["cases"]],
)
def test_legacy_shims_bit_identical_to_golden(case):
    """The baseline strategies reproduce the original standalone search
    drivers (which recorded ``search_golden.json``) exactly: same
    evaluations, same fresh-simulation count, same best setting, same
    trajectory to the last bit."""
    evaluator = make_evaluator(case["program"])
    trace = run_golden_case(evaluator, case)
    best_setting, best_runtime = trace.answer
    assert trace.evaluations == case["evaluations"]
    assert evaluator.evaluations == case["simulations"]
    assert best_runtime == case["best_runtime"]
    assert list(best_setting.as_indices()) == case["best_setting"]
    assert trace.trajectory == case["trajectory"]


# -------------------------------------------------------------- strategies
class TestStrategyContract:
    @pytest.mark.parametrize("name", sorted(ALL_STRATEGIES))
    def test_satisfies_protocol(self, name):
        strategy = ALL_STRATEGIES[name]()
        assert isinstance(strategy, SearchStrategy)
        assert strategy.name == name

    @pytest.mark.parametrize("name", sorted(ALL_STRATEGIES))
    def test_budget_never_exceeded(self, name, distribution):
        trace = run_traced(
            ALL_STRATEGIES[name](),
            make_evaluator(),
            budget=10,
            seed=0,
            distribution=(
                distribution if name in GUIDED_STRATEGIES else None
            ),
        )
        assert trace.evaluations <= 10
        assert trace.simulations <= trace.evaluations

    @pytest.mark.parametrize("name", sorted(ALL_STRATEGIES))
    def test_same_seed_same_trace(self, name, distribution):
        kwargs = dict(
            budget=12,
            seed=7,
            distribution=(
                distribution if name in GUIDED_STRATEGIES else None
            ),
        )
        one = run_traced(ALL_STRATEGIES[name](), make_evaluator(), **kwargs)
        two = run_traced(ALL_STRATEGIES[name](), make_evaluator(), **kwargs)
        assert one.trajectory == two.trajectory
        assert [e.setting for e in one.entries] == [
            e.setting for e in two.entries
        ]

    def test_random_search_rejects_unbounded_budget(self):
        with pytest.raises(ValueError):
            run_traced(RandomSearch(), make_evaluator(), budget=None)


class TestModelGuided:
    def test_model_seeded_population_heads_with_top_settings(
        self, distribution
    ):
        strategy = ModelSeededGenetic(population_size=8)
        evaluator = make_evaluator()
        trace = SearchTrace()
        scorer = BatchScorer(evaluator, SearchBudget(40), trace)
        context = SearchContext(
            rng=random.Random(0), distribution=distribution
        )
        population = strategy._initial_population(scorer, context)
        assert len(population) == 8
        ranked = [s for s, _ in distribution.top_settings(2)]
        assert population[:2] == ranked

    def test_model_seeded_requires_distribution(self):
        with pytest.raises(ValueError, match="model-guided"):
            run_traced(ModelSeededGenetic(), make_evaluator(), budget=10)

    def test_beam_requires_distribution(self):
        with pytest.raises(ValueError, match="model-guided"):
            run_traced(BeamSearch(), make_evaluator(), budget=10)

    def test_beam_is_deterministic_across_seeds(self, distribution):
        runs = [
            run_traced(
                BeamSearch(),
                make_evaluator(),
                budget=20,
                seed=seed,
                distribution=distribution,
            )
            for seed in (0, 99)
        ]
        assert runs[0].trajectory == runs[1].trajectory

    def test_mutation_stays_in_model_support(self, distribution):
        """Model-biased mutation only picks values the distribution
        assigns positive probability (trivially true after smoothing,
        pinned against a future unsmoothed regression)."""
        strategy = ModelSeededGenetic(mutation_rate=1.0)
        context = SearchContext(
            rng=random.Random(5), distribution=distribution
        )
        mutated = strategy._mutate_setting(
            context.rng, o3_setting(), context
        )
        assert distribution.log_prob(mutated) > -math.inf


# -------------------------------------------------------------- tournament
@pytest.fixture(scope="module")
def small_tournament(distribution):
    programs = [mibench_program("sha")]
    machines = [xscale()]
    return run_tournament(
        programs,
        machines,
        budget=15,
        seeds=(0, 1),
        distribution_for=lambda program, machine: distribution,
    )


class TestTournament:
    def test_all_strategies_compete(self, small_tournament):
        names = {standing.strategy for standing in small_tournament.standings}
        assert names == set(ALL_STRATEGIES)

    def test_deterministic_strategies_run_once_per_pair(
        self, small_tournament
    ):
        for standing in small_tournament.standings:
            expected = 1 if standing.deterministic else 2
            assert standing.runs == expected, standing.strategy

    def test_unmatched_runs_charged_full_budget(self, small_tournament):
        for run in small_tournament.runs:
            if not run.matched:
                assert run.evaluations_to_match == small_tournament.budget
                assert run.simulations_to_match >= small_tournament.budget

    def test_guided_strategies_pay_the_profile_run(self, small_tournament):
        for run in small_tournament.runs:
            if run.strategy in GUIDED_STRATEGIES and run.matched:
                # evaluations never include the profile; simulations do.
                assert run.simulations_to_match >= 1

    def test_best_known_is_floor_over_all_runs(self, small_tournament):
        floor = min(run.best_runtime for run in small_tournament.runs)
        assert min(small_tournament.best_known.values()) == floor

    def test_render_mentions_every_strategy(self, small_tournament):
        rendered = small_tournament.render()
        for name in ALL_STRATEGIES:
            assert name in rendered

    def test_same_seed_tournaments_byte_identical(self, distribution):
        """Satellite regression: two identically-configured tournaments
        must render byte-identical markdown and JSON."""

        def once():
            return run_tournament(
                [mibench_program("crc")],
                [xscale()],
                budget=12,
                seeds=(0, 1),
                distribution_for=lambda program, machine: distribution,
            )

        one, two = once(), once()
        assert one.json_text() == two.json_text()
        assert one.render() == two.render()

    def test_validates_inputs(self, distribution):
        with pytest.raises(ValueError, match="budget"):
            run_tournament([mibench_program("sha")], [xscale()], budget=0)
        with pytest.raises(ValueError, match=">= 1"):
            run_tournament([], [xscale()], budget=5)
        with pytest.raises(ValueError, match="unknown"):
            run_tournament(
                [mibench_program("sha")],
                [xscale()],
                budget=5,
                strategies=["nope"],
            )
        with pytest.raises(ValueError, match="model-guided"):
            run_tournament(
                [mibench_program("sha")],
                [xscale()],
                budget=5,
                strategies=["model-genetic"],
            )

    def test_guided_excluded_without_distribution(self):
        result = run_tournament(
            [mibench_program("sha")], [xscale()], budget=8, seeds=(0,)
        )
        names = {standing.strategy for standing in result.standings}
        assert names == set(ALL_STRATEGIES) - set(GUIDED_STRATEGIES)


class TestSmokeGate:
    def test_gate_requires_strictly_fewer_simulations(
        self, small_tournament
    ):
        ok, message = check_model_beats_random(small_tournament)
        guided = small_tournament.standing("model-genetic")
        baseline = small_tournament.standing("random")
        expected = (
            guided.mean_simulations_to_match
            < baseline.mean_simulations_to_match
            and guided.mean_evaluations_to_match
            <= baseline.mean_evaluations_to_match
        )
        assert ok == expected
        assert ("PASS" if ok else "FAIL") in message

    def test_gate_unknown_strategy_raises(self, small_tournament):
        with pytest.raises(KeyError):
            check_model_beats_random(small_tournament, model="nope")
