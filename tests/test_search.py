"""Tests for the evaluation oracle and the iterative-compilation baselines."""

import pytest

from repro.compiler.flags import o3_setting
from repro.machine.xscale import xscale
from repro.programs import mibench_program
from repro.autotune import (
    CombinedElimination,
    Genetic,
    HillClimb,
    RandomSearch,
    run_traced,
)
from repro.search import Evaluator, evaluations_to_reach


@pytest.fixture(scope="module")
def evaluator():
    return Evaluator(program=mibench_program("tiffdither"), machine=xscale())


class TestEvaluator:
    def test_memoises(self, evaluator):
        before = evaluator.evaluations
        runtime_one = evaluator.evaluate(o3_setting())
        after_first = evaluator.evaluations
        runtime_two = evaluator.evaluate(o3_setting())
        assert runtime_one == runtime_two
        assert evaluator.evaluations == after_first
        assert after_first >= before

    def test_canonicalisation_shares_entries(self, evaluator):
        one = o3_setting().with_values(fgcse=False, fgcse_sm=True)
        two = o3_setting().with_values(fgcse=False, fgcse_sm=False)
        evaluator.evaluate(one)
        count = evaluator.evaluations
        evaluator.evaluate(two)
        assert evaluator.evaluations == count

    def test_speedup_relative_to_o3(self, evaluator):
        assert evaluator.speedup(o3_setting()) == pytest.approx(1.0)


class TestRandomSearch:
    def test_budget_respected(self, evaluator):
        result = run_traced(RandomSearch(), evaluator, 25, seed=3)
        assert result.evaluations == 25
        assert len(result.trajectory) == 25

    def test_trajectory_monotone(self, evaluator):
        result = run_traced(RandomSearch(), evaluator, 25, seed=3)
        assert all(
            later <= earlier
            for earlier, later in zip(result.trajectory, result.trajectory[1:])
        )

    def test_best_matches_trajectory_floor(self, evaluator):
        result = run_traced(RandomSearch(), evaluator, 25, seed=3)
        assert result.best_runtime == pytest.approx(result.trajectory[-1])

    def test_deterministic(self):
        one = run_traced(
            RandomSearch(), Evaluator(mibench_program("sha"), xscale()), 15, seed=5
        )
        two = run_traced(
            RandomSearch(), Evaluator(mibench_program("sha"), xscale()), 15, seed=5
        )
        assert one.best_setting == two.best_setting

    def test_larger_budget_no_worse(self):
        small = run_traced(
            RandomSearch(), Evaluator(mibench_program("sha"), xscale()), 10, seed=5
        )
        large = run_traced(
            RandomSearch(), Evaluator(mibench_program("sha"), xscale()), 40, seed=5
        )
        assert large.best_runtime <= small.best_runtime

    def test_evaluations_to_reach(self, evaluator):
        result = run_traced(RandomSearch(), evaluator, 25, seed=3)
        index = result.evaluations_to_reach(result.best_runtime)
        assert index is not None
        assert 1 <= index <= 25
        assert result.evaluations_to_reach(0.0) is None

    def test_invalid_budget(self, evaluator):
        with pytest.raises(ValueError):
            run_traced(RandomSearch(), evaluator, 0, seed=1)


class TestHillClimb:
    def test_budget_respected(self):
        evaluator = Evaluator(mibench_program("sha"), xscale())
        result = run_traced(HillClimb(), evaluator, 30, seed=2)
        assert result.evaluations <= 30
        assert result.best_setting is not None

    def test_trajectory_monotone(self):
        evaluator = Evaluator(mibench_program("sha"), xscale())
        result = run_traced(HillClimb(), evaluator, 30, seed=2)
        assert all(
            later <= earlier
            for earlier, later in zip(result.trajectory, result.trajectory[1:])
        )


class TestGenetic:
    def test_budget_respected(self):
        evaluator = Evaluator(mibench_program("sha"), xscale())
        result = run_traced(
            Genetic(population_size=8), evaluator, 40, seed=4
        )
        assert result.evaluations <= 40
        assert result.best_setting is not None

    def test_improves_over_first_generation(self):
        evaluator = Evaluator(mibench_program("susan_e"), xscale())
        result = run_traced(
            Genetic(population_size=10), evaluator, 60, seed=4
        )
        first_generation_best = min(result.trajectory[:10])
        assert result.best_runtime <= first_generation_best


class TestCombinedElimination:
    def test_only_disables_harmful_flags(self):
        evaluator = Evaluator(mibench_program("tiffdither"), xscale())
        result = run_traced(CombinedElimination(), evaluator, 120)
        # CE starts from everything-on and can only improve on it.
        all_on_runtime = result.trajectory[0]
        _, answer_runtime = result.answer
        assert answer_runtime <= all_on_runtime

    def test_trajectory_monotone(self):
        evaluator = Evaluator(mibench_program("tiffdither"), xscale())
        result = run_traced(CombinedElimination(), evaluator, 120)
        assert all(
            later <= earlier
            for earlier, later in zip(result.trajectory, result.trajectory[1:])
        )


class TestBaselineComparison:
    def test_all_baselines_reasonable_on_same_pair(self):
        program = mibench_program("susan_e")
        results = {}
        for name, strategy in [
            ("random", RandomSearch()),
            ("hill", HillClimb()),
            ("ga", Genetic()),
        ]:
            evaluator = Evaluator(program, xscale())
            results[name] = run_traced(
                strategy, evaluator, 40, seed=1
            ).best_runtime
        o3_runtime = Evaluator(program, xscale()).evaluate(o3_setting())
        for name, runtime in results.items():
            assert runtime < o3_runtime * 1.2, name


class TestSearchResultEdgeCases:
    def test_empty_trajectory_reaches_nothing(self):
        trajectory = []
        assert evaluations_to_reach(trajectory, 0.0) is None
        assert evaluations_to_reach(trajectory, float("inf")) is None

    def test_unreachable_target_returns_none(self):
        trajectory = [4.0, 3.0, 2.0]
        assert evaluations_to_reach(trajectory, 1.9) is None

    def test_first_reaching_index_is_one_based(self):
        trajectory = [4.0, 3.0, 2.0, 2.0]
        assert evaluations_to_reach(trajectory, 4.0) == 1
        assert evaluations_to_reach(trajectory, 3.5) == 2
        assert evaluations_to_reach(trajectory, 2.0) == 3

    def test_target_equal_to_entry_counts_as_reached(self):
        trajectory = [5.0]
        assert evaluations_to_reach(trajectory, 5.0) == 1


class TestEvaluatorBackendInjection:
    def test_custom_simulate_callable_used(self):
        calls = []

        class _StubResult:
            seconds = 42.0

        def stub_simulate(binary, machine):
            calls.append(machine)
            return _StubResult()

        evaluator = Evaluator(
            mibench_program("crc"), xscale(), simulate=stub_simulate
        )
        assert evaluator.evaluate(o3_setting()) == 42.0
        assert len(calls) == 1
        assert evaluator.evaluations == 1

    def test_cache_hit_skips_simulator_and_counter(self):
        calls = []

        class _StubResult:
            seconds = 1.0

        def stub_simulate(binary, machine):
            calls.append(1)
            return _StubResult()

        evaluator = Evaluator(
            mibench_program("crc"), xscale(), simulate=stub_simulate
        )
        evaluator.evaluate(o3_setting())
        evaluator.evaluate(o3_setting())
        assert len(calls) == 1
        assert evaluator.evaluations == 1

    def test_canonical_aliases_share_one_evaluation(self):
        calls = []

        class _StubResult:
            seconds = 1.0

        def stub_simulate(binary, machine):
            calls.append(1)
            return _StubResult()

        evaluator = Evaluator(
            mibench_program("crc"), xscale(), simulate=stub_simulate
        )
        # funroll_loops is off, so its gated parameters are behaviourally
        # inert: all three settings alias to one canonical compilation.
        evaluator.evaluate(o3_setting().with_values(param_max_unroll_times=2))
        evaluator.evaluate(o3_setting().with_values(param_max_unroll_times=16))
        evaluator.evaluate(o3_setting())
        assert len(calls) == 1
        assert evaluator.evaluations == 1


class TestEvaluationsToReachNoneDisambiguation:
    """None means "never reached", pinned against the historical ambiguity
    where a final-evaluation match and an exhausted budget both looked
    like the budget number to callers comparing against len(trajectory)."""

    def test_final_evaluation_match_is_not_none(self):
        trajectory = [3.0, 2.0, 1.0]
        # Reached exactly on the last evaluation: returns the budget
        # number, never None.
        assert evaluations_to_reach(trajectory, 1.0) == 3

    def test_never_reached_is_none_not_budget(self):
        trajectory = [3.0, 2.5, 2.0]
        # A caller charging unreached runs the full budget must branch on
        # None — the two cases are distinguishable only this way.
        reached_at_cap = evaluations_to_reach(trajectory, 2.0)
        never = evaluations_to_reach(trajectory, 1.0)
        assert reached_at_cap == len(trajectory)
        assert never is None
        assert never != reached_at_cap
