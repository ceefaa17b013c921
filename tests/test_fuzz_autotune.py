"""Property-based invariants of the autotuning subsystem.

Whatever the strategy, seed, and budget, two things must hold because
the *scorer* enforces them (no strategy is trusted):

* a run never exceeds its evaluation budget, and fresh simulations
  never exceed evaluations;
* the trace's best-so-far trajectory is monotone non-increasing, and
  the recorded floor equals the best runtime seen.

One shared evaluator keeps the suite fast (the memo makes repeated
settings free); the properties hold regardless because the budget
counts *scored candidates*, memo hits included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune import ALL_STRATEGIES, GUIDED_STRATEGIES, run_traced
from repro.compiler.flags import DEFAULT_SPACE
from repro.core.distribution import IIDDistribution
from repro.machine.xscale import xscale
from repro.programs import mibench_program
from repro.search import Evaluator

_EVALUATOR = Evaluator(program=mibench_program("crc"), machine=xscale())
_DISTRIBUTION = IIDDistribution.fit(DEFAULT_SPACE.sample_many(8, seed=11), smoothing=1.0)


@given(
    name=st.sampled_from(sorted(ALL_STRATEGIES)),
    budget=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_budget_and_simulation_bounds(name, budget, seed):
    trace = run_traced(
        ALL_STRATEGIES[name](),
        _EVALUATOR,
        budget=budget,
        seed=seed,
        distribution=_DISTRIBUTION if name in GUIDED_STRATEGIES else None,
    )
    assert trace.evaluations <= budget
    assert 0 <= trace.simulations <= trace.evaluations


@given(
    name=st.sampled_from(sorted(ALL_STRATEGIES)),
    budget=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_trajectory_monotone_and_floor_consistent(name, budget, seed):
    trace = run_traced(
        ALL_STRATEGIES[name](),
        _EVALUATOR,
        budget=budget,
        seed=seed,
        distribution=_DISTRIBUTION if name in GUIDED_STRATEGIES else None,
    )
    trajectory = trace.trajectory
    assert all(
        later <= earlier
        for earlier, later in zip(trajectory, trajectory[1:])
    )
    if trajectory:
        assert trajectory[-1] == trace.best_runtime
        assert trajectory[-1] == min(
            entry.runtime for entry in trace.entries
        )
