"""The autotuning core: budgets, traces, and the strategy protocol.

``repro.autotune`` unifies iterative compiler search under one framework.
A *strategy* proposes candidate flag settings; a :class:`BatchScorer`
(see :mod:`repro.autotune.scorer`) prices them through the memoising
:class:`~repro.search.evaluator.Evaluator` — batched, so a whole
generation's uncached settings compile as one ``compile_many`` batch
through the pass memo, each fresh binary then priced by one simulator
call — and records every
candidate into a :class:`SearchTrace`.  The trace is the single source
of truth for the paper's §5.3 metrics: evaluations-to-match-best and
simulations consumed.

Two cost units, deliberately distinct:

* **evaluations** — scored candidates (one :class:`TraceEntry` each,
  memo hits included).  This is what a :class:`SearchBudget` bounds and
  what the legacy drivers always counted.
* **simulations** — fresh compile-and-simulate calls (evaluator cache
  misses).  The genuinely costly unit the paper counts; always
  ``simulations <= evaluations``.

The budget is enforced *at the scorer*, not trusted to the strategy: a
strategy that over-asks has its request truncated, so no strategy can
exceed its budget even adversarially.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.compiler.flags import FlagSetting
from repro.core.distribution import IIDDistribution
from repro.search.evaluator import Evaluator, evaluations_to_reach

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autotune.scorer import BatchScorer


@dataclass(frozen=True)
class SearchBudget:
    """A hard cap on scored candidates (``None`` = run to convergence).

    Matches the legacy drivers' ``budget`` semantics: every scored
    candidate counts, including evaluator memo hits (which consume no
    simulation).  The scorer truncates any request that would cross the
    cap, so the two legacy drivers that could historically overshoot by
    one at boundary budgets (genetic's last brood, combined
    elimination's unconditional recheck) are clamped exactly at it.
    """

    evaluations: int | None

    def __post_init__(self) -> None:
        if self.evaluations is not None and self.evaluations < 1:
            raise ValueError(f"budget must be >= 1: {self.evaluations}")

    @property
    def limit(self) -> float:
        return math.inf if self.evaluations is None else float(self.evaluations)


@dataclass(frozen=True)
class TraceEntry:
    """One scored candidate, in scoring order.

    Attributes:
        iteration: 1-based position in the trace.
        source: strategy-chosen provenance label (``"sample"``,
            ``"offspring"``, ``"probe"``, ``"beam"``, ...).
        setting: the candidate as proposed (uncanonicalised).
        runtime: its runtime in seconds.
        best_runtime: best runtime seen up to and including this entry
            (the convergence curve the §5.3 analysis reads).
        speedup_vs_o3: ``o3_runtime / runtime`` when the -O3 reference
            is known, else ``None``.
        fresh: whether this candidate cost a fresh simulation (an
            evaluator cache miss) rather than a memo hit.
        simulations: cumulative fresh simulations up to and including
            this entry.
    """

    iteration: int
    source: str
    setting: FlagSetting
    runtime: float
    best_runtime: float
    speedup_vs_o3: float | None
    fresh: bool
    simulations: int


class SearchTrace:
    """Every candidate evaluation of one search run, in order.

    Tracks the running best with a strict-``<`` first-wins rule — the
    exact tie-break every legacy driver used — and folds the best-so-far
    trajectory the moment each entry is recorded, so the trace and the
    legacy drivers' trajectories are bit-identical.
    """

    def __init__(self, o3_runtime: float | None = None):
        self.o3_runtime = o3_runtime
        self.entries: list[TraceEntry] = []
        self.best_setting: FlagSetting | None = None
        self.best_runtime: float = math.inf
        #: Strategies whose notion of "the answer" is not the trajectory
        #: floor (combined elimination returns its converged point, which
        #: a rejected probe may undercut) pin it here.
        self._final: tuple[FlagSetting, float] | None = None

    def record(
        self, setting: FlagSetting, runtime: float, source: str, fresh: bool
    ) -> None:
        if runtime < self.best_runtime:
            self.best_runtime = runtime
            self.best_setting = setting
        simulations = self.simulations + (1 if fresh else 0)
        self.entries.append(
            TraceEntry(
                iteration=len(self.entries) + 1,
                source=source,
                setting=setting,
                runtime=runtime,
                best_runtime=self.best_runtime,
                speedup_vs_o3=(
                    None if self.o3_runtime is None else self.o3_runtime / runtime
                ),
                fresh=fresh,
                simulations=simulations,
            )
        )

    def set_final(self, setting: FlagSetting, runtime: float) -> None:
        """Pin the result the strategy converged on (overrides the floor)."""
        self._final = (setting, runtime)

    @property
    def evaluations(self) -> int:
        return len(self.entries)

    @property
    def simulations(self) -> int:
        """Fresh simulations consumed so far (cache misses only)."""
        return self.entries[-1].simulations if self.entries else 0

    @property
    def trajectory(self) -> list[float]:
        """Best runtime seen after each evaluation (monotone non-increasing)."""
        return [entry.best_runtime for entry in self.entries]

    @property
    def answer(self) -> tuple[FlagSetting | None, float]:
        """The strategy's answer as ``(setting, runtime)``: the
        :meth:`set_final` pin if there is one, else the trajectory floor."""
        if self._final is not None:
            return self._final
        return self.best_setting, self.best_runtime

    def evaluations_to_reach(self, target_runtime: float) -> int | None:
        """First 1-based evaluation index whose best-so-far reaches the
        target, or ``None`` iff it is never reached (the boundary rule of
        :func:`repro.search.evaluator.evaluations_to_reach`)."""
        return evaluations_to_reach(self.trajectory, target_runtime)

    def simulations_to_reach(self, target_runtime: float) -> int | None:
        """Fresh simulations consumed when the target is first reached."""
        index = self.evaluations_to_reach(target_runtime)
        return None if index is None else self.entries[index - 1].simulations


@dataclass
class SearchContext:
    """Everything a strategy may consult besides the scorer.

    ``rng`` is the *only* randomness a strategy is allowed: seeding it
    is what makes every strategy deterministic, and the tournament's
    byte-identity regression test relies on that.  ``distribution`` is
    the fitted model's predictive distribution for the pair under
    search — required by the model-guided strategies, absent for the
    pure-iterative baselines.
    """

    rng: random.Random = field(default_factory=lambda: random.Random(0))
    distribution: IIDDistribution | None = None
    o3_runtime: float | None = None

    def require_distribution(self, strategy_name: str) -> IIDDistribution:
        if self.distribution is None:
            raise ValueError(
                f"strategy {strategy_name!r} is model-guided and needs a "
                "fitted IIDDistribution in the search context"
            )
        return self.distribution


@runtime_checkable
class SearchStrategy(Protocol):
    """A search algorithm: propose candidates, let the scorer price them.

    Implementations are plain classes with two attributes and one
    method; they never touch the evaluator directly, so the scorer's
    budget accounting sees every candidate.
    """

    #: Registry/leaderboard name.
    name: str
    #: True when the strategy ignores ``context.rng`` (one run covers
    #: every seed — the tournament dedupes on this).
    deterministic: bool

    def run(self, scorer: "BatchScorer", context: SearchContext) -> None:
        """Search until done or until the scorer is exhausted."""
        ...  # pragma: no cover - protocol


def run_traced(
    strategy: SearchStrategy,
    evaluator: Evaluator,
    budget: SearchBudget | int | None,
    seed: int = 0,
    distribution: IIDDistribution | None = None,
    o3_runtime: float | None = None,
) -> SearchTrace:
    """Run one strategy under a scorer-enforced budget; return the trace."""
    from repro.autotune.scorer import BatchScorer

    if not isinstance(budget, SearchBudget):
        budget = SearchBudget(budget)
    trace = SearchTrace(o3_runtime=o3_runtime)
    scorer = BatchScorer(evaluator, budget, trace)
    context = SearchContext(
        rng=random.Random(seed),
        distribution=distribution,
        o3_runtime=o3_runtime,
    )
    strategy.run(scorer, context)
    return trace

