"""The batched scorer: where candidates are priced and budgets enforced.

Strategies hand the scorer whole batches (a GA generation, a CE probing
round, a beam) and the scorer prices them in one
:meth:`~repro.search.evaluator.Evaluator.evaluate_many` pass: the
uncached canonical settings compile as one ``compile_many`` batch through
the compiler's pass memo, then each fresh binary is priced with one
simulator call.  A single
candidate is a batch of one, so sequential strategies share the same
memo, accounting and trace path, and results do not depend on how a
strategy groups its candidates.

Budget enforcement lives here, not in the strategies: any request that
would cross the budget is truncated to the remaining allowance, so
``trace.evaluations <= budget`` holds no matter what a strategy does.
"""

from __future__ import annotations

from typing import Sequence

from repro.autotune.core import SearchBudget, SearchTrace
from repro.compiler.flags import FlagSetting
from repro.search.evaluator import Evaluator


class BatchScorer:
    """Prices candidates against one evaluator, recording every one.

    The scorer distinguishes *evaluations* (every scored candidate —
    what the budget bounds) from *simulations* (evaluator cache misses —
    the costly unit the tournament reports).  Freshness is decided
    before pricing, per canonical setting, with duplicates inside one
    batch charged a single simulation, exactly mirroring what
    ``evaluate_many`` actually runs.
    """

    def __init__(
        self, evaluator: Evaluator, budget: SearchBudget, trace: SearchTrace
    ):
        self.evaluator = evaluator
        self.budget = budget
        self.trace = trace

    @property
    def remaining(self) -> float:
        """Evaluations left before the budget is exhausted (may be inf)."""
        return self.budget.limit - self.trace.evaluations

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0

    def score(
        self, settings: Sequence[FlagSetting], source: str
    ) -> list[float]:
        """Price a batch, truncated to the remaining budget.

        Returns the runtimes of the scored prefix (shorter than the
        request iff the budget bit).  Every scored candidate lands in
        the trace with its provenance ``source`` and freshness.
        """
        allowed = self.remaining
        batch = list(settings)
        if len(batch) > allowed:
            batch = batch[: int(allowed)]
        if not batch:
            return []
        fresh_flags: list[bool] = []
        seen: set[FlagSetting] = set()
        for setting in batch:
            canonical = setting.canonical()
            fresh = not self.evaluator.is_cached(canonical) and canonical not in seen
            if fresh:
                seen.add(canonical)
            fresh_flags.append(fresh)
        runtimes = self.evaluator.evaluate_many(batch)
        for setting, runtime, fresh in zip(batch, runtimes, fresh_flags):
            self.trace.record(setting, runtime, source, fresh)
        return runtimes

    def score_one(self, setting: FlagSetting, source: str) -> float | None:
        """Price one candidate, or ``None`` when the budget is exhausted."""
        runtimes = self.score([setting], source)
        return runtimes[0] if runtimes else None
