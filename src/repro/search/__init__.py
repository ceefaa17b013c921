"""The evaluation oracle the iterative-compilation searches price against.

:class:`~repro.search.evaluator.Evaluator` is a memoising view of one
:class:`~repro.search.evaluator.Pricer`, the one checked compile-and-price
path outside shard builds.  The searches themselves — the paper's
related-work baselines and the model-guided strategies — live in
:mod:`repro.autotune`.
"""

from repro.search.evaluator import Evaluator, evaluations_to_reach

__all__ = ["Evaluator", "evaluations_to_reach"]
