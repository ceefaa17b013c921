"""The evaluation oracle the iterative-compilation searches price against.

The searches themselves — the paper's related-work baselines and the
model-guided strategies — live in :mod:`repro.autotune`.
"""

from repro.search.evaluator import Evaluator, evaluations_to_reach

__all__ = ["Evaluator", "evaluations_to_reach"]
