"""repro.evalrun — the resumable paper-protocol evaluation pipeline.

The paper's evaluation is a grid of independent *fold* tasks: one
leave-one-out fold per (predictor variant, held-out program), where the
variants are the paper's model plus every ablation of its design
choices.  An :class:`EvaluationPipeline` drains that grid serially, on
a process pool, or through cluster leases (:func:`repro.cluster.drain`),
checkpoints every completed fold into a :class:`FoldStore` (append-only,
digest-verified shards, same design as :mod:`repro.store`), and
assembles the result into the complete paper artifact — figures, tables,
headline numbers and ablations — rendered as markdown + JSON by
:mod:`repro.evalrun.report`.

The invariant mirrored from the experiment store: however the protocol
ran — any executor, killed and resumed, capped with ``max_folds`` — the
assembled report is byte-identical, and folds already checkpointed are
never re-simulated.
"""

from repro.evalrun.foldstore import (
    FOLD_FORMAT,
    FoldKey,
    FoldRecord,
    FoldRow,
    FoldStore,
    FoldStoreError,
    fold_fingerprint,
)
from repro.evalrun.oracle import OracleError, RuntimeOracle
from repro.evalrun.pipeline import (
    EvaluationPipeline,
    PipelineRunStats,
    ProtocolResult,
    compute_fold,
)
from repro.evalrun.report import (
    ARTIFACTS,
    DEFAULT_ARTIFACTS,
    ProtocolReport,
    render_report,
    resolve_artifacts,
    variants_for_artifacts,
)
from repro.evalrun.variants import (
    VariantSpec,
    make_predictor,
    protocol_fingerprint,
    protocol_variants,
)

__all__ = [
    "ARTIFACTS",
    "DEFAULT_ARTIFACTS",
    "EvaluationPipeline",
    "FOLD_FORMAT",
    "FoldKey",
    "FoldRecord",
    "FoldRow",
    "FoldStore",
    "FoldStoreError",
    "OracleError",
    "PipelineRunStats",
    "ProtocolReport",
    "ProtocolResult",
    "RuntimeOracle",
    "VariantSpec",
    "compute_fold",
    "fold_fingerprint",
    "make_predictor",
    "protocol_fingerprint",
    "protocol_variants",
    "render_report",
    "resolve_artifacts",
    "variants_for_artifacts",
]
