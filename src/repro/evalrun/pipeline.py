"""The resumable protocol pipeline: fold grid → checkpointed results.

An :class:`EvaluationPipeline` walks the (variant × held-out program)
fold grid of a :class:`~repro.evalrun.foldstore.FoldStore`, computes
every pending fold, and checkpoints each one the moment it completes.
Kill it anywhere — signal, crash, ``max_folds`` cap — and the next run
picks up exactly where it left off, never re-simulating a fold already
on disk.

This is the only implementation of the paper's §5.1.1 leave-one-out
protocol: every figure, table and ablation reads its folds.  Every fold
is a pure function of (training matrix, variant, program): the
predictor is fitted once on the full matrix and the held-out program and
machine are excluded at query time, which is exact for the memory-based
model (the only global statistic, the feature normaliser, moves
negligibly and is shared).  Predicted settings are priced through the
:class:`~repro.evalrun.oracle.RuntimeOracle` — grid settings straight
from the store, synthesised settings through the memoised compile-once
fallback.  The assembled protocol is therefore bit-identical whichever
executor, interruption pattern, or fold order produced it.  Folds drain
through :func:`repro.cluster.drain`, the loop dataset shards share.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import Program
from repro.core.crossval import CrossValResult, PairOutcome
from repro.core.predictor import OptimisationPredictor
from repro.core.training import TrainingSet
from repro.evalrun.foldstore import FoldKey, FoldRecord, FoldRow, FoldStore
from repro.evalrun.oracle import RuntimeOracle
from repro.evalrun.variants import VariantSpec, make_predictor
from repro.parallel import RUNNER_EXECUTORS, resolve_jobs
from repro.sim.counters import PerfCounters


def compute_fold(
    training: TrainingSet,
    variant: VariantSpec,
    program: str,
    oracle: RuntimeOracle,
    predictor,
) -> FoldRecord:
    """One leave-one-out fold: the held-out program on every machine.

    Deterministic in its inputs alone — the contract that makes folds
    checkpointable and the assembled protocol independent of executor
    and interruption pattern.
    """
    p = oracle.program_index(program)
    code_features = (
        training.code_features[p, :]
        if training.code_features is not None
        else None
    )
    machines = list(training.machines)
    counters_row = [
        PerfCounters(*training.counters[p, m, :]) for m in range(len(machines))
    ]
    if hasattr(predictor, "predict_many"):
        # One ranking-kernel pass per fold; duck-typed predictors (the
        # joint-vote ablation) keep the scalar loop.
        predicted_row = predictor.predict_many(
            counters_row,
            machines,
            exclude_programs=[program] * len(machines),
            exclude_machines=machines,
            code_features=[code_features] * len(machines),
        )
    else:
        predicted_row = [
            predictor.predict(
                counters,
                machine,
                exclude_program=program,
                exclude_machine=machine,
                code_features=code_features,
            )
            for counters, machine in zip(counters_row, machines)
        ]
    # One oracle call per fold: the out-of-grid predictions compile as
    # one compile_many batch, and each pair is priced on its own.
    predicted_runtimes = oracle.runtime_many(program, predicted_row, machines)
    rows = [
        FoldRow(
            machine=m,
            setting=predicted.as_indices(),
            predicted_runtime=predicted_runtime,
            o3_runtime=float(training.o3_runtimes[p, m]),
            best_runtime=training.best_runtime(p, m),
        )
        for m, (predicted, predicted_runtime) in enumerate(
            zip(predicted_row, predicted_runtimes)
        )
    ]
    return FoldRecord(key=FoldKey(variant.key, program), rows=tuple(rows))


@dataclass
class PipelineRunStats:
    """What one :meth:`EvaluationPipeline.run` call actually did."""

    folds_computed: int = 0
    folds_skipped: int = 0  # already checkpointed before the call
    simulation_calls: int = 0  # out-of-grid fallback simulations
    store_hits: int = 0  # runtimes answered from the training matrix


@dataclass
class ProtocolResult:
    """The assembled protocol: one :class:`CrossValResult` per variant."""

    variants: list[VariantSpec]
    results: dict[str, CrossValResult]
    protocol_fingerprint: str
    fold_fingerprint: str
    metadata: dict = field(default_factory=dict)

    @property
    def base(self) -> CrossValResult:
        return self.results["base"]

    def result(self, variant_key: str) -> CrossValResult:
        try:
            return self.results[variant_key]
        except KeyError:
            raise KeyError(
                f"variant {variant_key!r} was not part of this protocol run"
            ) from None


# ------------------------------------------------------------- fold workers
class _FoldWorker:
    """What computing folds needs: the training matrix, a memoised
    oracle, and one fitted predictor per variant (fitted on first use;
    variants differing only in K and β share one fit through views).

    A pipeline holds one for in-process folds; each process-pool worker
    builds its own in :func:`_init_protocol_worker`.  Fold results are
    identical either way — all of it is deterministic.
    """

    def __init__(
        self,
        training: TrainingSet,
        oracle: RuntimeOracle,
        variants: Sequence[VariantSpec],
    ):
        self.training = training
        self.oracle = oracle
        self.variants = {variant.key: variant for variant in variants}
        self._predictors: dict[str, object] = {}
        self._fits: dict[tuple, OptimisationPredictor] = {}
        self._fit_lock = threading.Lock()

    def _fit(self, variant: VariantSpec):
        predictor = make_predictor(variant, self.training)
        if not isinstance(predictor, OptimisationPredictor):
            return predictor.fit(self.training)
        key = (predictor.quantile, predictor.feature_mode)
        if key not in self._fits:
            self._fits[key] = predictor.fit(self.training)
        return self._fits[key].with_query(predictor.k, predictor.beta)

    def compute(self, item: tuple[str, str]) -> tuple[FoldRecord, dict]:
        """One fold and its counts: the oracle's simulations and store
        hits during this fold."""
        variant_key, program = item
        variant = self.variants[variant_key]
        with self._fit_lock:
            predictor = self._predictors.get(variant_key)
            if predictor is None:
                predictor = self._predictors[variant_key] = self._fit(variant)
        oracle = self.oracle
        sims_before = oracle.simulation_calls
        hits_before = oracle.store_hits
        record = compute_fold(self.training, variant, program, oracle, predictor)
        return record, {
            "simulation_calls": oracle.simulation_calls - sims_before,
            "store_hits": oracle.store_hits - hits_before,
        }


#: Per-process state for pool workers: one :class:`_FoldWorker`, shipped
#: once through the pool initializer instead of pickled into every item.
_WORKER_STATE: dict = {}


def _init_protocol_worker(
    training: TrainingSet,
    programs: list[Program],
    variants: list[VariantSpec],
) -> None:
    _WORKER_STATE["folds"] = _FoldWorker(
        training, RuntimeOracle(training, programs), variants
    )


def _compute_fold_task(item: tuple[str, str]) -> tuple[FoldRecord, dict]:
    """Picklable pool entry point; returns (record, counts)."""
    return _WORKER_STATE["folds"].compute(item)


class EvaluationPipeline:
    """Drives a fold store from partial to complete, checkpointing each fold.

    Args:
        training: the assembled experiment matrix the protocol evaluates.
        programs: :class:`Program` objects for the matrix's programs
            (only the oracle's out-of-grid fallback compiles them).
        store: the (possibly partially filled) fold store to complete.
        jobs: worker count (1 = serial, negative = all cores).
        executor: ``auto``, ``serial``, ``process``, or
            ``cluster`` — the last claims folds through the shared
            lease table of :mod:`repro.cluster`, so any number of
            concurrent pipeline processes (this host or peers on a
            shared filesystem) drain the same fold store together.
        compiler: memoising compiler shared by in-process fallback
            compilations; process workers build their own.
        lease_ttl: for ``cluster`` only — seconds without a heartbeat
            before this store's leases count as stale and reclaimable.
    """

    def __init__(
        self,
        training: TrainingSet,
        programs: Sequence[Program] | Mapping[str, Program],
        store: FoldStore,
        jobs: int | None = 1,
        executor: str = "auto",
        compiler=None,
        lease_ttl: float | None = None,
    ):
        if executor not in RUNNER_EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {RUNNER_EXECUTORS}"
            )
        self.training = training
        if isinstance(programs, Mapping):
            self.programs = list(programs.values())
        else:
            self.programs = list(programs)
        self.store = store
        self.jobs = resolve_jobs(jobs)
        self.executor = executor
        self.lease_ttl = lease_ttl
        self.oracle = RuntimeOracle(training, self.programs, compiler=compiler)
        self._folds = _FoldWorker(training, self.oracle, store.variants)

    # ------------------------------------------------------------------ run
    def run(
        self,
        variants: Sequence[str] | None = None,
        max_folds: int | None = None,
        progress: Callable[[str], None] | None = None,
        on_fold: Callable[[FoldKey, int, int], None] | None = None,
    ) -> PipelineRunStats:
        """Compute up to ``max_folds`` pending folds of the requested variants.

        Each fold is checkpointed to the store as it completes, so the
        call can be killed or capped anywhere and re-entered later;
        folds already checkpointed are skipped without any simulation.

        ``on_fold(key, completed, total)`` fires right after each fold's
        checkpoint lands (``completed`` counts previously checkpointed
        folds too) — the structured sibling of the free-text ``progress``
        hook, which the prediction service turns into live NDJSON events.
        """
        from repro.cluster import FoldQueue, drain

        queue = FoldQueue(self, variants)
        totals = drain(
            queue,
            jobs=self.jobs,
            executor=self.executor,
            max_units=max_folds,
            progress=progress,
            on_unit=(
                None
                if on_fold is None
                else lambda unit, completed, total: on_fold(
                    queue.keys[unit], completed, total
                )
            ),
            lease_ttl=self.lease_ttl,
        )
        return PipelineRunStats(
            folds_computed=totals["computed"],
            folds_skipped=totals["already_done"],
            simulation_calls=totals["simulation_calls"],
            store_hits=totals["store_hits"],
        )

    def run_to_completion(
        self,
        variants: Sequence[str] | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> ProtocolResult:
        """Finish every pending fold and assemble the protocol result."""
        self.run(variants=variants, progress=progress)
        return self.assemble(variants=variants)

    # ------------------------------------------------------------- assembly
    def assemble(
        self, variants: Sequence[str] | None = None
    ) -> ProtocolResult:
        """Concatenate checkpointed folds into per-variant results.

        Outcomes are placed in grid order (variant-major, then program,
        then machine) whatever order the folds completed in, so the
        result — like the store fingerprint — is order-independent.
        """
        return assemble_protocol(self.store, self.training, variants=variants)


def fold_outcomes(record: FoldRecord, training: TrainingSet) -> list[PairOutcome]:
    """One fold's rows as evaluated leave-one-out pairs, in machine order."""
    return [
        PairOutcome(
            program=record.key.program,
            machine=training.machines[row.machine],
            predicted=FlagSetting.from_indices(row.setting),
            predicted_runtime=row.predicted_runtime,
            o3_runtime=row.o3_runtime,
            best_runtime=row.best_runtime,
        )
        for row in record.rows
    ]


def assemble_protocol(
    store: FoldStore,
    training: TrainingSet,
    variants: Sequence[str] | None = None,
) -> ProtocolResult:
    """Build a :class:`ProtocolResult` from a store's checkpointed folds."""
    wanted = (
        [variant for variant in store.variants if variant.key in set(variants)]
        if variants is not None
        else list(store.variants)
    )
    results: dict[str, CrossValResult] = {}
    for variant in wanted:
        outcomes = []
        for program in store.programs:
            record = store.read_fold(FoldKey(variant.key, program))
            outcomes.extend(fold_outcomes(record, training))
        results[variant.key] = CrossValResult(outcomes=outcomes)
    return ProtocolResult(
        variants=wanted,
        results=results,
        protocol_fingerprint=store.identity,
        fold_fingerprint=store.fingerprint(
            [variant.key for variant in wanted]
        ),
        metadata=dict(store.metadata),
    )
