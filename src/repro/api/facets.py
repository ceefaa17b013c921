"""The Session's facets: data, models, eval, and protocol.

Session API v2 splits the former god-object into four lazily-constructed,
individually-testable facets, each owning one slice of the pipeline:

* ``session.data`` — the experiment store and dataset lifecycle;
* ``session.models`` — fit/predict/rank plus persistence and the
  versioned :class:`~repro.api.registry.ModelRegistry`;
* ``session.eval`` — compile-and-simulate one triple or a parallel batch,
  and the iterative-compilation search baselines;
* ``session.protocol`` — the resumable paper-protocol fold grid.

Facets share the session's state (compiler, caches, fitted model), so
a model fitted through ``session.models`` is the one ``session.eval``
searches with.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.api.backends import SimulatorBackend, resolve_backend
from repro.autotune.core import SearchStrategy, run_traced
from repro.autotune.guided import GUIDED_STRATEGIES
from repro.autotune.strategies import CombinedElimination
from repro.autotune.tournament import (
    ALL_STRATEGIES,
    TournamentResult,
    run_tournament,
)
from repro.api.persistence import load_predictor, save_predictor
from repro.api.registry import (
    DEFAULT_CHANNEL,
    ModelRegistry,
    ModelVersion,
    registry_root,
)
from repro.api.types import (
    EvaluationRequest,
    EvaluationResult,
    PredictionResult,
    RankedPrediction,
    RankedSetting,
    SearchOutcome,
    SearchRequest,
)
from repro.compiler.binary import CompiledBinary
from repro.compiler.flags import FlagSetting, o3_setting
from repro.compiler.ir import Program
from repro.compiler.pipeline import Compiler
from repro.core.predictor import (
    DEFAULT_BETA,
    DEFAULT_K,
    DEFAULT_QUANTILE,
    OptimisationPredictor,
)
from repro.core.training import TrainingSet
from repro.evalrun import (
    EvaluationPipeline,
    FoldStore,
    PipelineRunStats,
    ProtocolReport,
    protocol_fingerprint,
    protocol_variants,
    render_report,
    resolve_artifacts,
    variants_for_artifacts,
)
from repro.evalrun.foldstore import FoldKey
from repro.experiments.config import Scale
from repro.experiments.dataset import (
    ExperimentData,
    experiment_store,
    grid_for_scale,
    load_or_build,
    protocol_store_root,
    store_status,
)
from repro.machine.params import MicroArch
from repro.parallel import CLUSTER, resolve_strategy, run_batch
from repro.search.evaluator import Evaluator, Pricer
from repro.sim.analytic import SimulationResult
from repro.sim.counters import PerfCounters
from repro.store import ExperimentRunner, ExperimentStore, StoreStatus

#: Search algorithms :meth:`EvalFacet.search` runs: every tournament
#: strategy by its leaderboard name, plus the ``ce`` alias.
SEARCH_ALGORITHMS: dict[str, type[SearchStrategy]] = {
    **ALL_STRATEGIES,
    "ce": CombinedElimination,
}


@dataclass
class ProtocolRun:
    """Outcome of one :meth:`ProtocolFacet.run` call.

    ``report`` is ``None`` when a ``max_folds`` cap left folds pending —
    re-run (resume) to finish; everything checkpointed so far is kept.
    """

    stats: PipelineRunStats
    status: StoreStatus
    report: ProtocolReport | None = None

    @property
    def complete(self) -> bool:
        return self.report is not None


#: Per-process compiler for process-pool workers; built lazily so forked
#: children that never evaluate pay nothing.
_WORKER_COMPILER: Compiler | None = None


def _evaluate_work(
    work: tuple[Program, FlagSetting, MicroArch, SimulatorBackend],
    compiler: Compiler | None = None,
) -> EvaluationResult:
    """One batch item; module-level so process pools can pickle it."""
    global _WORKER_COMPILER
    program, setting, machine, backend = work
    if compiler is None:
        if _WORKER_COMPILER is None:
            _WORKER_COMPILER = Compiler()
        compiler = _WORKER_COMPILER
    (simulation,) = Pricer(program, compiler, backend.run).price([setting], [machine])
    return EvaluationResult(
        program=program.name,
        machine=machine,
        setting=setting.canonical(),
        backend=backend.name,
        simulation=simulation,
    )


def profile_pairs(
    model: OptimisationPredictor,
    backend: SimulatorBackend,
    pairs: Sequence[tuple[CompiledBinary, MicroArch]],
) -> list[tuple[SimulationResult, object]]:
    """The §3.4 profiling step for (-O3 binary, machine) pairs: one
    ``backend.run`` per pair plus the static code features ``model``'s
    feature mode demands (once per distinct binary).  Returns
    ``(profile, code_features)`` per pair, so every caller — the models
    facet, the guided search and each ``/predict`` form — profiles
    exactly alike.
    """
    profiles = [backend.run(binary, machine) for binary, machine in pairs]
    codes: dict[int, object] = {}
    if model.feature_mode == "with_code":
        from repro.core.code_features import static_code_features

        binaries = {id(binary): binary for binary, _ in pairs}
        codes = {key: static_code_features(binary) for key, binary in binaries.items()}
    return [
        (profile, codes.get(id(binary)))
        for profile, (binary, _) in zip(profiles, pairs)
    ]


def ranked_prediction_many(
    model: OptimisationPredictor,
    queries: Sequence[dict],
) -> list[RankedPrediction]:
    """Top-N ranked settings for a batch of queries, from an explicit model.

    The one ranking entry: :meth:`ModelsFacet.rank_counters` ranks a
    batch of one, ``/predict`` every request it answers together — one
    ranking-kernel pass, bit-identical per query to a batch of one.
    Taking the model as an argument (instead of reading the session's
    mutable slot) keeps a concurrent promotion from swapping it
    mid-request.

    Each query is a mapping with ``counters`` and ``machine`` plus
    optional ``top`` (default 5), ``code_features`` and ``program``.
    """
    distributions = model.predict_distribution_many(
        [query["counters"] for query in queries],
        [query["machine"] for query in queries],
        code_features=[query.get("code_features") for query in queries],
    )
    return [
        RankedPrediction(
            program=query.get("program"),
            machine=query["machine"],
            settings=tuple(
                RankedSetting(
                    rank=index + 1, setting=setting, probability=probability
                )
                for index, (setting, probability) in enumerate(
                    distribution.top_settings(query.get("top", 5))
                )
            ),
        )
        for query, distribution in zip(queries, distributions)
    ]


class _Facet:
    """Base class: a view over one slice of a session's state."""

    def __init__(self, session):
        self._session = session

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(session={self._session!r})"


# ---------------------------------------------------------------------- eval
class EvalFacet(_Facet):
    """Compile-and-simulate triples, batches, and search baselines."""

    def evaluate(
        self,
        request: EvaluationRequest | Program | str,
        machine: MicroArch | None = None,
        setting: FlagSetting | None = None,
        backend: object | None = None,
    ) -> EvaluationResult:
        """Compile-and-simulate one triple (default setting: -O3)."""
        if not isinstance(request, EvaluationRequest):
            if machine is None:
                raise TypeError("evaluate() needs a machine")
            request = EvaluationRequest(
                program=request, machine=machine, setting=setting, backend=backend
            )
        return _evaluate_work(
            self._work_item(request), compiler=self._session.compiler
        )

    def _work_item(
        self, request: EvaluationRequest
    ) -> tuple[Program, FlagSetting, MicroArch, SimulatorBackend]:
        session = self._session
        backend = (
            session.backend
            if request.backend is None
            else resolve_backend(request.backend)
        )
        setting = request.setting if request.setting is not None else o3_setting()
        return (session.program(request.program), setting, request.machine, backend)

    def batch(
        self,
        requests: Iterable[EvaluationRequest | tuple],
        jobs: int | None = None,
        executor: str | None = None,
    ) -> list[EvaluationResult]:
        """Evaluate many triples, preserving request order.

        Requests may be :class:`EvaluationRequest` objects or
        ``(program, machine[, setting])`` tuples.  With ``jobs > 1`` the
        batch fans out over the chosen executor; results are identical to
        a serial run.
        """
        session = self._session
        normalised = [
            request
            if isinstance(request, EvaluationRequest)
            else EvaluationRequest(*request)
            for request in requests
        ]
        items = [self._work_item(request) for request in normalised]
        strategy = executor if executor is not None else session.executor
        if strategy == CLUSTER:
            # Leases claim store units, not batch items: a cluster
            # session evaluates its batches in this process.
            strategy = "serial"
        workers, strategy = resolve_strategy(
            session.jobs if jobs is None else jobs, strategy, len(items)
        )
        if strategy == "process":
            return run_batch(
                _evaluate_work, items, jobs=workers, executor=strategy
            )
        # Serial runs share this process's memory, so they go through
        # the session compiler and its memoisation.
        return [_evaluate_work(item, compiler=session.compiler) for item in items]

    def speedup_over_o3(
        self,
        program: Program | str,
        machine: MicroArch,
        setting: FlagSetting,
        backend: object | None = None,
    ) -> float:
        """Speedup of ``setting`` over -O3 on one pair (> 1 is faster)."""
        o3, tuned = self.batch(
            [
                EvaluationRequest(program, machine, backend=backend),
                EvaluationRequest(program, machine, setting, backend=backend),
            ],
            jobs=1,
        )
        return o3.runtime / tuned.runtime

    def evaluator(
        self,
        program: Program | str,
        machine: MicroArch,
        backend: object | None = None,
    ) -> Evaluator:
        """A memoising runtime oracle wired to a session backend."""
        session = self._session
        active_backend = (
            session.backend if backend is None else resolve_backend(backend)
        )
        return Evaluator(
            program=session.program(program),
            machine=machine,
            compiler=session.compiler,
            simulate=active_backend.run,
        )

    def search(
        self,
        request: SearchRequest | None = None,
        **kwargs,
    ) -> SearchOutcome:
        """Run one iterative-compilation baseline on a pair.

        Accepts a :class:`SearchRequest` or its fields as keyword
        arguments (``program``, ``machine``, ``algorithm``, ``budget``,
        ``seed``, ``backend``).
        """
        if request is None:
            request = SearchRequest(**kwargs)
        elif kwargs:
            raise TypeError("pass a SearchRequest or keyword fields, not both")
        strategy = SEARCH_ALGORITHMS.get(request.algorithm)
        if strategy is None:
            raise ValueError(
                f"unknown search algorithm {request.algorithm!r}; "
                f"choose from {sorted(SEARCH_ALGORITHMS)}"
            )
        evaluator = self.evaluator(
            request.program, request.machine, backend=request.backend
        )
        o3_runtime = evaluator.o3_runtime()
        distribution = None
        if request.algorithm in GUIDED_STRATEGIES:
            # Model-guided: one §3.4 profile run feeds the predictive
            # distribution the strategy searches with (no exclusions —
            # this is the deployment flow, not leave-one-out evaluation).
            distribution = self._pair_distribution(
                request.program, request.machine, backend=request.backend
            )
        trace = run_traced(
            strategy(),
            evaluator,
            request.budget,
            seed=request.seed,
            distribution=distribution,
            o3_runtime=o3_runtime,
        )
        best_setting, best_runtime = trace.answer
        return SearchOutcome(
            program=evaluator.program.name,
            machine=request.machine,
            algorithm=request.algorithm,
            best_setting=best_setting,
            best_runtime=best_runtime,
            o3_runtime=o3_runtime,
            evaluations=trace.evaluations,
            trajectory=tuple(trace.trajectory),
        )

    def _pair_distribution(
        self,
        program: Program | str,
        machine: MicroArch,
        backend: object | None = None,
        exclude: bool = False,
        model: OptimisationPredictor | None = None,
    ):
        """The model's predictive distribution for one pair.

        One -O3 profile run (the paper's deployment price) plus the
        model's KNN mixture.  ``exclude=True`` applies the §5.1.1
        leave-one-*program*-out guard (the paper's "across programs"
        protocol: the target program's training rows are off-limits,
        other programs measured on the same machine remain fair game) —
        used by the tournament so the model never consults training
        data for the program it is searching.
        """
        if model is None:
            model = self._session.models._require_model()
        resolved, _, profile, code_features = self._session.models._profile(
            program, machine, backend, model
        )
        return model.predict_distribution(
            profile.counters,
            machine,
            exclude_program=resolved.name if exclude else None,
            code_features=code_features,
        )

    def tournament(
        self,
        programs: Sequence[Program | str] | None = None,
        machines: int | Sequence[MicroArch] | None = None,
        *,
        budget: int = 40,
        seeds: Sequence[int] = (0, 1),
        strategies: Sequence[str] | None = None,
        tolerance: float = 0.01,
        backend: object | None = None,
        model: OptimisationPredictor | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> TournamentResult:
        """Run the autotuning tournament on a (program, machine) grid.

        Every registered strategy — the four iterative baselines plus
        the model-guided ones — searches each pair under the same
        budget and seeds; the result carries the leaderboard of
        evaluations- and simulations-to-match-best (see
        :mod:`repro.autotune.tournament` for the accounting rules).

        Defaults: the session scale's programs, the scale's sampled
        machines, and the session's fitted model (fitting it on the
        scale's dataset first if needed).  The model predicts each
        pair's distribution under the §5.1.1 leave-one-out exclusions,
        so a program in the training set never benefits from its own
        training rows.
        """
        session = self._session
        if model is None:
            if session.model is None:
                session.models.fit()
            model = session.model
        resolved_programs = [
            session.program(program)
            for program in (
                programs if programs is not None else session.scale.programs
            )
        ]
        if machines is None:
            resolved_machines = session.machines()
        elif isinstance(machines, int):
            resolved_machines = session.machines(machines)
        else:
            resolved_machines = list(machines)

        def make_evaluator(program: Program, machine: MicroArch) -> Evaluator:
            return self.evaluator(program, machine, backend=backend)

        def distribution_for(program: Program, machine: MicroArch):
            return self._pair_distribution(
                program, machine, backend=backend, exclude=True, model=model
            )

        return run_tournament(
            resolved_programs,
            resolved_machines,
            budget=budget,
            seeds=seeds,
            strategies=strategies,
            make_evaluator=make_evaluator,
            distribution_for=distribution_for,
            tolerance=tolerance,
            progress=progress,
        )


# ---------------------------------------------------------------------- data
class DataFacet(_Facet):
    """The sharded experiment store and dataset lifecycle."""

    def dataset(
        self,
        scale: str | Scale | None = None,
        progress: Callable[[str], None] | None = None,
    ) -> ExperimentData:
        """The (cached) training dataset for a scale (default: session's).

        Builds run through the sharded :mod:`repro.store` store, so an
        interrupted build resumes from its last completed shard; the
        assembled data is bit-identical however it was produced.
        """
        session = self._session
        resolved = session.scale if scale is None else session._resolve_scale(scale)
        store = None if session.use_disk_cache else self.store(resolved)
        data = load_or_build(
            resolved,
            progress=progress,
            use_disk_cache=session.use_disk_cache,
            cache_directory=session.cache_dir,
            jobs=session.jobs,
            executor=session.executor,
            store=store,
        )
        if store is not None and not store.is_complete():
            # The dataset was memoised by an earlier (possibly other-
            # session) build; absorb it so this session's store, status,
            # and dataset stay consistent.
            store.adopt(data.training)
        return data

    def store(self, scale: str | Scale | None = None) -> ExperimentStore:
        """The shard store backing a scale's dataset.

        On disk under the session's cache directory, or — when the
        session was created with ``use_disk_cache=False`` — a per-scale
        in-memory store (same API, nothing written) owned by this
        session, so partial builds survive across calls.
        """
        session = self._session
        resolved = session.scale if scale is None else session._resolve_scale(scale)
        if not session.use_disk_cache:
            key = resolved.fingerprint()
            store = session._memory_stores.get(key)
            if store is None:
                store = ExperimentStore(grid_for_scale(resolved), root=None)
                session._memory_stores[key] = store
            return store
        return experiment_store(resolved, cache_directory=session.cache_dir)

    def status(self, scale: str | Scale | None = None) -> StoreStatus:
        """Shard-completion snapshot of a scale's store (read-only)."""
        session = self._session
        resolved = session.scale if scale is None else session._resolve_scale(scale)
        if not session.use_disk_cache:
            return self.store(resolved).status()
        return store_status(resolved, cache_directory=session.cache_dir)

    def build(
        self,
        scale: str | Scale | None = None,
        max_shards: int | None = None,
        progress: Callable[[str], None] | None = None,
        store: ExperimentStore | None = None,
        lease_ttl: float | None = None,
    ) -> int:
        """Advance a scale's store by up to ``max_shards`` shards.

        Each completed shard is checkpointed, so this can be called
        repeatedly — across processes, interruptions, and executors — and
        the store converges on the same bit-identical dataset.  Pass an
        already-opened ``store`` to avoid re-sampling the grid.  Returns
        the number of shards computed by this call.  ``lease_ttl`` only
        matters for the ``cluster`` executor (lease staleness horizon).
        """
        session = self._session
        if store is None:
            store = self.store(scale)
        runner = ExperimentRunner(
            store,
            compiler=session.compiler,
            jobs=session.jobs,
            executor=session.executor,
            lease_ttl=lease_ttl,
        )
        return runner.run(max_shards=max_shards, progress=progress)


# -------------------------------------------------------------------- models
class ModelsFacet(_Facet):
    """Fit, predict, rank, and persist models; the versioned registry."""

    @property
    def model(self) -> OptimisationPredictor | None:
        """The session's fitted model."""
        return self._session.model

    @property
    def fingerprint(self) -> str | None:
        """The training-data fingerprint of the fitted model."""
        return self._session.model_fingerprint

    def fit(
        self,
        training: TrainingSet | None = None,
        *,
        scale: str | Scale | None = None,
        progress: Callable[[str], None] | None = None,
        k: int = DEFAULT_K,
        beta: float = DEFAULT_BETA,
        quantile: float = DEFAULT_QUANTILE,
        feature_mode: str = "both",
    ) -> OptimisationPredictor:
        """Fit the paper's model, remembering it and its data fingerprint."""
        session = self._session
        if training is None:
            training = session.data.dataset(scale, progress=progress).training
        model = OptimisationPredictor(
            k=k,
            beta=beta,
            quantile=quantile,
            feature_mode=feature_mode,
        ).fit(training)
        session.model = model
        session.model_fingerprint = training.fingerprint()
        return model

    def _require_model(self) -> OptimisationPredictor:
        if self._session.model is None:
            raise RuntimeError(
                "no model: call models.fit(), models.load(), or "
                "models.load_registered() first"
            )
        return self._session.model

    def _profile(
        self,
        program: Program | str,
        machine: MicroArch,
        backend: object | None,
        model: OptimisationPredictor | None = None,
    ):
        """The §3.4 profiling step for one pair (default model: the
        session's): one -O3 run plus optional code features."""
        session = self._session
        if model is None:
            model = self._require_model()
        resolved = session.program(program)
        active_backend = (
            session.backend if backend is None else resolve_backend(backend)
        )
        ((profile, code_features),) = profile_pairs(
            model, active_backend, [(session.compile(resolved), machine)]
        )
        return resolved, active_backend, profile, code_features

    def predict(
        self,
        program: Program | str,
        machine: MicroArch,
        *,
        exclude_program: str | None = None,
        exclude_machine: MicroArch | None = None,
        evaluate: bool = True,
        backend: object | None = None,
    ) -> PredictionResult:
        """The §3.4 deployment flow: one -O3 profile run, then predict.

        With ``evaluate=True`` the predicted setting is compiled and
        simulated too, so the result carries its speedup over -O3.
        """
        session = self._session
        resolved, active_backend, profile, code_features = self._profile(
            program, machine, backend
        )
        setting = session.model.predict(
            profile.counters,
            machine,
            exclude_program=exclude_program,
            exclude_machine=exclude_machine,
            code_features=code_features,
        )
        predicted_run = None
        if evaluate:
            (predicted_run,) = Pricer(
                resolved, session.compiler, active_backend.run
            ).price([setting], [machine])
        return PredictionResult(
            program=resolved.name,
            machine=machine,
            setting=setting,
            profile=profile,
            predicted_run=predicted_run,
        )

    def rank(
        self,
        program: Program | str,
        machine: MicroArch,
        top: int = 5,
        *,
        backend: object | None = None,
    ) -> RankedPrediction:
        """The deployment flow, answered as the top-N ranked settings.

        ``settings[0]`` is the distribution's mode — exactly what
        :meth:`predict` returns — followed by the next most probable
        settings under the model's predictive distribution.  This is the
        object ``POST /predict`` serialises, bit-for-bit.
        """
        resolved, _, profile, code_features = self._profile(
            program, machine, backend
        )
        return self.rank_counters(
            profile.counters,
            machine,
            top,
            code_features=code_features,
            program=resolved.name,
        )

    def rank_counters(
        self,
        counters: PerfCounters,
        machine: MicroArch,
        top: int = 5,
        *,
        code_features=None,
        program: str | None = None,
    ) -> RankedPrediction:
        """Ranked settings straight from a feature vector (no profiling run)."""
        query = {
            "counters": counters,
            "machine": machine,
            "top": top,
            "code_features": code_features,
            "program": program,
        }
        return ranked_prediction_many(self._require_model(), [query])[0]

    # ------------------------------------------------------------ persistence
    def save(self, path: str | Path) -> Path:
        """Persist the fitted model plus its training fingerprint."""
        session = self._session
        if session.model is None:
            raise RuntimeError("no model to save: call models.fit() first")
        return save_predictor(
            session.model,
            path,
            fingerprint=session.model_fingerprint,
            metadata={"scale": session.scale.name},
        )

    def load(self, path: str | Path) -> OptimisationPredictor:
        """Load a persisted model file into this session."""
        session = self._session
        predictor, provenance = load_predictor(path)
        session.model = predictor
        session.model_fingerprint = provenance["fingerprint"]
        return predictor

    # --------------------------------------------------------------- registry
    def registry(self, root: str | Path | None = None) -> ModelRegistry:
        """The session's model registry (default: ``<cache>/registry``)."""
        if root is None:
            root = registry_root(self._session.cache_dir)
        return ModelRegistry(root)

    def register(
        self,
        registry: ModelRegistry | str | Path | None = None,
        metadata: dict | None = None,
        promote: bool = False,
        channel: str = DEFAULT_CHANNEL,
    ) -> ModelVersion:
        """Register the fitted model as a new immutable registry version.

        With ``promote=True`` the new version is promoted on ``channel``
        (the default channel unless named), so one registry can serve a
        model per scale or per machine space side by side.
        """
        session = self._session
        if session.model is None:
            raise RuntimeError("no model to register: call models.fit() first")
        if not isinstance(registry, ModelRegistry):
            registry = self.registry(registry)
        merged = {"scale": session.scale.name}
        merged.update(metadata or {})
        return registry.register(
            session.model,
            fingerprint=session.model_fingerprint,
            metadata=merged,
            promote=promote,
            channel=channel,
        )

    def load_registered(
        self,
        version: int | None = None,
        registry: ModelRegistry | str | Path | None = None,
        channel: str = DEFAULT_CHANNEL,
    ) -> ModelVersion:
        """Load a registry model (default: the channel's promoted one)."""
        session = self._session
        if not isinstance(registry, ModelRegistry):
            registry = self.registry(registry)
        predictor, entry = registry.load(version, channel=channel)
        session.model = predictor
        session.model_fingerprint = entry.fingerprint
        return entry


# ------------------------------------------------------------------ protocol
class ProtocolFacet(_Facet):
    """The resumable paper protocol: fold store, pipeline, report."""

    def store(
        self, data: ExperimentData | None = None, scale: str | Scale | None = None
    ) -> FoldStore:
        """The fold store backing a scale's paper-protocol run.

        On disk under the session's cache directory, or — with
        ``use_disk_cache=False`` — a per-scale in-memory store owned by
        this session so partial protocol runs survive across calls.
        Opening the store requires the training matrix (the protocol
        fingerprint covers it), so the dataset is built first if needed.
        """
        session = self._session
        if data is None:
            data = session.data.dataset(scale)
        variants = protocol_variants(
            with_code=data.training.code_features is not None
        )
        fingerprint = protocol_fingerprint(data.training, variants)
        programs = list(data.training.program_names)
        metadata = {"scale": data.scale.name}
        if not session.use_disk_cache:
            store = session._memory_fold_stores.get(fingerprint)
            if store is None:
                store = FoldStore(
                    fingerprint, variants, programs, root=None, metadata=metadata
                )
                session._memory_fold_stores[fingerprint] = store
            return store
        return FoldStore(
            fingerprint,
            variants,
            programs,
            root=protocol_store_root(data.scale, fingerprint, session.cache_dir),
            metadata=metadata,
        )

    def run(
        self,
        scale: str | Scale | None = None,
        *,
        only: str | Sequence[str] | None = None,
        max_folds: int | None = None,
        jobs: int | None = None,
        executor: str | None = None,
        progress: Callable[[str], None] | None = None,
        store: FoldStore | None = None,
        on_fold: Callable[[FoldKey, int, int], None] | None = None,
        formats: Sequence[str] = ("md", "json"),
        lease_ttl: float | None = None,
    ) -> ProtocolRun:
        """Run the full paper protocol — resumably — and render the artifact.

        Builds (or resumes) the scale's dataset through the experiment
        store, executes the leave-one-out + ablation fold grid through
        the checkpointing :class:`EvaluationPipeline`, and renders the
        requested artifacts as markdown + JSON.  Every fold is
        checkpointed as it completes, so a killed run resumes with zero
        re-simulation, and the rendered report is byte-identical however
        the run was interrupted or parallelised.

        Args:
            only: artifact subset (``"fig6,headline"`` or a sequence);
                folds that only unrequested artifacts need are not run.
            max_folds: checkpoint at most this many folds then stop
                (``report`` is ``None`` if that leaves the grid
                incomplete; call again to resume).
            jobs/executor: override the session defaults for this run.
            on_fold: called as ``on_fold(key, completed, total)`` the
                moment each fold checkpoints — the hook the prediction
                service streams live NDJSON progress events from.
            formats: report representations; add ``"svg"`` for the
                headline speedup figure (needs the ``base`` variant).
            lease_ttl: ``cluster`` executor only — seconds without a
                heartbeat before a fold lease counts as stale.
        """
        session = self._session
        data = session.data.dataset(scale, progress=progress)
        if store is None:
            store = self.store(data)
        artifacts = resolve_artifacts(only)
        with_code = data.training.code_features is not None
        variant_keys = variants_for_artifacts(artifacts, with_code=with_code)
        pipeline = EvaluationPipeline(
            data.training,
            data.programs,
            store,
            jobs=session.jobs if jobs is None else jobs,
            executor=session.executor if executor is None else executor,
            compiler=session.compiler,
            lease_ttl=lease_ttl,
        )
        stats = pipeline.run(
            variants=variant_keys,
            max_folds=max_folds,
            progress=progress,
            on_fold=on_fold,
        )
        if not store.is_complete(variant_keys):
            return ProtocolRun(stats=stats, status=store.status(), report=None)
        protocol = pipeline.assemble(variants=variant_keys)
        report = render_report(data, protocol, only=artifacts, formats=formats)
        return ProtocolRun(stats=stats, status=store.status(), report=report)
