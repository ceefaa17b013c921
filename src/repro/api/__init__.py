"""repro.api — the unified front door to the reproduction pipeline.

Everything the CLI, the experiments, the examples, the prediction
service, and downstream users need goes through :class:`Session`, whose
surface is split into four lazily-constructed facets:

* **``session.eval``** — compile-and-simulate (program, setting, machine)
  triples, optionally in parallel, against any registered
  :class:`SimulatorBackend` (the fast analytic model or the trace-driven
  reference tier); plus the iterative-compilation search baselines.
* **``session.models``** — fit/predict/rank, file persistence, and the
  versioned :class:`ModelRegistry` (register/promote/rollback) the
  prediction service deploys from.
* **``session.data``** — the sharded, resumable experiment store.
* **``session.protocol``** — the checkpointed paper-protocol fold grid.

:class:`Session` owns only the shared state (compiler, caches, backend,
fitted model); the pre-v2 flat methods (``session.fit``,
``session.evaluate_batch``, ...) were removed in favour of the facets.
"""

from repro.api.backends import (
    BACKENDS,
    AnalyticBackend,
    SimulatorBackend,
    TraceBackend,
    resolve_backend,
)
from repro.parallel import EXECUTORS, resolve_jobs, run_batch
from repro.api.facets import (
    DataFacet,
    EvalFacet,
    ModelsFacet,
    ProtocolFacet,
)
from repro.api.persistence import load_predictor, save_predictor
from repro.api.registry import (
    DEFAULT_CHANNEL,
    ModelRegistry,
    ModelVersion,
    RegistryError,
    registry_root,
)
from repro.api.session import SEARCH_ALGORITHMS, ProtocolRun, Session
from repro.api.types import (
    EvaluationRequest,
    EvaluationResult,
    PredictionResult,
    RankedPrediction,
    RankedSetting,
    SearchOutcome,
    SearchRequest,
)

__all__ = [
    "AnalyticBackend",
    "BACKENDS",
    "DEFAULT_CHANNEL",
    "DataFacet",
    "EXECUTORS",
    "EvalFacet",
    "EvaluationRequest",
    "EvaluationResult",
    "ModelRegistry",
    "ModelVersion",
    "ModelsFacet",
    "PredictionResult",
    "ProtocolFacet",
    "ProtocolRun",
    "RankedPrediction",
    "RankedSetting",
    "RegistryError",
    "SEARCH_ALGORITHMS",
    "SearchOutcome",
    "SearchRequest",
    "Session",
    "SimulatorBackend",
    "TraceBackend",
    "load_predictor",
    "registry_root",
    "resolve_backend",
    "resolve_jobs",
    "run_batch",
    "save_predictor",
]
