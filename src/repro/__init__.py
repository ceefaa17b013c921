"""repro — reproduction of "Portable Compiler Optimisation Across Embedded
Programs and Microarchitectures using Machine Learning" (Dubach et al.,
MICRO 2009).

The package is organised around the paper's Figure 2 pipeline:

* :mod:`repro.compiler` — a from-scratch mini optimising compiler standing in
  for gcc 4.2: a typed IR, one genuine transformation pass per optimisation
  flag of the paper's Figure 3, a register allocator with a spill model, and
  a ``CompiledBinary`` artefact consumed by the simulator.
* :mod:`repro.machine` — the Table 2 microarchitecture design space (288,000
  configurations), the XScale reference point, a Cacti-style latency model
  and the uniform sampler used to draw the paper's 200 configurations.
* :mod:`repro.sim` — the Xtrem stand-in: an XScale-style in-order timing
  model with set-associative caches and a BTB, exposed both as a fast
  analytic executor and a trace-driven reference simulator, producing cycle
  counts plus the 11 Table 1 performance counters.
* :mod:`repro.programs` — the MiBench stand-in: a deterministic synthetic
  program generator plus the 35 per-program specs of the paper's Figure 4.
* :mod:`repro.core` — the paper's contribution: per-pair IID multinomial
  distributions over good optimisations (eqs. 2-5), the K-nearest-neighbour
  predictive distribution (eq. 6) and its mode (eq. 1), leave-one-out
  cross-validation, and the mutual-information analyses of Figures 8 and 9.
* :mod:`repro.search` — iterative-compilation baselines: uniform random
  search (which defines the paper's "Best"), hill climbing, a genetic
  algorithm and combined elimination.
* :mod:`repro.experiments` — one reproduction entry point per table and
  figure in the paper's evaluation.
* :mod:`repro.store` — the sharded, resumable experiment store: dataset
  generation checkpointed as append-only fingerprinted shards, built
  through a compile-once/simulate-many hot path, bit-identical however
  (and however often) a run is interrupted.
* :mod:`repro.api` — the unified façade: the faceted :class:`Session`
  (``data``/``models``/``eval``/``protocol``) plus the versioned model
  registry deployments serve from.
* :mod:`repro.service` — the deployable end product: a stdlib-only HTTP
  prediction service (``repro-experiments serve``) answering ranked
  flag-setting queries from the registry's promoted model and streaming
  background protocol-job progress as NDJSON.
"""

from repro.compiler import (
    CompiledBinary,
    Compiler,
    FlagSetting,
    FlagSpace,
    o3_setting,
)
from repro.core import OptimisationPredictor, TrainingSet
from repro.machine import MicroArch, MicroArchSpace, xscale
from repro.programs import build_program, mibench_names, mibench_program
from repro.sim import SimulationResult

# The unified façade (preferred entry point). The direct imports above are
# kept as thin re-exports so pre-Session code continues to work.
from repro.api import (
    AnalyticBackend,
    EvaluationRequest,
    EvaluationResult,
    PredictionResult,
    SearchOutcome,
    SearchRequest,
    Session,
    SimulatorBackend,
    TraceBackend,
)

__version__ = "1.1.0"

__all__ = [
    "AnalyticBackend",
    "CompiledBinary",
    "Compiler",
    "EvaluationRequest",
    "EvaluationResult",
    "FlagSetting",
    "FlagSpace",
    "MicroArch",
    "MicroArchSpace",
    "OptimisationPredictor",
    "PredictionResult",
    "SearchOutcome",
    "SearchRequest",
    "Session",
    "SimulationResult",
    "SimulatorBackend",
    "TraceBackend",
    "TrainingSet",
    "build_program",
    "mibench_names",
    "mibench_program",
    "o3_setting",
    "xscale",
]
