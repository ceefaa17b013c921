"""Typed request/result objects of the :mod:`repro.api` façade.

Every Session operation speaks these dataclasses instead of positional
tuples: a request names *what* to run (program, flag setting, machine,
backend) and a result carries the full simulation outcome plus enough
provenance (backend name, canonical setting) to reproduce it.  Requests
and results are plain picklable dataclasses so batches can cross process
boundaries unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.flags import FLAG_NAMES, FlagSetting
from repro.compiler.ir import Program
from repro.machine.params import MicroArch
from repro.search.evaluator import evaluations_to_reach
from repro.sim.analytic import SimulationResult
from repro.sim.counters import PerfCounters


@dataclass(frozen=True)
class EvaluationRequest:
    """One compile-and-simulate unit of work.

    Attributes:
        program: a :class:`Program` or a MiBench benchmark name.
        machine: the microarchitecture to run on.
        setting: the flag setting to compile with (default: -O3).
        backend: simulator backend name or instance overriding the
            session default (``"analytic"`` or ``"trace"``).
    """

    program: Program | str
    machine: MicroArch
    setting: FlagSetting | None = None
    backend: object | None = None


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of one :class:`EvaluationRequest`."""

    program: str
    machine: MicroArch
    setting: FlagSetting
    backend: str
    simulation: SimulationResult

    @property
    def runtime(self) -> float:
        """Runtime in seconds (what speedups are computed from)."""
        return self.simulation.seconds

    @property
    def cycles(self) -> float:
        return self.simulation.cycles

    @property
    def counters(self) -> PerfCounters:
        return self.simulation.counters

    @property
    def energy_nj(self) -> float:
        return self.simulation.energy_nj


@dataclass(frozen=True)
class PredictionResult:
    """Outcome of the paper's §3.4 deployment flow for one pair.

    The model sees only the -O3 profiling run's counters; ``predicted_run``
    is the (optional) verification simulation of the predicted setting.
    """

    program: str
    machine: MicroArch
    setting: FlagSetting
    profile: SimulationResult
    predicted_run: SimulationResult | None = None

    @property
    def speedup_over_o3(self) -> float | None:
        """Speedup of the predicted setting over -O3 (> 1 is faster)."""
        if self.predicted_run is None:
            return None
        return self.profile.seconds / self.predicted_run.seconds


@dataclass(frozen=True)
class RankedSetting:
    """One entry of a ranked prediction: a setting and its model probability."""

    rank: int
    setting: FlagSetting
    probability: float

    def payload(self) -> dict:
        """JSON-ready form.

        The setting ships uncanonicalised — exactly the mode
        :meth:`ModelsFacet.predict` deploys — so rank 1 of a ``/predict``
        response equals the flat prediction index-for-index.
        """
        return {
            "rank": self.rank,
            "indices": list(self.setting.as_indices()),
            "flags": dict(zip(FLAG_NAMES, self.setting.values())),
            "probability": self.probability,
        }


@dataclass(frozen=True)
class RankedPrediction:
    """The prediction service's answer: the top-N settings for one query.

    ``settings[0]`` is always the distribution's mode — the same setting
    :meth:`ModelsFacet.predict` returns — and :meth:`payload` is the
    *exact* JSON body ``POST /predict`` serves (the service and the
    in-process facet share this object, so they agree bit-for-bit).
    """

    program: str | None
    machine: MicroArch
    settings: tuple[RankedSetting, ...]

    @property
    def best(self) -> FlagSetting:
        return self.settings[0].setting

    def payload(self) -> dict:
        import dataclasses

        return {
            "program": self.program,
            "machine": dataclasses.asdict(self.machine),
            "settings": [entry.payload() for entry in self.settings],
        }


@dataclass(frozen=True)
class SearchRequest:
    """One iterative-compilation run on a (program, machine) pair.

    Attributes:
        program: a :class:`Program` or MiBench name.
        machine: the target microarchitecture.
        algorithm: one of the registered algorithms (see
            :data:`repro.api.SEARCH_ALGORITHMS`).
        budget: maximum number of distinct evaluations.
        seed: RNG seed for the stochastic drivers.
        backend: simulator backend override, as in EvaluationRequest.
    """

    program: Program | str
    machine: MicroArch
    algorithm: str = "random"
    budget: int = 100
    seed: int = 0
    backend: object | None = None


@dataclass(frozen=True)
class SearchOutcome:
    """A search's best point, its convergence data, and the -O3 reference."""

    program: str
    machine: MicroArch
    algorithm: str
    best_setting: FlagSetting
    best_runtime: float
    o3_runtime: float
    evaluations: int
    trajectory: tuple[float, ...] = field(default_factory=tuple)

    @property
    def best_speedup(self) -> float:
        return self.o3_runtime / self.best_runtime

    def evaluations_to_reach(self, target_runtime: float) -> int | None:
        """First evaluation index (1-based) reaching ``target_runtime``."""
        return evaluations_to_reach(self.trajectory, target_runtime)
