"""The Xtrem stand-in: XScale-style timing simulation in two tiers."""

from repro.sim.analytic import (
    CycleBreakdown,
    SimulationResult,
    access_dcache_misses,
    effective_capacity,
    loop_icache_misses,
    simulate_analytic,
)
from repro.sim.branch import BimodalPredictor, BranchTargetBuffer, BranchUnit
from repro.sim.cache import CacheStats, SetAssociativeCache
from repro.sim.counters import COUNTER_NAMES, PerfCounters
from repro.sim.executor import observable_outputs
from repro.sim.trace import TraceResult, simulate_trace
from repro.sim.vector import (
    BinarySignature,
    MachineMatrix,
    VectorResults,
    simulate_many,
)

__all__ = [
    "BimodalPredictor",
    "BinarySignature",
    "BranchTargetBuffer",
    "BranchUnit",
    "COUNTER_NAMES",
    "CacheStats",
    "CycleBreakdown",
    "MachineMatrix",
    "PerfCounters",
    "SetAssociativeCache",
    "SimulationResult",
    "TraceResult",
    "VectorResults",
    "access_dcache_misses",
    "effective_capacity",
    "loop_icache_misses",
    "observable_outputs",
    "simulate_analytic",
    "simulate_many",
    "simulate_trace",
]
