"""Pluggable simulator backends behind one protocol.

The paper's toolchain has two simulation tiers: the fast analytic model
used for the 7-million-run training protocol, and the slow trace-driven
reference simulator used to validate it.  The :class:`SimulatorBackend`
protocol makes the two interchangeable behind a single
``run(binary, machine) -> SimulationResult`` call, so every Session
operation (evaluate, batch, search, predict) works against either tier.

Backends are small frozen dataclasses: stateless, hashable, and picklable,
so a batch tagged with a backend can be shipped to worker processes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.compiler.binary import CompiledBinary
from repro.machine.cacti import dcache_timing, icache_timing
from repro.machine.params import MicroArch
from repro.sim.analytic import (
    MISPREDICT_PENALTY,
    SEQUENTIAL_FETCH_OVERLAP,
    SimulationResult,
    simulate_analytic,
)
from repro.sim.trace import simulate_trace


@runtime_checkable
class SimulatorBackend(Protocol):
    """Anything that turns (binary, machine) into a SimulationResult."""

    name: str

    def run(self, binary: CompiledBinary, machine: MicroArch) -> SimulationResult:
        ...


@dataclass(frozen=True)
class AnalyticBackend:
    """The fast tier: the first-order analytic timing model."""

    name: str = dataclasses.field(default="analytic", init=False)

    def run(self, binary: CompiledBinary, machine: MicroArch) -> SimulationResult:
        return simulate_analytic(binary, machine)


@dataclass(frozen=True)
class TraceBackend:
    """The reference tier: trace-measured cache/BTB behaviour.

    Replays the binary's representative reference streams through the
    true-LRU cache and BTB simulators, then prices the *measured* miss
    rates with the same cost formulas the analytic model uses for its
    issue/dependence components (which the trace tier does not model).
    Slower but structurally faithful where the analytic capacity formulas
    approximate.
    """

    name: str = dataclasses.field(default="trace", init=False)
    max_loop_iterations: int = 256
    seed: int = 7

    def run(self, binary: CompiledBinary, machine: MicroArch) -> SimulationResult:
        base = simulate_analytic(binary, machine)
        trace = simulate_trace(
            binary, machine, self.max_loop_iterations, self.seed
        )

        ic_timing = icache_timing(machine)
        dc_timing = dcache_timing(machine)
        fetches = max(binary.dyn_insns, 1.0)
        memory_ops = max(binary.dyn_memory, 1.0)
        ic_misses = trace.icache_miss_rate * fetches
        dc_misses = trace.dcache_miss_rate * memory_ops
        mispredict_rate = min(
            1.0,
            (1.0 - binary.mean_predictability) + 0.5 * trace.btb_miss_rate,
        )
        penalty = MISPREDICT_PENALTY + (ic_timing.hit_cycles - 1.0)

        breakdown = dataclasses.replace(
            base.breakdown,
            icache_misses=(
                ic_misses * ic_timing.miss_penalty_cycles * SEQUENTIAL_FETCH_OVERLAP
            ),
            dcache_misses=dc_misses * dc_timing.miss_penalty_cycles,
            branch_mispredictions=(
                binary.dyn_branches * mispredict_rate * penalty
                + binary.dyn_taken * trace.btb_miss_rate * 2.0
            ),
        )
        cycles = max(breakdown.total(), 1.0)
        seconds = cycles * machine.cycle_ns * 1e-9

        # Per-cycle counter rates rescale with the new cycle count; the
        # measured miss rates replace the modelled ones outright.
        rescale = base.cycles / cycles
        counters = dataclasses.replace(
            base.counters,
            ipc=base.counters.ipc * rescale,
            dec_acc_rate=base.counters.dec_acc_rate * rescale,
            reg_acc_rate=base.counters.reg_acc_rate * rescale,
            bpred_acc_rate=base.counters.bpred_acc_rate * rescale,
            icache_acc_rate=base.counters.icache_acc_rate * rescale,
            dcache_acc_rate=base.counters.dcache_acc_rate * rescale,
            icache_miss_rate=min(trace.icache_miss_rate, 1.0),
            dcache_miss_rate=min(trace.dcache_miss_rate, 1.0),
        )

        detail = dict(base.detail)
        detail.update(
            ic_misses=ic_misses,
            dc_misses=dc_misses,
            btb_miss_rate=trace.btb_miss_rate,
            mispredict_rate=mispredict_rate,
        )
        return SimulationResult(
            cycles=cycles,
            seconds=seconds,
            counters=counters,
            breakdown=breakdown,
            energy_nj=base.energy_nj,
            detail=detail,
        )


#: Registered backend constructors, by name.
BACKENDS: dict[str, type] = {
    "analytic": AnalyticBackend,
    "trace": TraceBackend,
}


def resolve_backend(spec: object) -> SimulatorBackend:
    """Turn a backend name, class, or instance into a backend instance."""
    if spec is None:
        return AnalyticBackend()
    if isinstance(spec, str):
        try:
            return BACKENDS[spec]()
        except KeyError:
            raise ValueError(
                f"unknown backend {spec!r}; choose from {sorted(BACKENDS)}"
            ) from None
    if isinstance(spec, type):
        return spec()
    if isinstance(spec, SimulatorBackend):
        return spec
    raise TypeError(f"not a simulator backend: {spec!r}")
