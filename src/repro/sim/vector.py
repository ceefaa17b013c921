"""The vectorised simulate-many kernel: one numpy pass over (S × M).

:func:`simulate_many` computes the runtimes and the 11 Table 1 counters
:func:`~repro.sim.analytic.simulate_analytic` computes, for S binaries ×
M machines in one broadcast pass instead of S×M scalar calls.  It serves
one caller, :func:`repro.store.compute.compute_shard`, whose dense
(settings × machine chunk) grids amortise the kernel's fixed cost of
about a millisecond per call (signatures, padding, the machine matrix).
Every other pricing path — search, protocol folds, ``session.eval``,
``/predict`` — prices its few (binary, machine) pairs one by one through
a backend's ``run``, which beats the kernel at those shapes.

Bit-compatibility is the contract, not an aspiration: the kernel is
*exactly* equal to the scalar model, float for float, because every
operation is ordered the same way the scalar code orders it:

* all arrays are float64 and every elementwise op (``+ - * /``,
  ``minimum``/``maximum``, comparisons) is the same IEEE-754 double
  operation the scalar expressions perform;
* variable-length structures (stall-profile entries, loops, access
  streams) are padded to the batch maximum and *iterated* — the kernel
  loops over the padded axis accumulating ``[S, M]`` slabs, so per-pair
  accumulation order matches the scalar loops term by term (masked-out
  padding contributes an exact ``+ 0.0``);
* machine-dependent Cacti quantities (hit/miss cycles, effective
  capacities) are computed per machine by the *scalar* Cacti model when
  a :class:`MachineMatrix` is built, so no transcendental function is
  ever re-evaluated by a (potentially differently-rounded) numpy
  routine.

The scalar model stays as the executable reference; the hypothesis
equivalence suite (``tests/test_sim_vector.py``) asserts pairwise exact
equality of seconds and counters over random programs × settings ×
machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.compiler.binary import CompiledBinary
from repro.machine.cacti import dcache_timing, icache_timing
from repro.machine.params import MicroArch
from repro.sim.analytic import (
    CALL_OVERHEAD_CYCLES,
    FIXED_LATENCY,
    MISPREDICT_PENALTY,
    REENTRY_FRACTION,
    SEQUENTIAL_FETCH_OVERLAP,
    STORE_MISS_FACTOR,
    TABLE_LOCALITY,
    THRASH_RAMP,
    effective_capacity,
)
from repro.sim.counters import COUNTER_NAMES

#: Access-kind codes for the padded access arrays (order matches the
#: scalar ``access_dcache_misses`` branch order).
KIND_STACK, KIND_STREAM, KIND_TABLE, KIND_CHASE = 0, 1, 2, 3

_KIND_CODES = {
    "stack": KIND_STACK,
    "stream": KIND_STREAM,
    "table": KIND_TABLE,
    "chase": KIND_CHASE,
}

@dataclass(frozen=True)
class BinarySignature:
    """A :class:`CompiledBinary` flattened to machine-independent arrays.

    Built once per binary (O(loops + accesses)), then reusable across any
    number of machine matrices.  Array layouts:

    * ``stall_*[E]`` — one row per ``stall_profile`` entry, in the dict's
      insertion order (the order the scalar model accumulates in);
    * ``loop_*[L]`` — one row per loop, in ``binary.loops`` order;
    * ``acc_*[A]`` — one row per aggregated access stream: every loop's
      accesses in loop order, then the flat accesses, exactly the order
      the scalar d-cache loop visits them.  ``acc_iterations`` carries
      the owning loop's iteration count (1.0 for flat accesses).
    """

    program_name: str
    # --- whole-binary scalars -------------------------------------------
    dyn_insns: float
    dyn_memory: float
    dyn_branches: float
    dyn_taken: float
    dyn_calls: float
    code_bytes: float
    branch_sites: float
    mean_predictability: float
    aligned_taken_fraction: float
    reg_reads: float
    mix_alu: float
    mix_mac: float
    mix_shift: float
    # --- stall profile ---------------------------------------------------
    stall_is_load: np.ndarray
    stall_fixed_latency: np.ndarray
    stall_distance: np.ndarray
    stall_count: np.ndarray
    # --- loops -----------------------------------------------------------
    loop_span: np.ndarray
    loop_entries: np.ndarray
    loop_iterations: np.ndarray
    loop_has_parent: np.ndarray
    loop_parent_span: np.ndarray
    # --- access streams --------------------------------------------------
    acc_kind: np.ndarray
    acc_region_bytes: np.ndarray
    acc_stride: np.ndarray
    acc_count: np.ndarray
    acc_is_store: np.ndarray
    acc_iterations: np.ndarray

    @classmethod
    def from_binary(cls, binary: CompiledBinary) -> "BinarySignature":
        entries = list(binary.stall_profile.items())
        stall_is_load = np.array(
            [kind == "load" for (kind, _), _ in entries], dtype=bool
        )
        stall_fixed_latency = np.array(
            [FIXED_LATENCY.get(kind, 1.0) for (kind, _), _ in entries], dtype=float
        )
        stall_distance = np.array(
            [distance for (_, distance), _ in entries], dtype=float
        )
        stall_count = np.array([count for _, count in entries], dtype=float)

        span_by_key = {loop.key: loop.code_bytes for loop in binary.loops}
        loops = binary.loops
        loop_span = np.array([float(l.code_bytes) for l in loops], dtype=float)
        loop_entries = np.array([l.entries for l in loops], dtype=float)
        loop_iterations = np.array([l.iterations for l in loops], dtype=float)
        loop_has_parent = np.array(
            [l.parent is not None for l in loops], dtype=bool
        )
        loop_parent_span = np.array(
            [
                float(span_by_key.get(l.parent, 0)) if l.parent is not None else 0.0
                for l in loops
            ],
            dtype=float,
        )

        kinds: list[int] = []
        regions: list[float] = []
        strides: list[float] = []
        counts: list[float] = []
        stores: list[bool] = []
        iters: list[float] = []
        for loop in binary.loops:
            for access in loop.accesses:
                _append_access(
                    access, loop.iterations, kinds, regions, strides, counts,
                    stores, iters,
                )
        for access in binary.flat_accesses:
            _append_access(
                access, 1.0, kinds, regions, strides, counts, stores, iters
            )

        return cls(
            program_name=binary.program_name,
            dyn_insns=float(binary.dyn_insns),
            dyn_memory=float(binary.dyn_memory),
            dyn_branches=float(binary.dyn_branches),
            dyn_taken=float(binary.dyn_taken),
            dyn_calls=float(binary.dyn_calls),
            code_bytes=float(binary.code_bytes),
            branch_sites=float(binary.branch_sites),
            mean_predictability=float(binary.mean_predictability),
            aligned_taken_fraction=float(binary.aligned_taken_fraction),
            reg_reads=float(binary.reg_reads),
            mix_alu=float(binary.mix["alu"]),
            mix_mac=float(binary.mix["mac"]),
            mix_shift=float(binary.mix["shift"]),
            stall_is_load=stall_is_load,
            stall_fixed_latency=stall_fixed_latency,
            stall_distance=stall_distance,
            stall_count=stall_count,
            loop_span=loop_span,
            loop_entries=loop_entries,
            loop_iterations=loop_iterations,
            loop_has_parent=loop_has_parent,
            loop_parent_span=loop_parent_span,
            acc_kind=np.array(kinds, dtype=np.int8),
            acc_region_bytes=np.array(regions, dtype=float),
            acc_stride=np.array(strides, dtype=float),
            acc_count=np.array(counts, dtype=float),
            acc_is_store=np.array(stores, dtype=bool),
            acc_iterations=np.array(iters, dtype=float),
        )


def _append_access(access, iterations, kinds, regions, strides, counts, stores, iters):
    try:
        kinds.append(_KIND_CODES[access.kind])
    except KeyError:
        raise ValueError(f"unknown region kind {access.kind!r}") from None
    regions.append(float(access.region_bytes))
    strides.append(float(access.stride))
    counts.append(float(access.count))
    stores.append(bool(access.is_store))
    iters.append(float(iterations))


@dataclass(frozen=True)
class MachineMatrix:
    """The Cacti timing model vectorised over a machine-parameter matrix.

    Every machine-dependent quantity the kernel's runtimes and counters
    consume, as an ``[M]`` float64 array.  Cacti latencies are computed
    by the scalar (lru-cached) model per machine at construction, so the
    matrix is exact by construction and costs O(M) to build.
    """

    machines: tuple[MicroArch, ...]
    cycle_ns: np.ndarray
    issue_width: np.ndarray
    il1_block: np.ndarray
    ic_capacity: np.ndarray
    ic_hit_cycles: np.ndarray
    ic_miss_penalty: np.ndarray
    dl1_block: np.ndarray
    dc_capacity: np.ndarray
    dc_hit_cycles: np.ndarray
    dc_miss_penalty: np.ndarray
    btb_entries: np.ndarray
    btb_assoc: np.ndarray
    load_latency: np.ndarray

    def __len__(self) -> int:
        return len(self.machines)

    @classmethod
    def from_machines(cls, machines: Sequence[MicroArch]) -> "MachineMatrix":
        machines = tuple(machines)
        ic = [icache_timing(machine) for machine in machines]
        dc = [dcache_timing(machine) for machine in machines]
        arr = lambda values: np.array(values, dtype=float)  # noqa: E731
        dc_hit = arr([t.hit_cycles for t in dc])
        return cls(
            machines=machines,
            cycle_ns=arr([m.cycle_ns for m in machines]),
            issue_width=arr([m.issue_width for m in machines]),
            il1_block=arr([m.il1_block for m in machines]),
            ic_capacity=arr(
                [effective_capacity(m.il1_size, m.il1_assoc) for m in machines]
            ),
            ic_hit_cycles=arr([t.hit_cycles for t in ic]),
            ic_miss_penalty=arr([t.miss_penalty_cycles for t in ic]),
            dl1_block=arr([m.dl1_block for m in machines]),
            dc_capacity=arr(
                [effective_capacity(m.dl1_size, m.dl1_assoc) for m in machines]
            ),
            dc_hit_cycles=dc_hit,
            dc_miss_penalty=arr([t.miss_penalty_cycles for t in dc]),
            btb_entries=arr([m.btb_entries for m in machines]),
            btb_assoc=arr([m.btb_assoc for m in machines]),
            load_latency=1.0 + dc_hit,
        )


@dataclass(frozen=True)
class VectorResults:
    """The (S × M) outputs a shard build reads.

    ``seconds`` is ``[S, M]``; ``counters`` is ``[S, M, 11]`` in
    :data:`~repro.sim.counters.COUNTER_NAMES` order.
    """

    seconds: np.ndarray
    counters: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.seconds.shape


def _pad(rows: Sequence[np.ndarray], dtype) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length rows into ``[S, N_max]`` plus a validity mask."""
    S = len(rows)
    width = max((len(row) for row in rows), default=0)
    fill = False if dtype is bool else 0
    padded = np.full((S, width), fill, dtype=dtype)
    mask = np.zeros((S, width), dtype=bool)
    for s, row in enumerate(rows):
        padded[s, : len(row)] = row
        mask[s, : len(row)] = True
    return padded, mask


def simulate_many(
    signatures: Sequence[BinarySignature],
    machine_matrix: MachineMatrix | Sequence[MicroArch],
) -> VectorResults:
    """Runtimes and counters of every (signature × machine) pair.

    Exactly equal, float for float, to the ``seconds`` and ``counters``
    of ``simulate_analytic`` on each pair — see the module docstring for
    why.
    """
    if not isinstance(machine_matrix, MachineMatrix):
        machine_matrix = MachineMatrix.from_machines(machine_matrix)
    signatures = tuple(signatures)
    mm = machine_matrix
    S, M = len(signatures), len(mm)

    def col(name: str) -> np.ndarray:
        return np.array(
            [getattr(sig, name) for sig in signatures], dtype=float
        )[:, None]

    dyn_insns = col("dyn_insns")
    dyn_memory = col("dyn_memory")
    dyn_branches = col("dyn_branches")
    dyn_taken = col("dyn_taken")
    dyn_calls = col("dyn_calls")
    code_bytes = col("code_bytes")
    branch_sites = col("branch_sites")
    mean_predictability = col("mean_predictability")
    aligned_taken_fraction = col("aligned_taken_fraction")
    reg_reads = col("reg_reads")

    width = mm.issue_width[None, :]
    ic_hit = mm.ic_hit_cycles[None, :]
    ic_penalty = mm.ic_miss_penalty[None, :]
    ic_capacity = mm.ic_capacity[None, :]
    il1_block = mm.il1_block[None, :]
    dc_penalty = mm.dc_miss_penalty[None, :]
    dc_capacity = mm.dc_capacity[None, :]
    dl1_block = mm.dl1_block[None, :]
    load_latency = mm.load_latency[None, :]
    zeros = np.zeros((S, M), dtype=float)

    # --- issue -------------------------------------------------------------
    issue = np.where(
        width == 1.0,
        dyn_insns + zeros,
        np.maximum(np.maximum(dyn_insns / 2.0, dyn_memory), dyn_branches),
    )

    # --- dependence stalls ---------------------------------------------------
    stall_is_load, stall_mask = _pad(
        [sig.stall_is_load for sig in signatures], bool
    )
    stall_fixed, _ = _pad([sig.stall_fixed_latency for sig in signatures], float)
    stall_distance, _ = _pad([sig.stall_distance for sig in signatures], float)
    stall_count, _ = _pad([sig.stall_count for sig in signatures], float)
    stalls = zeros.copy()
    for e in range(stall_mask.shape[1]):
        latency = np.where(
            stall_is_load[:, e, None], load_latency, stall_fixed[:, e, None]
        )
        gap = stall_distance[:, e, None] / width
        stalling = stall_mask[:, e, None] & (latency > gap)
        stalls += np.where(
            stalling, stall_count[:, e, None] * (latency - gap), 0.0
        )

    # --- instruction cache ----------------------------------------------------
    loop_span, loop_mask = _pad([sig.loop_span for sig in signatures], float)
    loop_entries, _ = _pad([sig.loop_entries for sig in signatures], float)
    loop_iterations, _ = _pad([sig.loop_iterations for sig in signatures], float)
    loop_has_parent, _ = _pad([sig.loop_has_parent for sig in signatures], bool)
    loop_parent_span, _ = _pad(
        [sig.loop_parent_span for sig in signatures], float
    )
    ic_misses = code_bytes / il1_block  # one-time cold footprint
    for l in range(loop_mask.shape[1]):
        span = loop_span[:, l, None]
        entries = loop_entries[:, l, None]
        lines = span / il1_block
        cold = np.minimum(entries, 1.0) * lines
        reentry = np.maximum(entries - 1.0, 0.0) * lines * REENTRY_FRACTION
        parent_resident = loop_has_parent[:, l, None] & (
            loop_parent_span[:, l, None] <= ic_capacity
        )
        cold = np.where(parent_resident, cold, cold + reentry)
        thrash_fraction = np.minimum(
            1.0, (span - ic_capacity) / (THRASH_RAMP * ic_capacity)
        )
        misses = np.where(
            span <= ic_capacity,
            cold,
            cold + loop_iterations[:, l, None] * thrash_fraction * lines,
        )
        ic_misses = ic_misses + np.where(loop_mask[:, l, None], misses, 0.0)
    icache_component = ic_misses * ic_penalty * SEQUENTIAL_FETCH_OVERLAP

    # --- fetch bubbles on taken branches ---------------------------------------
    bubble = ic_hit - 0.5 * aligned_taken_fraction
    fetch_bubbles = dyn_taken * np.maximum(bubble, 0.0)

    # --- branch prediction ------------------------------------------------------
    btb_utilisation = 1.0 - 0.3 / mm.btb_assoc[None, :]
    btb_slots = mm.btb_entries[None, :] * btb_utilisation
    sites_safe = np.where(branch_sites > 0.0, branch_sites, 1.0)
    btb_miss_rate = np.where(
        branch_sites > btb_slots, 1.0 - btb_slots / sites_safe, 0.0
    )
    mispredict_rate = np.minimum(
        1.0, (1.0 - mean_predictability) + 0.5 * btb_miss_rate
    )
    penalty = MISPREDICT_PENALTY + (ic_hit - 1.0)
    branch_component = (
        dyn_branches * mispredict_rate * penalty
        + dyn_taken * btb_miss_rate * 2.0
    )

    # --- data cache ----------------------------------------------------------
    acc_kind, acc_mask = _pad([sig.acc_kind for sig in signatures], np.int8)
    acc_region, _ = _pad([sig.acc_region_bytes for sig in signatures], float)
    acc_stride, _ = _pad([sig.acc_stride for sig in signatures], float)
    acc_count, _ = _pad([sig.acc_count for sig in signatures], float)
    acc_is_store, _ = _pad([sig.acc_is_store for sig in signatures], bool)
    acc_iterations, _ = _pad([sig.acc_iterations for sig in signatures], float)
    dc_load_misses = zeros.copy()
    dc_store_misses = zeros.copy()
    for a in range(acc_mask.shape[1]):
        kind = acc_kind[:, a, None]
        region = acc_region[:, a, None]
        stride = acc_stride[:, a, None]
        count = acc_count[:, a, None]
        iterations = acc_iterations[:, a, None]
        region_safe = np.where(region > 0.0, region, 1.0)
        resident = np.where(
            region > 0.0, np.minimum(dc_capacity / region_safe, 1.0), 1.0
        )
        not_resident = 1.0 - resident

        stack_misses = np.minimum(count, region / dl1_block)
        per_access = np.minimum(stride / dl1_block, 1.0)
        swept = iterations * stride
        stream_misses = np.where(
            stride == 0.0,
            np.minimum(count, 1.0),
            np.where(
                swept <= region,
                count * per_access,
                region / dl1_block + count * per_access * not_resident,
            ),
        )
        table_misses = count * not_resident * TABLE_LOCALITY
        chase_misses = count * not_resident

        misses = np.where(
            kind == KIND_STACK,
            stack_misses,
            np.where(
                kind == KIND_STREAM,
                stream_misses,
                np.where(kind == KIND_TABLE, table_misses, chase_misses),
            ),
        )
        valid = acc_mask[:, a, None]
        store = acc_is_store[:, a, None]
        dc_store_misses += np.where(valid & store, misses, 0.0)
        dc_load_misses += np.where(valid & ~store, misses, 0.0)
    dc_misses = dc_load_misses + dc_store_misses
    dcache_component = dc_penalty * (
        dc_load_misses + STORE_MISS_FACTOR * dc_store_misses
    )

    # --- calls -------------------------------------------------------------
    call_overhead = dyn_calls * CALL_OVERHEAD_CYCLES + zeros

    # --- totals (summed in CycleBreakdown.total() order) -----------------------
    cycles = np.maximum(
        issue
        + stalls
        + icache_component
        + fetch_bubbles
        + branch_component
        + dcache_component
        + call_overhead,
        1.0,
    )
    seconds = cycles * mm.cycle_ns[None, :] * 1e-9

    # --- counters ------------------------------------------------------------
    dyn = np.maximum(dyn_insns, 1.0)
    squashed = dyn_branches * mispredict_rate * MISPREDICT_PENALTY
    fetches = dyn + squashed
    memory_ops = np.maximum(dyn_memory, 1.0)
    counters = np.empty((S, M, len(COUNTER_NAMES)), dtype=float)
    counters[:, :, 0] = dyn / cycles  # ipc
    counters[:, :, 1] = fetches / cycles  # dec_acc_rate
    counters[:, :, 2] = reg_reads / cycles  # reg_acc_rate
    counters[:, :, 3] = dyn_branches / cycles  # bpred_acc_rate
    counters[:, :, 4] = fetches / cycles  # icache_acc_rate
    counters[:, :, 5] = np.minimum(ic_misses / fetches, 1.0)  # icache_miss_rate
    counters[:, :, 6] = dyn_memory / cycles  # dcache_acc_rate
    counters[:, :, 7] = np.minimum(dc_misses / memory_ops, 1.0)  # dcache_miss
    counters[:, :, 8] = col("mix_alu") / dyn + zeros  # alu_usage
    counters[:, :, 9] = col("mix_mac") / dyn + zeros  # mac_usage
    counters[:, :, 10] = col("mix_shift") / dyn + zeros  # shift_usage

    return VectorResults(seconds=seconds, counters=counters)
