"""The compiled artefact: everything the simulator needs, nothing it doesn't.

``finalize`` distils an optimised :class:`~repro.compiler.ir.Program` into a
:class:`CompiledBinary`: static layout (code bytes, loop spans, alignment),
the dynamic profile (instruction mix, branch behaviour, dependence-stall
histogram) and the memory-access streams per loop.  The simulator never sees
IR again — the binary is the hand-off point between compiler and
microarchitecture, mirroring the paper's Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Mapping

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import (
    DataRegion,
    Opcode,
    Program,
    TAG_SPILL,
)
from repro.compiler.passes.base import PassStats

#: Dependence distances beyond this never stall any supported pipeline
#: configuration; longer edges are dropped from the histogram.
MAX_PROFILED_DISTANCE = 12

#: Fraction of dynamic instructions that defines the hot-code working set.
HOT_COVERAGE = 0.95


@dataclass(frozen=True)
class RegionAccess:
    """An aggregated memory-access stream within one context (loop or flat).

    ``count`` is the total dynamic number of accesses; ``stride`` the bytes
    the address advances per loop iteration (0 = revisits one location).
    """

    region: str
    kind: str
    region_bytes: int
    stride: int
    count: float
    is_store: bool


@dataclass
class LoopSummary:
    """Per-loop facts for the cache and branch models."""

    function: str
    header: str
    depth: int
    parent: tuple[str, str] | None
    iterations: float
    entries: float
    code_bytes: int
    own_dyn_insns: float
    accesses: list[RegionAccess] = field(default_factory=list)

    @property
    def key(self) -> tuple[str, str]:
        return (self.function, self.header)

    @property
    def trip_count(self) -> float:
        """Average iterations per entry."""
        return self.iterations / max(self.entries, 1e-12)


@dataclass
class CompiledBinary:
    """A compiled program, summarised for timing simulation."""

    program_name: str
    setting: FlagSetting | None
    code_bytes: int
    hot_code_bytes: int
    dyn_insns: float
    mix: dict[str, float]
    dyn_branches: float
    dyn_taken: float
    dyn_calls: float
    branch_sites: int
    mean_predictability: float
    aligned_taken_fraction: float
    stall_profile: dict[tuple[str, int], float]
    loops: list[LoopSummary]
    flat_accesses: list[RegionAccess]
    regions: dict[str, DataRegion]
    reg_reads: float
    spill_dyn: float
    stats: PassStats

    @property
    def dyn_loads(self) -> float:
        return self.mix.get("load", 0.0)

    @property
    def dyn_stores(self) -> float:
        return self.mix.get("store", 0.0)

    @property
    def dyn_memory(self) -> float:
        return self.dyn_loads + self.dyn_stores

    def describe(self) -> str:
        """One-paragraph human summary (used by examples and the CLI)."""
        return (
            f"{self.program_name}: {self.code_bytes} code bytes "
            f"({self.hot_code_bytes} hot), {self.dyn_insns:.3g} dynamic insns, "
            f"{self.dyn_branches:.3g} branches ({self.branch_sites} sites), "
            f"{self.dyn_memory:.3g} memory ops, {len(self.loops)} loops"
        )


def finalize(
    program: Program | CompiledBinary,
    setting: FlagSetting | None,
    stats: PassStats | None = None,
) -> CompiledBinary:
    """Summarise an optimised program into a :class:`CompiledBinary`.

    ``program`` may instead be a binary already summarised from the same
    final IR: it is then rebound to ``setting`` and ``stats`` without
    walking the IR again (the pass memo finalizes each distinct final IR
    once).  The rebound binary shares the summary's fields, which no
    consumer mutates.
    """
    stats = stats if stats is not None else PassStats()
    if isinstance(program, CompiledBinary):
        return replace(program, setting=setting, stats=stats)

    mix = {"alu": 0.0, "mac": 0.0, "shift": 0.0, "load": 0.0, "store": 0.0, "ctrl": 0.0}
    stall_profile: dict[tuple[str, int], float] = {}
    dyn_branches = 0.0
    dyn_taken = 0.0
    dyn_calls = 0.0
    branch_sites = 0
    predictability_weighted = 0.0
    aligned_taken = 0.0
    reg_reads = 0.0
    spill_dyn = 0.0
    code_bytes = 0

    block_dyn: list[tuple[float, int]] = []  # (dyn insns, size bytes) per block

    # Float sums add one term per instruction (a per-block product rounds).
    for function in program.functions.values():
        for label in function.layout:
            block = function.blocks[label]
            count = block.exec_count
            size_bytes = block.size_bytes
            code_bytes += size_bytes
            block_dyn.append((count * len(block.instructions), size_bytes))
            if count <= 0.0:
                continue

            for index, insn in enumerate(block.instructions):
                opcode = insn.opcode
                mix[opcode.category] += count
                reg_reads += count * opcode.register_reads
                if TAG_SPILL in insn.tags:
                    spill_dyn += count
                for distance, kind in insn.deps:
                    if distance <= MAX_PROFILED_DISTANCE:
                        key = (kind, distance)
                        stall_profile[key] = stall_profile.get(key, 0.0) + count

                if opcode.is_branch:
                    branch_sites += 1
                    dyn_branches += count
                    taken = _taken_fraction(block, index, insn)
                    dyn_taken += count * taken
                    predictability_weighted += count * block.predictability
                    if opcode is Opcode.CALL or opcode is Opcode.RET:
                        dyn_calls += count
                    aligned_taken += (
                        count
                        * taken
                        * _target_aligned(program, function, block, insn)
                    )

    dyn_insns = sum(dyn for dyn, _ in block_dyn)
    hot_code_bytes = _hot_bytes(block_dyn, dyn_insns)

    loops = _summarise_loops(program)
    flat_accesses = _flat_accesses(program)

    mean_predictability = (
        predictability_weighted / dyn_branches if dyn_branches > 0 else 1.0
    )
    aligned_taken_fraction = aligned_taken / dyn_taken if dyn_taken > 0 else 0.0

    return CompiledBinary(
        program_name=program.name,
        setting=setting,
        code_bytes=code_bytes,
        hot_code_bytes=hot_code_bytes,
        dyn_insns=dyn_insns,
        mix=mix,
        dyn_branches=dyn_branches,
        dyn_taken=dyn_taken,
        dyn_calls=dyn_calls,
        branch_sites=branch_sites,
        mean_predictability=mean_predictability,
        aligned_taken_fraction=aligned_taken_fraction,
        stall_profile=stall_profile,
        loops=loops,
        flat_accesses=flat_accesses,
        regions=dict(program.regions),
        reg_reads=reg_reads,
        spill_dyn=spill_dyn,
        stats=stats,
    )


def _taken_fraction(block, index: int, insn) -> float:
    """Probability this control transfer redirects the fetch stream."""
    if insn.opcode is Opcode.BR:
        if index == len(block.instructions) - 1:
            return block.taken_prob
        return 0.5  # mid-block conditional (rare; e.g. generated guards)
    # JMP, CALL and RET always redirect.
    return 1.0


def _target_aligned(program: Program, function, block, insn) -> float:
    """1.0 if the transfer's target block is alignment-padded."""
    if insn.opcode is Opcode.BR and len(block.successors) > 1:
        target = block.successors[1]
        return 1.0 if function.blocks[target].aligned else 0.0
    if insn.opcode is Opcode.JMP and block.successors:
        target = block.successors[0]
        if target in function.blocks:
            return 1.0 if function.blocks[target].aligned else 0.0
        return 0.0
    if insn.opcode is Opcode.CALL and insn.callee in program.functions:
        callee = program.functions[insn.callee]
        entry = callee.blocks[callee.layout[0]]
        return 1.0 if entry.aligned else 0.0
    return 0.0  # RET: return sites are not tracked


def _hot_bytes(block_dyn: list[tuple[float, int]], dyn_insns: float) -> int:
    """Bytes of the blocks covering ``HOT_COVERAGE`` of dynamic work."""
    if dyn_insns <= 0:
        return 0
    covered = 0.0
    hot = 0
    for dyn, size in sorted(block_dyn, reverse=True):
        if covered >= HOT_COVERAGE * dyn_insns:
            break
        hot += size
        covered += dyn
    return hot


def _summarise_loops(program: Program) -> list[LoopSummary]:
    summaries: list[LoopSummary] = []
    for function in program.functions.values():
        positions = {label: index for index, label in enumerate(function.layout)}
        # ``Function.loop_of_block``: the deepest, the first of equal depth.
        innermost = {
            label: loop
            for loop in sorted(reversed(function.loops), key=attrgetter("depth"))
            for label in loop.blocks
        }
        for loop in function.loops:
            members = [label for label in loop.blocks if label in positions]
            if not members or loop.iterations <= 0:
                continue
            first = min(positions[label] for label in members)
            last = max(positions[label] for label in members)
            span_bytes = sum(
                function.blocks[function.layout[position]].size_bytes
                for position in range(first, last + 1)
            )
            own_dyn = 0.0
            accesses: dict[tuple[str, int, bool], float] = {}
            for label in members:
                block = function.blocks[label]
                if innermost[label].header != loop.header:
                    continue  # nested loop accounts for its own blocks
                own_dyn += block.exec_count * len(block.instructions)
                _count_accesses(accesses, block)
            summaries.append(
                LoopSummary(
                    function=function.name,
                    header=loop.header,
                    depth=loop.depth,
                    parent=(function.name, loop.parent) if loop.parent else None,
                    iterations=loop.iterations,
                    entries=loop.entries,
                    code_bytes=span_bytes,
                    own_dyn_insns=own_dyn,
                    accesses=_access_streams(program, accesses),
                )
            )
    return summaries


def _flat_accesses(program: Program) -> list[RegionAccess]:
    """Memory accesses executed outside any loop."""
    accesses: dict[tuple[str, int, bool], float] = {}
    for function in program.functions.values():
        in_loops = {label for loop in function.loops for label in loop.blocks}
        for label in function.layout:
            if label in in_loops:
                continue
            block = function.blocks[label]
            if block.exec_count > 0:
                _count_accesses(accesses, block)
    return _access_streams(program, accesses)


def _count_accesses(accesses: dict[tuple[str, int, bool], float], block) -> None:
    """Add each memory instruction's execution count to its stream."""
    for insn in block.instructions:
        if insn.opcode.is_memory:
            key = (insn.region, insn.stride, insn.opcode is Opcode.STORE)
            accesses[key] = accesses.get(key, 0.0) + block.exec_count


def _access_streams(
    program: Program, accesses: dict[tuple[str, int, bool], float]
) -> list[RegionAccess]:
    """The streams of ``accesses``, in key order."""
    return [
        RegionAccess(
            region=region,
            kind=program.regions[region].kind,
            region_bytes=program.regions[region].size_bytes,
            stride=stride,
            count=count,
            is_store=is_store,
        )
        for (region, stride, is_store), count in sorted(accesses.items())
    ]
