"""Register allocation with a spill model (and the two allocation flags).

The XScale exposes ~11 allocatable general-purpose registers once the
stack/frame/link registers are reserved.  For each block, the maximum
simultaneous live values (from the *final, post-scheduling* dependence
intervals, plus a baseline for loop-carried values) determines how many
values spill; every spilled value costs a store/reload pair of stack
accesses — code bytes, issue slots and D-cache traffic.

Flags folded into allocation policy, as in gcc:

* ``-fregmove`` coalesces register moves, relieving one unit of pressure;
* ``-fcaller-saves`` allocates live-across-call values into caller-saved
  registers with targeted saves; without it every call conservatively
  saves/restores one register pair per call site.

The notorious interaction the paper highlights in §5.4 emerges here
mechanically: aggressive scheduling stretches live ranges → pressure rises →
spill code grows the binary → small instruction caches suffer.
"""

from __future__ import annotations

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import (
    DataRegion,
    Instruction,
    Opcode,
    Program,
    TAG_SPILL,
)
from repro.compiler.passes.base import Pass, PassStats, insert_instructions
from repro.compiler.passes.schedule import BASELINE_LIVE, peak_live_and_calls

#: General-purpose registers available to the allocator.
ALLOCATABLE_REGISTERS = 11

#: Upper bound on spilled values per block (beyond this the allocator would
#: rematerialise instead; also keeps pathological blocks bounded).
MAX_SPILLS_PER_BLOCK = 6

STACK_REGION = "stack"


class RegisterAllocationPass(Pass):
    """Always-on register allocation; flags modulate the policy."""

    name = "regalloc"
    reads = frozenset({"fregmove", "fcaller_saves"})

    def enabled(self, flags: FlagSetting) -> bool:
        return True

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        if STACK_REGION not in program.regions:
            program.regions[STACK_REGION] = DataRegion(
                STACK_REGION, size_bytes=4096, kind="stack"
            )
            program.changed()
        regmove = bool(flags["fregmove"])
        caller_saves = bool(flags["fcaller_saves"])

        for function in program.functions.values():
            for block in function.blocks.values():
                if not block.instructions:
                    continue
                spilled = self._spill_count(block, regmove, caller_saves)
                if spilled == 0:
                    continue
                self._insert_spills(function.name, block, spilled)
                stats["regalloc.spilled_values"] += spilled

    @staticmethod
    def _spill_count(block, regmove: bool, caller_saves: bool) -> int:
        peak, calls = peak_live_and_calls(block.instructions)
        pressure = peak + BASELINE_LIVE
        if regmove:
            pressure -= 1
        available = ALLOCATABLE_REGISTERS
        spilled = max(0, pressure - available)
        if calls:
            if caller_saves:
                # Targeted saves cost one extra live register overall.
                spilled = max(0, pressure + 1 - available)
            else:
                # Blunt save/restore of one live pair around every call.
                spilled += calls
        return min(spilled, MAX_SPILLS_PER_BLOCK)

    @staticmethod
    def _insert_spills(function_name: str, block, spilled: int) -> None:
        """Insert a store near the top third and a reload near the bottom
        third for each spilled value, spacing crossing dependences apart."""
        stores = []
        reloads = []
        for slot in range(spilled):
            slot_key = f"spill:{function_name}:{block.label}:{slot}"
            stores.append(
                Instruction(
                    opcode=Opcode.STORE,
                    expr=slot_key,
                    region=STACK_REGION,
                    stride=0,
                    tags=frozenset({TAG_SPILL}),
                )
            )
            reloads.append(
                Instruction(
                    opcode=Opcode.LOAD,
                    expr=slot_key,
                    region=STACK_REGION,
                    stride=0,
                    tags=frozenset({TAG_SPILL}),
                )
            )
        length = len(block.instructions)
        reload_position = max((2 * length) // 3, 1)
        insert_instructions(block, reload_position, reloads)
        store_position = min(length // 3, reload_position)
        insert_instructions(block, store_position, stores)
