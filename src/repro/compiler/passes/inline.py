"""Function inlining (``-finline-functions`` and its six parameters).

Inlining a call site splits the calling block around the CALL, clones the
callee's body between the two halves, elides the callee's prologue/epilogue
and RET, and scales the execution profile: the cloned blocks inherit the
call site's frequency while the out-of-line callee keeps the remainder.  A
callee whose every dynamic and static call disappears is dropped from the
binary entirely, as a linker would.

The decision heuristics mirror gcc 4.2's:

* callees no larger than ``--param inline-call-cost`` are always inlined
  (the call overhead dominates the body);
* otherwise the callee must fit ``--param max-inline-insns-auto``;
* the caller may not grow past
  ``max(large-function-insns, original_size × (1 + large-function-growth%))``;
* the whole unit may not grow past
  ``max(large-unit-insns, original_unit × (1 + inline-unit-growth%))``.

Only leaf functions (no loops, no calls) marked ``inline_candidate`` are
considered, which is what gcc's auto-inlining overwhelmingly picks.  The
performance trade-off is the paper's central one: inlining into a hot loop
removes call/return overhead and widens the scheduling window, but grows the
loop's code footprint — disastrous on small instruction caches.
"""

from __future__ import annotations

from repro.compiler.flags import FlagSetting
from repro.compiler.ir import (
    BasicBlock,
    Opcode,
    Program,
    TAG_EPILOGUE,
    TAG_PROLOGUE,
    Function,
    fresh_label,
)
from repro.compiler.passes.base import (
    Pass,
    PassStats,
    delete_instructions,
    remove_tagged,
    stretch_crossing_deps,
)


class InlineFunctionsPass(Pass):
    """``-finline-functions`` with the paper's six inlining parameters."""

    name = "inline"
    reads = frozenset(
        {
            "finline_functions",
            "param_inline_call_cost",
            "param_max_inline_insns_auto",
            "param_large_function_insns",
            "param_large_function_growth",
            "param_large_unit_insns",
            "param_inline_unit_growth",
        }
    )

    def enabled(self, flags: FlagSetting) -> bool:
        return bool(flags["finline_functions"])

    def run(self, program: Program, flags: FlagSetting, stats: PassStats) -> None:
        call_cost = int(flags["param_inline_call_cost"])
        max_auto = int(flags["param_max_inline_insns_auto"])
        large_fn = int(flags["param_large_function_insns"])
        fn_growth = int(flags["param_large_function_growth"])
        large_unit = int(flags["param_large_unit_insns"])
        unit_growth = int(flags["param_inline_unit_growth"])

        unit_size = program.size_insns
        unit_cap = max(large_unit, int(unit_size * (1 + unit_growth / 100)))

        for name in sorted(program.functions):
            caller = program.functions.get(name)
            if caller is None:
                continue
            original_size = caller.size_insns
            caller_cap = max(large_fn, int(original_size * (1 + fn_growth / 100)))
            # Sites are re-located by ordinal, not by object: rewriting an
            # instruction replaces it, and equal instructions may be one
            # shared object.  Inlining a site removes exactly its CALL
            # (inlinable bodies hold none) and keeps the others in order.
            inlined = 0
            for ordinal, (_, _, call) in enumerate(list(caller.call_sites())):
                callee = program.functions.get(call.callee)
                if callee is None or not self._inlinable(caller, callee):
                    continue
                callee_size = callee.size_insns
                if callee_size > call_cost and callee_size > max_auto:
                    continue
                if caller.size_insns + callee_size > caller_cap:
                    stats["inline.blocked_function_growth"] += 1
                    continue
                if program.size_insns + callee_size > unit_cap:
                    stats["inline.blocked_unit_growth"] += 1
                    continue
                # Re-locate the call: earlier inlines may have moved it.
                block_label, index = self._locate_call(caller, ordinal - inlined)
                self._inline_site(program, caller, block_label, index, stats)
                inlined += 1

        self._drop_dead_callees(program, stats)

    @staticmethod
    def _inlinable(caller: Function, callee: Function) -> bool:
        if not callee.inline_candidate or callee.name == caller.name:
            return False
        if callee.loops:
            return False
        return all(
            insn.opcode is not Opcode.CALL
            for block in callee.blocks.values()
            for insn in block.instructions
        )

    @staticmethod
    def _locate_call(caller: Function, ordinal: int) -> tuple[str, int]:
        """``(block label, index)`` of the caller's ``ordinal``-th CALL."""
        for label, index, _ in caller.call_sites():
            if ordinal == 0:
                return label, index
            ordinal -= 1
        raise AssertionError("call site vanished")

    def _inline_site(
        self,
        program: Program,
        caller: Function,
        block_label: str,
        call_index: int,
        stats: PassStats,
    ) -> None:
        block = caller.blocks[block_label]
        callee = program.functions[block.instructions[call_index].callee]
        site_count = block.exec_count
        ratio = 0.0
        if callee.entry_count > 0:
            ratio = min(site_count / callee.entry_count, 1.0)

        # --- split the calling block around the CALL -----------------------
        continuation_label = fresh_label(caller.blocks, f"{block_label}.cont")
        post_insns = block.instructions[call_index + 1 :]
        inlined_insns = sum(
            len(b.instructions) for b in callee.blocks.values()
        )
        continuation = BasicBlock(
            label=continuation_label,
            instructions=post_insns,
            successors=block.successors,
            exec_count=block.exec_count,
            taken_prob=block.taken_prob,
            predictability=block.predictability,
            invariant_branch=block.invariant_branch,
        )
        # Values flowing from the first half to the second now cross the
        # whole inlined body instead of a single CALL instruction.
        stretch_crossing_deps(continuation.instructions, 0, inlined_insns - 1)
        block.instructions = block.instructions[:call_index]
        block.taken_prob = 0.0
        block.invariant_branch = False
        block.changed()

        # --- clone the callee body -----------------------------------------
        clone_map = {
            label: fresh_label(
                set(caller.blocks) | {continuation_label},
                f"{block_label}.in.{label}",
            )
            for label in callee.layout
        }
        clones: list[BasicBlock] = []
        for label in callee.layout:
            clone = callee.blocks[label].clone(clone_map[label])
            clone.exec_count = callee.blocks[label].exec_count * ratio
            clone.is_loop_header = False
            clone.successors = [
                clone_map.get(successor, successor) for successor in clone.successors
            ]
            remove_tagged(clone, TAG_PROLOGUE)
            remove_tagged(clone, TAG_EPILOGUE)
            self._rewrite_returns(clone, continuation_label)
            clones.append(clone)

        # --- wire it together ------------------------------------------------
        entry_clone = clones[0].label
        block.successors = [entry_clone]
        insert_at = caller.layout.index(block_label) + 1
        for clone in clones:
            caller.blocks[clone.label] = clone
            caller.layout.insert(insert_at, clone.label)
            insert_at += 1
        caller.blocks[continuation_label] = continuation
        caller.layout.insert(insert_at, continuation_label)
        caller.changed()

        # Every loop enclosing the call site absorbs the inlined body.
        new_labels = [clone.label for clone in clones] + [continuation_label]
        for loop in caller.loops:
            if block_label in loop.blocks:
                loop.blocks.extend(new_labels)

        # --- profile bookkeeping ---------------------------------------------
        remaining = 1.0 - ratio
        for callee_block in callee.blocks.values():
            callee_block.exec_count *= remaining
            callee_block.changed()
        callee.entry_count = max(callee.entry_count - site_count, 0.0)
        callee.changed()
        stats["inline.sites"] += 1
        stats["inline.insns_added"] += sum(len(c.instructions) for c in clones)

    @staticmethod
    def _rewrite_returns(clone: BasicBlock, continuation_label: str) -> None:
        doomed = [
            index
            for index, insn in enumerate(clone.instructions)
            if insn.opcode is Opcode.RET
        ]
        if doomed:
            delete_instructions(clone, doomed)
            clone.successors = [continuation_label]
            clone.taken_prob = 0.0
        elif not clone.successors:
            clone.successors = [continuation_label]

    @staticmethod
    def _drop_dead_callees(program: Program, stats: PassStats) -> None:
        """Remove callees with no surviving static call and no executions."""
        static_callees = {
            insn.callee
            for function in program.functions.values()
            for block in function.blocks.values()
            for insn in block.instructions
            if insn.opcode is Opcode.CALL
        }
        for name in list(program.functions):
            function = program.functions[name]
            if (
                name != program.entry
                and name not in static_callees
                and function.inline_candidate
                and function.entry_count <= 1e-9
            ):
                del program.functions[name]
                program.changed()
                stats["inline.functions_dropped"] += 1
