"""Tests for the scalar deletion passes: tree-VRP/PRE, CSE, GCSE family."""

import pytest

from repro.compiler.flags import o3_setting
from repro.compiler.ir import (
    BasicBlock,
    DataRegion,
    Function,
    Instruction,
    Loop,
    Opcode,
    Program,
    TAG_AFTER_STORE,
    TAG_GLOBAL_REDUNDANT,
    TAG_INVARIANT,
    TAG_INVARIANT_STORE,
    TAG_LOCAL_REDUNDANT,
    TAG_PARTIAL_REDUNDANT,
    TAG_RANGE_CHECK,
    TAG_SPILL,
)
from repro.compiler.passes.base import PassStats
from repro.compiler.passes.cse import CsePass, RerunCsePass
from repro.compiler.passes.gcse import GcseAfterReloadPass, GcsePass
from repro.compiler.passes.tree import TreePrePass, TreeVrpPass


def _program(blocks: dict[str, BasicBlock], layout: list[str], loops=None) -> Program:
    function = Function(
        name="main", blocks=blocks, layout=layout, loops=loops or [], entry_count=1.0
    )
    return Program(
        name="t",
        functions={"main": function},
        entry="main",
        regions={
            "data": DataRegion("data", 4096, "stream"),
            "stack": DataRegion("stack", 4096, "stack"),
        },
    )


def _add(expr, tags=frozenset(), chain=1):
    return Instruction(
        opcode=Opcode.ADD, expr=expr, tags=frozenset(tags), chain=chain
    )


class TestTreePasses:
    def test_vrp_removes_range_checks(self):
        block = BasicBlock(
            "a",
            [
                Instruction(
                    opcode=Opcode.CMP, expr="rc", tags=frozenset({TAG_RANGE_CHECK})
                ),
                _add("x"),
            ],
            exec_count=10.0,
        )
        program = _program({"a": block}, ["a"])
        stats = PassStats()
        TreeVrpPass().apply(program, o3_setting(), stats)
        assert stats["tree_vrp.removed"] == 1
        assert len(block.instructions) == 1

    def test_vrp_disabled_keeps_checks(self):
        block = BasicBlock(
            "a",
            [Instruction(opcode=Opcode.CMP, tags=frozenset({TAG_RANGE_CHECK}))],
        )
        program = _program({"a": block}, ["a"])
        TreeVrpPass().apply(
            program, o3_setting().with_values(ftree_vrp=False), PassStats()
        )
        assert len(block.instructions) == 1

    def test_pre_removes_partial_redundancies(self):
        block = BasicBlock(
            "a", [_add("p", {TAG_PARTIAL_REDUNDANT}), _add("x")]
        )
        program = _program({"a": block}, ["a"])
        stats = PassStats()
        TreePrePass().apply(program, o3_setting(), stats)
        assert stats["tree_pre.removed"] == 1


class TestLocalCse:
    def test_removes_available_recomputation(self):
        block = BasicBlock(
            "a", [_add("v"), _add("v", {TAG_LOCAL_REDUNDANT})]
        )
        program = _program({"a": block}, ["a"])
        stats = PassStats()
        CsePass().apply(program, o3_setting(), stats)
        assert stats["cse.removed"] == 1

    def test_keeps_first_occurrence(self):
        block = BasicBlock(
            "a", [_add("v"), _add("v", {TAG_LOCAL_REDUNDANT})]
        )
        program = _program({"a": block}, ["a"])
        CsePass().apply(program, o3_setting(), PassStats())
        assert block.instructions[0].expr == "v"

    def test_untagged_duplicates_survive(self):
        # Same expression but not provably redundant (e.g. may be clobbered).
        block = BasicBlock("a", [_add("v"), _add("v")])
        program = _program({"a": block}, ["a"])
        CsePass().apply(program, o3_setting(), PassStats())
        assert len(block.instructions) == 2

    def test_cross_block_requires_follow_jumps(self):
        first = BasicBlock("a", [_add("v")], successors=["b"])
        second = BasicBlock("b", [_add("v", {TAG_LOCAL_REDUNDANT})])
        program = _program({"a": first, "b": second}, ["a", "b"])
        setting = o3_setting().with_values(
            fcse_follow_jumps=False, fcse_skip_blocks=False
        )
        CsePass().apply(program, setting, PassStats())
        assert len(second.instructions) == 1  # not removed

        program2 = _program(
            {
                "a": BasicBlock("a", [_add("v")], successors=["b"]),
                "b": BasicBlock("b", [_add("v", {TAG_LOCAL_REDUNDANT})]),
            },
            ["a", "b"],
        )
        setting = o3_setting().with_values(
            fcse_follow_jumps=True, fcse_skip_blocks=False
        )
        stats = PassStats()
        CsePass().apply(program2, setting, stats)
        assert stats["cse.removed"] == 1

    def test_skip_blocks_carries_around_diamond(self):
        blocks = {
            "top": BasicBlock("top", [_add("v"), Instruction(opcode=Opcode.BR)],
                              successors=["left", "right"], taken_prob=0.5),
            "left": BasicBlock("left", [_add("l")], successors=["join"]),
            "right": BasicBlock("right", [_add("r")], successors=["join"]),
            "join": BasicBlock("join", [_add("v", {TAG_LOCAL_REDUNDANT})]),
        }
        program = _program(blocks, ["top", "left", "right", "join"])
        setting = o3_setting().with_values(
            fcse_follow_jumps=False, fcse_skip_blocks=True
        )
        stats = PassStats()
        CsePass().apply(program, setting, stats)
        assert stats["cse.removed"] == 1

    def test_rerun_gated_by_flag(self):
        block = BasicBlock("a", [_add("v"), _add("v", {TAG_LOCAL_REDUNDANT})])
        program = _program({"a": block}, ["a"])
        RerunCsePass().apply(
            program,
            o3_setting().with_values(fre_run_cse_after_loop=False),
            PassStats(),
        )
        assert len(block.instructions) == 2


class TestGcse:
    def _global_program(self, chain=1):
        first = BasicBlock("a", [_add("g")], successors=["b"], exec_count=5.0)
        second = BasicBlock(
            "b",
            [_add("g", {TAG_GLOBAL_REDUNDANT}, chain=chain)],
            exec_count=5.0,
        )
        return _program({"a": first, "b": second}, ["a", "b"]), second

    def test_removes_global_redundancy(self):
        program, block = self._global_program()
        stats = PassStats()
        GcsePass().apply(program, o3_setting(), stats)
        assert stats["gcse.removed"] == 1
        assert len(block.instructions) == 0

    def test_disabled_when_fgcse_off(self):
        program, block = self._global_program()
        GcsePass().apply(
            program, o3_setting().with_values(fgcse=False), PassStats()
        )
        assert len(block.instructions) == 1

    def test_chain_two_needs_multiple_passes(self):
        program, block = self._global_program(chain=2)
        GcsePass().apply(
            program, o3_setting().with_values(param_max_gcse_passes=1), PassStats()
        )
        assert len(block.instructions) == 1

        program, block = self._global_program(chain=2)
        GcsePass().apply(
            program, o3_setting().with_values(param_max_gcse_passes=2), PassStats()
        )
        assert len(block.instructions) == 0

    def test_expensive_optimizations_gates_extra_passes(self):
        program, block = self._global_program(chain=2)
        setting = o3_setting().with_values(
            param_max_gcse_passes=4, fexpensive_optimizations=False
        )
        GcsePass().apply(program, setting, PassStats())
        assert len(block.instructions) == 1

    def _loop_program_with_invariant_load(self, no_lm=False):
        pre = BasicBlock("pre", [_add("p")], successors=["hdr"], exec_count=2.0)
        hdr = BasicBlock(
            "hdr",
            [
                Instruction(
                    opcode=Opcode.LOAD,
                    expr="inv",
                    region="data",
                    stride=0,
                    tags=frozenset({TAG_INVARIANT}),
                ),
                _add("w"),
                Instruction(opcode=Opcode.BR),
            ],
            successors=["exit", "hdr"],
            exec_count=200.0,
            taken_prob=0.99,
            is_loop_header=True,
        )
        exit_block = BasicBlock("exit", [_add("e")], exec_count=2.0)
        loops = [Loop(header="hdr", blocks=["hdr"], trip_count=100.0, entries=2.0)]
        program = _program(
            {"pre": pre, "hdr": hdr, "exit": exit_block},
            ["pre", "hdr", "exit"],
            loops,
        )
        return program, pre, hdr

    def test_load_motion_hoists_to_preheader(self):
        program, pre, hdr = self._loop_program_with_invariant_load()
        stats = PassStats()
        GcsePass().apply(program, o3_setting(), stats)
        assert stats["gcse.loads_hoisted"] == 1
        assert any(insn.opcode is Opcode.LOAD for insn in pre.instructions)
        assert not any(insn.opcode is Opcode.LOAD for insn in hdr.instructions)

    def test_no_gcse_lm_disables_load_motion(self):
        program, pre, hdr = self._loop_program_with_invariant_load()
        setting = o3_setting().with_values(fno_gcse_lm=True)
        GcsePass().apply(program, setting, PassStats())
        assert any(insn.opcode is Opcode.LOAD for insn in hdr.instructions)

    def test_store_motion_sinks_to_exit(self):
        pre = BasicBlock("pre", [_add("p")], successors=["hdr"], exec_count=1.0)
        hdr = BasicBlock(
            "hdr",
            [
                Instruction(
                    opcode=Opcode.STORE,
                    expr="st",
                    region="data",
                    stride=0,
                    tags=frozenset({TAG_INVARIANT_STORE}),
                ),
                Instruction(opcode=Opcode.BR),
            ],
            successors=["exit", "hdr"],
            exec_count=100.0,
            taken_prob=0.99,
            is_loop_header=True,
        )
        exit_block = BasicBlock("exit", [_add("e")], exec_count=1.0)
        loops = [Loop(header="hdr", blocks=["hdr"], trip_count=100.0, entries=1.0)]
        program = _program(
            {"pre": pre, "hdr": hdr, "exit": exit_block}, ["pre", "hdr", "exit"], loops
        )
        stats = PassStats()
        GcsePass().apply(
            program, o3_setting().with_values(fgcse_sm=True), stats
        )
        assert stats["gcse.stores_sunk"] == 1
        assert any(insn.opcode is Opcode.STORE for insn in exit_block.instructions)

    def test_store_motion_off_by_default(self):
        pre = BasicBlock("pre", [_add("p")], successors=["hdr"], exec_count=1.0)
        hdr = BasicBlock(
            "hdr",
            [
                Instruction(
                    opcode=Opcode.STORE,
                    expr="st",
                    region="data",
                    stride=0,
                    tags=frozenset({TAG_INVARIANT_STORE}),
                ),
                Instruction(opcode=Opcode.BR),
            ],
            successors=["exit", "hdr"],
            exec_count=100.0,
            taken_prob=0.99,
            is_loop_header=True,
        )
        exit_block = BasicBlock("exit", [_add("e")], exec_count=1.0)
        loops = [Loop(header="hdr", blocks=["hdr"], trip_count=100.0, entries=1.0)]
        program = _program(
            {"pre": pre, "hdr": hdr, "exit": exit_block}, ["pre", "hdr", "exit"], loops
        )
        GcsePass().apply(program, o3_setting(), PassStats())
        assert any(insn.opcode is Opcode.STORE for insn in hdr.instructions)

    def test_las_removes_forwarded_loads(self):
        block = BasicBlock(
            "a",
            [
                Instruction(opcode=Opcode.STORE, expr="s", region="data", stride=4),
                Instruction(
                    opcode=Opcode.LOAD,
                    expr="s",
                    region="data",
                    stride=0,
                    tags=frozenset({TAG_AFTER_STORE}),
                ),
            ],
            exec_count=10.0,
        )
        program = _program({"a": block}, ["a"])
        stats = PassStats()
        GcsePass().apply(
            program, o3_setting().with_values(fgcse_las=True), stats
        )
        assert stats["gcse.las_removed"] == 1
        assert len(block.instructions) == 1


class TestGcseAfterReload:
    def _spilly_block(self):
        def reload(slot):
            return Instruction(
                opcode=Opcode.LOAD,
                expr=f"spill:{slot}",
                region="stack",
                stride=0,
                tags=frozenset({TAG_SPILL}),
            )

        return BasicBlock(
            "a", [reload(0), _add("x"), reload(1), reload(2), _add("y")]
        )

    def test_removes_alternate_reloads(self):
        block = self._spilly_block()
        program = _program({"a": block}, ["a"])
        stats = PassStats()
        GcseAfterReloadPass().apply(program, o3_setting(), stats)
        assert stats["gcse.reloads_removed"] == 1
        remaining = [
            insn for insn in block.instructions if TAG_SPILL in insn.tags
        ]
        assert len(remaining) == 2

    def test_requires_gcse_enabled(self):
        block = self._spilly_block()
        program = _program({"a": block}, ["a"])
        GcseAfterReloadPass().apply(
            program, o3_setting().with_values(fgcse=False), PassStats()
        )
        assert len(block.instructions) == 5

    def test_gated_by_after_reload_flag(self):
        block = self._spilly_block()
        program = _program({"a": block}, ["a"])
        GcseAfterReloadPass().apply(
            program,
            o3_setting().with_values(fgcse_after_reload=False),
            PassStats(),
        )
        assert len(block.instructions) == 5
