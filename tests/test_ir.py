"""Tests for the IR (repro.compiler.ir)."""

import dataclasses
import pickle

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
    dynamic_mix,
    fresh_label,
    iter_instructions,
)
from repro.compiler.pipeline import Compiler
from tests.conftest import simple_loop_program


class TestOpcode:
    def test_categories_cover_all_opcodes(self):
        for opcode in Opcode:
            assert opcode.category in ("alu", "mac", "shift", "load", "store", "ctrl")

    def test_memory_classification(self):
        assert Opcode.LOAD.is_memory
        assert Opcode.STORE.is_memory
        assert not Opcode.ADD.is_memory

    def test_branch_classification(self):
        for opcode in (Opcode.BR, Opcode.JMP, Opcode.CALL, Opcode.RET):
            assert opcode.is_branch
        assert not Opcode.MUL.is_branch

    def test_register_reads(self):
        assert Opcode.MAC.register_reads == 3
        assert Opcode.STORE.register_reads == 2
        assert Opcode.JMP.register_reads == 0


class TestInstruction:
    def test_default_latency_from_category(self):
        assert Instruction(opcode=Opcode.ADD).latency == 1
        assert Instruction(opcode=Opcode.MUL).latency == 3
        assert Instruction(opcode=Opcode.LOAD, region="r").latency == 3

    def test_memory_requires_region(self):
        with pytest.raises(ValueError, match="region"):
            Instruction(opcode=Opcode.LOAD)

    def test_call_requires_callee(self):
        with pytest.raises(ValueError, match="callee"):
            Instruction(opcode=Opcode.CALL)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="tags"):
            Instruction(opcode=Opcode.ADD, tags=frozenset({"nope"}))

    def test_bad_dep_distance_rejected(self):
        with pytest.raises(ValueError, match="distance"):
            Instruction(opcode=Opcode.ADD, deps=((0, "alu"),))

    def test_bad_dep_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Instruction(opcode=Opcode.ADD, deps=((1, "bogus"),))

    def test_replace_is_independent(self):
        original = Instruction(opcode=Opcode.ADD, expr="x", deps=((1, "alu"),))
        copy = original.replace(deps=(), expr="y")
        assert (copy.expr, copy.deps) == ("y", ())
        assert original.expr == "x"
        assert original.deps == ((1, "alu"),)

    def test_instruction_is_immutable(self):
        insn = Instruction(opcode=Opcode.MUL, expr="m", deps=((2, "mac"),))
        for name, value in (
            ("opcode", Opcode.ADD),
            ("deps", ()),
            ("tags", frozenset({"peephole"})),
            ("latency", 1),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(insn, name, value)
        assert insn == Instruction(opcode=Opcode.MUL, expr="m", deps=((2, "mac"),))

    def test_size_is_fixed_width(self):
        assert Instruction(opcode=Opcode.ADD).size_bytes == 4

    def test_instruction_is_slotted(self):
        insn = Instruction(opcode=Opcode.ADD)
        assert not hasattr(insn, "__dict__")
        with pytest.raises(AttributeError):
            insn.typo = 1

    def test_replace_copies_every_other_field(self):
        original = Instruction(
            opcode=Opcode.LOAD,
            expr="x",
            region="data",
            stride=8,
            deps=((1, "alu"), (3, "load")),
            latency=5,
            tags=frozenset({"invariant"}),
            chain=3,
        )
        copy = original.replace()
        assert copy is not original
        assert copy == original
        for field in dataclasses.fields(Instruction):
            assert getattr(copy, field.name) == getattr(original, field.name)
        moved = original.replace(stride=0, chain=1)
        assert (moved.stride, moved.chain, moved.expr) == (0, 1, "x")
        with pytest.raises(TypeError, match="dep"):
            original.replace(dep=())

    def test_replace_leaves_original_unchanged(self):
        original = Instruction(
            opcode=Opcode.MUL,
            expr="m",
            deps=((2, "mac"),),
            tags=frozenset({"induction"}),
        )
        copy = original.replace(
            deps=((1, "alu"),), tags=original.tags | {"peephole"}, opcode=Opcode.ADD
        )
        assert copy.opcode is Opcode.ADD
        assert original.deps == ((2, "mac"),)
        assert original.tags == frozenset({"induction"})
        assert original.opcode is Opcode.MUL


class TestBasicBlock:
    def test_size_includes_padding(self):
        block = BasicBlock("b", [Instruction(opcode=Opcode.ADD)], pad_bytes=12)
        assert block.size_bytes == 16

    def test_terminator_detection(self):
        block = BasicBlock(
            "b",
            [Instruction(opcode=Opcode.ADD), Instruction(opcode=Opcode.BR)],
        )
        assert block.terminator is not None
        assert block.terminator.opcode is Opcode.BR

    def test_no_terminator(self):
        block = BasicBlock("b", [Instruction(opcode=Opcode.ADD)])
        assert block.terminator is None

    def test_body_and_terminator_split(self):
        insns = [Instruction(opcode=Opcode.ADD), Instruction(opcode=Opcode.JMP)]
        block = BasicBlock("b", insns)
        body, terminator = block.body_and_terminator()
        assert len(body) == 1
        assert terminator.opcode is Opcode.JMP

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            BasicBlock("b", taken_prob=1.5)
        with pytest.raises(ValueError):
            BasicBlock("b", predictability=-0.1)

    def test_clone_shares_immutable_instructions(self):
        block = BasicBlock("b", [Instruction(opcode=Opcode.ADD, expr="x")])
        clone = block.clone("c")
        assert clone.label == "c"
        assert clone.instructions is not block.instructions
        assert clone.instructions[0] is block.instructions[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            clone.instructions[0].expr = "y"
        # A rewrite replaces the list entry and leaves the original alone.
        clone.instructions[0] = clone.instructions[0].replace(expr="y")
        clone.instructions.append(Instruction(opcode=Opcode.JMP))
        assert [insn.expr for insn in block.instructions] == ["x"]


class TestLoop:
    def test_header_must_be_member(self):
        with pytest.raises(ValueError, match="header"):
            Loop(header="h", blocks=["a"], trip_count=2.0, entries=1.0)

    def test_iterations(self):
        loop = Loop(header="h", blocks=["h"], trip_count=10.0, entries=3.0)
        assert loop.iterations == 30.0

    def test_trip_count_minimum(self):
        with pytest.raises(ValueError):
            Loop(header="h", blocks=["h"], trip_count=0.5, entries=1.0)


class TestDataRegion:
    def test_valid_kinds(self):
        for kind in DataRegion.VALID_KINDS:
            DataRegion("r", 64, kind)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            DataRegion("r", 64, "heap")

    def test_positive_size_required(self):
        with pytest.raises(ValueError):
            DataRegion("r", 0)


class TestFunctionAndProgram:
    def test_layout_must_match_blocks(self):
        block = BasicBlock("a")
        with pytest.raises(ValueError, match="layout"):
            Function(name="f", blocks={"a": block}, layout=["a", "b"])

    def test_size_accounting(self, loop_program):
        function = loop_program.functions["main"]
        assert function.size_insns == sum(
            len(block.instructions) for block in function.blocks.values()
        )
        assert function.size_bytes == function.size_insns * 4

    def test_dynamic_insns_weighted_by_profile(self, loop_program):
        function = loop_program.functions["main"]
        manual = sum(
            block.exec_count * len(block.instructions)
            for block in function.blocks.values()
        )
        assert function.dynamic_insns == pytest.approx(manual)

    def test_innermost_loops(self, loop_program):
        loops = loop_program.functions["main"].innermost_loops()
        assert [loop.header for loop in loops] == ["hdr"]

    def test_loop_of_block(self, loop_program):
        function = loop_program.functions["main"]
        assert function.loop_of_block("body").header == "hdr"
        assert function.loop_of_block("entry") is None

    def test_validate_unknown_successor(self, loop_program):
        loop_program.functions["main"].blocks["exit"].successors = ["nowhere"]
        with pytest.raises(ValueError, match="successor"):
            loop_program.validate()

    def test_validate_unknown_region(self, loop_program):
        del loop_program.regions["data"]
        with pytest.raises(ValueError, match="region"):
            loop_program.validate()

    def test_validate_unknown_callee(self, loop_program):
        block = loop_program.functions["main"].blocks["body"]
        block.instructions.append(Instruction(opcode=Opcode.CALL, callee="ghost"))
        with pytest.raises(ValueError, match="callee"):
            loop_program.validate()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("deps", ((0, "alu"),), "distance"),
            ("deps", ((1, "bogus"),), "dep kind"),
            ("tags", frozenset({"bogus"}), "tags"),
            ("region", None, "requires a data region"),
        ],
    )
    def test_validate_rejects_what_clone_no_longer_checks(
        self, loop_program, field, value, message
    ):
        # body[8] is the block's LOAD; a pass rewriting it into an invalid
        # copy is not caught by replace() or cloning, only by validate().
        instructions = loop_program.functions["main"].blocks["body"].instructions
        assert instructions[8].opcode is Opcode.LOAD
        instructions[8] = instructions[8].replace(**{field: value})
        clone = loop_program.clone()
        with pytest.raises(ValueError, match=message):
            clone.validate()

    @pytest.mark.parametrize(
        "field, value", [("taken_prob", 1.5), ("predictability", -0.1)]
    )
    def test_validate_rejects_block_fields_clone_skips(
        self, loop_program, field, value
    ):
        setattr(loop_program.functions["main"].blocks["body"], field, value)
        clone = loop_program.clone()
        with pytest.raises(ValueError, match=f"body: {field} out of range"):
            clone.validate()

    def test_pickle_round_trip(self, loop_program):
        # compute_shard_task ships programs to process-pool workers.
        restored = pickle.loads(pickle.dumps(loop_program))
        assert restored == loop_program
        assert restored is not loop_program
        restored.validate()
        compiler = Compiler(cache=False)
        assert compiler.compile(restored, o3_setting()) == compiler.compile(
            loop_program, o3_setting()
        )

    def test_entry_must_exist(self, loop_program):
        with pytest.raises(ValueError, match="entry"):
            Program(
                name="p",
                functions=loop_program.functions,
                entry="nonexistent",
                regions=loop_program.regions,
            )

    def test_clone_is_deep(self, loop_program):
        clone = loop_program.clone()
        clone.functions["main"].blocks["body"].instructions.clear()
        assert loop_program.functions["main"].blocks["body"].instructions

    def test_dynamic_mix_sums_to_dynamic_insns(self, loop_program):
        mix = dynamic_mix(loop_program)
        assert sum(mix.values()) == pytest.approx(loop_program.dynamic_insns)

    def test_iter_instructions_covers_everything(self, loop_program):
        count = sum(1 for _ in iter_instructions(loop_program))
        assert count == loop_program.size_insns


class TestFreshLabel:
    def test_unused_base_returned_as_is(self):
        assert fresh_label(["a", "b"], "c") == "c"

    def test_collision_gets_suffix(self):
        assert fresh_label(["c"], "c") == "c.1"
        assert fresh_label(["c", "c.1"], "c") == "c.2"


class TestSimpleLoopProgramFixture:
    def test_profile_consistency(self):
        program = simple_loop_program(trip_count=50.0, entries=4.0)
        loop = program.functions["main"].loops[0]
        assert loop.iterations == pytest.approx(200.0)
        header = program.functions["main"].blocks["hdr"]
        assert header.exec_count == pytest.approx(200.0)
