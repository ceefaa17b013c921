"""Tests for the MiBench stand-in generator and specs."""

import pytest

from repro.compiler.ir import (
    Opcode,
    TAG_AFTER_STORE,
    TAG_INVARIANT,
    TAG_LOCAL_REDUNDANT,
    TAG_MERGEABLE_TAIL,
)
from repro.programs import (
    AccessSpec,
    CalleeSpec,
    LoopSpec,
    ProgramSpec,
    RegionSpec,
    build_program,
    mibench_names,
    mibench_program,
    mibench_spec,
)
from repro.programs.mibench import DYN


def _minimal_spec(**loop_overrides) -> ProgramSpec:
    loop_args = dict(
        trip_count=64.0,
        dyn_insns=1e6,
        body_blocks=2,
        block_insns=10,
        accesses=(AccessSpec("buf", loads_per_iter=1, stride=4),),
    )
    loop_args.update(loop_overrides)
    return ProgramSpec(
        name="mini",
        seed=1,
        regions=(RegionSpec("buf", 4096, "stream"),),
        loops=(LoopSpec("main", **loop_args),),
    )


class TestSpecValidation:
    def test_unknown_region_rejected(self):
        with pytest.raises(ValueError, match="region"):
            ProgramSpec(
                name="bad",
                seed=1,
                loops=(
                    LoopSpec(
                        "l",
                        trip_count=4.0,
                        dyn_insns=1e5,
                        accesses=(AccessSpec("ghost", loads_per_iter=1),),
                    ),
                ),
            )

    def test_unknown_callee_rejected(self):
        with pytest.raises(ValueError, match="callee"):
            ProgramSpec(
                name="bad",
                seed=1,
                loops=(
                    LoopSpec("l", trip_count=4.0, dyn_insns=1e5, calls=("ghost",)),
                ),
            )

    def test_unknown_sibling_target_rejected(self):
        with pytest.raises(ValueError, match="sibling"):
            ProgramSpec(
                name="bad",
                seed=1,
                loops=(LoopSpec("l", trip_count=4.0, dyn_insns=1e5),),
                callees=(CalleeSpec("f", body_insns=4, sibling_target="ghost"),),
            )

    def test_needs_a_loop(self):
        with pytest.raises(ValueError, match="loop"):
            ProgramSpec(name="bad", seed=1, loops=())

    def test_total_dyn_includes_nested(self):
        spec = ProgramSpec(
            name="n",
            seed=1,
            loops=(
                LoopSpec(
                    "outer",
                    trip_count=4.0,
                    dyn_insns=1e5,
                    inner=LoopSpec("inner", trip_count=8.0, dyn_insns=9e5),
                ),
            ),
        )
        assert spec.total_dyn_insns == pytest.approx(1e6)


class TestGenerator:
    def test_deterministic(self):
        one = build_program(_minimal_spec())
        two = build_program(_minimal_spec())
        assert one.size_insns == two.size_insns
        assert one.dynamic_insns == pytest.approx(two.dynamic_insns)
        for label, block in one.functions["main"].blocks.items():
            twin = two.functions["main"].blocks[label]
            assert [insn.opcode for insn in block.instructions] == [
                insn.opcode for insn in twin.instructions
            ]

    def test_dynamic_budget_respected(self):
        program = build_program(_minimal_spec())
        assert program.dynamic_insns == pytest.approx(1e6, rel=0.25)

    def test_loop_shape_convention(self):
        program = build_program(_minimal_spec())
        function = program.functions["main"]
        loop = function.loops[0]
        members = [label for label in function.layout if label in set(loop.blocks)]
        assert function.blocks[members[0]].is_loop_header
        latch = function.blocks[members[-1]]
        assert latch.terminator is not None
        assert loop.header in latch.successors

    def test_preheader_exists(self):
        program = build_program(_minimal_spec())
        function = program.functions["main"]
        loop = function.loops[0]
        preheaders = [
            label
            for label in function.layout
            if label not in set(loop.blocks)
            and loop.header in function.blocks[label].successors
        ]
        assert len(preheaders) == 1

    def test_memory_accesses_emitted(self):
        program = build_program(_minimal_spec())
        loads = [
            insn
            for function in program.functions.values()
            for block in function.blocks.values()
            for insn in block.instructions
            if insn.opcode is Opcode.LOAD and insn.region == "buf"
        ]
        assert loads

    def test_redundancy_quota_proportional(self):
        spec = _minimal_spec(redundancy_local=0.2, block_insns=40)
        program = build_program(spec)
        tagged = sum(
            1
            for function in program.functions.values()
            for block in function.blocks.values()
            for insn in block.instructions
            if TAG_LOCAL_REDUNDANT in insn.tags
        )
        total = program.size_insns
        assert 0.05 * total < tagged < 0.4 * total

    def test_invariant_load_quota_deterministic(self):
        spec = _minimal_spec(
            invariant_load_rate=0.5,
            accesses=(AccessSpec("buf", loads_per_iter=4, stride=4),),
        )
        program = build_program(spec)
        invariant = sum(
            1
            for block in program.functions["main"].blocks.values()
            for insn in block.instructions
            if insn.opcode is Opcode.LOAD and TAG_INVARIANT in insn.tags
        )
        plain = sum(
            1
            for block in program.functions["main"].blocks.values()
            for insn in block.instructions
            if insn.opcode is Opcode.LOAD and insn.region == "buf"
        )
        assert invariant == pytest.approx(plain / 2, abs=1)

    def test_after_store_loads_have_zero_stride(self):
        spec = _minimal_spec(
            after_store_rate=1.0,
            accesses=(
                AccessSpec("buf", loads_per_iter=2, stores_per_iter=2, stride=4),
            ),
        )
        program = build_program(spec)
        after_store = [
            insn
            for block in program.functions["main"].blocks.values()
            for insn in block.instructions
            if TAG_AFTER_STORE in insn.tags
        ]
        assert after_store
        assert all(insn.stride == 0 for insn in after_store)

    def test_calls_emitted_once_per_iteration(self):
        spec = ProgramSpec(
            name="c",
            seed=2,
            callees=(CalleeSpec("helper", body_insns=8),),
            loops=(
                LoopSpec("l", trip_count=16.0, dyn_insns=1e5, calls=("helper",)),
            ),
        )
        program = build_program(spec)
        calls = [
            insn
            for block in program.functions["main"].blocks.values()
            for insn in block.instructions
            if insn.opcode is Opcode.CALL
        ]
        assert len(calls) == 1
        helper = program.functions["helper"]
        loop = program.functions["main"].loops[0]
        assert helper.entry_count == pytest.approx(loop.iterations, rel=0.01)

    def test_sibling_chain_counts_propagate(self):
        spec = ProgramSpec(
            name="s",
            seed=3,
            callees=(
                CalleeSpec("inner", body_insns=6),
                CalleeSpec("outer", body_insns=6, sibling_target="inner"),
            ),
            loops=(
                LoopSpec("l", trip_count=16.0, dyn_insns=1e5, calls=("outer",)),
            ),
        )
        program = build_program(spec)
        outer = program.functions["outer"]
        inner = program.functions["inner"]
        assert inner.entry_count == pytest.approx(outer.entry_count, rel=0.01)
        assert inner.entry_count > 0

    def test_nested_loop_profile(self):
        spec = ProgramSpec(
            name="n",
            seed=4,
            loops=(
                LoopSpec(
                    "outer",
                    trip_count=16.0,
                    dyn_insns=2e4,
                    body_blocks=2,
                    inner=LoopSpec(
                        "inner", trip_count=64.0, dyn_insns=9e5, body_blocks=1
                    ),
                ),
            ),
        )
        program = build_program(spec)
        function = program.functions["main"]
        outer = next(l for l in function.loops if l.header == "outer.hdr")
        inner = next(l for l in function.loops if l.header == "inner.hdr")
        assert inner.depth == 2
        assert inner.parent == "outer.hdr"
        # Inner loop entered once per outer iteration.
        assert inner.entries == pytest.approx(outer.iterations, rel=0.01)

    def test_mergeable_tails_share_group_key(self):
        spec = ProgramSpec(
            name="t",
            seed=5,
            loops=(
                LoopSpec("l", trip_count=16.0, dyn_insns=1e5, diamonds=1),
            ),
            mergeable_tails=((2, 4),),
        )
        program = build_program(spec)
        tails = [
            insn
            for block in program.functions["main"].blocks.values()
            for insn in block.instructions
            if TAG_MERGEABLE_TAIL in insn.tags
        ]
        assert len(tails) == 8  # two copies of four instructions
        assert len({insn.expr for insn in tails}) == 1

    def test_duplicate_block_labels_rejected(self):
        spec = ProgramSpec(
            name="dup",
            seed=6,
            loops=(
                LoopSpec("same", trip_count=4.0, dyn_insns=1e4),
                LoopSpec("same", trip_count=4.0, dyn_insns=1e4),
            ),
        )
        with pytest.raises(ValueError, match="duplicate"):
            build_program(spec)


class TestMiBenchSuite:
    def test_thirty_five_programs(self):
        assert len(mibench_names()) == 35

    def test_figure4_order_preserved(self):
        names = mibench_names()
        assert names[0] == "qsort"
        assert names[-1] == "search"
        assert names[33] == "rijndael_e"

    def test_all_specs_unique_seeds(self):
        seeds = [mibench_spec(name).seed for name in mibench_names()]
        assert len(set(seeds)) == len(seeds)

    @pytest.mark.parametrize("name", mibench_names())
    def test_program_builds_and_validates(self, name):
        program = mibench_program(name)
        program.validate()
        assert program.dynamic_insns > 0.5 * DYN

    def test_programs_cached(self):
        assert mibench_program("sha") is mibench_program("sha")

    def test_rijndael_is_hand_unrolled(self):
        # Hot body big enough that max-unrolled-insns collapses the factor.
        spec = mibench_spec("rijndael_e")
        loop = spec.loops[0]
        assert loop.body_blocks * loop.block_insns > 400

    def test_crc_callee_exceeds_default_inline_budget(self):
        spec = mibench_spec("crc")
        assert spec.callees[0].body_insns > 90

    def test_search_is_unroll_friendly(self):
        spec = mibench_spec("search")
        loop = spec.loops[0]
        assert loop.block_insns <= 6
        assert loop.trip_count >= 1024
