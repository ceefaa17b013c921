"""Deterministic expansion of a :class:`ProgramSpec` into IR.

The builder emits a ``main`` function containing the spec's loop nests plus
one leaf function per callee, wiring in every optimisation opportunity the
spec declares: redundant expressions with real value keys, loop-invariant
operations, induction multiplies, duplicated tails, jump trampolines,
unswitchable guards, call sites, and memory access streams with real
regions and strides.  All randomness comes from the spec's seed, so the
same spec always yields the same program.

Loop shape convention (relied upon by the unroller and the scheduler):

* the loop header is the first body block in layout and the latch the last;
* the latch ends with a backwards conditional branch whose taken target is
  the header (``successors = [exit, header]``);
* straight-line body blocks have no terminators and fall through, giving
  interblock scheduling real merge opportunities;
* every loop has a dedicated preheader block directly before the header.
"""

from __future__ import annotations

import random

from repro.compiler.ir import (
    BasicBlock,
    DataRegion,
    Function,
    Instruction,
    Loop,
    Opcode,
    Program,
    TAG_AFTER_STORE,
    TAG_EPILOGUE,
    TAG_GLOBAL_REDUNDANT,
    TAG_INDUCTION,
    TAG_INVARIANT,
    TAG_INVARIANT_STORE,
    TAG_JUMP_CHAIN,
    TAG_LOCAL_REDUNDANT,
    TAG_MERGEABLE_TAIL,
    TAG_PARTIAL_REDUNDANT,
    TAG_PEEPHOLE,
    TAG_PROLOGUE,
    TAG_RANGE_CHECK,
    TAG_SIBLING,
)
from repro.programs.spec import AccessSpec, CalleeSpec, LoopSpec, ProgramSpec

_ALU_OPS = (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.MOV)
_SHIFT_OPS = (Opcode.SHL, Opcode.SHR)
_MAC_OPS = (Opcode.MUL, Opcode.MAC)

#: dependence-kind name for each producing opcode category.
_KIND_OF_CATEGORY = {"alu": "alu", "mac": "mac", "shift": "shift", "load": "load"}


class _BlockPlan:
    """A block plus its per-iteration execution weight within its loop."""

    __slots__ = ("block", "weight")

    def __init__(self, block: BasicBlock, weight: float):
        self.block = block
        self.weight = weight


class ProgramBuilder:
    """Expands one spec; use :func:`build_program`."""

    def __init__(self, spec: ProgramSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self._expr_counter = 0
        self._function_pool: list[str] = []
        # Bresenham-style accumulators so memory-pattern rates land
        # deterministically and proportionally (a rate of 0.5 tags every
        # second access), rather than as high-variance per-access rolls.
        self._quota: dict[tuple[str, str], float] = {}

    # ------------------------------------------------------------------ api
    def build(self) -> Program:
        regions = {
            region.name: DataRegion(region.name, region.size_bytes, region.kind)
            for region in self.spec.regions
        }
        regions.setdefault("stack", DataRegion("stack", 4096, "stack"))

        functions: dict[str, Function] = {}
        for callee_spec in self.spec.callees:
            functions[callee_spec.name] = self._build_callee(callee_spec)

        functions["main"] = self._build_main()
        self._assign_callee_counts(functions)

        program = Program(
            name=self.spec.name,
            functions=functions,
            entry="main",
            regions=regions,
        )
        program.validate()
        return program

    # ------------------------------------------------------------- helpers
    def _fresh_expr(self) -> str:
        self._expr_counter += 1
        return f"x{self._expr_counter}"

    def _pick_alu(self) -> Opcode:
        return self.rng.choice(_ALU_OPS)

    @staticmethod
    def _link(previous: BasicBlock, label: str) -> None:
        """Make the terminator-less ``previous`` fall through to ``label``."""
        if previous.terminator is None:
            previous.successors = [label]

    # -------------------------------------------------------------- callees
    def _build_callee(self, spec: CalleeSpec) -> Function:
        """A leaf function: prologue, straight-line body, epilogue, RET."""
        instructions: list[Instruction] = []
        stores = max((spec.frame_traffic + 1) // 2, 1)
        loads = max(spec.frame_traffic - stores, 0)
        for _ in range(stores):
            instructions.append(
                Instruction(
                    opcode=Opcode.STORE,
                    region="stack",
                    stride=0,
                    tags=frozenset({TAG_PROLOGUE}),
                )
            )
        instructions.extend(
            self._emit_instructions(
                count=spec.body_insns,
                loop=None,
                accesses=[],
                calls=[],
                block_pool=[],
            )
        )
        for _ in range(loads):
            instructions.append(
                Instruction(
                    opcode=Opcode.LOAD,
                    region="stack",
                    stride=0,
                    tags=frozenset({TAG_EPILOGUE}),
                )
            )
        if spec.sibling_target is not None:
            instructions.append(
                Instruction(
                    opcode=Opcode.CALL,
                    callee=spec.sibling_target,
                    tags=frozenset({TAG_SIBLING}),
                )
            )
        instructions.append(Instruction(opcode=Opcode.RET))

        label = f"{spec.name}.body"
        block = BasicBlock(label=label, instructions=instructions, successors=[])
        return Function(
            name=spec.name,
            blocks={label: block},
            layout=[label],
            loops=[],
            inline_candidate=spec.inline_candidate,
            entry_count=0.0,
        )

    # ----------------------------------------------------------------- main
    def _build_main(self) -> Function:
        blocks: dict[str, BasicBlock] = {}
        layout: list[str] = []
        loops: list[Loop] = []

        def add(block: BasicBlock) -> BasicBlock:
            if block.label in blocks:
                raise ValueError(f"duplicate block label {block.label!r}")
            blocks[block.label] = block
            layout.append(block.label)
            return block

        # Entry: startup code touching every region once (the flat accesses).
        entry_insns = self._emit_instructions(
            count=8, loop=None, accesses=[], calls=[], block_pool=[]
        )
        for region_spec in self.spec.regions:
            entry_insns.append(
                Instruction(
                    opcode=Opcode.LOAD,
                    region=region_spec.name,
                    stride=0,
                    expr=self._fresh_expr(),
                )
            )
        previous = add(
            BasicBlock("entry", entry_insns, successors=[], exec_count=1.0)
        )

        tail_groups = list(self.spec.mergeable_tails)
        chains_left = self.spec.jump_chains
        for loop_spec in self.spec.loops:
            exit_label = f"{loop_spec.name}.exit"
            first_label, loop_objects = self._emit_loop(
                loop_spec,
                add,
                blocks,
                exit_label,
                depth=1,
                parent=None,
                tail_groups=tail_groups,
                chains_left=chains_left,
            )
            chains_left = max(chains_left - loop_spec.diamonds, 0)
            self._link(previous, first_label)
            loops.extend(loop_objects)
            previous = add(
                BasicBlock(
                    exit_label,
                    self._emit_instructions(
                        count=4, loop=None, accesses=[], calls=[], block_pool=[]
                    ),
                    successors=[],
                    exec_count=loop_objects[0].entries,
                )
            )

        teardown = add(
            BasicBlock(
                "teardown",
                self._emit_instructions(
                    count=6, loop=None, accesses=[], calls=[], block_pool=[]
                )
                + [Instruction(opcode=Opcode.RET)],
                successors=[],
                exec_count=1.0,
            )
        )
        self._link(previous, teardown.label)

        cold_remaining = self.spec.cold_insns
        cold_index = 0
        while cold_remaining > 0:
            size = min(cold_remaining, 14)
            add(
                BasicBlock(
                    f"cold{cold_index}",
                    self._emit_instructions(
                        count=size, loop=None, accesses=[], calls=[], block_pool=[]
                    )
                    + [Instruction(opcode=Opcode.JMP)],
                    successors=[teardown.label],
                    exec_count=0.0,
                )
            )
            cold_remaining -= size
            cold_index += 1

        return Function(
            name="main",
            blocks=blocks,
            layout=layout,
            loops=loops,
            inline_candidate=False,
            entry_count=1.0,
        )

    # ---------------------------------------------------------------- loops
    def _emit_loop(
        self,
        spec: LoopSpec,
        add,
        blocks: dict[str, BasicBlock],
        exit_label: str,
        depth: int,
        parent: str | None,
        tail_groups: list[tuple[int, int]],
        chains_left: int,
    ) -> tuple[str, list[Loop]]:
        """Emit one loop nest level; returns (preheader label, loop objects)."""
        name = spec.name
        plans: list[_BlockPlan] = []
        member_labels: list[str] = []

        preheader = add(
            BasicBlock(
                f"{name}.pre",
                self._emit_instructions(
                    count=4, loop=None, accesses=[], calls=[], block_pool=[]
                ),
                successors=[f"{name}.hdr"],
            )
        )

        header_insns = self._emit_instructions(
            count=max(3, spec.block_insns // 3),
            loop=spec,
            accesses=[],
            calls=[],
            block_pool=[],
        )
        if spec.carried_dep_latency > 0 and header_insns:
            kind = (
                "load"
                if spec.carried_dep_latency >= 3
                else ("mac" if spec.carried_dep_latency == 2 else "alu")
            )
            first = header_insns[0]
            header_insns[0] = first.replace(deps=first.deps + ((1, kind),))
        header = add(
            BasicBlock(
                f"{name}.hdr", header_insns, successors=[], is_loop_header=True
            )
        )
        plans.append(_BlockPlan(header, 1.0))
        member_labels.append(header.label)
        previous = header

        # Distribute per-iteration memory accesses and calls over the
        # straight-line body blocks.
        straight_count = max(spec.body_blocks, 1)
        per_block_accesses = self._split_queue(
            self._expand_accesses(spec), straight_count
        )
        per_block_calls = self._split_queue(list(spec.calls), straight_count)

        inner_position = straight_count // 2 if spec.inner is not None else -1
        inner_loops: list[Loop] = []
        inner_iterations_cache = 0.0

        for position in range(straight_count):
            block_pool: list[str] = []
            straight = add(
                BasicBlock(
                    f"{name}.b{position}",
                    self._emit_instructions(
                        count=spec.block_insns,
                        loop=spec,
                        accesses=per_block_accesses[position],
                        calls=per_block_calls[position],
                        block_pool=block_pool,
                    ),
                    successors=[],
                )
            )
            plans.append(_BlockPlan(straight, 1.0))
            member_labels.append(straight.label)
            self._link(previous, straight.label)
            previous = straight

            if position == inner_position and spec.inner is not None:
                inner_first, inner_objects = self._emit_loop(
                    spec.inner,
                    add,
                    blocks,
                    exit_label=f"{name}.b{position}.post",
                    depth=depth + 1,
                    parent=f"{name}.hdr",
                    tail_groups=tail_groups,
                    chains_left=0,
                )
                self._link(previous, inner_first)
                inner_loops.extend(inner_objects)
                inner_iterations_cache = inner_objects[0].iterations
                post = add(
                    BasicBlock(
                        f"{name}.b{position}.post",
                        self._emit_instructions(
                            count=max(spec.block_insns // 2, 3),
                            loop=spec,
                            accesses=[],
                            calls=[],
                            block_pool=[],
                        ),
                        successors=[],
                    )
                )
                plans.append(_BlockPlan(post, 1.0))
                member_labels.append(post.label)
                previous = post

        for diamond in range(spec.diamonds):
            previous = self._emit_diamond(
                spec,
                add,
                previous,
                plans,
                member_labels,
                diamond,
                tail_groups,
                use_chain=chains_left > diamond,
            )

        if spec.invariant_branch:
            previous = self._emit_guard(spec, add, previous, plans, member_labels)

        latch_insns = self._emit_instructions(
            count=3, loop=spec, accesses=[], calls=[], block_pool=[]
        )
        latch_insns.append(Instruction(opcode=Opcode.CMP))
        latch_insns.append(Instruction(opcode=Opcode.BR))
        latch = add(
            BasicBlock(
                f"{name}.latch",
                latch_insns,
                successors=[exit_label, header.label],
                taken_prob=max(0.0, 1.0 - 1.0 / max(spec.trip_count, 1.001)),
                predictability=spec.predictability,
            )
        )
        plans.append(_BlockPlan(latch, 1.0))
        member_labels.append(latch.label)
        self._link(previous, latch.label)

        # --- profile: solve iteration counts from the dynamic budget -------
        insns_per_iter = sum(
            plan.weight * len(plan.block.instructions) for plan in plans
        )
        iterations = max(spec.dyn_insns / max(insns_per_iter, 1.0), 1.0)
        trip = min(spec.trip_count, iterations)
        entries = iterations / trip
        for plan in plans:
            plan.block.exec_count = iterations * plan.weight
        preheader.exec_count = entries

        loop_object = Loop(
            header=header.label,
            blocks=list(member_labels),
            trip_count=trip,
            entries=entries,
            depth=depth,
            parent=parent,
            carried_dep_latency=spec.carried_dep_latency,
        )

        # The direct inner loop is entered once per iteration of this loop:
        # its total iterations stay as budgeted, redistributed over the new
        # entry count.
        if spec.inner is not None and inner_loops:
            inner = inner_loops[0]
            inner.entries = max(iterations, 1.0)
            inner.trip_count = max(inner_iterations_cache / inner.entries, 1.0)
            inner_pre = blocks.get(f"{spec.inner.name}.pre")
            if inner_pre is not None:
                inner_pre.exec_count = inner.entries

        return preheader.label, [loop_object] + inner_loops

    def _emit_diamond(
        self,
        spec: LoopSpec,
        add,
        previous: BasicBlock,
        plans: list[_BlockPlan],
        member_labels: list[str],
        index: int,
        tail_groups: list[tuple[int, int]],
        use_chain: bool,
    ) -> BasicBlock:
        """Emit decision → two arms (→ optional dup tails) → join."""
        name = f"{spec.name}.d{index}"
        taken = spec.diamond_taken
        decision_insns = self._emit_instructions(
            count=max(spec.block_insns // 2, 3),
            loop=spec,
            accesses=[],
            calls=[],
            block_pool=[],
        )
        decision_insns.append(Instruction(opcode=Opcode.CMP))
        decision_insns.append(Instruction(opcode=Opcode.BR))
        decision = add(
            BasicBlock(
                name,
                decision_insns,
                successors=[f"{name}.a", f"{name}.b"],
                taken_prob=taken,
                predictability=spec.predictability,
            )
        )
        plans.append(_BlockPlan(decision, 1.0))
        member_labels.append(decision.label)
        self._link(previous, decision.label)

        join_label = f"{name}.j"
        tail_spec = tail_groups.pop(0) if tail_groups else None

        def make_arm(suffix: str, weight: float) -> BasicBlock:
            arm = add(
                BasicBlock(
                    f"{name}.{suffix}",
                    self._emit_instructions(
                        count=max(spec.block_insns // 2, 3),
                        loop=spec,
                        accesses=[],
                        calls=[],
                        block_pool=[],
                    ),
                    successors=[],
                )
            )
            plans.append(_BlockPlan(arm, weight))
            member_labels.append(arm.label)
            return arm

        arm_a = make_arm("a", 1.0 - taken)
        arm_b = make_arm("b", taken)

        if tail_spec is not None:
            _, tail_insns = tail_spec  # a diamond provides exactly two copies
            group_key = f"tail:{self.spec.name}:{spec.name}:{index}"
            # Layout is [decision, armA, armB, tailA, tailB, join]: armA must
            # jump over armB to its tail; tailA jumps over tailB to the join;
            # armB and tailB fall through.
            arm_a.instructions.append(Instruction(opcode=Opcode.JMP))
            arm_a.taken_prob = 1.0
            arm_b_successor_fixed = False
            tail_a = add(self._tail_block(f"{name}.ta", group_key, tail_insns))
            tail_a.instructions.append(Instruction(opcode=Opcode.JMP))
            tail_a.taken_prob = 1.0
            tail_a.successors = [join_label]
            tail_b = add(self._tail_block(f"{name}.tb", group_key, tail_insns))
            tail_b.successors = [join_label]
            plans.append(_BlockPlan(tail_a, 1.0 - taken))
            plans.append(_BlockPlan(tail_b, taken))
            member_labels.extend([tail_a.label, tail_b.label])
            arm_a.successors = [tail_a.label]
            arm_b.successors = [tail_b.label]
            del arm_b_successor_fixed
            chain_source = tail_b
        else:
            arm_a.instructions.append(Instruction(opcode=Opcode.JMP))
            arm_a.taken_prob = 1.0
            arm_a.successors = [join_label]
            arm_b.successors = [join_label]
            chain_source = arm_b

        if use_chain:
            # Route one fall-through path through a jump trampoline.
            trampoline = add(
                BasicBlock(
                    f"{name}.t",
                    [
                        Instruction(
                            opcode=Opcode.JMP, tags=frozenset({TAG_JUMP_CHAIN})
                        )
                    ],
                    successors=[join_label],
                    taken_prob=1.0,
                )
            )
            plans.append(_BlockPlan(trampoline, taken))
            member_labels.append(trampoline.label)
            chain_source.successors = [trampoline.label]

        join = add(
            BasicBlock(
                join_label,
                self._emit_instructions(
                    count=max(spec.block_insns // 3, 2),
                    loop=spec,
                    accesses=[],
                    calls=[],
                    block_pool=[],
                ),
                successors=[],
            )
        )
        plans.append(_BlockPlan(join, 1.0))
        member_labels.append(join.label)
        return join

    def _tail_block(self, label: str, group_key: str, insns: int) -> BasicBlock:
        instructions = [
            Instruction(
                opcode=self._pick_alu(),
                expr=group_key,
                tags=frozenset({TAG_MERGEABLE_TAIL}),
            )
            for _ in range(insns)
        ]
        return BasicBlock(label, instructions, successors=[])

    def _emit_guard(
        self,
        spec: LoopSpec,
        add,
        previous: BasicBlock,
        plans: list[_BlockPlan],
        member_labels: list[str],
    ) -> BasicBlock:
        """An invariant conditional guarding part of the body (unswitch)."""
        name = f"{spec.name}.g"
        guard_insns = self._emit_instructions(
            count=3, loop=spec, accesses=[], calls=[], block_pool=[]
        )
        guard_insns.append(Instruction(opcode=Opcode.CMP))
        guard_insns.append(Instruction(opcode=Opcode.BR))
        guarded_label = f"{name}.body"
        after_label = f"{name}.after"
        guard = add(
            BasicBlock(
                name,
                guard_insns,
                successors=[guarded_label, after_label],
                taken_prob=0.05,
                predictability=0.99,
                invariant_branch=True,
            )
        )
        plans.append(_BlockPlan(guard, 1.0))
        member_labels.append(guard.label)
        self._link(previous, guard.label)

        guarded = add(
            BasicBlock(
                guarded_label,
                self._emit_instructions(
                    count=spec.block_insns,
                    loop=spec,
                    accesses=[],
                    calls=[],
                    block_pool=[],
                ),
                successors=[after_label],
            )
        )
        plans.append(_BlockPlan(guarded, 0.95))
        member_labels.append(guarded.label)

        after = add(
            BasicBlock(
                after_label,
                self._emit_instructions(
                    count=max(spec.block_insns // 3, 2),
                    loop=spec,
                    accesses=[],
                    calls=[],
                    block_pool=[],
                ),
                successors=[],
            )
        )
        plans.append(_BlockPlan(after, 1.0))
        member_labels.append(after.label)
        return after

    # -------------------------------------------------------- instructions
    @staticmethod
    def _expand_accesses(spec: LoopSpec) -> list[tuple[AccessSpec, bool]]:
        """Flatten access specs into (spec, is_store) emission units.

        Stores are queued before loads so that a load from a just-stored
        region can be recognised as a load-after-store (gcse-las) pattern.
        """
        queue: list[tuple[AccessSpec, bool]] = []
        for access in spec.accesses:
            queue.extend([(access, True)] * access.stores_per_iter)
        for access in spec.accesses:
            queue.extend([(access, False)] * access.loads_per_iter)
        return queue

    @staticmethod
    def _split_queue(queue: list, parts: int) -> list[list]:
        split: list[list] = [[] for _ in range(parts)]
        for index, item in enumerate(queue):
            split[index % parts].append(item)
        return split

    def _emit_instructions(
        self,
        count: int,
        loop: LoopSpec | None,
        accesses: list[tuple[AccessSpec, bool]],
        calls: list[str],
        block_pool: list[str],
    ) -> list[Instruction]:
        """Emit ``count`` generic instructions interleaved with the queued
        memory accesses, followed by the queued calls."""
        instructions: list[Instruction] = []
        pending_store_expr: dict[str, str] = {}
        ilp = loop.ilp if loop is not None else 3.0

        def emit_dep(fields: dict) -> Instruction:
            """Build the instruction of ``fields`` with a dependence on a
            recent producer, honouring ILP (drawn after the fields)."""
            if instructions and self.rng.random() <= 0.8:
                distance = max(1, min(int(self.rng.expovariate(1.0 / ilp)) + 1, 6))
                position = len(instructions) - distance
                while position >= 0:
                    producer = instructions[position]
                    kind = _KIND_OF_CATEGORY.get(producer.opcode.category)
                    if kind is not None:
                        fields["deps"] = ((len(instructions) - position, kind),)
                        break
                    position -= 1
            return Instruction(**fields)

        pending = list(accesses)
        slot_stride = max(count // (len(pending) + 1), 1) if pending else 0
        for position in range(count):
            if (
                pending
                and slot_stride
                and position % slot_stride == slot_stride - 1
            ):
                queued = pending.pop(0)
                instructions.append(
                    emit_dep(
                        self._memory_fields(queued, loop, pending_store_expr)
                    )
                )
            instructions.append(emit_dep(self._generic_fields(loop, block_pool)))

        # Very dense access lists spill past the generic body; emit the rest.
        for queued in pending:
            instructions.append(
                emit_dep(self._memory_fields(queued, loop, pending_store_expr))
            )
        for callee in calls:
            instructions.append(Instruction(opcode=Opcode.CALL, callee=callee))
        return instructions

    def _take_quota(self, loop: LoopSpec, kind: str, rate: float) -> bool:
        """Deterministic proportional tagging: fires ``rate`` of the time."""
        if rate <= 0.0:
            return False
        key = (loop.name, kind)
        accumulated = self._quota.get(key, 0.0) + rate
        if accumulated >= 1.0:
            self._quota[key] = accumulated - 1.0
            return True
        self._quota[key] = accumulated
        return False

    def _memory_fields(
        self,
        queued: tuple[AccessSpec, bool],
        loop: LoopSpec | None,
        pending_store_expr: dict[str, str],
    ) -> dict:
        """The fields of one queued load or store."""
        access, is_store = queued
        expr = self._fresh_expr()
        if is_store:
            tags = frozenset()
            if loop is not None and self._take_quota(
                loop, "inv_store", loop.invariant_store_rate
            ):
                tags = frozenset({TAG_INVARIANT_STORE})
            pending_store_expr[access.region] = expr
            return dict(
                opcode=Opcode.STORE,
                expr=expr,
                region=access.region,
                stride=access.stride,
                tags=tags,
            )
        tags = frozenset()
        stride = access.stride
        if loop is not None:
            if self._take_quota(loop, "inv_load", loop.invariant_load_rate):
                tags = frozenset({TAG_INVARIANT})
                stride = 0
            elif access.region in pending_store_expr and self._take_quota(
                loop, "after_store", loop.after_store_rate
            ):
                # A reload of the location just stored: it hits in the cache
                # (stride 0) and is entirely removable by -fgcse-las.
                tags = frozenset({TAG_AFTER_STORE})
                expr = pending_store_expr[access.region]
                stride = 0
        self._function_pool.append(expr)
        return dict(
            opcode=Opcode.LOAD,
            expr=expr,
            region=access.region,
            stride=stride,
            tags=tags,
        )

    def _generic_fields(self, loop: LoopSpec | None, block_pool: list[str]) -> dict:
        """The fields of one ALU/MAC/shift instruction, with spec-driven
        special patterns."""
        if loop is None:
            expr = self._fresh_expr()
            block_pool.append(expr)
            return dict(opcode=self._pick_alu(), expr=expr)

        roll = self.rng.random()
        threshold = loop.redundancy_local
        if roll < threshold and block_pool:
            return dict(
                opcode=self._pick_alu(),
                expr=self.rng.choice(block_pool),
                tags=frozenset({TAG_LOCAL_REDUNDANT}),
            )

        threshold += loop.redundancy_global
        if roll < threshold and self._function_pool:
            chain = 1 if self.rng.random() < 0.55 else 2
            return dict(
                opcode=self._pick_alu(),
                expr=self.rng.choice(self._function_pool),
                tags=frozenset({TAG_GLOBAL_REDUNDANT}),
                chain=chain,
            )

        threshold += loop.partial_redundancy
        if roll < threshold:
            return dict(
                opcode=self._pick_alu(),
                expr=self._fresh_expr(),
                tags=frozenset({TAG_PARTIAL_REDUNDANT}),
            )

        threshold += loop.range_check_rate
        if roll < threshold:
            return dict(
                opcode=Opcode.CMP,
                expr=self._fresh_expr(),
                tags=frozenset({TAG_RANGE_CHECK}),
            )

        threshold += loop.invariant_alu_rate
        if roll < threshold:
            chain = 1 if self.rng.random() < 0.5 else 2
            return dict(
                opcode=self._pick_alu(),
                expr=self._fresh_expr(),
                tags=frozenset({TAG_INVARIANT}),
                chain=chain,
            )

        threshold += loop.induction_rate
        if roll < threshold:
            return dict(
                opcode=Opcode.MUL,
                expr=self._fresh_expr(),
                tags=frozenset({TAG_INDUCTION}),
            )

        threshold += loop.peephole_rate
        if roll < threshold:
            return dict(
                opcode=Opcode.MOV,
                expr=self._fresh_expr(),
                tags=frozenset({TAG_PEEPHOLE}),
            )

        total = loop.mix_alu + loop.mix_mac + loop.mix_shift
        pick = self.rng.random() * max(total, 1e-9)
        if pick < loop.mix_mac:
            opcode = self.rng.choice(_MAC_OPS)
        elif pick < loop.mix_mac + loop.mix_shift:
            opcode = self.rng.choice(_SHIFT_OPS)
        else:
            opcode = self._pick_alu()
        expr = self._fresh_expr()
        block_pool.append(expr)
        if self.rng.random() < 0.15:
            self._function_pool.append(expr)
        return dict(opcode=opcode, expr=expr)

    # ------------------------------------------------------------ profiles
    @staticmethod
    def _assign_callee_counts(functions: dict[str, Function]) -> None:
        """Propagate call counts into callee profiles (to a fixpoint, so
        sibling-call chains between callees are covered)."""
        for _ in range(4):
            counts: dict[str, float] = {}
            for function in functions.values():
                for block in function.blocks.values():
                    for insn in block.instructions:
                        if insn.opcode is Opcode.CALL and insn.callee in functions:
                            counts[insn.callee] = (
                                counts.get(insn.callee, 0.0) + block.exec_count
                            )
            changed = False
            for name, function in functions.items():
                if name == "main":
                    continue
                entry = counts.get(name, 0.0)
                if abs(function.entry_count - entry) > 1e-9:
                    changed = True
                function.entry_count = entry
                for block in function.blocks.values():
                    block.exec_count = entry
            if not changed:
                break


def build_program(spec: ProgramSpec) -> Program:
    """Expand ``spec`` into a validated :class:`Program`."""
    return ProgramBuilder(spec).build()
