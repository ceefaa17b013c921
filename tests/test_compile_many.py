"""``Compiler.compile_many`` (every miss through the pass memo) against
independent compiles.

A batch must give, binary for binary, what a fresh
``Compiler(cache=False).compile`` (a plain pass loop) gives for each
setting — every field folded by ``test_compile_golden._canonical``, so
``stats`` and ``setting`` are compared too.  A cached compiler hands a
setting whose canonical form came earlier the earlier binary (and so the
earlier setting), as sequential ``compile`` calls do.  Batches are built
to branch at every pass level: for each pass, one Hamming-1 probe of the
base setting changes a flag that pass reads.  Duplicates and gated
aliases (settings that differ only under a disabled parent) ride along.

The memo tests walk Hamming-1 chains, as a hill climber does, with probe
batches mixed in, and alternate programs batch by batch, as the
protocol's folds do; every binary is checked against the same
reference: on every program, across two programs that share a name,
across ``clear_cache``, after a memo was evicted under the retained-slot
budget, and from threads sharing one compiler.
"""

from __future__ import annotations

import dataclasses
import enum
from copy import copy as shallow_copy
import json
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_compile_golden import _canonical
from test_pass_reads import fold_ir

from repro.compiler.flags import FLAG_SPECS, FlagSetting, o3_setting
from repro.compiler.ir import BasicBlock, DataRegion, Function, Instruction, Loop, Program
from repro.compiler import memo as memo_module
from repro.compiler.memo import SOURCE, PassMemo
from repro.compiler.pipeline import Compiler, default_pass_order
from repro.programs.mibench import MIBENCH_ORDER, mibench_program

SPEC_BY_NAME = {spec.name: spec for spec in FLAG_SPECS}


def fold(binary) -> str:
    return json.dumps(_canonical(binary), sort_keys=True)


def branching_batch(base: FlagSetting, rng: random.Random) -> list[FlagSetting]:
    """``base``, one probe per pass changing a flag it reads, and then
    a duplicate and a gated alias of earlier entries."""
    batch = [base]
    for optimisation in default_pass_order():
        if not optimisation.reads:
            continue
        name = rng.choice(sorted(optimisation.reads))
        value = rng.choice(
            [value for value in SPEC_BY_NAME[name].values if value != base[name]]
        )
        batch.append(base.with_values(**{name: value}))
    batch.append(batch[len(batch) // 2])
    # fgcse off masks fgcse_sm: both spellings share one canonical form.
    batch.append(base.with_values(fgcse=False, fgcse_sm=False))
    batch.append(base.with_values(fgcse=False, fgcse_sm=True))
    batch.append(base)
    return batch


def assert_batch_matches(program, batch) -> None:
    independent = [
        fold(Compiler(cache=False).compile(program, setting)) for setting in batch
    ]
    for cache in (True, False):
        compiler = Compiler(cache=cache)
        binaries = compiler.compile_many(program, batch)
        first: dict[FlagSetting, int] = {}
        for index, (binary, setting) in enumerate(zip(binaries, batch)):
            # With the memo on, a canonical repeat is the first binary of
            # its class, setting included.
            source = first.setdefault(setting.canonical(), index) if cache else index
            assert fold(binary) == independent[source], (index, cache)
            if cache:
                assert binary is binaries[source]
                assert binary is compiler.compile(program, setting)
            else:
                assert binary.setting is setting


@pytest.mark.parametrize("name", MIBENCH_ORDER)
def test_o3_probes_match_independent_compiles(name):
    batch = branching_batch(o3_setting(), random.Random(name))
    assert_batch_matches(mibench_program(name), batch)


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(MIBENCH_ORDER),
    indices=st.tuples(*(st.integers(0, spec.cardinality - 1) for spec in FLAG_SPECS)),
    seed=st.integers(0, 2**16),
)
def test_random_probes_match_independent_compiles(name, indices, seed):
    base = FlagSetting.from_indices(indices)
    batch = branching_batch(base, random.Random(seed))
    assert_batch_matches(mibench_program(name), batch)


def test_memo_hits_are_dropped_from_the_walk():
    program = mibench_program("crc")
    compiler = Compiler()
    batch = branching_batch(o3_setting(), random.Random(0))
    first = compiler.compile_many(program, batch)
    again = compiler.compile_many(program, list(reversed(batch)))
    assert again == list(reversed(first))
    assert all(a is b for a, b in zip(again, reversed(first)))
    assert compiler.compile_many(program, []) == []


# ------------------------------------------------------------- pass memo


def neighbour(setting: FlagSetting, rng: random.Random) -> FlagSetting:
    """``setting`` with one dimension moved to another of its values."""
    spec = rng.choice(FLAG_SPECS)
    value = rng.choice([value for value in spec.values if value != setting[spec.name]])
    return setting.with_values(**{spec.name: value})


def climb(base: FlagSetting, rng: random.Random, steps: int) -> list[list[FlagSetting]]:
    """A hill-climb-shaped walk: single Hamming-1 steps, and every fourth
    step a batch of four probes around the current setting."""
    walk, current = [], base
    for step in range(steps):
        if step % 4 == 3:
            batch = [neighbour(current, rng) for _ in range(4)]
            walk.append(batch)
            current = batch[-1]
        else:
            current = neighbour(current, rng)
            walk.append([current])
    return walk


def memo_of(compiler: Compiler, program) -> PassMemo | None:
    """The pass memo ``compiler`` keeps for ``program``'s name."""
    entry = compiler._entries.get(program.name)
    return entry.memo if entry is not None else None


def retained(compiler: Compiler) -> int:
    """Slots all of ``compiler``'s pass memos retain."""
    return sum(entry.memo.retained for entry in compiler._entries.values() if entry.memo)


class Reference:
    """Folded ``Compiler(cache=False)`` binaries of one program."""

    def __init__(self, program):
        self.program = program
        self.folds: dict[FlagSetting, str] = {}

    def expect(self, setting: FlagSetting) -> str:
        if setting not in self.folds:
            self.folds[setting] = fold(Compiler(cache=False).compile(self.program, setting))
        return self.folds[setting]


def run_walk(compiler: Compiler, reference: Reference, walk) -> None:
    """Compile ``walk`` (batches of settings) and check every binary.  A
    cached compiler may hand back the binary of an earlier setting of
    the same canonical class (``assert_batch_matches`` pins which), so
    each binary is checked against the setting it carries."""
    for batch in walk:
        if len(batch) == 1:
            binaries = [compiler.compile(reference.program, batch[0])]
        else:
            binaries = compiler.compile_many(reference.program, batch)
        for binary, setting in zip(binaries, batch):
            assert binary.setting.canonical() == setting.canonical(), setting
            assert fold(binary) == reference.expect(binary.setting), setting


@pytest.mark.parametrize("name", MIBENCH_ORDER)
def test_memo_walk_matches_independent_compiles(name):
    rng = random.Random(f"memo-{name}")
    base = FlagSetting.from_indices(
        [rng.randrange(spec.cardinality) for spec in FLAG_SPECS]
    )
    compiler = Compiler()
    reference = Reference(mibench_program(name))
    run_walk(compiler, reference, climb(base, rng, 16))
    assert memo_of(compiler, reference.program)._steps
    # Revisits are cache hits; neighbours of the start are fresh misses
    # that resume from the memo's snapshots.
    run_walk(compiler, reference, [[base], [neighbour(base, rng) for _ in range(3)]])


def _changed_copy(program):
    """A copy of ``program``, under its name, minus one hot instruction."""
    changed = program.clone()
    hot = max(
        (block for function in changed.functions.values() for block in function.blocks.values()),
        key=lambda block: block.exec_count,
    )
    hot.instructions.pop(0)
    assert changed.name == program.name
    assert fold_ir(changed) != fold_ir(program)
    return changed


def test_programs_with_one_name_get_their_own_binaries():
    original = mibench_program("crc")
    changed = _changed_copy(original)
    setting = o3_setting()
    compiler = Compiler()
    first = compiler.compile(original, setting)
    second = compiler.compile(changed, setting)
    assert second != first
    assert second == Compiler(cache=False).compile(changed, setting)
    # The same object, or an equal-content copy, finds its binary cached.
    assert compiler.compile(changed, setting) is second
    assert compiler.compile(changed.clone(), setting) is second
    # The first program's binaries were dropped: it is compiled afresh.
    again = compiler.compile(original, setting)
    assert again == first and again is not first


def test_memo_is_not_shared_by_programs_with_one_name():
    original = mibench_program("crc")
    changed = _changed_copy(original)

    rng = random.Random(7)
    compiler = Compiler()
    first = climb(o3_setting(), rng, 12)
    run_walk(compiler, Reference(original), first)
    memo = memo_of(compiler, original)
    assert memo is not None
    # Settings the original never saw: the changed program's misses must
    # come from a memo of its own, not from the original's.
    seen = {setting.canonical() for batch in first for setting in batch}
    fresh = [
        batch
        for batch in climb(FlagSetting.from_indices([0] * len(FLAG_SPECS)), rng, 12)
        if not seen & {setting.canonical() for setting in batch}
    ]
    assert len(fresh) >= 6
    run_walk(compiler, Reference(changed), fresh)
    assert memo_of(compiler, changed) not in (None, memo)
    # An equal-content copy (distinct objects) keeps the memo.
    memo = memo_of(compiler, changed)
    run_walk(compiler, Reference(changed.clone()), [[neighbour(o3_setting(), rng)]])
    assert memo_of(compiler, changed) is memo


def test_memo_after_clear_cache():
    program = mibench_program("bitcnts")
    other = mibench_program("crc")
    rng = random.Random(11)
    compiler = Compiler()
    reference = Reference(program)
    walk = climb(o3_setting(), rng, 12)
    run_walk(compiler, reference, walk)
    compiler.compile(other, o3_setting())
    assert memo_of(compiler, program) is not None
    compiler.clear_cache()
    assert memo_of(compiler, program) is None and memo_of(compiler, other) is None
    assert retained(compiler) == 0
    # Repeats and new neighbours, compiled from scratch and re-memoised.
    run_walk(compiler, reference, walk + climb(walk[-1][-1], rng, 12))
    assert memo_of(compiler, program) is not None


def interleaved(names, rng: random.Random, rounds: int):
    """A protocol-shaped walk: ``(name, batch)`` with the program changing
    every batch, each batch a few settings near that program's earlier
    ones (as a model's predictions are) and one random setting."""
    recent = {name: [o3_setting()] for name in names}
    walk = []
    for round_ in range(rounds):
        name = names[round_ % len(names)]
        batch = [neighbour(rng.choice(recent[name]), rng) for _ in range(3)]
        batch.append(
            FlagSetting.from_indices([rng.randrange(spec.cardinality) for spec in FLAG_SPECS])
        )
        recent[name].extend(batch)
        walk.append((name, batch))
    return walk


INTERLEAVED = ("sha", "crc", "dijkstra", "bitcnts")


def test_interleaved_programs_match_independent_compiles():
    references = {name: Reference(mibench_program(name)) for name in INTERLEAVED}
    compiler = Compiler()
    memos = {}
    for name, batch in interleaved(INTERLEAVED, random.Random(21), 24):
        run_walk(compiler, references[name], [batch])
        memos.setdefault(name, memo_of(compiler, references[name].program))
    # Each program kept its memo across the other programs' compiles.
    for name, memo in memos.items():
        assert memo_of(compiler, references[name].program) is memo, name


def test_evicted_memo_recompiles_identical_bytes(monkeypatch):
    program, other = mibench_program("sha"), mibench_program("crc")
    reference = Reference(program)
    compiler = Compiler()
    rng = random.Random(5)
    run_walk(compiler, reference, climb(o3_setting(), rng, 8))
    first = memo_of(compiler, program)
    # A budget the other program's memo alone overflows: both go.
    with monkeypatch.context() as patch:
        patch.setattr(memo_module, "RETAINED_SLOTS", 1)
        run_walk(compiler, Reference(other), climb(o3_setting(), rng, 8))
    assert memo_of(compiler, program) is None and retained(compiler) == 0
    run_walk(compiler, reference, climb(o3_setting(), rng, 8))
    assert memo_of(compiler, program) not in (None, first)


def test_retained_slots_never_exceed_the_budget(monkeypatch):
    budget = 6_000
    monkeypatch.setattr(memo_module, "RETAINED_SLOTS", budget)
    references = {name: Reference(mibench_program(name)) for name in INTERLEAVED}
    compiler = Compiler()
    dropped = shrunk = False
    for name, batch in interleaved(INTERLEAVED, random.Random(8), 24):
        run_walk(compiler, references[name], [batch])
        assert retained(compiler) <= budget
        memos = [memo_of(compiler, reference.program) for reference in references.values()]
        dropped |= None in memos
        shrunk |= any(memo is not None and memo._held for memo in memos)
    assert dropped and shrunk


def test_trim_asks_only_memos_with_something_to_drop(monkeypatch):
    """Under a budget that binds on most batches, the trim asks a memo to
    shrink only while it holds a snapshot or a sibling record, and every
    binary still equals a plain pass loop's."""
    monkeypatch.setattr(memo_module, "RETAINED_SLOTS", 2_500)
    shrink = PassMemo.shrink
    asked: list[bool] = []

    def recorded(memo: PassMemo, limit: int) -> int:
        asked.append(bool(memo._snapshots or memo._siblings))
        return shrink(memo, limit)

    monkeypatch.setattr(PassMemo, "shrink", recorded)
    references = {name: Reference(mibench_program(name)) for name in INTERLEAVED}
    compiler = Compiler()
    for name, batch in interleaved(INTERLEAVED, random.Random(8), 24):
        run_walk(compiler, references[name], [batch])
    assert asked and all(asked), f"{asked.count(False)} of {len(asked)} asks had nothing to drop"


def test_memo_shared_by_threads(monkeypatch):
    """Three threads walk interleaved programs while two more hammer cache
    hits on them, all switching every microsecond, under a budget that
    evicts all the time.  A compiler used outside its lock fails here:
    its program table changes under an eviction scan, its slot count
    drifts from what its memos hold, or a memo's tables are corrupted."""
    monkeypatch.setattr(memo_module, "RETAINED_SLOTS", 1_500)
    compiler = Compiler()
    failures: list[BaseException] = []
    references = {name: Reference(mibench_program(name)) for name in ("sha", "crc")}
    for reference in references.values():
        compiler.compile(reference.program, o3_setting())

    def walker(seed: int) -> None:
        try:
            for name, batch in interleaved(tuple(references), random.Random(seed), 12):
                run_walk(compiler, references[name], [batch])
        except BaseException as error:  # reported by the main thread
            failures.append(error)

    def hammer() -> None:
        try:
            while not done.is_set():
                for reference in references.values():
                    compiler.compile(reference.program, o3_setting())
        except BaseException as error:
            failures.append(error)

    done = threading.Event()
    walkers = [threading.Thread(target=walker, args=(seed,)) for seed in range(3)]
    hammers = [threading.Thread(target=hammer) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in walkers + hammers:
            thread.start()
        for thread in walkers:
            thread.join()
    finally:
        done.set()
        for thread in hammers:
            thread.join()
        sys.setswitchinterval(interval)
    assert not failures, failures
    assert compiler._retained == retained(compiler) <= memo_module.RETAINED_SLOTS
    for memo in filter(None, (memo_of(compiler, ref.program) for ref in references.values())):
        # A new state's id comes from one (state, pass) only: its siblings'.
        made: dict[int, set] = {}
        for (before, level, _), (after, _) in memo._steps.items():
            if after != before:
                made.setdefault(after, set()).add((before, level))
        assert all(len(origins) == 1 for origins in made.values()), "two states share an id"
        records = [changes for group in memo._siblings.values() for _, changes in group]
        for group in memo._siblings.values():
            states = [state for state, _ in group]
            assert len(set(states)) == len(states), "two siblings share an id"
        assert memo._held == sum(snapshot.size_insns for snapshot in memo._snapshots.values())
        assert memo.retained == len(memo._steps) + memo._held + sum(
            map(memo_module._record_slots, records)
        )


def test_long_compile_walk_leaves_the_source_unchanged():
    program = mibench_program("susan_c")
    before = fold_ir(program)
    compiler = Compiler()
    walk = climb(o3_setting().with_values(funroll_loops=True), random.Random(5), 40)
    for batch in walk:
        compiler.compile_many(program, batch)
    assert memo_of(compiler, program)._steps
    assert fold_ir(program) == before


def different(value):
    """Some other value of ``value``'s kind (dict and list orders count)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        return next(member for member in type(value) if member is not value)
    if isinstance(value, (int, float)):
        return value + 1
    if value is None or isinstance(value, str):
        return f"{value}~"
    if isinstance(value, frozenset):
        return value | {"peephole"}
    if isinstance(value, tuple):
        return value + ((9, "alu"),)
    if isinstance(value, list):
        return value + value[:1]
    if isinstance(value, dict):
        assert len(value) > 1
        return dict(reversed(value.items()))
    raise TypeError(type(value))


def field_changes(program: Program):
    """``(field, copy, owner)``: a copy of ``program`` with one field
    changed, for every field of every IR class, and what finds the block,
    function or program whose own fields changed in a copy (what a pass
    marks).  The program name is left out: passes never read it, and the
    compiler keys its run by name."""
    function = next(f for f in program.functions.values() if f.loops and len(f.blocks) > 1)
    label = next(label for label in function.layout if function.blocks[label].instructions)

    def copy_of():
        copy = program.clone()
        return copy, copy.functions[function.name]

    def block_of(copy):
        return copy.functions[function.name].blocks[label]

    def function_of(copy):
        return copy.functions[function.name]

    def program_of(copy):
        return copy

    for field in dataclasses.fields(Instruction):
        copy, fn = copy_of()
        block = fn.blocks[label]
        value = getattr(block.instructions[0], field.name)
        block.instructions[0] = block.instructions[0].replace(**{field.name: different(value)})
        yield f"Instruction.{field.name}", copy, block_of
    for field in dataclasses.fields(BasicBlock):
        copy, fn = copy_of()
        block = fn.blocks[label]
        setattr(block, field.name, different(getattr(block, field.name)))
        yield f"BasicBlock.{field.name}", copy, block_of
    for field in dataclasses.fields(Loop):
        copy, fn = copy_of()  # clones its loops
        loop = fn.loops[0]
        setattr(loop, field.name, different(getattr(loop, field.name)))
        yield f"Loop.{field.name}", copy, function_of
    for field in dataclasses.fields(Function):
        copy, fn = copy_of()
        setattr(fn, field.name, different(getattr(fn, field.name)))
        yield f"Function.{field.name}", copy, function_of
    for field in dataclasses.fields(DataRegion):
        copy, _ = copy_of()  # shares its regions
        name, region = next(iter(copy.regions.items()))
        region = copy.regions[name] = shallow_copy(region)
        setattr(region, field.name, different(getattr(region, field.name)))
        yield f"DataRegion.{field.name}", copy, program_of
    for field in dataclasses.fields(Program):
        if field.name == "name":
            continue
        copy, _ = copy_of()
        setattr(copy, field.name, different(getattr(copy, field.name)))
        yield f"Program.{field.name}", copy, program_of


def test_siblings_differing_in_one_ir_field_are_never_merged():
    """Two runs of one pass from one state that marked the same object
    and differ in any one field of it get two states; two that made the
    same change, on objects of their own, get one."""
    program = mibench_program("qsort")  # two functions, three regions
    passes = default_pass_order()
    level = next(level for level, optimisation in enumerate(passes) if optimisation.branches)
    changed = list(zip(field_changes(program), field_changes(program)))
    assert len(changed) >= 30
    for (field, copy, owner), (_, twin, _) in changed:
        memo = PassMemo(passes, program)

        def run_result(ir: Program) -> int:
            """The state ``memo`` names ``ir`` as a result of pass ``level``
            from the source that marked ``owner`` alone."""
            memo_module._changes(ir, copy=False)
            owner(ir).changed()
            return memo._state_after(ir, SOURCE, level)

        unchanged = run_result(program.clone())
        assert run_result(copy) != unchanged, field
        assert twin is not copy and run_result(twin) == run_result(copy.clone()), field
        assert len(memo._siblings[(SOURCE, level)]) == 2, field
