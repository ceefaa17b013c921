"""Every pass's declared ``reads`` covers every flag it looks at.

:meth:`Compiler.compile_many` lets settings share a pass's run when they
agree on the pass's ``reads``, so a pass that consulted an undeclared
flag would hand some settings another setting's IR.  These tests run the
pipeline's passes 0..k−1 on a program, then pass *k* twice on copies of
the same IR: once under the setting and once under a copy with one flag
outside pass *k*'s ``reads`` changed.  The output IR — every field of
every instruction, block, layout, loop and data region, folded by
:func:`fold_ir` — and the ``PassStats`` must be identical.  The
hypothesis test draws the program, setting, pass and flag at random.  A
second test compiles every program through a setting that records each
flag a pass looks up, and checks the lookups against ``reads``.  A third
runs pass *k* on two equal-content copies of the IR, one of which shares
no instruction object with the other or with itself, and checks that
the outputs are equal: the pass memo names IR by content alone.
"""

from __future__ import annotations

import dataclasses
import enum
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.flags import FLAG_NAMES, FLAG_SPECS, FlagSetting, o0_setting, o3_setting
from repro.compiler.ir import Program
from repro.compiler.passes.base import PassStats
from repro.compiler.pipeline import default_pass_order
from repro.programs.mibench import MIBENCH_ORDER, mibench_program

PASSES = default_pass_order()
SPEC_BY_NAME = {spec.name: spec for spec in FLAG_SPECS}

#: Every pass enabled, every sub-behaviour on: the most flag reads.
EVERYTHING_ON = o3_setting().with_values(
    funroll_loops=True, fgcse_sm=True, fgcse_las=True
)


@functools.cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(field.name for field in dataclasses.fields(cls))


def fold_ir(value):
    """A structural, order-preserving fold of an IR value (or a stats
    counter); equal folds mean equal IR field for field."""
    names = _field_names(type(value))
    if names is not None:
        return (type(value).__name__, *(fold_ir(getattr(value, name)) for name in names))
    if isinstance(value, dict):
        return [(fold_ir(key), fold_ir(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [fold_ir(item) for item in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, float):
        return value.hex()
    return value


def prefix(program: Program, setting: FlagSetting, stop: int):
    """The IR and stats after passes ``0..stop-1`` under ``setting``."""
    working = program.clone()
    stats = PassStats()
    for optimisation in PASSES[:stop]:
        optimisation.apply(working, setting, stats)
    return working, stats


def other_values(name: str, current) -> list:
    return [value for value in SPEC_BY_NAME[name].values if value != current]


def assert_pass_ignores(
    before: Program, stats: PassStats, level: int, setting: FlagSetting, flipped: FlagSetting
) -> None:
    optimisation = PASSES[level]
    outputs = []
    for flags in (setting, flipped):
        working, run_stats = before.clone(), PassStats(stats)
        optimisation.apply(working, flags, run_stats)
        outputs.append((fold_ir(working), dict(run_stats)))
    assert optimisation.enabled(setting) == optimisation.enabled(flipped)
    assert outputs[0] == outputs[1], (type(optimisation).__name__, flipped)


def test_declared_reads_are_flag_names():
    for optimisation in PASSES:
        assert isinstance(optimisation.reads, frozenset)
        assert optimisation.reads <= set(FLAG_NAMES), type(optimisation).__name__


def test_passes_read_every_flag():
    covered = set().union(*(optimisation.reads for optimisation in PASSES))
    assert covered == set(FLAG_NAMES)


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(MIBENCH_ORDER),
    indices=st.tuples(*(st.integers(0, spec.cardinality - 1) for spec in FLAG_SPECS)),
    level=st.integers(0, len(PASSES) - 1),
    data=st.data(),
)
def test_pass_output_ignores_undeclared_flags(name, indices, level, data):
    setting = FlagSetting.from_indices(indices).canonical()
    unread = sorted(set(FLAG_NAMES) - PASSES[level].reads)
    flag = data.draw(st.sampled_from(unread))
    value = data.draw(st.sampled_from(other_values(flag, setting[flag])))
    flipped = setting.with_values(**{flag: value})
    before, stats = prefix(mibench_program(name), setting, level)
    assert_pass_ignores(before, stats, level, setting, flipped)


def unshared(program: Program) -> Program:
    """An equal-content copy in which every instruction slot holds its
    own instruction object."""
    copy = program.clone()
    for function in copy.functions.values():
        for block in function.blocks.values():
            block.instructions = [insn.replace() for insn in block.instructions]
    return copy


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(MIBENCH_ORDER),
    indices=st.tuples(*(st.integers(0, spec.cardinality - 1) for spec in FLAG_SPECS)),
    level=st.integers(0, len(PASSES) - 1),
)
def test_pass_output_depends_only_on_ir_content(name, indices, level):
    setting = FlagSetting.from_indices(indices).canonical()
    before, stats = prefix(mibench_program(name), setting, level)
    outputs = []
    for working in (before.clone(), unshared(before)):
        run_stats = PassStats(stats)
        PASSES[level].apply(working, setting, run_stats)
        outputs.append((fold_ir(working), dict(run_stats)))
    assert outputs[0] == outputs[1], type(PASSES[level]).__name__


class RecordingSetting(FlagSetting):
    """A setting that records the flags a pass looks up."""

    __slots__ = ("read",)

    def __getitem__(self, name: str) -> object:
        self.read.add(name)
        return super().__getitem__(name)

    def __iter__(self):
        self.read.update(FLAG_NAMES)
        return super().__iter__()


@pytest.mark.parametrize("name", MIBENCH_ORDER)
def test_passes_look_up_only_declared_flags(name):
    program = mibench_program(name)
    for setting in (o3_setting(), EVERYTHING_ON, o0_setting()):
        spy = RecordingSetting(dict(setting))
        working, stats = program.clone(), PassStats()
        for optimisation in PASSES:
            spy.read = set()
            optimisation.apply(working, spy, stats)
            assert spy.read <= optimisation.reads, type(optimisation).__name__
