"""``Compiler.compile_many`` (the pass-prefix trie walk) against
independent compiles.

A batch compiled as one trie walk must give, binary for binary, what a
fresh ``Compiler(cache=False).compile`` gives for each setting — every
field folded by ``test_compile_golden._canonical``, so ``stats`` and
``setting`` are compared too.  With the memo on, a setting whose
canonical form came earlier gets the earlier binary (and so the earlier
setting), as sequential ``compile`` calls do.  Batches are built to
branch at every pass level: for each pass, one Hamming-1 probe of the
base setting changes a flag that pass reads.  Duplicates and gated
aliases (settings that differ only under a disabled parent) ride along.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_compile_golden import _canonical

from repro.compiler.flags import FLAG_SPECS, FlagSetting, o3_setting
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
