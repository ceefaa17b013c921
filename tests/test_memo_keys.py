"""The pass memo's incremental state keys are never stale.

After a pass runs, :class:`~repro.compiler.memo.PassMemo` rekeys only
the blocks, functions and program the pass marked with ``changed()``,
and takes a pass that marked nothing to have left its input state.  A
mutation site that forgets its mark would leave a stale cached id, and
the memo would then name two different IRs alike and hand out another
setting's binary.  These tests recompute the full structural key from
scratch (no cached id read or written) after every pass run and check
that it names the very state the incremental key gave.  They cover all
35 MiBench programs, on random settings (as a dataset grid compiles
them) and on Hamming-1 walks (as a search probes neighbours), and two
sites MiBench never reaches: a program without a stack region (the
register allocator adds one) and a callee inlined at a share of its
calls (its own profile is scaled, and it survives).
"""

from __future__ import annotations

import random

import pytest

from test_passes_inline import _caller_with_loop_call

from repro.compiler.flags import FLAG_SPECS, FlagSetting, o3_setting
from repro.compiler.memo import PassMemo
from repro.compiler.pipeline import Compiler
from repro.programs.mibench import MIBENCH_ORDER, mibench_program


@pytest.fixture
def checked_runs(monkeypatch):
    """Check every pass run's incremental key against a full rekey, and
    the state the memo gave it; the list of checked runs, as
    ``(changed, state)`` pairs."""
    runs: list[tuple[bool, int]] = []
    incremental = PassMemo._state_after

    def state_after(self, program, before, final):
        state = incremental(self, program, before, final)
        full = self._key(program, cached=False)
        assert self._key(program) == full, f"stale key after a run from state {before}"
        if state == before or not final:  # a final state has no key
            assert self._states.get(full) == state, (state, before)
        runs.append((state != before, state))
        return state

    monkeypatch.setattr(PassMemo, "_state_after", state_after)
    return runs


def random_setting(rng: random.Random) -> FlagSetting:
    return FlagSetting.from_indices([rng.randrange(spec.cardinality) for spec in FLAG_SPECS])


def hamming_walk(base: FlagSetting, rng: random.Random, steps: int) -> list[FlagSetting]:
    """``base``, then each step one dimension moved to another value."""
    walk = [base]
    for _ in range(steps):
        spec = rng.choice(FLAG_SPECS)
        current = walk[-1]
        value = rng.choice([value for value in spec.values if value != current[spec.name]])
        walk.append(current.with_values(**{spec.name: value}))
    return walk


@pytest.mark.parametrize("name", MIBENCH_ORDER)
def test_incremental_keys_equal_full_keys(name, checked_runs):
    rng = random.Random(f"keys-{name}")
    program = mibench_program(name)
    compiler = Compiler()
    # A dataset-grid-like sample, one compile each, then two Hamming-1
    # walks: around -O3 (everything on that a search starts from) and
    # around a random setting.
    compiler.compile_many(program, [random_setting(rng) for _ in range(6)])
    for setting in hamming_walk(o3_setting().with_values(funroll_loops=True), rng, 8):
        compiler.compile(program, setting)
    compiler.compile_many(program, hamming_walk(random_setting(rng), rng, 8))
    assert any(changed for changed, _ in checked_runs)
    assert any(not changed for changed, _ in checked_runs)


def test_incremental_keys_on_sites_mibench_misses(checked_runs):
    program = _caller_with_loop_call()
    del program.regions["stack"]
    leaf = program.functions["leaf"]
    # Called from outside as often as from the loop: half survives.
    leaf.entry_count *= 2
    leaf.blocks["leaf.body"].exec_count *= 2
    rng = random.Random(3)
    compiler = Compiler()
    binaries = compiler.compile_many(
        program, hamming_walk(o3_setting(), rng, 12) + [random_setting(rng) for _ in range(6)]
    )
    assert any(binary.stats["inline.sites"] for binary in binaries)
    assert len(checked_runs) > 20
