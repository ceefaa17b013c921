"""The pass memo never names two different IRs alike.

After a pass runs, :class:`~repro.compiler.memo.PassMemo` names the new
state from the pass's ``changed()`` marks alone: a run that marked
nothing keeps its input state, and any other run takes the id of an
equal sibling (a run of the same pass from the same state under another
observation) or a fresh one.  A mutation site that forgets its mark
would leave a change the memo cannot see, and the memo would then hand
out another setting's binary.

These tests check every pass run against an oracle that ignores the
marks and the memo's records: it keeps a copy of every state the memo
named and compares whole IRs, field by field and in dict order.  The
memo's verdict must be the oracle's: *same as the input* only for an
equal IR, *equal to sibling k* only if sibling k's IR is equal, and
*new* only when the IR equals neither the input nor any sibling whose
record the memo still holds (final states, which get fresh ids unseen,
are exempt from the sibling part).
Every object that differs from the input must also carry a mark.  They
cover all 35 MiBench programs, on random settings (as a dataset grid
compiles them) and on Hamming-1 walks (as a search probes neighbours),
and two sites MiBench never reaches: a program without a stack region
(the register allocator adds one) and a callee inlined at a share of
its calls (its own profile is scaled, and it survives).
"""

from __future__ import annotations

import random

import pytest

from test_passes_inline import _caller_with_loop_call

from repro.compiler.flags import FLAG_SPECS, FlagSetting, o3_setting
from repro.compiler.ir import Function, Program
from repro.compiler.memo import SOURCE, PassMemo
from repro.compiler.pipeline import Compiler
from repro.programs.mibench import MIBENCH_ORDER, mibench_program


def _program_own(program: Program) -> tuple:
    return (program.entry, list(program.regions.items()), list(program.functions))


def _function_own(function: Function) -> tuple:
    return (
        function.name, list(function.blocks), function.layout, function.loops,
        function.inline_candidate, function.entry_count,
    )


def same_ir(a: Program, b: Program) -> bool:
    """Every field of every object equal, and every dict in one order."""
    orders = lambda program: [list(f.blocks) for f in program.functions.values()]
    return a == b and _program_own(a) == _program_own(b) and orders(a) == orders(b)


def unmarked_changes(before: Program, after: Program) -> list[str]:
    """Where ``after`` differs from ``before`` without a ``changed()`` mark."""
    missed = []
    if not after._dirty and _program_own(after) != _program_own(before):
        missed.append("program")
    for name, function in after.functions.items():
        old = before.functions.get(name)
        if not function._dirty and (old is None or _function_own(function) != _function_own(old)):
            missed.append(name)
        for label, block in function.blocks.items():
            if not block._dirty and (old is None or old.blocks.get(label) != block):
                missed.append(f"{name}/{label}")
    return missed


@pytest.fixture
def checked_runs(monkeypatch):
    """Check every pass run's marks and the state the memo gave it
    against the oracle; the list of checked verdicts (``same``,
    ``sibling`` or ``new``)."""
    verdicts: list[str] = []
    states: dict[tuple[PassMemo, int], Program] = {}  # every named state
    groups: dict[tuple[PassMemo, int, int], list[int]] = {}  # (state, pass) → results
    naming = PassMemo._state_after

    def state_after(self, program, before, level):
        states.setdefault((self, SOURCE), self._source)
        input_ir = states[(self, before)]
        missed = unmarked_changes(input_ir, program)
        assert not missed, f"pass {level} changed {missed} unmarked"
        # Records the budget dropped cannot be matched; all others must be.
        recorded = {state for state, _ in self._siblings.get((before, level), ())}
        state = naming(self, program, before, level)
        siblings = groups.setdefault((self, before, level), [])
        final = level == len(self._passes) - 1
        equal = [] if final else [s for s in siblings if same_ir(states[(self, s)], program)]
        if state == before:
            assert same_ir(input_ir, program), f"pass {level} kept a changed state"
            verdicts.append("same")
        elif state in siblings:
            assert state in equal, f"pass {level} merged unequal siblings"
            verdicts.append("sibling")
        else:
            assert (self, state) not in states, "a fresh id was used before"
            assert not same_ir(input_ir, program), f"pass {level} missed its input state"
            assert not recorded & set(equal), f"pass {level} missed an equal sibling"
            siblings.append(state)
            if not final:
                states[(self, state)] = program.clone()
            verdicts.append("new")
        return state

    monkeypatch.setattr(PassMemo, "_state_after", state_after)
    return verdicts


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
    assert {"same", "new"} <= set(checked_runs)


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
