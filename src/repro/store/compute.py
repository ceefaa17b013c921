"""The compile-once/simulate-many hot path.

The (program × machine × setting) grid has a crucial structure: the
binary produced for a (program, setting) pair is the same on every
machine, so it only needs to be compiled once and can then be simulated
across a whole chunk of machines.  Compilation (clone + 20 passes +
finalise) is an order of magnitude more expensive than one analytic
simulation, so this is the difference between ``S`` compilations per
shard and ``S × M`` — the dominant cost of dataset generation.

:func:`compute_shard` is the single implementation of that loop; both
:func:`repro.core.training.generate_training_set` (one shard spanning
every machine) and :class:`repro.store.runner.ExperimentRunner` (one
shard per machine chunk) call it, which is what keeps sharded, resumed,
and monolithic builds bit-identical.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.compiler.flags import FlagSetting, FlagSpace, o3_setting
from repro.compiler.ir import Program
from repro.compiler.pipeline import Compiler
from repro.machine.params import MicroArch
from repro.sim.analytic import simulate_analytic
from repro.sim.counters import COUNTER_NAMES
from repro.sim.vector import BinarySignature, MachineMatrix, simulate_many

#: The arrays produced for one (program, machine-chunk) shard:
#: ``runtimes[s, m]``, ``o3_runtimes[m]``, ``counters[m, k]``, and the
#: machine-independent ``code_features[j]`` of the -O3 binary.
ShardArrays = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def compute_shard(
    program: Program,
    machines: Sequence[MicroArch],
    settings: Sequence[FlagSetting],
    compiler: Compiler | None = None,
    vectorize: bool = True,
) -> ShardArrays:
    """One program's training slice over a chunk of machines.

    Each of the ``len(settings) + 1`` binaries (the -O3 baseline plus one
    per setting) is compiled exactly once and simulated on every machine
    in the chunk.  The function is deterministic in its inputs alone, so
    any partition of the machine axis into chunks — computed in any
    order, by any executor — concatenates back to exactly what a single
    monolithic call would produce.

    Every caller runs the :func:`repro.sim.vector.simulate_many` kernel:
    one numpy pass over the whole (binary × machine) grid instead of S×M
    scalar simulations.  ``vectorize=False`` selects the scalar
    :func:`~repro.sim.analytic.simulate_analytic` reference loop instead;
    the two are bit-identical (the vector kernel's contract), and the
    equivalence suite and the benchmarks call the reference this way to
    check and time the kernel against it.
    """
    from repro.core.code_features import static_code_features

    active_compiler = compiler if compiler is not None else Compiler()
    S, M = len(settings), len(machines)

    o3_binary = active_compiler.compile(program, o3_setting())
    code_features = np.asarray(static_code_features(o3_binary), dtype=float)

    if vectorize:
        binaries = [o3_binary] + [
            active_compiler.compile(program, setting) for setting in settings
        ]
        results = simulate_many(
            [BinarySignature.from_binary(binary) for binary in binaries],
            MachineMatrix.from_machines(machines),
        )
        o3_runtimes = results.seconds[0, :].copy()
        counters = results.counters[0, :, :].copy()
        runtimes = results.seconds[1:, :].copy()
        return runtimes, o3_runtimes, counters, code_features

    runtimes = np.empty((S, M), dtype=float)
    o3_runtimes = np.empty(M, dtype=float)
    counters = np.empty((M, len(COUNTER_NAMES)), dtype=float)
    for m, machine in enumerate(machines):
        result = simulate_analytic(o3_binary, machine)
        o3_runtimes[m] = result.seconds
        counters[m, :] = result.counters.vector()
    for s, setting in enumerate(settings):
        binary = active_compiler.compile(program, setting)
        for m, machine in enumerate(machines):
            runtimes[s, m] = simulate_analytic(binary, machine).seconds
    return runtimes, o3_runtimes, counters, code_features


#: Per-process compiler state for pool workers: the active compiler, its
#: configuration key (flag specs are value-hashable; the space object is
#: a fresh unpickle in every task), and the program it last compiled.
#: Keeping the compiler across tasks lets one worker reuse every
#: (program, setting) binary across the machine chunks it processes;
#: clearing its memo when the program changes bounds worker memory to a
#: single program's binaries.
_WORKER_STATE: dict = {}


def compute_shard_task(
    work: tuple[Program, Sequence[MicroArch], Sequence[FlagSetting], FlagSpace, bool],
) -> ShardArrays:
    """Picklable process-pool entry point for :func:`compute_shard`.

    ``work`` is ``(program, machines, settings, flag space, compiler
    cache enabled)``.  The caller's compiler cannot cross the process
    boundary, so each worker keeps its own memoised compiler — results
    are identical to serial ones (compilation is deterministic) even for
    non-default compilers.
    """
    program, machines, settings, space, cache = work
    key = (space.specs, cache)
    if _WORKER_STATE.get("key") != key:
        _WORKER_STATE["key"] = key
        _WORKER_STATE["compiler"] = Compiler(space=space, cache=cache)
        _WORKER_STATE["program"] = program.name
    elif _WORKER_STATE.get("program") != program.name:
        _WORKER_STATE["compiler"].clear_cache()
        _WORKER_STATE["program"] = program.name
    return compute_shard(program, machines, settings, _WORKER_STATE["compiler"])
