"""The one compile-and-price path, and the searches' evaluation oracle.

One *evaluation* is one compile-and-run of a flag setting on a
(program, machine) pair — the costly unit the paper counts (its "Best"
uses 1000 of them; its model uses one profile run).  Outside shard
builds every such unit goes through a :class:`Pricer`: it compiles a
batch of settings through the compiler's pass memo, checks that each
binary carries the program and setting it was asked for, and runs each
distinct (setting, machine) pair once.  The :class:`Evaluator` the
searches price against is a memoising view of one pricer on one
machine, so revisiting a setting is free, matching how an
iterative-compilation driver would cache results.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.compiler.binary import CompiledBinary
from repro.compiler.flags import FlagSetting, o3_setting
from repro.compiler.ir import Program
from repro.compiler.pipeline import Compiler
from repro.machine.params import MicroArch
from repro.sim.analytic import SimulationResult, simulate_analytic

#: Prices one (binary, machine) pair.
RunFunction = Callable[[CompiledBinary, MicroArch], SimulationResult]


class OracleError(RuntimeError):
    """A pricing request named an unknown pair, or a compile handed back
    a binary other than the one asked for."""


class Pricer:
    """Compile-and-price for one program.

    ``run`` prices one (binary, machine) pair: the analytic model when
    omitted (looked up at call time), a simulator backend's ``run`` in a
    session.  Each returned binary must be *the* binary of (program,
    setting): a cache or executor bug that swapped in another program's
    binary, or one compiled under different flags, would silently
    corrupt every downstream number, so it is checked instead of
    trusted.

    :meth:`price` runs every distinct pair it is asked for;
    :meth:`seconds` memoises per (canonical setting, machine).
    ``simulations`` counts the runs made.  Concurrent callers may share
    a pricer: duplicate work is benign (identical deterministic values)
    and the counter is lock-guarded.
    """

    def __init__(
        self,
        program: Program,
        compiler: Compiler,
        run: RunFunction | None = None,
    ):
        self.program = program
        self.compiler = compiler
        self.run = run
        self.simulations = 0
        self._seconds: dict[tuple[FlagSetting, MicroArch], float] = {}
        self._lock = threading.Lock()

    def price(
        self, settings: Sequence[FlagSetting], machines: Sequence[MicroArch]
    ) -> list[SimulationResult]:
        """The run of ``(settings[i], machines[i])`` for every ``i``.

        The distinct canonical settings compile as one
        :meth:`~repro.compiler.pipeline.Compiler.compile_many` batch
        (first-seen order) and each distinct pair runs once.
        """
        pairs = [
            (setting.canonical(), machine)
            for setting, machine in zip(settings, machines, strict=True)
        ]
        results = self._run(pairs)
        return [results[pair] for pair in pairs]

    def seconds(
        self, settings: Sequence[FlagSetting], machines: Sequence[MicroArch]
    ) -> list[float]:
        """:meth:`price`'s runtimes, memoised: only pairs never priced
        here before compile and run."""
        pairs = [
            (setting.canonical(), machine)
            for setting, machine in zip(settings, machines, strict=True)
        ]
        memo = self._seconds
        fresh = [pair for pair in pairs if pair not in memo]
        if fresh:
            for pair, result in self._run(fresh).items():
                memo[pair] = result.seconds
        return [memo[pair] for pair in pairs]

    def is_cached(self, setting: FlagSetting, machine: MicroArch) -> bool:
        """Whether :meth:`seconds` would answer the pair from its memo."""
        return (setting.canonical(), machine) in self._seconds

    def _run(
        self, pairs: list[tuple[FlagSetting, MicroArch]]
    ) -> dict[tuple[FlagSetting, MicroArch], SimulationResult]:
        """Compile the pairs' distinct settings, check, run each pair once."""
        distinct = dict.fromkeys(pairs)
        canonicals = list(dict.fromkeys(canonical for canonical, _ in distinct))
        binaries = self.compiler.compile_many(self.program, canonicals)
        name = self.program.name
        for canonical, binary in zip(canonicals, binaries, strict=True):
            if binary.program_name != name:
                raise OracleError(
                    f"binary swap: asked for {name!r}, "
                    f"got {binary.program_name!r}"
                )
            recorded = (
                binary.setting.canonical() if binary.setting is not None else None
            )
            if recorded != canonical:
                raise OracleError(
                    f"binary swap: {name!r} binary was compiled under a "
                    "different flag setting than requested"
                )
        by_setting = dict(zip(canonicals, binaries))
        run = self.run if self.run is not None else simulate_analytic
        results = {
            (canonical, machine): run(by_setting[canonical], machine)
            for canonical, machine in distinct
        }
        with self._lock:
            self.simulations += len(results)
        return results


@dataclass
class Evaluator:
    """Runtime oracle for one (program, machine) pair: a view of its own
    :class:`Pricer`.

    ``simulate`` makes the timing tier pluggable: it defaults to the fast
    analytic model, and :class:`repro.api.Session` injects a simulator
    backend's ``run`` here so searches can target the trace tier too.
    """

    program: Program
    machine: MicroArch
    compiler: Compiler = field(default_factory=Compiler)
    simulate: RunFunction | None = None

    def __post_init__(self) -> None:
        self.pricer = Pricer(self.program, self.compiler, self.simulate)

    @property
    def evaluations(self) -> int:
        """Fresh settings priced so far (memo hits are free)."""
        return self.pricer.simulations

    def evaluate(self, setting: FlagSetting) -> float:
        """Runtime in seconds of the program compiled with ``setting``."""
        return self.evaluate_many([setting])[0]

    def evaluate_many(self, settings: Sequence[FlagSetting]) -> list[float]:
        """Runtimes of many settings on this evaluator's machine,
        memoised per canonical setting (see :meth:`Pricer.seconds`)."""
        return self.pricer.seconds(settings, [self.machine] * len(settings))

    def is_cached(self, setting: FlagSetting) -> bool:
        """Whether evaluating ``setting`` would be a memo hit.

        The autotune scorer asks this *before* pricing a batch to count
        fresh simulations (the paper's costly unit) separately from
        budgeted evaluations; canonicalisation is applied, so gated
        aliases of a cached setting report cached too.
        """
        return self.pricer.is_cached(setting, self.machine)

    def o3_runtime(self) -> float:
        return self.evaluate(o3_setting())

    def speedup(self, setting: FlagSetting) -> float:
        return self.o3_runtime() / self.evaluate(setting)


def evaluations_to_reach(
    trajectory: Sequence[float], target_runtime: float
) -> int | None:
    """First evaluation index (1-based) reaching ``target_runtime``.

    Boundary semantics, pinned (consumers cap or gate on this):

    * reaching means ``runtime <= target_runtime`` — equality counts;
    * a search that first reaches the target on its *final* evaluation
      returns ``len(trajectory)``, never ``None``;
    * ``None`` means exactly one thing: no recorded evaluation reached
      the target.  It is **not** a sentinel for "reached at the budget
      cap" — callers that charge unreached runs the full budget must
      test for ``None`` explicitly rather than comparing against
      ``len(trajectory)``, because a legitimate final-evaluation match
      also equals the budget.
    """
    for index, runtime in enumerate(trajectory, start=1):
        if runtime <= target_runtime:
            return index
    return None

