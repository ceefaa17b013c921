"""The semantic observables of an execution.

``observable_outputs`` extracts which data regions a program reads and
writes, how often, and the region declarations themselves — the
quantities an optimising compiler must preserve whatever it does to the
timing.  The differential semantics-preservation fuzz suite compares
these between the unoptimised program and every optimised binary.
Timing lives elsewhere: :func:`~repro.sim.analytic.simulate_analytic`
prices one binary, and every compile-and-price outside shard builds
goes through :class:`~repro.search.evaluator.Pricer`.
"""

from __future__ import annotations

from repro.compiler.binary import CompiledBinary, finalize
from repro.compiler.ir import Program


def observable_outputs(target: CompiledBinary | Program) -> dict:
    """The executed, semantically observable outputs of one run.

    For a raw :class:`Program` this is the unoptimised execution (the
    profile run as written); for a :class:`CompiledBinary` it is the
    optimised execution.  Returned observables:

    * ``reads`` / ``writes`` — the sets of non-stack data regions the
      execution dynamically loads from / stores to.  Optimisation must
      preserve these exactly: no pass may invent traffic to a region the
      program never touches, nor eliminate a region's *only* accesses.
    * ``read_counts`` / ``write_counts`` — dynamic access counts per
      region.  Redundancy elimination and invariant motion may only
      *reduce* these (spill traffic goes to the stack region, which is
      machine state, not program output, and is excluded).
    * ``regions`` — every region's declared (size, kind); passes reshape
      code, never data.
    """
    if isinstance(target, Program):
        # Summarise the unoptimised program exactly as the simulator
        # would execute it; ``finalize`` is pure bookkeeping, no passes.
        binary = finalize(target.clone(), None)
    else:
        binary = target
    reads: dict[str, float] = {}
    writes: dict[str, float] = {}

    def record(access) -> None:
        if access.kind == "stack":
            return
        counts = writes if access.is_store else reads
        counts[access.region] = counts.get(access.region, 0.0) + access.count

    for loop in binary.loops:
        for access in loop.accesses:
            record(access)
    for access in binary.flat_accesses:
        record(access)
    return {
        "reads": frozenset(reads),
        "writes": frozenset(writes),
        "read_counts": reads,
        "write_counts": writes,
        "regions": {
            name: (region.size_bytes, region.kind)
            for name, region in sorted(binary.regions.items())
        },
    }
