"""Micro-benchmarks: compiler and simulator throughput.

These are the per-unit costs that determine experiment wall-clock: one
compilation (clone + 20 passes + finalise) and one analytic simulation —
plus the scalar-vs-vector contrast that motivates the simulate-many
kernel.

Two modes:

* ``pytest benchmarks/bench_throughput.py --benchmark-only`` — the
  interactive pytest-benchmark suite;
* ``PYTHONPATH=src python benchmarks/bench_throughput.py [--smoke]
  [--out BENCH_simulate.json]`` — emits the machine-readable
  ``BENCH_simulate.json`` artifact (scalar vs vector pairs/sec and the
  speedup) that CI uploads and the README's performance table cites.
"""

from repro.compiler import Compiler, o3_setting
from repro.compiler.flags import DEFAULT_SPACE
from repro.machine import xscale
from repro.machine.params import MicroArchSpace
from repro.programs import mibench_program
from repro.sim import simulate_analytic
from repro.sim.vector import BinarySignature, MachineMatrix, simulate_many


def test_compile_throughput(benchmark):
    program = mibench_program("madplay")
    compiler = Compiler(cache=False)
    setting = o3_setting()
    benchmark(compiler.compile, program, setting)


def test_compile_small_program(benchmark):
    program = mibench_program("search")
    compiler = Compiler(cache=False)
    setting = o3_setting()
    benchmark(compiler.compile, program, setting)


def test_simulate_throughput(benchmark):
    program = mibench_program("madplay")
    binary = Compiler().compile(program, o3_setting())
    machine = xscale()
    result = benchmark(simulate_analytic, binary, machine)
    assert result.cycles > 0


def test_program_generation(benchmark):
    from repro.programs import mibench_spec
    from repro.programs.generator import build_program

    spec = mibench_spec("madplay")
    program = benchmark(build_program, spec)
    assert program.size_insns > 0


def _simulate_grid_inputs(n_settings: int, n_machines: int):
    """S compiled binaries (o3 + settings) and M sampled machines."""
    compiler = Compiler()
    program = mibench_program("madplay")
    settings = [o3_setting()] + DEFAULT_SPACE.sample_many(n_settings - 1, seed=7)
    binaries = [compiler.compile(program, setting) for setting in settings]
    machines = MicroArchSpace(extended=True).sample(n_machines, seed=42)
    return binaries, machines


def test_simulate_many_throughput(benchmark):
    """The vector kernel over an (8 × 64) grid, signatures prebuilt."""
    binaries, machines = _simulate_grid_inputs(8, 64)
    signatures = [BinarySignature.from_binary(b) for b in binaries]
    matrix = MachineMatrix.from_machines(machines)
    results = benchmark(simulate_many, signatures, matrix)
    assert results.shape == (8, 64)


def test_simulate_scalar_grid(benchmark):
    """Contrast: the same (8 × 64) grid through S×M scalar calls."""
    binaries, machines = _simulate_grid_inputs(8, 64)

    def scalar():
        return [
            simulate_analytic(binary, machine).seconds
            for binary in binaries
            for machine in machines
        ]

    assert len(benchmark(scalar)) == 8 * 64


# --------------------------------------------------------------- artifact
def emit_artifact(out: str, smoke: bool) -> dict:
    """Time scalar vs vector over one grid and write ``BENCH_simulate.json``.

    Smoke mode shrinks the setting axis (CI time) but keeps the machine
    axis at paper scale — the axis the kernel amortises over.
    """
    from perfjson import emit, measure, throughput

    n_settings, n_machines = (4, 200) if smoke else (13, 400)
    binaries, machines = _simulate_grid_inputs(n_settings, n_machines)
    pairs = n_settings * n_machines

    def scalar():
        for binary in binaries:
            for machine in machines:
                simulate_analytic(binary, machine)

    def vector():
        simulate_many(
            [BinarySignature.from_binary(b) for b in binaries],
            MachineMatrix.from_machines(machines),
        )

    scalar_timing = throughput(measure(scalar, rounds=3), pairs)
    vector_timing = throughput(measure(vector, rounds=3), pairs)

    # The artifact also certifies equivalence on the kernel's outputs,
    # seconds and counters: a speedup from a kernel that drifted from
    # the reference would be worthless.
    import numpy as np

    reference = [[simulate_analytic(b, m) for m in machines] for b in binaries]
    vectored = simulate_many(
        [BinarySignature.from_binary(b) for b in binaries],
        MachineMatrix.from_machines(machines),
    )
    seconds = np.array([[r.seconds for r in row] for row in reference])
    counters = np.array([[r.counters.vector() for r in row] for row in reference])
    if not (
        np.array_equal(seconds, vectored.seconds)
        and np.array_equal(counters, vectored.counters)
    ):
        raise SystemExit("vector kernel drifted from the scalar reference")

    payload = {
        "benchmark": "simulate",
        "smoke": smoke,
        "settings": n_settings,
        "machines": n_machines,
        "scalar": scalar_timing,
        "vector": vector_timing,
        "speedup": scalar_timing["best_seconds"] / vector_timing["best_seconds"],
        "exact_match": True,
    }
    emit(out, payload)
    return payload


if __name__ == "__main__":
    import argparse
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_simulate.json")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero if the vector/scalar speedup lands below this",
    )
    args = parser.parse_args()
    result = emit_artifact(args.out, args.smoke)
    if args.min_speedup is not None and result["speedup"] < args.min_speedup:
        raise SystemExit(
            f"speedup {result['speedup']:.1f}x below floor {args.min_speedup}x"
        )
