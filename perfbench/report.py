"""Metric names, units and their computation from intervals and spans."""

from __future__ import annotations

import json
import math
import resource
import statistics
from collections import defaultdict
from pathlib import Path

from host import HostClock
from spans import SpanRecorder, coverage, strategy_self

#: The metrics as ``BENCHMARK.json`` lists them, the one record of their
#: names, units and bounds.  ``ok_ratio`` is 1 - failed/attempted, so
#: that no metric is ever 0.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = tuple(
    (m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
)
UNITS = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])
PER_LAYER_NAMES = tuple(name for name, _ in PER_LAYER)

PASSES = (
    "TreeVrpPass", "TreePrePass", "InlineFunctionsPass", "SiblingCallPass",
    "ThreadJumpsPass", "CsePass", "GcsePass", "LoopInvariantMotionPass",
    "RerunLoopOptPass", "UnswitchLoopsPass", "StrengthReducePass",
    "UnrollLoopsPass", "RerunCsePass", "ScheduleInsnsPass",
    "RegisterAllocationPass", "GcseAfterReloadPass", "PeepholePass",
    "CrossJumpPass", "ReorderBlocksPass", "AlignPass",
)

#: Span names reported as ``<name>.ms`` (host-normalised inclusive time).
TIMED_SPANS = (
    "programs.build_program",
    "compiler.compile", "compiler.clone", "compiler.finalize",
    *(f"compiler.pass.{name}" for name in PASSES),
    "sim.signature", "sim.machine_matrix", "sim.simulate_many",
    "store.write_shard", "store.read_shard", "store.assemble",
    "ioutil.atomic_write",
    "core.fit", "core.predict_many", "core.top_settings",
    "evalrun.compute_fold", "evalrun.write_fold", "evalrun.render_report",
    "api.registry_load",
)

#: Span names whose call count is reported as ``<name>.calls``.
COUNTED_SPANS = (
    "compiler.compile", "sim.simulate_many", "sim.simulate_analytic",
    "ioutil.atomic_write", "core.predict_many", "core.top_settings",
    "autotune.score",
)

#: Counters recorded by the wrappers, reported under their own name.
COUNTERS = (
    "sim.simulate_many.cells", "store.write_shard.bytes",
    "core.predict_many.queries", "evalrun.oracle.calls",
    "evalrun.oracle.store_hits", "evalrun.oracle.fallback_simulations",
    "autotune.evaluations", "autotune.simulations",
)



# ------------------------------------------------------------ end to end
def tail(values: list[float]) -> tuple[float, str, int]:
    """The highest of p90/p95/p99 with >= 10 samples beyond it.

    Nearest-rank percentiles; returns ``(value, label, samples beyond)``.
    Below 100 samples no percentile qualifies and p90 is returned with
    its (short) count, which the printout shows."""
    ordered = sorted(values)
    n = len(ordered)
    for fraction, label in ((0.99, "p99"), (0.95, "p95"), (0.90, "p90")):
        rank = math.ceil(fraction * n)
        if n - rank >= 10 or label == "p90":
            return ordered[max(rank, 1) - 1], label, n - rank
    raise AssertionError("unreachable")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    rounds: list,
    setup_samples: list[tuple[float, float]],
    rss_mb: float,
    attempted: int,
    failed: int,
) -> tuple[dict, dict, dict]:
    """``(metrics, raw metrics, notes)`` for one untraced run.

    ``rounds`` hold identical work, each with ``op_seconds(normalised)``
    and ``busy_profile(normalised)`` (its busy intervals in order).
    Throughput divides a round's operations by the sum, over interval
    positions, of the median across rounds, so a slow host phase that
    hits part of one round does not move it; ``op_p50_ms`` likewise is
    the median over operations of each operation's median across rounds.
    The tail pools every round's operations, for the samples beyond it.
    ``setup_samples`` are ``(normalised, raw)`` seconds."""
    ops_per_round = {len(r.op_seconds()) for r in rounds}
    profiles = {len(r.busy_profile()) for r in rounds}
    if len(ops_per_round) != 1 or len(profiles) != 1:
        raise RuntimeError(f"rounds differ: {ops_per_round} ops, {profiles} intervals")
    metrics, raw, notes = {}, {}, {}
    for normalised, target in ((True, metrics), (False, raw)):
        ops = [t for r in rounds for t in r.op_seconds(normalised)]
        value, label, beyond = tail(ops)
        busy = sum(
            statistics.median(column)
            for column in zip(*(r.busy_profile(normalised) for r in rounds))
        )
        target["setup_s"] = statistics.median(s[0 if normalised else 1] for s in setup_samples)
        target["throughput_per_s"] = next(iter(ops_per_round)) / busy
        target["op_p50_ms"] = statistics.median(
            statistics.median(column)
            for column in zip(*(r.op_seconds(normalised) for r in rounds))
        ) * 1e3
        target["op_tail_ms"] = value * 1e3
        target["peak_rss_mb"] = rss_mb
        target["ok_ratio"] = (attempted - failed) / attempted
        notes["op_tail_ms"] = f"{label}, {beyond} samples beyond it, n={len(ops)}"
    notes["setup_s"] = f"median of {len(setup_samples)} set-ups"
    notes["throughput_per_s"] = f"per-interval medians over {len(rounds)} rounds"
    return metrics, raw, notes


# --------------------------------------------------------------- per layer
def per_layer(
    recorder: SpanRecorder,
    clock: HostClock,
    traced_rounds: int,
    ops: list[tuple[float, float, str | None]],
    overhead_ratio: float,
    extra: dict | None = None,
) -> dict:
    """Per-layer figures for one set-up plus one average traced round.

    Span times are host-normalised by the probes around each span's
    start.  ``ops`` are the traced operations ``(start, end, request)``
    for ``trace.coverage``."""
    spans = [span for span in recorder.spans if span[2] is not None]

    def per_run(by_phase: dict) -> float:
        return by_phase.get("setup", 0.0) + by_phase.get("round", 0.0) / traced_rounds

    ms: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    calls: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for name, start, end, _, _, phase in spans:
        ms[name][phase] += (end - start) * clock.factor(start, start) * 1e3
        calls[name][phase] += 1
    counts: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for (phase, name), value in recorder.counts.items():
        counts[name][phase] += value
    strategy: dict[str, float] = defaultdict(float)
    for start, seconds, phase in strategy_self(spans):
        strategy[phase] += seconds * clock.factor(start, start) * 1e3

    out = {f"{name}.ms": per_run(ms[name]) for name in TIMED_SPANS}
    out.update({f"{name}.calls": per_run(calls[name]) for name in COUNTED_SPANS})
    out.update({name: per_run(counts[name]) for name in COUNTERS})
    out["compiler.compile.misses"] = per_run(calls["compiler.finalize"])
    compiles = out["compiler.compile.calls"]
    out["compiler.memo_hit_ratio"] = (
        1.0 - out["compiler.compile.misses"] / compiles if compiles else 0.0
    )
    lookups = out["evalrun.oracle.calls"]
    out["evalrun.oracle.hit_ratio"] = (
        out["evalrun.oracle.store_hits"] / lookups if lookups else 0.0
    )
    out["autotune.strategy_self.ms"] = per_run(strategy)
    for name in ("service.predict.ms", "service.queue_http.ms", "service.batches",
                 "service.batch_size_mean", "service.shed"):
        out[name] = 0.0
    out.update(extra or {})
    host = clock.diagnostics()
    out["host.probe_ms.p50"] = host["probe_ms_p50"]
    out["host.slow_share"] = host["slow_share"]
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.coverage"] = coverage(spans, ops)
    missing = set(PER_LAYER_NAMES) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: out[name] for name in PER_LAYER_NAMES}
