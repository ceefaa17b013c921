#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro`` package, with a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --steady 10 --seconds 10      # steadiness table

Workloads (inputs generated from ``--seed``; see ``BENCHMARK.json``):

* ``build``    — cold serial dataset build; one operation is one shard;
* ``protocol`` — warm-store paper protocol; one operation is one fold;
* ``serve``    — closed loop of 2 clients on ``/predict``; one request;
* ``tune``     — smoke-grid autotuning tournament; one search run.

With ``--trace 0`` the last stdout line is the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run (spans
recorded around the public functions of each layer, for one set-up plus
one average traced round).  Every timing is host-normalised (see
``host.py``); the raw values are printed on the ``raw`` line above the
result.  A run and all its processes share one CPU.  The package under
test is ``src/repro`` of the checkout this file sits in; nothing in it
is modified.  ``steadiness.txt`` holds a ``--steady 10`` table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"

#: Set-ups measured per run (fresh processes); ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Identical rounds per run: throughput takes medians across them, and
#: three rounds give every serial workload at least 100 operations (so
#: p90 has 10 samples beyond it).
MIN_ROUNDS = 3
WORKLOADS = ("build", "protocol", "serve", "tune")


def setup_sample(workload: str, seed: int, work: Path, clock) -> tuple[float, float]:
    """One cold set-up in a fresh process: ``(normalised, raw)`` seconds.

    The child probes between its stages; its probes join this process's
    clock (``perf_counter`` is the system-wide monotonic clock)."""
    from workloads import child_command, run_child

    spawned = clock.idle()
    out = run_child(child_command(
        "--workload", workload, "--seed", str(seed), "--work", str(work),
        "--setup-sample", "--spawned-at", repr(spawned),
    ))
    payload = json.loads(out.strip().splitlines()[-1])
    for start, end, seconds in payload["probes"]:
        clock.add_probe(start, end, seconds)
    segments = payload["segments"]
    return (
        sum(clock.normalise(start, end) for start, end in segments),
        sum(end - start for start, end in segments),
    )


def child_setup(args) -> int:
    """``--setup-sample``: set up once, report stage segments and probes."""
    from host import HostClock
    from workloads import SERIAL_WORKLOADS, Context, Stages

    clock = HostClock()
    stages = Stages(clock, float(args.spawned_at))
    SERIAL_WORKLOADS[args.workload].setup(Context(args.seed, Path(args.work), clock), stages)
    print(json.dumps({"segments": stages.segments, "probes": clock.records()}))
    return 0


def run_serial(args, work: Path) -> dict:
    from host import HostClock, Intervals
    from report import end_to_end, peak_rss_mb, per_layer
    from spans import SpanRecorder, install
    from workloads import SERIAL_WORKLOADS, Context, Stages, child_command, run_child

    workload = SERIAL_WORKLOADS[args.workload]
    clock = HostClock()
    ctx = Context(args.seed, work, clock)
    if workload.prepared:
        run_child(child_command(
            "--workload", args.workload, "--seed", str(args.seed),
            "--work", str(work), "--prepare",
        ))
    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        install(recorder)
        recorder.enabled = True
    state = workload.setup(ctx, Stages(clock, clock.idle()))
    samples = []
    if recorder is not None:
        recorder.enabled = False
    else:
        samples = [
            setup_sample(args.workload, args.seed, work, clock)
            for _ in range(SETUP_SAMPLES)
        ]

    count = max(MIN_ROUNDS, round(args.seconds / workload.nominal_round_s))
    outputs = []
    rounds = []
    for index in range(count):
        if recorder is not None:
            # Odd rounds are traced, even ones not: the overhead baseline
            # is the same process doing the same work after warm-up.
            recorder.phase = "round"
            recorder.enabled = index % 2 == 1
        rounds.append(Intervals(clock))
        outputs.append(workload.run_round(state, ctx, rounds[-1], index))
    if recorder is not None:
        recorder.enabled = False
    clock.idle()
    rss_mb = peak_rss_mb()  # before the checks, which are not the program's
    failed, notes = workload.check(state, ctx, outputs)
    attempted = sum(r.ops for r in rounds)

    result = {"attempted": attempted, "failed": failed, "notes": notes,
              "host": clock.diagnostics()}
    if recorder is None:
        result["metrics"], result["raw"], result["detail"] = end_to_end(
            rounds, samples, rss_mb, attempted, failed
        )
    else:
        traced, untraced = rounds[1::2], rounds[2::2] or rounds[:1]
        overhead = (
            statistics.fmean(r.busy_seconds() for r in traced)
            / statistics.fmean(r.busy_seconds() for r in untraced)
        )
        ops = [(start, end, None) for r in traced for start, end in r.op_spans()]
        result["metrics"] = per_layer(recorder, clock, len(traced), ops, overhead)
        result["spans"] = recorder
    return result


def print_result(args, result: dict) -> None:
    from report import PER_LAYER, UNITS

    units = UNITS if not args.trace else dict(PER_LAYER)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} operations, {result['failed']} failed")
    for note in result["notes"]:
        print(f"  check: {note}")
    host = result["host"]
    print(f"  host: probe p50 {host['probe_ms_p50']:.3f} ms, "
          f"slow share {host['slow_share']:.2f} over {host['probes']} probes")
    raw = result.get("raw", {})
    detail = result.get("detail", {})
    for name, value in result["metrics"].items():
        line = f"  {name:<40s} {value:14.4f} {units[name]}"
        if name in raw and units[name] in ("s", "ms", "1/s"):
            line += f"   (raw {raw[name]:.4f})"
        if name in detail:
            line += f"   [{detail[name]}]"
        print(line)
    if "spans" in result:
        print_breakdown(result["spans"])
    if raw:
        print("raw " + json.dumps(raw, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))


def print_breakdown(recorder) -> None:
    """Raw per-span totals and self times of the traced rounds."""
    from collections import defaultdict

    from spans import self_times

    spans = [span for span in recorder.spans if span[2] is not None]
    own = self_times(spans)
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for span, self_seconds in zip(spans, own):
        if span[5] != "round":
            continue
        entry = totals[span[0]]
        entry[0] += 1
        entry[1] += span[2] - span[1]
        entry[2] += self_seconds
    print("  traced rounds, raw span totals (calls, total ms, self ms):")
    for name, (calls, total, own_seconds) in sorted(
        totals.items(), key=lambda item: -item[1][1]
    ):
        print(f"    {name:<44s} {calls:8d} {total * 1e3:12.2f} {own_seconds * 1e3:12.2f}")


def steady(args) -> int:
    """Run every workload ``--steady`` times (seeds 1..k) and print, per
    metric, the median, quartiles and quartile spread against the bound,
    host-normalised beside raw."""
    from report import END_TO_END
    from workloads import child_command, run_child

    bounds = {name: bound for name, _, _, bound in END_TO_END}
    print(f"steadiness: {args.steady} runs per workload, --seconds {args.seconds}")
    print(f"{'workload':<9s} {'metric':<17s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s} {'raw med':>11s} {'raw sprd':>8s}")
    for workload in WORKLOADS:
        values, raws = [], []
        for seed in range(1, args.steady + 1):
            started = time.time()
            out = run_child(child_command(
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ), timeout=600)
            lines = out.strip().splitlines()
            final = json.loads(lines[-1])
            if not final["correct"]:
                print(f"{workload} seed {seed}: INCORRECT\n{out}")
                return 1
            values.append({k: v["value"] for k, v in final["metrics"].items()})
            raws.append(next(json.loads(line[4:]) for line in lines if line.startswith("raw ")))
            shown = " ".join(f"{k}={v:.4g}" for k, v in values[-1].items())
            print(f"# {workload} seed {seed}: {time.time() - started:.1f} s wall; {shown}",
                  flush=True)
        for name, _, _, bound in END_TO_END:
            row = [run[name] for run in values]
            raw_row = [run[name] for run in raws]
            q1, median, q3 = statistics.quantiles(row, n=4)
            rq1, raw_median, rq3 = statistics.quantiles(raw_row, n=4)
            spread = (q3 - q1) / median if median else 0.0
            raw_spread = (rq3 - rq1) / raw_median if raw_median else 0.0
            print(f"{workload:<9s} {name:<17s} {median:11.4f} {q1:11.4f} {q3:11.4f} "
                  f"{spread:7.3f} {bounds[name]:6.2f} {raw_median:11.4f} {raw_spread:8.3f}",
                  flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="K",
                        help="run each workload K times and print the spreads")
    # Internal: helper processes started by a run.
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for the run and every process it starts.  On a 2-vCPU
    # virtual machine, each /predict round trip between client and server
    # on different vCPUs waits for the host to wake the other vCPU, and
    # under host load that doubled serve latencies while the host probe
    # (one vCPU, no wake-ups) barely moved.  On one CPU the probe sees
    # the same core the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.steady:
        return steady(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_sample:
        if args.workload == "serve":
            parser.error("serve set-ups are sampled by launching the server")
        return child_setup(args)
    if args.prepare:
        from host import HostClock
        from workloads import SERIAL_WORKLOADS, Context

        ctx = Context(args.seed, Path(args.work), HostClock())
        if args.workload == "serve":
            from serve import prepare

            prepare(ctx)
        else:
            SERIAL_WORKLOADS[args.workload].prepare(ctx)
        return 0

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "serve":
            from serve import run_serve

            result = run_serve(args, work)
        else:
            result = run_serial(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print_result(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
