"""Serving-tier benchmark: concurrent-client /predict throughput.

The deployed predictor answers many clients at once, and PR 8's serving
tier coalesces concurrent single ``/predict`` requests into one
ranking-kernel pass (:class:`~repro.service.service.PredictBatcher`).
This harness drives the same concurrent client load through two
:class:`~repro.service.PredictionService` instances over one promoted
model — micro-batching on vs off — certifies every batched response is
byte-identical to the unbatched answer for the same payload, and reports
the throughput ratio.  The two services run in alternating rounds and the
reported speedup is the median of the per-round ratios, so a slow spell
on a shared host lands on both sides of a ratio instead of on one.

Two modes:

* ``pytest benchmarks/bench_serve.py --benchmark-only`` — the
  interactive pytest-benchmark suite;
* ``PYTHONPATH=src python benchmarks/bench_serve.py [--smoke]
  [--out BENCH_serve.json] [--min-speedup X]`` — emits the
  machine-readable ``BENCH_serve.json`` artifact (requests/sec both
  ways, the speedup, batch statistics, and the equivalence verdict)
  that CI uploads and the README's performance table cites.
"""

import dataclasses
import statistics
import tempfile
import threading
import time

from repro.api import Session
from repro.experiments.config import PRESETS
from repro.experiments.dataset import load_or_build
from repro.service import PredictionService, canonical_json
from repro.sim.counters import COUNTER_NAMES

#: Concurrent clients; chosen so batches actually form (the batcher
#: drains whatever queued behind the in-flight dispatch).
CLIENTS = 16


def _deployment(scale_name: str, cache: str) -> Session:
    """Train + promote one model, then a fresh in-memory serving session."""
    data = load_or_build(PRESETS[scale_name], use_disk_cache=False)
    trainer = Session(scale_name, cache_dir=cache)
    trainer.models.fit(data.training)
    trainer.models.register(promote=True)
    return Session(scale_name, cache_dir=cache, use_disk_cache=False)


def _payloads(scale_name: str, top: int) -> list[dict]:
    """Counter-mode predict payloads over the scale's full training grid."""
    data = load_or_build(PRESETS[scale_name], use_disk_cache=False)
    training = data.training
    payloads = []
    for p, name in enumerate(training.program_names):
        for m, machine in enumerate(training.machines):
            payloads.append(
                {
                    "counters": dict(
                        zip(COUNTER_NAMES, training.counters[p, m, :])
                    ),
                    "machine": dataclasses.asdict(machine),
                    "top": top,
                    "program": name,
                }
            )
    return payloads


def _drive(
    service: PredictionService,
    payloads: list[dict],
    clients: int,
    per_client: int,
) -> tuple[float, list[str]]:
    """``clients`` threads, ``per_client`` requests each; returns
    (requests/sec, canonical response bytes indexed by request)."""
    total = clients * per_client
    responses: list[str] = [""] * total
    errors: list[BaseException] = []

    def client(cid: int) -> None:
        try:
            for i in range(per_client):
                index = cid * per_client + i
                responses[index] = canonical_json(
                    service.predict(payloads[index % len(payloads)])
                )
        except BaseException as error:  # noqa: BLE001 - fail the bench
            errors.append(error)

    threads = [
        threading.Thread(target=client, args=(cid,)) for cid in range(clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise SystemExit(f"client thread failed: {errors[0]}")
    return total / elapsed, responses


def test_serve_unbatched(benchmark, tmp_path):
    session = _deployment("tiny", str(tmp_path))
    payloads = _payloads("tiny", top=3)
    service = PredictionService(session, batching=False)
    service.predict(payloads[0])
    benchmark(lambda: _drive(service, payloads, CLIENTS, 5))


def test_serve_batched(benchmark, tmp_path):
    session = _deployment("tiny", str(tmp_path))
    payloads = _payloads("tiny", top=3)
    service = PredictionService(session, batching=True)
    service.predict(payloads[0])
    benchmark(lambda: _drive(service, payloads, CLIENTS, 5))


# --------------------------------------------------------------- artifact
def emit_artifact(out: str, smoke: bool) -> dict:
    """Time batched vs unbatched concurrent serving, write the artifact.

    Both services share one promoted model and answer the exact same
    request stream from ``CLIENTS`` concurrent threads; the batched
    responses must be byte-identical to the unbatched ones before any
    throughput is reported.
    """
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).parent))
    from perfjson import emit, throughput

    scale_name, per_client, rounds = ("tiny", 15, 7) if smoke else ("tiny", 40, 9)
    top = 3
    with tempfile.TemporaryDirectory() as cache:
        session = _deployment(scale_name, cache)
        payloads = _payloads(scale_name, top)
        unbatched = PredictionService(session, batching=False)
        batched = PredictionService(session, batching=True)
        # Warm the version-immutable model cache out of the timed region.
        unbatched.predict(payloads[0])
        batched.predict(payloads[0])
        total = CLIENTS * per_client

        # Certify first: every response the batched service produced
        # under real concurrency must match the unbatched service's
        # answer for the same payload, byte for byte.
        _, reference = _drive(unbatched, payloads, CLIENTS, per_client)
        _, candidate = _drive(batched, payloads, CLIENTS, per_client)
        if reference != candidate:
            raise SystemExit(
                "micro-batched responses drifted from the unbatched reference"
            )

        times: dict[str, list[float]] = {"unbatched": [], "batched": []}
        for _ in range(rounds):
            for name, service in (("unbatched", unbatched), ("batched", batched)):
                started = time.perf_counter()
                _drive(service, payloads, CLIENTS, per_client)
                times[name].append(time.perf_counter() - started)
        batch_stats = batched.batcher.snapshot()

    ratios = [
        slow / fast for slow, fast in zip(times["unbatched"], times["batched"])
    ]

    def timing(seconds: list[float]) -> dict:
        return throughput(
            {
                "best_seconds": min(seconds),
                "mean_seconds": statistics.fmean(seconds),
                "rounds": rounds,
            },
            total,
        )

    payload = {
        "benchmark": "serve",
        "smoke": smoke,
        "scale": scale_name,
        "clients": CLIENTS,
        "requests_per_round": total,
        "top": top,
        "unbatched": timing(times["unbatched"]),
        "batched": timing(times["batched"]),
        "round_speedups": ratios,
        "speedup": statistics.median(ratios),
        "max_batch": batch_stats["max_batch"],
        "batches": batch_stats["batches"],
        "exact_match": True,
    }
    emit(out, payload)
    return payload


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_serve.json")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="exit non-zero if the median per-round batched/unbatched "
        "speedup lands below this",
    )
    args = parser.parse_args()
    result = emit_artifact(args.out, args.smoke)
    if args.min_speedup is not None and result["speedup"] < args.min_speedup:
        raise SystemExit(
            f"speedup {result['speedup']:.2f}x below floor {args.min_speedup}x"
        )
