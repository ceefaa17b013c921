"""The ``serve`` workload: ``/predict`` under a closed loop of 2 clients.

Callers such as a build system wait for each reply, so the load is a
closed loop: each client thread sends its next request only after the
previous reply.  The service speaks HTTP/1.0 and closes every
connection, so each request opens a fresh connection.  The rounds are
spread over ``LOADED`` server processes, so that no one process sets
the figures; every launch is also a set-up sample.

The request pool is a blend of counters-mode and program-spec payloads
over sampled machines and programs, with ``top`` in {1, 5, 20}, as many
of each kind and ``top``.  The pool itself is fixed: the cost of ranking
depends on each query's predicted distribution, and pools drawn per seed
moved the cost of a run by 15% between seeds.  Each client sends the
whole pool once per round, in ``SEGMENTS`` segments separated by host
probes (taken in the server, then in the client, with nothing in
flight).  A segment holds the same balanced third of the pool for both
clients in every round, so that neither client is left alone with the
heavy requests.  The run's seed orders the requests: each client sends
each segment in its own seeded order, drawn afresh every round, so that
which requests meet in the server varies from round to round and no one
pairing sets the figures.  Every reply must be byte-equal to the
in-process ``ranked_prediction`` payload for its request.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from host import HostClock
from report import end_to_end, per_layer
from spans import SpanRecorder
from workloads import Context, child_command, run_child

HERE = Path(__file__).resolve().parent

CLIENTS = 2
TOPS = (1, 5, 20)
#: Requests of each kind (counters, program spec) per ``top`` value.
PER_KIND_AND_TOP = 10
SEGMENTS = 3
MACHINES = 8
POOL_SEED = 0
#: Rounds per run (120 requests each): one per NOMINAL_ROUND_S of
#: ``--seconds``, at least 8.  At 8 (960 requests) the tail is p95 with
#: 48 requests beyond it; from 1000 on it would be a p99 resting on 10.
MIN_ROUNDS = 8
NOMINAL_ROUND_S = 1.25
#: Server launches per run, each one a set-up sample; the last LOADED
#: of them serve the rounds between them.
LAUNCHES = 5
LOADED = 4


def registry_dir(ctx: Context) -> Path:
    return ctx.work / "registry"


def prepare(ctx: Context) -> None:
    """Train the tiny model and promote it in a fresh registry."""
    from repro.api import Session

    session = Session("tiny", cache_dir=ctx.work / "cache")
    session.models.fit()
    session.models.register(registry=registry_dir(ctx), promote=True)


def request_pool() -> list[dict]:
    """The balanced set of distinct request payloads."""
    from repro.api import Session
    from repro.programs.mibench import MIBENCH_ORDER
    from repro.sim.analytic import simulate_analytic
    from repro.sim.counters import COUNTER_NAMES

    session = Session("tiny", use_disk_cache=False)
    rng = random.Random(POOL_SEED)
    machines = session.machines(MACHINES, seed=POOL_SEED)
    per_kind = len(TOPS) * PER_KIND_AND_TOP
    tops = [top for top in TOPS for _ in range(PER_KIND_AND_TOP)]
    pool = []
    for program, top in zip(rng.sample(MIBENCH_ORDER, per_kind), tops):
        machine = rng.choice(machines)
        profile = simulate_analytic(session.compile(program), machine)
        pool.append({
            "machine": dataclasses.asdict(machine),
            "top": top,
            "counters": dict(zip(COUNTER_NAMES, profile.counters.vector())),
        })
    for program, top in zip(rng.sample(MIBENCH_ORDER, per_kind), tops):
        pool.append({
            "machine": dataclasses.asdict(rng.choice(machines)),
            "top": top,
            "program": program,
        })
    return pool


def expected_bodies(ctx: Context, pool: list[dict]) -> list[bytes]:
    """Each request's reply computed in-process from the same registry."""
    from repro.api import Session
    from repro.machine import MicroArch
    from repro.service.service import canonical_json
    from repro.sim.counters import COUNTER_NAMES, PerfCounters

    session = Session("tiny", use_disk_cache=False)
    entry = session.models.load_registered(registry=registry_dir(ctx))
    info = {"version": entry.version, "digest": entry.digest,
            "fingerprint": entry.fingerprint}
    bodies = []
    for payload in pool:
        machine = MicroArch(**payload["machine"])
        if "counters" in payload:
            counters = PerfCounters(*(float(payload["counters"][n]) for n in COUNTER_NAMES))
            ranked = session.models.rank_counters(counters, machine, top=payload["top"])
        else:
            ranked = session.models.rank(payload["program"], machine, top=payload["top"])
        bodies.append(canonical_json({"model": info, **ranked.payload()}).encode())
    return bodies


class Server:
    """One launched server process."""

    def __init__(self, ctx: Context, trace: bool):
        spawned = ctx.clock.idle()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"),
             "--registry", str(registry_dir(ctx)), "--trace", str(int(trace)),
             "--spawned-at", repr(spawned)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(f"server exited with {self.proc.returncode} before ready")
        ready = json.loads(line)
        self.port = ready["port"]
        for start, end, seconds in ready["probes"]:
            ctx.clock.add_probe(start, end, seconds)
        self.setup = (
            sum(ctx.clock.normalise(s, e) for s, e in ready["segments"]),
            sum(e - s for s, e in ready["segments"]),
        )

    def command(self, text: str) -> dict | None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        if text == "stats":
            return json.loads(self.proc.stdout.readline())
        return None

    def idle(self, clock: HostClock) -> float:
        """Probe in the server, then here; return when both are done.

        The run shares one CPU, so the two probes take turns: run at
        once, each would time the scheduler's interleaving of both."""
        self.command("probe")
        clock.add_probe(*json.loads(self.proc.stdout.readline()))
        return clock.idle()

    def stop(self) -> None:
        try:
            self.command("quit")
            self.proc.stdin.close()
        except (BrokenPipeError, OSError):
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def post(port: int, body: bytes, request_id: str) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        connection.request("POST", "/predict", body=body, headers={
            "Content-Type": "application/json", "X-Request-Id": request_id,
        })
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class LoadGenerator:
    """The closed loop: ``CLIENTS`` threads released segment by segment."""

    def __init__(self, port: int, bodies: list[bytes], seed: int, first_segment: int = 0):
        self.port = port
        self.bodies = bodies
        self.seed = seed
        #: (start, end, pool index, status, reply, request id, segment)
        self.requests: list[tuple] = []
        self.segment = first_segment
        self._lock = threading.Lock()
        self._go = threading.Barrier(CLIENTS + 1)
        self._done = threading.Barrier(CLIENTS + 1)
        self._stop = False
        self.threads = [
            threading.Thread(target=self._client, args=(client,), daemon=True)
            for client in range(CLIENTS)
        ]
        for thread in self.threads:
            thread.start()

    def _client(self, client: int) -> None:
        sent = 0
        while True:
            self._go.wait()
            if self._stop:
                return
            # The pool runs kind by kind and top by top: every third
            # request gives each segment an even share of both.
            batch = list(range(self.segment % SEGMENTS, len(self.bodies), SEGMENTS))
            random.Random(f"{self.seed}/{client}/{self.segment}").shuffle(batch)
            for index in batch:
                request_id = f"c{client}-{sent}"
                sent += 1
                start = time.perf_counter()
                try:
                    status, reply = post(self.port, self.bodies[index], request_id)
                except OSError as error:
                    status, reply = 0, str(error).encode()
                end = time.perf_counter()
                with self._lock:
                    self.requests.append(
                        (start, end, index, status, reply, request_id, self.segment)
                    )
            self._done.wait()

    def run_segment(self) -> None:
        self._go.wait()
        self._done.wait()
        self.segment += 1

    def close(self) -> None:
        self._stop = True
        self._go.wait()
        for thread in self.threads:
            thread.join(timeout=60)


def run_serve(args, work: Path) -> dict:
    clock = HostClock()
    ctx = Context(args.seed, work, clock)
    run_child(child_command(
        "--workload", "serve", "--seed", str(args.seed), "--work", str(work), "--prepare",
    ))
    pool = request_pool()
    bodies = [json.dumps(payload).encode() for payload in pool]

    trace = bool(args.trace)
    tracing = False
    count = max(MIN_ROUNDS, round(args.seconds / NOMINAL_ROUND_S))
    # Untraced, the rounds are spread over LOADED servers so that no one
    # server process sets the figures; traced, one server takes them all.
    loaded = 1 if trace else LOADED
    setups, warm, requests, rss = [], [], [], []
    segments: list[tuple[float, float, bool]] = []
    for launch in range(1 if trace else LAUNCHES):
        server = Server(ctx, trace=trace)
        setups.append(server.setup)
        if launch < LAUNCHES - loaded and not trace:
            server.stop()
            continue
        try:
            # Warm-up: every distinct request once, so -O3 compiles are memoised.
            warm += [
                (i, *post(server.port, body, f"warm-{i}")) for i, body in enumerate(bodies)
            ]
            load = LoadGenerator(server.port, bodies, args.seed, len(segments))
            before = None
            for index in range(count // loaded * SEGMENTS):
                if trace and index == (count // 3) * SEGMENTS:
                    # The first third is untraced: the overhead baseline.
                    before = server.command("stats")
                    server.command("trace")
                    tracing = True
                start = server.idle(clock)
                load.run_segment()
                end = time.perf_counter()
                segments.append((start, end, tracing))
            load.close()
            server.idle(clock)
            stats = server.command("stats")
            requests += load.requests
            rss.append(stats["rss_mb"])
        finally:
            server.stop()
    count = len(segments) // SEGMENTS

    expected = expected_bodies(ctx, pool)
    failed = sum(
        1 for i, status, reply in warm
        if status != 200 or reply != expected[i]
    )
    failed += sum(
        1 for _, _, index, status, reply, _, _ in requests
        if status != 200 or reply != expected[index]
    )
    attempted = len(warm) + len(requests)
    notes = [f"{failed} replies differ from the in-process ranking"] if failed else []

    factors = [clock.factor(start, end) for start, end, _ in segments]
    result = {"attempted": attempted, "failed": failed, "notes": notes,
              "host": clock.diagnostics()}
    if not trace:
        rounds = [_Round() for _ in range(count)]
        for index, ((start, end, _), factor) in enumerate(zip(segments, factors)):
            rounds[index // SEGMENTS].segments.append((end - start, factor))
        for start, end, index, _, _, request_id, segment in requests:
            client = request_id.split("-")[0]
            rounds[segment // SEGMENTS].latencies[client, index] = (
                end - start, factors[segment],
            )
        metrics, raw, detail = end_to_end(
            rounds, setups, max(rss), attempted, failed
        )
        result.update(metrics=metrics, raw=raw, detail=detail)
        return result

    # Every span is the server's: the client only times whole requests.
    recorder = SpanRecorder()
    recorder.merge(stats["spans"])
    traced = {i for i, (_, _, on) in enumerate(segments) if on}

    def mean_busy(indices) -> float:
        return statistics.fmean(
            (segments[i][1] - segments[i][0]) * factors[i] for i in indices
        )

    overhead = mean_busy(traced) / mean_busy(set(range(len(segments))) - traced)
    n_traced = len(traced) // SEGMENTS
    client_ms = sum(
        (end - start) * factors[segment] * 1e3
        for start, end, *_, segment in requests if segment in traced
    )
    server_ms = sum(
        (end - start) * clock.factor(start, start) * 1e3
        for name, start, end, _, _, phase in stats["spans"]["spans"]
        if name == "service.predict" and phase == "round"
    )
    batches = stats["batching"]["batches"] - before["batching"]["batches"]
    batched = stats["batching"]["requests"] - before["batching"]["requests"]
    extra = {
        "service.predict.ms": server_ms / n_traced,
        "service.queue_http.ms": (client_ms - server_ms) / n_traced,
        "service.batches": batches / n_traced,
        "service.batch_size_mean": batched / batches if batches else 0.0,
        "service.shed": (stats["load"]["shed"] - before["load"]["shed"]) / n_traced,
    }
    ops = [
        (start, end, request_id)
        for start, end, _, _, _, request_id, segment in requests
        if segment in traced
    ]
    result["metrics"] = per_layer(recorder, clock, n_traced, ops, overhead, extra)
    result["spans"] = recorder
    return result


@dataclasses.dataclass
class _Round:
    """One round's segments and requests as ``(raw seconds, host factor)``,
    in the shape ``end_to_end`` reads.  Requests are keyed by (client,
    pool index), which every round sends exactly once."""

    segments: list[tuple[float, float]] = dataclasses.field(default_factory=list)
    latencies: dict[tuple[str, int], tuple[float, float]] = dataclasses.field(
        default_factory=dict
    )

    def op_seconds(self, normalised: bool = True) -> list[float]:
        return [
            t * (f if normalised else 1.0)
            for _, (t, f) in sorted(self.latencies.items())
        ]

    def busy_profile(self, normalised: bool = True) -> list[float]:
        return [t * (f if normalised else 1.0) for t, f in self.segments]
