"""Command-line entry point: reproduce any table or figure, or serve it.

Examples::

    repro-experiments list
    repro-experiments headline --scale quick
    repro-experiments fig6 fig7 --scale default --jobs 4
    repro-experiments all --scale quick --cache-dir /tmp/repro-cache

    repro-experiments run --scale paper --jobs -1        # build the dataset
    repro-experiments run --scale paper --resume         # continue after a kill
    repro-experiments run --scale paper --max-shards 50  # budgeted increments
    repro-experiments status --scale paper               # shard completion

    repro-experiments report --scale quick               # the full paper artifact
    repro-experiments report --scale quick --resume      # continue after a kill
    repro-experiments report --only fig6,headline        # a subset, fewer folds

    repro-experiments train --scale quick                # fit + register + promote
    repro-experiments models                             # registry inventory
    repro-experiments models --promote 2                 # flip the served model
    repro-experiments models --rollback                  # undo the last promote
    repro-experiments serve --port 8181                  # the prediction service

Options follow the command; ``repro-experiments <command> -h`` lists the
ones that command takes.

All experiments go through one :class:`repro.api.Session`; its facets own
the dataset store (``session.data``), the model lifecycle and registry
(``session.models``), evaluation (``session.eval``), and the resumable
paper protocol (``session.protocol``).  ``serve`` exposes the registry's
promoted model over HTTP — ``POST /predict``, ``POST /evaluate``,
``GET /healthz``, ``GET /metrics``, and background protocol jobs whose
fold completions stream live from ``GET /jobs/<id>/events``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from collections.abc import Iterable
from functools import partial
from pathlib import Path

from repro.api import (
    DEFAULT_CHANNEL,
    ModelRegistry,
    RegistryError,
    Session,
    registry_root,
)
from repro.evalrun import ARTIFACTS, resolve_artifacts, variants_for_artifacts
from repro.parallel import RUNNER_EXECUTORS
from repro.experiments.dataset import store_root
from repro.store import StoreError
from repro.experiments import Figure10Result, figure6

#: experiment name -> (needs data, one-line description).  Every name but
#: fig10 is an artifact of the paper-protocol report.
EXPERIMENTS = {
    "table1": (True, "the 11 hardware counters of one -O3 profile run"),
    "table2": (False, "the 288,000-point microarchitecture space"),
    "fig1": (True, "per-pass speedup spread across machines (§2 motivation)"),
    "fig3": (False, "the 39-dimension optimisation space census"),
    "fig4": (True, "best-found speedup per program (the 'Best' upper bound)"),
    "fig5": (True, "speedup surface across the machine space"),
    "fig6": (True, "predicted vs best speedup per program (leave-one-out)"),
    "fig7": (True, "predicted vs best speedup per microarchitecture"),
    "fig8": (True, "Hinton diagram: flag vs speedup mutual information"),
    "fig9": (True, "Hinton diagram: feature vs best-flag mutual information"),
    "fig10": (True, "extended space (frequency + issue width) results"),
    "headline": (True, "the paper's headline 'x% of Best' numbers"),
    "iterations": (True, "search evaluations to match the model"),
    "ablate-k": (True, "sensitivity to the KNN neighbour count K"),
    "ablate-beta": (True, "sensitivity to the softmax temperature β"),
    "ablate-quantile": (True, "sensitivity to the 'good' quantile"),
    "ablate-features": (True, "counters-only vs descriptors-only"),
    "ablate-iid": (True, "IID factorisation vs joint voting"),
}

#: The CI smoke-gate grid: small enough for every push, deterministic
#: for a fixed seed list, and chosen (with the 1% match tolerance) so
#: the §5.3 economics are visible — the model-seeded GA must match
#: best-known in strictly fewer simulations than uniform random.
SMOKE_TOURNAMENT = {
    "scale": "tiny",
    "programs": ("sha", "crc"),
    "machines": 2,
    "budget": 40,
    "seeds": 15,
    "tolerance": 0.01,
}


def list_experiments(usages: Iterable[str] = ()) -> str:
    """Render the ``list`` subcommand's experiment catalogue, followed by
    the given command usage lines."""
    width = max(len(name) for name in EXPERIMENTS)
    lines = ["available experiments:"]
    for name, (needs_data, description) in EXPERIMENTS.items():
        tag = "dataset" if needs_data else "static "
        lines.append(f"  {name:<{width}s}  [{tag}]  {description}")
    lines.append("")
    lines.extend(usage.rstrip("\n") for usage in usages)
    lines.append("'repro-experiments <command> -h' describes a command's options")
    return "\n".join(lines)


def _positive(text: str) -> int:
    """argparse type of the count options: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {value}")
    return value


def _seconds(text: str) -> float:
    """argparse type of ``--lease-ttl``: a positive number of seconds."""
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {value}")
    return value


def _session(args, scale: str | None = None) -> Session:
    """The command's session, with its ``--jobs``/``--executor`` if it
    has them (``scale`` overrides ``--scale``)."""
    pool = {key: getattr(args, key) for key in ("jobs", "executor") if key in args}
    return Session(
        scale if scale is not None else args.scale,
        cache_dir=args.cache_dir,
        **pool,
    )


def _progress(args):
    """The ``  .. message`` progress printer, or None under ``--quiet``."""
    return None if args.quiet else lambda message: print(f"  .. {message}")


def _run_store(args, parser) -> int:
    """The ``run`` subcommand: build/resume a scale's shard store."""
    session = _session(args)
    # One store object for the whole command: the grid (machines plus
    # settings) is sampled once and shard sidecars are only re-scanned
    # where the answer can have changed.
    store = session.data.store()
    status = store.status()
    if status.complete:
        print(f"dataset already complete ({status.total_units} shards)")
        if not args.quiet:
            print(status.render())
        return 0
    if status.completed_units and not args.resume:
        parser.error(
            f"store at {status.root} already holds "
            f"{status.completed_units}/{status.total_units} shards; "
            "pass --resume to continue the interrupted build"
        )
    progress = _progress(args)
    started = time.time()
    done = session.data.build(
        max_shards=args.max_shards,
        progress=progress,
        store=store,
        lease_ttl=args.lease_ttl,
    )
    final = store.status()
    print(
        f"computed {done} shards in {time.time() - started:.1f}s "
        f"({final.completed_units}/{final.total_units} complete)"
    )
    if final.complete:
        print(f"store fingerprint: {store.fingerprint()}")
    else:
        hint = f"repro-experiments run --scale {session.scale.name} --resume"
        if args.cache_dir is not None:
            # Without this the hinted command would look in the default
            # cache and silently start a fresh build.
            hint += f" --cache-dir {args.cache_dir}"
        print(f"resume with: {hint}")
    return 0


def _report(args, parser) -> int:
    """The ``report`` subcommand: run the resumable paper protocol and
    render the complete artifact as markdown + JSON + SVG."""
    session = _session(args)
    progress = _progress(args)
    data = session.data.dataset(progress=progress)
    store = session.protocol.store(data)
    # Only an interrupted run leaves a requested variant partly computed;
    # complete or untouched ones mark a finished run over another
    # selection (`--only`, `fig6`), so the rest is simply computed.
    requested = variants_for_artifacts(
        resolve_artifacts(args.only),
        with_code=data.training.code_features is not None,
    )
    pending = Counter(key.variant for key in store.pending_keys(requested))
    partial = [v for v, n in pending.items() if n < len(store.programs)]
    if partial and not args.resume:
        parser.error(
            f"protocol store at {store.status().root} holds a partly "
            f"computed variant ({', '.join(partial)}); "
            "pass --resume to continue the interrupted protocol run"
        )
    started = time.time()
    # The SVG headline figure needs the base variant's folds; a --only
    # selection without them still renders markdown + JSON.
    formats = ("md", "json", "svg") if "base" in requested else ("md", "json")
    outcome = session.protocol.run(
        only=args.only,
        max_folds=args.max_folds,
        progress=progress,
        store=store,
        formats=formats,
        lease_ttl=args.lease_ttl,
    )
    stats = outcome.stats
    print(
        f"protocol: {stats.folds_computed} folds computed, "
        f"{stats.folds_skipped} already checkpointed, "
        f"{stats.store_hits} store hits, {stats.simulation_calls} fallback "
        f"simulations in {time.time() - started:.1f}s"
    )
    if not outcome.complete:
        print(outcome.status.render())
        # Echo back every selection-shaping flag: the hinted command must
        # resume *this* job, not a broader one into a different location.
        hint = f"repro-experiments report --scale {session.scale.name} --resume"
        if args.only is not None:
            hint += f" --only {args.only}"
        if args.out is not None:
            hint += f" --out {args.out}"
        if args.jobs != 1:
            hint += f" --jobs {args.jobs}"
        if args.executor != "auto":
            hint += f" --executor {args.executor}"
        if args.cache_dir is not None:
            hint += f" --cache-dir {args.cache_dir}"
        print(f"resume with: {hint}")
        return 0
    report = outcome.report
    out_dir = Path(args.out if args.out is not None else ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    markdown_path = out_dir / f"report-{session.scale.name}.md"
    json_path = out_dir / f"report-{session.scale.name}.json"
    markdown_path.write_text(report.markdown)
    json_path.write_text(report.json_text())
    written = [markdown_path, json_path]
    if report.svg is not None:
        svg_path = out_dir / f"report-{session.scale.name}.svg"
        svg_path.write_text(report.svg)
        written.append(svg_path)
    print(
        f"rendered {len(report.artifacts)} artifacts "
        f"(report fingerprint {report.fingerprint})"
    )
    print(f"wrote {', '.join(str(path) for path in written)}")
    return 0


def _store_status(args, parser) -> int:
    """The ``status`` subcommand: report a scale's shard completion.

    Never tracebacks: a missing store gets the friendly "no store yet"
    hint and an unusable one (foreign format, corrupt manifest) a
    diagnosis, both with exit code 0 — status is a read-only question.
    """
    session = _session(args)
    root = store_root(session.scale, args.cache_dir)
    if not root.exists():
        print(
            f"no store for scale {session.scale.name!r} at {root}\n"
            f"start one with: repro-experiments run --scale {session.scale.name}"
        )
        return 0
    try:
        print(session.data.status().render())
    except (StoreError, OSError) as error:
        print(
            f"store at {root} is not usable: {error}\n"
            f"delete the directory and rebuild with: "
            f"repro-experiments run --scale {session.scale.name}"
        )
        return 0
    try:
        from repro.cluster import ClusterError, DEFAULT_LEASE_TTL, store_cluster_status

        cluster = store_cluster_status(
            session.data.store(),
            args.lease_ttl if args.lease_ttl is not None else DEFAULT_LEASE_TTL,
        )
    except (ClusterError, StoreError, OSError):
        cluster = None  # cluster dir unreadable; the store view stands alone
    if cluster is not None:
        print(cluster.render())
    return 0


def _fsck(args, parser) -> int:
    """The ``fsck`` subcommand: scrub every durable store under the cache.

    Classifies every artifact of every store (experiment shards, fold
    shards, registry versions and pointers, job journals, lease tables)
    and, with ``--repair``, quarantines or truncates the damage so the
    next resume rebuilds exactly the damaged units.  Exit code 0 when
    the cache is clean (or fully repaired), 1 while problems remain.
    """
    from repro.faults.fsck import fsck_cache

    report = fsck_cache(args.cache_dir, repair=args.repair, ttl=args.lease_ttl)
    if args.json:
        print(json.dumps(report.payload(), indent=1, sort_keys=True))
    else:
        print(report.render())
    return 0 if not report.unrepaired else 1


def _chaos(args, parser) -> int:
    """The ``chaos`` subcommand: fault schedules over real workloads.

    Drives dataset builds, protocol runs, cluster fleets, and the
    serving tier under randomized (but seed-deterministic) failpoint
    schedules, repairs with fsck, resumes, and requires every run's
    output to be byte-identical to a clean baseline.  ``--smoke`` runs
    the small CI gate; ``--out`` also writes ``BENCH_chaos.json``.
    """
    from repro.faults.chaos import SCENARIOS, run_chaos

    schedules = args.schedules
    if schedules is None:
        schedules = 2 if args.smoke else 5
    scenarios = None
    if args.scenarios is not None:
        scenarios = tuple(
            name.strip() for name in args.scenarios.split(",") if name.strip()
        )
        unknown = set(scenarios) - set(SCENARIOS)
        if unknown:
            parser.error(
                f"unknown chaos scenarios {sorted(unknown)}; "
                f"choose from {', '.join(SCENARIOS)}"
            )
    progress = _progress(args)
    report = run_chaos(
        scenarios=scenarios,
        schedules=schedules,
        seed=args.seed,
        progress=progress,
    )
    if args.json:
        print(json.dumps(report.payload(), indent=1, sort_keys=True))
    else:
        print(report.render())

    if args.out is not None:
        import platform as platform_module

        import numpy

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        bench_path = out_dir / "BENCH_chaos.json"
        bench_payload = {
            "benchmark": "chaos",
            "smoke": bool(args.smoke),
            **report.payload(),
            "python": platform_module.python_version(),
            "numpy": numpy.__version__,
            "platform": platform_module.platform(),
        }
        bench_path.write_text(
            json.dumps(bench_payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {bench_path}")
    return 0 if report.ok else 1


def _worker(args, parser) -> int:
    """The ``worker`` subcommand: one lease-coordinated cluster worker.

    Each invocation is one worker draining a scale's shard store (the
    default) or its protocol fold store (``--protocol``) through the
    shared lease table under the store directory — run any number of
    them, on one host (``--workers N`` spawns a local fleet) or on many
    over a shared filesystem, and they converge on the byte-identical
    serial result.
    """
    from repro.cluster import (
        DEFAULT_LEASE_TTL,
        ClusterWorker,
        FoldQueue,
        ShardQueue,
        run_local_workers,
    )

    if args.only is not None and not args.protocol:
        parser.error("--only requires --protocol")
    lease_ttl = (
        args.lease_ttl if args.lease_ttl is not None else DEFAULT_LEASE_TTL
    )

    if args.workers is not None and args.workers > 1:
        # A local fleet: N independent single-worker subprocesses, the
        # same code path a multi-host deployment runs per host.
        child_args = ["--scale", args.scale, "--lease-ttl", str(lease_ttl)]
        if args.cache_dir is not None:
            child_args += ["--cache-dir", args.cache_dir]
        if args.protocol:
            child_args.append("--protocol")
        if args.only is not None:
            child_args += ["--only", args.only]
        if args.max_units is not None:
            child_args += ["--max-units", str(args.max_units)]
        if args.quiet:
            child_args.append("--quiet")
        codes = run_local_workers(child_args, args.workers)
        failed = [code for code in codes if code != 0]
        if failed:
            print(
                f"{len(failed)}/{len(codes)} workers exited non-zero",
                file=sys.stderr,
            )
        return max(codes)

    session = _session(args)
    progress = _progress(args)
    if args.protocol:
        data = session.data.dataset(progress=progress)
        store = session.protocol.store(data)
        variant_keys = None
        if args.only is not None:
            variant_keys = variants_for_artifacts(
                resolve_artifacts(args.only),
                with_code=data.training.code_features is not None,
            )
        from repro.evalrun import EvaluationPipeline

        pipeline = EvaluationPipeline(
            data.training,
            data.programs,
            store,
            compiler=session.compiler,
        )
        queue = FoldQueue(pipeline, variant_keys)
    else:
        from repro.store import ExperimentRunner

        store = session.data.store()
        runner = ExperimentRunner(store, compiler=session.compiler)
        queue = ShardQueue(runner)
    worker = ClusterWorker(
        queue,
        worker_id=args.worker_id,
        lease_ttl=lease_ttl,
        max_units=args.max_units,
        progress=progress,
    )
    started = time.monotonic()
    counts = worker.run()
    elapsed = time.monotonic() - started
    remaining = len(queue.pending_units())
    print(
        f"worker {worker.worker_id}: {counts['computed']} "
        f"{queue.kind} units computed, {counts['skipped']} skipped, "
        f"{counts['simulation_calls']} simulations in "
        f"{elapsed:.1f}s ({remaining} still pending)"
    )
    return 0


def _train(args, parser) -> int:
    """The ``train`` subcommand: fit on a scale and register the model."""
    session = _session(args)
    progress = _progress(args)
    started = time.time()
    session.models.fit(progress=progress)
    registry = _registry(args)
    entry = session.models.register(
        registry=registry, promote=not args.no_promote, channel=args.channel
    )
    print(
        f"fitted on scale {session.scale.name!r} in {time.time() - started:.1f}s "
        f"(training fingerprint {session.models.fingerprint})"
    )
    verb = "registered and promoted" if not args.no_promote else "registered"
    suffix = f" (channel {args.channel!r})" if not args.no_promote else ""
    print(f"{verb} model v{entry.version:04d} (digest {entry.digest}) "
          f"in {registry.root}{suffix}")
    return 0


def _registry(args) -> ModelRegistry:
    root = args.registry if args.registry is not None else registry_root(args.cache_dir)
    return ModelRegistry(root)


def _models(args, parser) -> int:
    """The ``models`` subcommand: registry inventory, promote, rollback."""
    registry = _registry(args)
    channel = args.channel
    try:
        if args.promote is not None:
            entry = registry.promote(args.promote, channel=channel)
            print(
                f"promoted model v{entry.version:04d} (digest {entry.digest}) "
                f"on channel {channel!r}"
            )
        elif args.rollback:
            entry = registry.rollback(channel=channel)
            print(
                f"rolled back: v{entry.version:04d} (digest {entry.digest}) "
                f"is promoted again on channel {channel!r}"
            )
        print(registry.render())
    except RegistryError as error:
        print(f"registry error: {error}", file=sys.stderr)
        return 1
    return 0


def _serve(args, parser) -> int:
    """The ``serve`` subcommand: the HTTP prediction service."""
    from repro.service import PredictionService, serve
    from repro.service.service import DEFAULT_MAX_INFLIGHT

    service = PredictionService(
        _session(args),
        registry=_registry(args),
        channel=args.channel,
        batching=not args.no_batch,
        max_inflight=(
            args.max_inflight
            if args.max_inflight is not None
            else DEFAULT_MAX_INFLIGHT
        ),
    )
    model = service.model_info()
    if model is None:
        print(
            "warning: no promoted model yet — /predict will answer 503 "
            "until one is trained (repro-experiments train) or promoted",
            file=sys.stderr,
        )
    else:
        print(
            f"serving model v{model['version']:04d} "
            f"(digest {model['digest']}) from {service.registry.root} "
            f"(channel {service.channel!r})"
        )
    return serve(service, host=args.host, port=args.port, log=_progress(args))


def _tournament(args, parser) -> int:
    """The ``tournament`` subcommand: race every search strategy on one
    grid and write the leaderboard plus the ``BENCH_search.json``
    performance artifact.  ``--smoke`` pins the CI gate grid and fails
    (exit 1) unless model-seeded search out-economises random."""
    from repro.autotune.tournament import check_model_beats_random

    if args.smoke:
        for flag in ("budget", "seeds", "tolerance", "programs", "machines"):
            if getattr(args, flag) is not None:
                parser.error(f"--smoke pins the gate grid; drop --{flag}")
        scale = SMOKE_TOURNAMENT["scale"]
        programs: list[str] | None = list(SMOKE_TOURNAMENT["programs"])
        machines = SMOKE_TOURNAMENT["machines"]
        budget = SMOKE_TOURNAMENT["budget"]
        n_seeds = SMOKE_TOURNAMENT["seeds"]
        tolerance = SMOKE_TOURNAMENT["tolerance"]
    else:
        scale = args.scale
        programs = args.programs.split(",") if args.programs else None
        machines = args.machines
        budget = args.budget if args.budget is not None else 40
        n_seeds = args.seeds if args.seeds is not None else 2
        tolerance = args.tolerance if args.tolerance is not None else 0.01

    session = _session(args, scale)
    progress = _progress(args)
    started = time.time()
    result = session.eval.tournament(
        programs=programs,
        machines=machines,
        budget=budget,
        seeds=tuple(range(n_seeds)),
        tolerance=tolerance,
        progress=progress,
    )
    elapsed = time.time() - started

    out_dir = Path(args.out if args.out is not None else ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    markdown_path = out_dir / f"tournament-{session.scale.name}.md"
    json_path = out_dir / f"tournament-{session.scale.name}.json"
    markdown_path.write_text(result.render())
    json_path.write_text(result.json_text())

    # The BENCH artifact: the leaderboard's economics plus enough
    # platform context to compare across PRs (same stamp the
    # benchmarks/perfjson.py artifacts carry).
    import platform as platform_module

    import numpy

    total_runs = len(result.runs)
    bench_path = out_dir / "BENCH_search.json"
    bench_payload = {
        "benchmark": "search",
        "smoke": bool(args.smoke),
        "scale": session.scale.name,
        "budget": budget,
        "tolerance": tolerance,
        "programs": list(result.programs),
        "machines": list(result.machines),
        "seeds": len(result.seeds),
        "runs": total_runs,
        "wall_seconds": elapsed,
        "runs_per_sec": total_runs / elapsed if elapsed > 0 else None,
        "standings": [standing.payload() for standing in result.standings],
        "python": platform_module.python_version(),
        "numpy": numpy.__version__,
        "platform": platform_module.platform(),
    }
    bench_path.write_text(
        json.dumps(bench_payload, indent=2, sort_keys=True) + "\n"
    )

    print(result.render())
    print(
        f"{total_runs} runs in {elapsed:.1f}s; wrote {markdown_path}, "
        f"{json_path}, {bench_path}"
    )
    if args.smoke:
        ok, message = check_model_beats_random(result)
        print(f"smoke gate: {message}")
        return 0 if ok else 1
    return 0


def _parser() -> argparse.ArgumentParser:
    """The command line: one subparser per command, holding exactly the
    options its handler reads; options shared by several commands come
    from small parent parsers.  Options follow the command."""

    def parent(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    cache = parent()
    cache.add_argument(
        "--cache-dir",
        help="dataset cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    scale = parent(cache)
    scale.add_argument(
        "--scale",
        default="quick",
        help="scale preset: tiny, quick, default, paper (default: quick)",
    )
    quiet = parent()
    quiet.add_argument(
        "--quiet", action="store_true", help="suppress progress messages"
    )
    pool = parent()
    pool.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the dataset build (negative: all cores)",
    )
    pool.add_argument(
        "--executor",
        default="auto",
        choices=RUNNER_EXECUTORS,
        help=(
            "batch strategy for dataset builds; 'cluster' claims work "
            "through the shared lease table so concurrent invocations "
            "cooperate (default: auto)"
        ),
    )
    lease = parent()
    lease.add_argument(
        "--lease-ttl",
        type=_seconds,
        help="seconds without a heartbeat before a cluster lease counts as "
        "stale (default: 60)",
    )
    registry = parent()
    registry.add_argument(
        "--registry", help="model registry directory (default: <cache-dir>/registry)"
    )
    registry.add_argument(
        "--channel",
        default=DEFAULT_CHANNEL,
        help="promotion channel to promote to, roll back, or serve from "
        "(default: %(default)r)",
    )
    out = parent()
    out.add_argument("--out", help="output directory for the artifacts (default: .)")

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of Dubach et al., MICRO 2009",
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, metavar="<command>"
    )
    commands: list[argparse.ArgumentParser] = []

    def command(name, handler, help, *parents, **kwargs) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(
            name, help=help, description=help, parents=parents, **kwargs
        )
        sub.set_defaults(handler=partial(handler, parser=sub))
        commands.append(sub)
        return sub

    def list_command(args, parser) -> int:
        print(list_experiments(sub.format_usage() for sub in commands[1:]))
        return 0

    command("list", list_command, "the experiment catalogue and command usages")
    experiments = command(
        "all",
        _experiments,
        "render experiments by name ('all': every one)",
        scale,
        quiet,
        pool,
        aliases=list(EXPERIMENTS),
        prog="repro-experiments <experiment|all>",
    )
    experiments.add_argument("names", nargs="*", metavar="experiment")

    run = command(
        "run", _run_store, "build or resume a scale's dataset shard store",
        scale, quiet, pool, lease,
    )
    run.add_argument("--resume", action="store_true", help="continue a killed build")
    run.add_argument(
        "--max-shards", type=_positive, help="checkpoint at most N shards, then stop"
    )
    command(
        "status", _store_status, "a scale's shard completion and cluster view",
        scale, lease,
    )

    report = command(
        "report", _report, "the full resumable paper artifact",
        scale, quiet, pool, lease, out,
    )
    report.add_argument(
        "--resume", action="store_true", help="continue an interrupted protocol run"
    )
    report.add_argument(
        "--max-folds", type=_positive, help="checkpoint at most N folds, then stop"
    )
    report.add_argument(
        "--only",
        help="comma-separated artifact subset (e.g. fig6,headline,ablate-k); "
        "unrequested folds are not run",
    )

    train = command(
        "train", _train, "fit on a scale and register the model",
        scale, quiet, pool, registry,
    )
    train.add_argument(
        "--no-promote", action="store_true", help="register without promoting"
    )
    models = command(
        "models", _models, "registry inventory, promote, rollback", cache, registry
    )
    registry_change = models.add_mutually_exclusive_group()
    registry_change.add_argument(
        "--promote", type=int, help="promote a registered version for serving"
    )
    registry_change.add_argument(
        "--rollback",
        action="store_true",
        help="re-promote the previously promoted version",
    )
    serve = command(
        "serve", _serve, "the HTTP prediction service",
        scale, quiet, pool, registry,
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8181,
        help="TCP port, 0 for an ephemeral one (default: 8181)",
    )
    serve.add_argument(
        "--no-batch", action="store_true", help="disable /predict micro-batching"
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        help="bound on concurrently-served /predict + /evaluate requests "
        "before shedding 429s (default: the service's DEFAULT_MAX_INFLIGHT)",
    )

    tournament = command(
        "tournament", _tournament, "race every search strategy on one grid",
        scale, quiet, pool, out,
    )
    tournament.add_argument(
        "--budget", type=_positive, help="evaluations per search run (default: 40)"
    )
    tournament.add_argument(
        "--seeds",
        type=_positive,
        help="seed count: stochastic strategies run once per seed 0..N-1 "
        "(default: 2)",
    )
    tournament.add_argument(
        "--tolerance",
        type=float,
        help="relative slack on best-known that still counts as a match "
        "(default: 0.01)",
    )
    tournament.add_argument(
        "--programs",
        help="comma-separated program subset (default: the scale's programs)",
    )
    tournament.add_argument(
        "--machines",
        type=int,
        help="number of sampled machines (default: the scale's machine count)",
    )
    tournament.add_argument(
        "--smoke",
        action="store_true",
        help="run the fixed CI gate grid and exit 1 unless model-seeded "
        "search out-economises random",
    )

    worker = command(
        "worker", _worker, "one lease-coordinated cluster worker",
        scale, quiet, lease,
    )
    worker.add_argument(
        "--protocol",
        action="store_true",
        help="drain the scale's protocol fold store instead of its shard store",
    )
    worker.add_argument(
        "--only", help="with --protocol: comma-separated artifacts whose folds to drain"
    )
    worker.add_argument(
        "--workers", type=_positive, help="spawn a local fleet of N worker processes"
    )
    worker.add_argument(
        "--max-units", type=_positive, help="compute at most N units, then stop"
    )
    worker.add_argument(
        "--worker-id",
        help="stable worker identity for leases and progress (default: host-pid-token)",
    )

    fsck = command(
        "fsck", _fsck, "scrub every durable store under the cache", cache, lease
    )
    fsck.add_argument(
        "--repair",
        action="store_true",
        help="quarantine/truncate damaged artifacts so the next resume "
        "rebuilds exactly the damaged units",
    )
    fsck.add_argument("--json", action="store_true", help="machine-readable report")

    chaos = command("chaos", _chaos, "fault schedules over real workloads", quiet)
    chaos.add_argument("--out", help="also write BENCH_chaos.json into this directory")
    chaos.add_argument(
        "--schedules",
        type=_positive,
        help="randomized fault schedules per scenario (default: 5, or 2 with --smoke)",
    )
    chaos.add_argument(
        "--seed", type=int, default=0, help="base seed of the schedules (default: 0)"
    )
    chaos.add_argument(
        "--scenarios",
        help="comma-separated scenario subset (build,protocol,cluster,serve; "
        "default: all)",
    )
    chaos.add_argument("--smoke", action="store_true", help="run the small CI gate")
    chaos.add_argument("--json", action="store_true", help="machine-readable report")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.handler(args)


def _experiments(args, parser) -> int:
    """Render experiments by name, or every one for ``all``."""
    names = [args.command, *args.names]
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")

    session = _session(args)
    scale = session.scale
    progress = _progress(args)

    if any(EXPERIMENTS[name][0] for name in names):
        started = time.time()
        if not args.quiet:
            print(
                f"building dataset [{scale.name}]: {len(scale.programs)} programs x "
                f"{scale.n_machines} machines x {scale.n_settings} settings"
            )
        session.data.dataset(progress=progress)
        if not args.quiet:
            print(f"dataset ready in {time.time() - started:.1f}s\n")

    rendered = _render_experiments(session, names, progress)
    for name in names:
        print(rendered[name])
        print()
    return 0


def _render_experiments(session: Session, names, progress) -> dict[str, str]:
    """Render experiments through the session's checkpointed protocol.

    One protocol run renders every requested artifact that needs the
    dataset, so its folds land in (and are reused from) the session's
    fold store, the one ``report`` reads.  Static artifacts need neither
    data nor folds.  ``fig10`` runs ``fig6`` on the base and the extended
    space.
    """
    rendered = {
        name: ARTIFACTS[name].build(None, None).render()
        for name in names
        if not EXPERIMENTS[name][0]
    }
    wanted = [name for name in names if name in ARTIFACTS and name not in rendered]
    if wanted:
        report = session.protocol.run(only=wanted, progress=progress).report
        for name in wanted:
            rendered[name] = report.payload["artifacts"][name]["render"]
    if "fig10" in names:
        spaces = []
        for scale in (session.scale, session.scale.with_extended()):
            run = session.protocol.run(scale, only="fig6", progress=progress)
            spaces.append(
                figure6(session.data.dataset(scale), run.report.protocol.base)
            )
        rendered["fig10"] = Figure10Result(*spaces).render()
    return rendered


if __name__ == "__main__":
    sys.exit(main())
