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

#: Standalone subcommands (cannot be combined with experiment names).
COMMANDS = (
    "run",
    "status",
    "list",
    "report",
    "train",
    "models",
    "serve",
    "tournament",
    "worker",
    "fsck",
    "chaos",
)

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


def list_experiments() -> str:
    """Render the ``list`` subcommand's experiment catalogue."""
    width = max(len(name) for name in EXPERIMENTS)
    lines = ["available experiments:"]
    for name, (needs_data, description) in EXPERIMENTS.items():
        tag = "dataset" if needs_data else "static "
        lines.append(f"  {name:<{width}s}  [{tag}]  {description}")
    lines.append(
        "\nrun with: repro-experiments <name>... [--scale S] [--jobs N] "
        "[--cache-dir DIR], or 'all' for everything"
    )
    lines.append(
        "dataset store: repro-experiments run [--resume] [--max-shards N] "
        "[--executor E] | status"
    )
    lines.append(
        "paper artifact: repro-experiments report [--resume] [--max-folds N] "
        "[--only fig5,table2,...] [--out DIR]"
    )
    lines.append(
        "model registry: repro-experiments train | models "
        "[--promote N | --rollback]"
    )
    lines.append(
        "prediction service: repro-experiments serve [--host H] [--port P]"
    )
    lines.append(
        "search tournament: repro-experiments tournament [--budget N] "
        "[--seeds N] [--tolerance F] [--programs p,q] [--machines N] "
        "[--smoke] [--out DIR]"
    )
    lines.append(
        "distributed builds: repro-experiments worker [--protocol] "
        "[--workers N] [--lease-ttl S] [--max-units N] (see README)"
    )
    lines.append(
        "fault tolerance: repro-experiments fsck [--repair] [--json] | "
        "chaos [--schedules N] [--seed N] [--scenarios s,t] [--smoke] "
        "[--out DIR]"
    )
    return "\n".join(lines)


def _run_store(args, parser) -> int:
    """The ``run`` subcommand: build/resume a scale's shard store."""
    if args.max_shards is not None and args.max_shards < 1:
        parser.error("--max-shards must be >= 1")
    session = Session(
        args.scale,
        jobs=args.jobs,
        executor=args.executor,
        cache_dir=args.cache_dir,
    )
    # One store object for the whole command: the grid (machines plus
    # settings) is sampled once and shard sidecars are only re-scanned
    # where the answer can have changed.
    store = session.data.store()
    status = store.status()
    if status.complete:
        print(f"dataset already complete ({status.total_shards} shards)")
        if not args.quiet:
            print(status.render())
        return 0
    if status.completed_shards and not args.resume:
        parser.error(
            f"store at {status.root} already holds "
            f"{status.completed_shards}/{status.total_shards} shards; "
            "pass --resume to continue the interrupted build"
        )
    progress = None if args.quiet else lambda message: print(f"  .. {message}")
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
        f"({final.completed_shards}/{final.total_shards} complete)"
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
    if args.max_folds is not None and args.max_folds < 1:
        parser.error("--max-folds must be >= 1")
    session = Session(
        args.scale,
        jobs=args.jobs,
        executor=args.executor,
        cache_dir=args.cache_dir,
    )
    progress = None if args.quiet else lambda message: print(f"  .. {message}")
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


def _store_status(args) -> int:
    """The ``status`` subcommand: report a scale's shard completion.

    Never tracebacks: a missing store gets the friendly "no store yet"
    hint and an unusable one (foreign format, corrupt manifest) a
    diagnosis, both with exit code 0 — status is a read-only question.
    """
    session = Session(args.scale, cache_dir=args.cache_dir)
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


def _fsck(args) -> int:
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
    if schedules < 1:
        parser.error("--schedules must be >= 1")
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
    progress = None if args.quiet else lambda message: print(f"  .. {message}")
    report = run_chaos(
        scenarios=scenarios,
        schedules=schedules,
        seed=args.seed if args.seed is not None else 0,
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

    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.lease_ttl is not None and args.lease_ttl <= 0:
        parser.error("--lease-ttl must be positive")
    if args.max_units is not None and args.max_units < 1:
        parser.error("--max-units must be >= 1")
    if args.only is not None and not args.protocol:
        parser.error("--only with 'worker' requires --protocol")
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

    session = Session(args.scale, cache_dir=args.cache_dir)
    progress = None if args.quiet else lambda message: print(f"  .. {message}")
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
    report = worker.run()
    remaining = len(queue.pending_units())
    print(
        f"worker {report.worker_id}: {report.units_completed} "
        f"{queue.kind} units computed, {report.units_skipped} skipped, "
        f"{report.simulation_calls} simulations in "
        f"{report.wall_seconds:.1f}s ({remaining} still pending)"
    )
    return 0


def _train(args, parser) -> int:
    """The ``train`` subcommand: fit on a scale and register the model."""
    session = Session(
        args.scale,
        jobs=args.jobs,
        executor=args.executor,
        cache_dir=args.cache_dir,
    )
    progress = None if args.quiet else lambda message: print(f"  .. {message}")
    started = time.time()
    session.models.fit(progress=progress)
    registry = _registry(args)
    channel = args.channel if args.channel is not None else DEFAULT_CHANNEL
    entry = session.models.register(
        registry=registry, promote=not args.no_promote, channel=channel
    )
    print(
        f"fitted on scale {session.scale.name!r} in {time.time() - started:.1f}s "
        f"(training fingerprint {session.models.fingerprint})"
    )
    verb = "registered and promoted" if not args.no_promote else "registered"
    suffix = f" (channel {channel!r})" if not args.no_promote else ""
    print(f"{verb} model v{entry.version:04d} (digest {entry.digest}) "
          f"in {registry.root}{suffix}")
    return 0


def _registry(args) -> ModelRegistry:
    root = args.registry if args.registry is not None else registry_root(args.cache_dir)
    return ModelRegistry(root)


def _models(args, parser) -> int:
    """The ``models`` subcommand: registry inventory, promote, rollback."""
    registry = _registry(args)
    channel = args.channel if args.channel is not None else DEFAULT_CHANNEL
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

    session = Session(
        args.scale,
        jobs=args.jobs,
        executor=args.executor,
        cache_dir=args.cache_dir,
    )
    service = PredictionService(
        session,
        registry=_registry(args),
        channel=args.channel if args.channel is not None else DEFAULT_CHANNEL,
        batching=not args.no_batch,
        max_inflight=(
            args.max_inflight if args.max_inflight is not None else 64
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
    log = None if args.quiet else lambda message: print(f"  .. {message}")
    return serve(service, host=args.host, port=args.port, log=log)


def _tournament(args, parser) -> int:
    """The ``tournament`` subcommand: race every search strategy on one
    grid and write the leaderboard plus the ``BENCH_search.json``
    performance artifact.  ``--smoke`` pins the CI gate grid and fails
    (exit 1) unless model-seeded search out-economises random."""
    from repro.autotune.tournament import check_model_beats_random

    if args.smoke:
        for flag, default in (
            ("budget", None),
            ("seeds", None),
            ("tolerance", None),
            ("programs", None),
            ("machines", None),
        ):
            if getattr(args, flag) != default:
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
    if budget < 1:
        parser.error(f"--budget must be >= 1: {budget}")
    if n_seeds < 1:
        parser.error(f"--seeds must be >= 1: {n_seeds}")

    session = Session(
        scale,
        jobs=args.jobs,
        executor=args.executor,
        cache_dir=args.cache_dir,
    )
    progress = None if args.quiet else lambda message: print(f"  .. {message}")
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of Dubach et al., MICRO 2009",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=(
            f"experiments to run: {', '.join(EXPERIMENTS)}, 'all', 'list', "
            "the dataset-store commands 'run' and 'status', 'report' for "
            "the full resumable paper artifact, 'worker' for a "
            "lease-coordinated distributed worker, or the deployment "
            "commands 'train', 'models', and 'serve'"
        ),
    )
    parser.add_argument(
        "--scale",
        default="quick",
        help="scale preset: tiny, quick, default, paper (default: quick)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the dataset build (negative: all cores)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="dataset cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--executor",
        default="auto",
        choices=RUNNER_EXECUTORS,
        help=(
            "batch strategy for dataset builds; 'cluster' claims work "
            "through the shared lease table so concurrent invocations "
            "cooperate (default: auto)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="with 'run'/'report': continue an interrupted build or protocol",
    )
    parser.add_argument(
        "--max-shards",
        type=int,
        default=None,
        help="with 'run': checkpoint at most this many shards, then stop",
    )
    parser.add_argument(
        "--max-folds",
        type=int,
        default=None,
        help="with 'report': checkpoint at most this many folds, then stop",
    )
    parser.add_argument(
        "--only",
        default=None,
        help=(
            "with 'report': comma-separated artifact subset "
            "(e.g. fig6,headline,ablate-k); unrequested folds are not run"
        ),
    )
    parser.add_argument(
        "--out",
        default=None,
        help=(
            "with 'report'/'tournament': output directory for the "
            "rendered artifacts (default: .)"
        ),
    )
    parser.add_argument(
        "--registry",
        default=None,
        help=(
            "with 'train'/'models'/'serve': model registry directory "
            "(default: <cache-dir>/registry)"
        ),
    )
    parser.add_argument(
        "--no-promote",
        action="store_true",
        help="with 'train': register the model without promoting it",
    )
    parser.add_argument(
        "--promote",
        type=int,
        default=None,
        help="with 'models': promote a registered version for serving",
    )
    parser.add_argument(
        "--rollback",
        action="store_true",
        help="with 'models': re-promote the previously promoted version",
    )
    parser.add_argument(
        "--channel",
        default=None,
        help=(
            "with 'train'/'models'/'serve': promotion channel to promote "
            "to, roll back, or serve from (default: 'default')"
        ),
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="with 'serve': bind address (default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8181,
        help="with 'serve': TCP port, 0 for an ephemeral one (default: 8181)",
    )
    parser.add_argument(
        "--no-batch",
        action="store_true",
        help="with 'serve': disable /predict request micro-batching",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help=(
            "with 'serve': bound on concurrently-served /predict + "
            "/evaluate requests before shedding 429s (default: 64)"
        ),
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        help="with 'tournament': evaluations per search run (default: 40)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        help=(
            "with 'tournament': seed count — stochastic strategies run "
            "once per seed 0..N-1 (default: 2)"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help=(
            "with 'tournament': relative slack on best-known that still "
            "counts as a match (default: 0.01)"
        ),
    )
    parser.add_argument(
        "--programs",
        default=None,
        help=(
            "with 'tournament': comma-separated program subset "
            "(default: the scale's programs)"
        ),
    )
    parser.add_argument(
        "--machines",
        type=int,
        default=None,
        help=(
            "with 'tournament': number of sampled machines "
            "(default: the scale's machine count)"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "with 'tournament': run the fixed CI gate grid and exit 1 "
            "unless model-seeded search out-economises random"
        ),
    )
    parser.add_argument(
        "--protocol",
        action="store_true",
        help=(
            "with 'worker': drain the scale's protocol fold store "
            "instead of its dataset shard store"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="with 'worker': spawn a local fleet of N worker processes",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        help=(
            "with 'worker'/'run'/'report'/'status': seconds without a "
            "heartbeat before a cluster lease counts as stale "
            "(default: 60)"
        ),
    )
    parser.add_argument(
        "--max-units",
        type=int,
        default=None,
        help="with 'worker': compute at most this many units, then stop",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help=(
            "with 'worker': stable worker identity for leases and "
            "progress (default: host-pid-token)"
        ),
    )
    parser.add_argument(
        "--repair",
        action="store_true",
        help=(
            "with 'fsck': quarantine/truncate damaged artifacts so the "
            "next resume rebuilds exactly the damaged units"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="with 'fsck'/'chaos': emit the machine-readable report",
    )
    parser.add_argument(
        "--schedules",
        type=int,
        default=None,
        help=(
            "with 'chaos': randomized fault schedules per scenario "
            "(default: 5, or 2 with --smoke)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="with 'chaos': base seed for schedule generation (default: 0)",
    )
    parser.add_argument(
        "--scenarios",
        default=None,
        help=(
            "with 'chaos': comma-separated scenario subset "
            "(build,protocol,cluster,serve; default: all)"
        ),
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress messages"
    )
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:
        print(list_experiments())
        return 0
    commands = set(COMMANDS) & set(args.experiments)
    if commands and len(args.experiments) > 1:
        parser.error(
            f"{sorted(commands)} are standalone commands and cannot be "
            "combined with experiment names"
        )
    if args.experiments != ["run"] and args.max_shards is not None:
        parser.error("--max-shards only applies to the 'run' command")
    if args.experiments not in (["run"], ["report"]) and args.resume:
        parser.error("--resume only applies to the 'run' and 'report' commands")
    if args.experiments != ["report"] and args.max_folds is not None:
        parser.error("--max-folds only applies to the 'report' command")
    if args.experiments not in (["report"], ["worker"]) and args.only is not None:
        parser.error("--only only applies to the 'report' and 'worker' commands")
    if args.experiments != ["worker"] and (
        args.protocol
        or args.workers is not None
        or args.max_units is not None
        or args.worker_id is not None
    ):
        parser.error(
            "--protocol/--workers/--max-units/--worker-id only apply to "
            "the 'worker' command"
        )
    if args.experiments not in (
        ["worker"],
        ["run"],
        ["report"],
        ["status"],
        ["fsck"],
    ) and args.lease_ttl is not None:
        parser.error(
            "--lease-ttl only applies to the 'worker', 'run', 'report', "
            "'status', and 'fsck' commands"
        )
    if (
        args.experiments not in (["report"], ["tournament"], ["chaos"])
        and args.out is not None
    ):
        parser.error(
            "--out only applies to the 'report', 'tournament', and "
            "'chaos' commands"
        )
    if args.experiments != ["tournament"] and (
        args.budget is not None
        or args.seeds is not None
        or args.tolerance is not None
        or args.programs is not None
        or args.machines is not None
    ):
        parser.error(
            "--budget/--seeds/--tolerance/--programs/--machines "
            "only apply to the 'tournament' command"
        )
    if args.experiments not in (["tournament"], ["chaos"]) and args.smoke:
        parser.error(
            "--smoke only applies to the 'tournament' and 'chaos' commands"
        )
    if args.experiments != ["fsck"] and args.repair:
        parser.error("--repair only applies to the 'fsck' command")
    if args.experiments not in (["fsck"], ["chaos"]) and args.json:
        parser.error("--json only applies to the 'fsck' and 'chaos' commands")
    if args.experiments != ["chaos"] and (
        args.schedules is not None
        or args.seed is not None
        or args.scenarios is not None
    ):
        parser.error(
            "--schedules/--seed/--scenarios only apply to the 'chaos' command"
        )
    if args.experiments != ["models"] and (
        args.promote is not None or args.rollback
    ):
        parser.error("--promote/--rollback only apply to the 'models' command")
    if args.experiments != ["train"] and args.no_promote:
        parser.error("--no-promote only applies to the 'train' command")
    if args.experiments not in (["train"], ["models"], ["serve"]) and (
        args.registry is not None
    ):
        parser.error(
            "--registry only applies to the 'train', 'models', and 'serve' commands"
        )
    if args.experiments != ["serve"] and (
        args.host != "127.0.0.1" or args.port != 8181
    ):
        parser.error("--host/--port only apply to the 'serve' command")
    if args.experiments != ["serve"] and (
        args.no_batch or args.max_inflight is not None
    ):
        parser.error(
            "--no-batch/--max-inflight only apply to the 'serve' command"
        )
    if args.experiments not in (["train"], ["models"], ["serve"]) and (
        args.channel is not None
    ):
        parser.error(
            "--channel only applies to the 'train', 'models', and 'serve' commands"
        )
    if args.experiments == ["run"]:
        return _run_store(args, parser)
    if args.experiments == ["status"]:
        return _store_status(args)
    if args.experiments == ["report"]:
        return _report(args, parser)
    if args.experiments == ["train"]:
        return _train(args, parser)
    if args.experiments == ["models"]:
        return _models(args, parser)
    if args.experiments == ["serve"]:
        return _serve(args, parser)
    if args.experiments == ["tournament"]:
        return _tournament(args, parser)
    if args.experiments == ["worker"]:
        return _worker(args, parser)
    if args.experiments == ["fsck"]:
        return _fsck(args)
    if args.experiments == ["chaos"]:
        return _chaos(args, parser)

    names = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")

    session = Session(
        args.scale,
        jobs=args.jobs,
        executor=args.executor,
        cache_dir=args.cache_dir,
    )
    scale = session.scale
    progress = None if args.quiet else lambda message: print(f"  .. {message}")

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
