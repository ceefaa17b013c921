"""The one drain loop (repro.cluster.drain) over both unit families.

The load-bearing guarantees, each tested directly:

* counts add up: a shard reports every cell it prices, the -O3
  baseline included, and a serial protocol run reports exactly what its
  oracle did;
* counts and unit totals agree across the serial, process, and cluster
  executors;
* ``progress``/``on_unit`` fire once per computed unit, after its
  checkpoint, and never for a unit that was already done;
* the thread executor is gone: asking for it names the valid choices;
* local drains accept memory-only stores; lease drains do not.
"""

from __future__ import annotations

import pytest

import repro.store.compute as compute_module
from repro import cli
from repro.cluster import (
    ClusterError,
    ClusterWorker,
    FoldQueue,
    ShardQueue,
    drain,
)
from repro.evalrun import (
    EvaluationPipeline,
    FoldStore,
    protocol_fingerprint,
    protocol_variants,
)
from repro.experiments.config import Scale
from repro.experiments.dataset import grid_for_scale
from repro.parallel import EXECUTORS, RUNNER_EXECUTORS, run_batch
from repro.programs.mibench import mibench_program
from repro.store import ExperimentRunner, ExperimentStore

#: 2 programs × 4 machines / chunk 2 -> 4 shards of 6 settings.
SMOKE = Scale(name="smoke", programs=("crc", "search"), n_machines=4, n_settings=6)

#: The variants the fold tests drain: the paper's model (out-of-grid
#: settings, so fallback simulations) and the joint vote (store hits).
VARIANTS = ["base", "joint"]


@pytest.fixture(scope="module")
def smoke_grid():
    return grid_for_scale(SMOKE, chunk_machines=2)


@pytest.fixture(scope="module")
def smoke_programs():
    return [mibench_program(name) for name in SMOKE.programs]


def _runner(grid, programs, root=None, **kwargs):
    return ExperimentRunner(
        ExperimentStore(grid, root=root), programs=programs, **kwargs
    )


def _pipeline(tiny_data, root=None, **kwargs):
    variants = protocol_variants(
        with_code=tiny_data.training.code_features is not None
    )
    store = FoldStore(
        protocol_fingerprint(tiny_data.training, variants),
        variants,
        list(tiny_data.training.program_names),
        root=root,
    )
    return EvaluationPipeline(
        tiny_data.training, tiny_data.programs, store, **kwargs
    )


def _queue(family, smoke_grid, smoke_programs, tiny_data, root=None):
    if family == "shard":
        return ShardQueue(_runner(smoke_grid, smoke_programs, root=root))
    return FoldQueue(_pipeline(tiny_data, root=root), VARIANTS)


class _StaleFirstScan:
    """A queue whose first pending scan lists every unit — what a worker
    sees when a peer completes a unit between its scan and its claim."""

    def __init__(self, queue):
        self.queue = queue
        self.stale = list(queue.keys)

    def __getattr__(self, name):
        return getattr(self.queue, name)

    def pending_units(self):
        if self.stale is not None:
            scan, self.stale = self.stale, None
            return scan
        return self.queue.pending_units()


class TestCounts:
    def test_shard_counts_every_priced_cell(
        self, tmp_path, smoke_grid, smoke_programs, monkeypatch
    ):
        """Each shard simulates (S + 1) × M cells: every setting and the
        -O3 baseline on every machine of its chunk."""
        cells = []
        simulate_many = compute_module.simulate_many

        def counting(signatures, machines):
            cells.append(len(signatures) * len(machines))
            return simulate_many(signatures, machines)

        monkeypatch.setattr(compute_module, "simulate_many", counting)
        root = tmp_path / "store"
        queue = ShardQueue(_runner(smoke_grid, smoke_programs, root=root))
        counts = ClusterWorker(queue, lease_ttl=10.0).run()
        n_settings = len(smoke_grid.settings)
        assert counts["simulation_calls"] == sum(cells)
        assert counts["simulation_calls"] == (
            (n_settings + 1) * SMOKE.n_machines * len(SMOKE.programs)
        )

    def test_serial_pipeline_stats_equal_oracle_totals(self, tiny_data):
        pipeline = _pipeline(tiny_data, executor="serial")
        stats = pipeline.run(variants=VARIANTS)
        assert stats.folds_computed == len(
            list(pipeline.store.unit_keys(VARIANTS))
        )
        assert stats.simulation_calls > 0 and stats.store_hits > 0
        assert stats.simulation_calls == pipeline.oracle.simulation_calls
        assert stats.store_hits == pipeline.oracle.store_hits

    def test_fold_counts_agree_across_executors(self, tiny_data, tmp_path):
        serial = _pipeline(tiny_data, executor="serial").run(variants=VARIANTS)
        process = _pipeline(tiny_data, jobs=2, executor="process").run(
            variants=VARIANTS
        )
        cluster = _pipeline(
            tiny_data, root=tmp_path / "cluster", executor="cluster"
        ).run(variants=VARIANTS)
        expected = (serial.folds_computed, serial.folds_skipped, serial.store_hits)
        for stats in (process, cluster):
            assert (
                stats.folds_computed, stats.folds_skipped, stats.store_hits
            ) == expected

    def test_shard_counts_agree_across_executors(
        self, tmp_path, smoke_grid, smoke_programs
    ):
        totals = [
            drain(
                ShardQueue(
                    _runner(smoke_grid, smoke_programs, root=tmp_path / executor)
                ),
                jobs=2,
                executor=executor,
                lease_ttl=10.0,
            )
            for executor in ("serial", "process", "cluster")
        ]
        assert totals[0]["computed"] == smoke_grid.n_shards
        assert totals[1] == totals[0]
        assert totals[2] == totals[0]


class TestExactlyOnce:
    @pytest.mark.parametrize("executor", ["serial", "process", "cluster"])
    @pytest.mark.parametrize("family", ["shard", "fold"])
    def test_hooks_fire_once_per_computed_unit(
        self, family, executor, tmp_path, smoke_grid, smoke_programs, tiny_data
    ):
        root = tmp_path / "store"
        queue = _queue(family, smoke_grid, smoke_programs, tiny_data, root)
        done_first = queue.pending_units()[0]
        queue.execute(done_first)
        queue = _queue(family, smoke_grid, smoke_programs, tiny_data, root)
        pending = queue.pending_units()
        total = queue.total_units()
        events, messages = [], []

        def on_unit(unit, completed, total_units):
            assert queue.is_done(unit)  # the checkpoint landed first
            events.append((unit, completed, total_units))

        totals = drain(
            queue,
            jobs=2,
            executor=executor,
            progress=messages.append,
            on_unit=on_unit,
            lease_ttl=10.0,
        )
        assert sorted(unit for unit, _, _ in events) == sorted(pending)
        assert done_first not in {unit for unit, _, _ in events}
        assert [completed for _, completed, _ in events] == list(
            range(2, total + 1)
        )
        assert {total_units for _, _, total_units in events} == {total}
        assert len(messages) == len(pending)
        assert totals["computed"] == len(pending)
        assert totals["already_done"] == 1
        assert queue.pending_units() == []

    @pytest.mark.parametrize("family", ["shard", "fold"])
    def test_claimed_but_done_unit_fires_no_hooks(
        self, family, tmp_path, smoke_grid, smoke_programs, tiny_data
    ):
        root = tmp_path / "store"
        queue = _queue(family, smoke_grid, smoke_programs, tiny_data, root)
        done_first = queue.pending_units()[0]
        queue.execute(done_first)
        stale = _StaleFirstScan(
            _queue(family, smoke_grid, smoke_programs, tiny_data, root)
        )
        events, messages = [], []
        counts = ClusterWorker(
            stale,
            lease_ttl=10.0,
            progress=messages.append,
            on_unit=lambda unit, completed, total: events.append(unit),
        ).run()
        assert counts["skipped"] == 1
        assert counts["computed"] == stale.total_units() - 1
        assert done_first not in events
        assert len(events) == len(set(events)) == counts["computed"]
        assert len(messages) == counts["computed"]

    @pytest.mark.parametrize("family", ["shard", "fold"])
    def test_nothing_pending_leaves_no_cluster_dir(
        self, family, tmp_path, smoke_grid, smoke_programs, tiny_data
    ):
        root = tmp_path / "store"
        drain(_queue(family, smoke_grid, smoke_programs, tiny_data, root))
        queue = _queue(family, smoke_grid, smoke_programs, tiny_data, root)
        fired = []
        totals = drain(
            queue, executor="cluster", on_unit=lambda *event: fired.append(event)
        )
        assert totals["computed"] == 0 and fired == []
        assert not (root / "cluster").exists()


class TestExecutors:
    def test_thread_executor_is_gone(self, smoke_grid, smoke_programs, tiny_data):
        assert EXECUTORS == ("auto", "serial", "process")
        assert RUNNER_EXECUTORS == ("auto", "serial", "process", "cluster")
        for build in (
            lambda: _runner(smoke_grid, smoke_programs, executor="thread"),
            lambda: _pipeline(tiny_data, executor="thread"),
        ):
            with pytest.raises(ValueError) as excinfo:
                build()
            for name in RUNNER_EXECUTORS:
                assert repr(name) in str(excinfo.value)
        with pytest.raises(ValueError, match="'process'"):
            run_batch(abs, [1], executor="thread")
        with pytest.raises(SystemExit):
            cli.main(["run", "--scale", "tiny", "--executor", "thread"])

    @pytest.mark.parametrize("family", ["shard", "fold"])
    def test_memory_store_drains_locally_not_through_leases(
        self, family, smoke_grid, smoke_programs, tiny_data
    ):
        queue = _queue(family, smoke_grid, smoke_programs, tiny_data)
        with pytest.raises(ClusterError, match="memory-only"):
            drain(queue, executor="cluster")
        totals = drain(queue, executor="serial")
        assert totals["computed"] == queue.total_units()
        assert queue.pending_units() == []
