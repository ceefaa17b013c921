"""Reader ≡ scrub: every store's scrub judges an artifact as its reader does.

Each artifact kind of each store family is damaged three ways — the
failpoints' ``torn`` action (the final path keeps a truncated payload),
a zero-byte file, and a single bit flip — and two verdicts are taken on
the damaged copy:

* the *reader's*: the store's own read path raises, reads the artifact
  as pending/absent, or replays a journal that stops short of its file;
* the *scrub's*: ``fsck`` reports anything but ``ok`` for the store.

The property is that the two always agree.  Agreement, not detection,
is the contract: a flip the reader cannot see (a zip timestamp, a
manifest's free-form metadata) must read ``ok`` to the scrub as well.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.registry import ModelRegistry, RegistryError
from repro.cluster.lease import ClusterError, LeaseTable, scan_leases
from repro.evalrun.foldstore import FoldKey, FoldRecord, FoldRow, FoldStore, FoldStoreError
from repro.evalrun.variants import make_predictor, variant_by_key
from repro.experiments.config import Scale
from repro.experiments.dataset import grid_for_scale
from repro.faults import FaultInjected, armed
from repro.faults.fsck import fsck_path
from repro.ioutil import atomic_write_bytes
from repro.service.jobs import JobJournal
from repro.store import ExperimentRunner, ExperimentStore, StoreError

SMOKE = Scale(name="smoke", programs=("crc", "search"), n_machines=4, n_settings=6)
TTL = 3600.0  # leases stay live for the whole run; staleness is not under test
PROTOCOL = "feedfacecafebeef"
VARIANTS = [variant_by_key("base")]

#: (store directory, artifact path inside it) for every artifact kind.
ARTIFACTS = (
    ("store", "manifest.json"),
    ("store", "shards/p0000-c0000.npz"),
    ("store", "shards/p0000-c0000.json"),
    ("store", "cluster/leases/table.json"),
    ("store", "cluster/leases/p0001-c0000.lease"),
    ("folds", "manifest.json"),
    ("folds", "folds/base--crc.json"),
    ("registry", "models/v0001.json"),
    ("registry", "promoted.json"),
    ("jobs", "job-0001/meta.json"),
    ("jobs", "job-0001/events.ndjson"),
)


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """One store of each family, every artifact kind present and intact."""
    root = tmp_path_factory.mktemp("equivalence")
    grid = grid_for_scale(SMOKE, chunk_machines=2)
    store = ExperimentStore(grid, root / "store")
    ExperimentRunner(store).run()
    table = LeaseTable(root / "store" / "cluster" / "leases", grid.fingerprint(), ttl=TTL)
    assert table.try_claim("p0001-c0000", "worker-1")

    folds = FoldStore(PROTOCOL, VARIANTS, list(SMOKE.programs), root=root / "folds")
    for program in SMOKE.programs:
        row = FoldRow(0, tuple([0] * 39), 1.25, 2.0, 1.0)
        folds.write_fold(FoldRecord(FoldKey("base", program), (row,)))

    training = store.assemble()
    predictor = make_predictor(VARIANTS[0], training).fit(training)
    registry = ModelRegistry(root / "registry")
    registry.register(predictor, metadata={"gen": 1}, promote=True)
    registry.register(predictor, metadata={"gen": 2})

    journal = JobJournal.create(root / "jobs" / "job-0001", "job-0001", {"kind": "noop"})
    _, chain = journal.load_events("job-0001")
    for event in ({"event": "started"}, {"event": "fold", "fold": "base--crc"}, {"event": "complete"}):
        chain = journal.append(event, chain)
    return root


def _store_ok(root: Path) -> bool:
    lease_root = root / "cluster" / "leases"
    try:
        store = ExperimentStore.open(root)
        for key in store.grid.shard_keys():
            store.read_shard(key)
        LeaseTable(lease_root, store.grid.fingerprint(), ttl=TTL)
    except (StoreError, ClusterError):
        return False
    return not any(lease.corrupt or lease.stale for lease in scan_leases(lease_root, TTL))


def _folds_ok(root: Path) -> bool:
    try:
        store = FoldStore(PROTOCOL, VARIANTS, list(SMOKE.programs), root=root)
        for key in store.unit_keys():
            store.read_fold(key)
    except FoldStoreError:
        return False
    return True


def _registry_ok(root: Path) -> bool:
    """Every entry loads, and the pointer parses and names only loadable
    versions (what ``load`` and ``rollback`` read)."""
    registry = ModelRegistry(root)
    try:
        channels = registry._read_promoted()["channels"]
        named = {
            version
            for state in channels.values()
            for version in (state["current"], *state["history"])
            if version is not None
        }
        for version in sorted(set(registry.versions()) | named):
            registry._read_entry(version)
    except RegistryError:
        return False
    return True


def _jobs_ok(root: Path) -> bool:
    """Recovery's view: meta loads, and the journal replays to the end of
    its file (no discarded tail)."""
    for path in sorted(root.glob("job-*")):
        journal = JobJournal(path)
        if journal.load_meta() is None:
            return False
        _, _, verified, size = journal.replay(path.name)
        if verified < size:
            return False
    return True


READERS = {"store": _store_ok, "folds": _folds_ok, "registry": _registry_ok, "jobs": _jobs_ok}


def _verdicts(root: Path, family: str) -> tuple[bool, bool]:
    """(reader ok, scrub ok) for one store directory; the scrub runs
    first and read-only, so the reader sees the same bytes."""
    report = fsck_path(root / family, ttl=TTL)
    assert report.findings, "the scrub saw no artifacts"
    assert not any(finding.repaired for finding in report.findings)
    return READERS[family](root / family), report.clean


def _damage(path: Path, how: str, offset: int = 0, bit: int = 0) -> None:
    data = path.read_bytes()
    if how == "torn":
        with armed({"scrub.equivalence": "once:torn"}), pytest.raises(FaultInjected):
            atomic_write_bytes(path, data, site="scrub.equivalence")
    elif how == "zero":
        path.write_bytes(b"")
    else:
        flipped = bytearray(data)
        flipped[offset % len(data)] ^= 1 << bit
        path.write_bytes(bytes(flipped))


def _case(clean: Path, work: Path, family: str, artifact: str, *damage) -> tuple[bool, bool]:
    shutil.copytree(clean / family, work / family)
    _damage(work / family / artifact, *damage)
    return _verdicts(work, family)


@pytest.mark.parametrize("family", sorted(READERS))
def test_clean_stores_read_and_scrub_ok(clean, family):
    assert _verdicts(clean, family) == (True, True)


@pytest.mark.parametrize("how", ["torn", "zero"])
@pytest.mark.parametrize("family,artifact", ARTIFACTS)
def test_torn_and_zero_byte_artifacts(clean, tmp_path, family, artifact, how):
    reader_ok, scrub_ok = _case(clean, tmp_path, family, artifact, how)
    assert reader_ok == scrub_ok
    if artifact.endswith(".ndjson") and how == "zero":
        assert reader_ok  # an empty journal is a journal with no events yet
    else:
        assert not reader_ok  # every other truncation is damage to both


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    target=st.sampled_from(ARTIFACTS),
    how=st.sampled_from(["flip", "flip", "torn", "zero"]),
    offset=st.integers(min_value=0, max_value=1 << 20),
    bit=st.integers(min_value=0, max_value=7),
)
def test_reader_and_scrub_agree(clean, tmp_path_factory, target, how, offset, bit):
    work = tmp_path_factory.mktemp("case")
    try:
        reader_ok, scrub_ok = _case(clean, work, *target, how, offset, bit)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert reader_ok == scrub_ok, (target, how, offset, bit)
