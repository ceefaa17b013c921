"""``repro-experiments fsck``: scrub every durable store, repair damage.

The stores *tolerate* damage silently (unreadable shards read as
pending, torn journal tails replay to the verified prefix); fsck makes
it visible.  Every artifact under the cache root is classified ``ok``,
``torn-tail``, ``digest-mismatch``, ``orphaned``, ``stale-lease`` or
``corrupt``, and with ``--repair`` the damage is quarantined into the
store's ``quarantine/`` directory (or exactly repaired: journal tails
truncate, temp files, tombstones and stale leases delete, a pointer
naming vanished versions rewrites from its own history), so the next
resume rebuilds exactly the damaged units.

Each store owns its verification: ``ExperimentStore.scrub``,
``FoldStore.scrub``, ``ModelRegistry.scrub`` and ``JobManager.scrub``
judge their artifacts with the checks their readers run.  This module
only walks the cache root, dispatches each directory to its store
family and collects one report.  Read-only unless ``repair=True``.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.ioutil import QUARANTINE_DIR, ArtifactError, Finding, Scrub, read_json_object

#: Classification statuses, roughly worst-first.
STATUSES = ("corrupt", "torn-tail", "digest-mismatch", "orphaned", "stale-lease", "ok")


@dataclass
class FsckReport:
    """Everything one scrub pass learned (and repaired)."""

    root: str
    repair: bool
    findings: list[Finding] = field(default_factory=list)

    @property
    def problems(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.status != "ok"]

    @property
    def unrepaired(self) -> list[Finding]:
        return [finding for finding in self.problems if not finding.repaired]

    @property
    def clean(self) -> bool:
        return not self.problems

    def counts(self) -> dict[str, int]:
        return dict(Counter(finding.status for finding in self.findings))

    def payload(self) -> dict:
        return {
            "root": self.root,
            "repair": self.repair,
            "counts": self.counts(),
            "problems": [dataclasses.asdict(finding) for finding in self.problems],
        }

    def render(self, verbose: bool = False) -> str:
        counts = self.counts()
        summary = ", ".join(
            f"{counts[status]} {status}" for status in STATUSES if counts.get(status)
        )
        lines = [f"fsck {self.root}: {len(self.findings)} artifacts ({summary or 'empty'})"]
        shown = self.findings if verbose else self.problems
        for finding in shown:
            lines.append(f"  {finding.describe()}")
        if self.clean:
            lines.append("  every artifact verified clean")
        elif self.repair and not self.unrepaired:
            lines.append("  all damage repaired — resume rebuilds exactly the quarantined units")
        elif not self.repair:
            lines.append("  rerun with --repair to quarantine the damage")
        return "\n".join(lines)


def _scrub_store(root: Path, repair: bool, ttl: float | None) -> list[Finding]:
    """Scrub one store directory, inferring which store family it is."""
    from repro.api.registry import ModelRegistry
    from repro.evalrun.foldstore import FoldStore
    from repro.service.jobs import JobManager
    from repro.store.store import ExperimentStore

    try:
        manifest = read_json_object(root / "manifest.json")
    except (OSError, ArtifactError):
        manifest = {}
    # A checkpoint store is known by the identity its manifest pins, else
    # (manifest lost) by its unit directory.
    checkpoint_stores = (ExperimentStore, FoldStore)
    for store in checkpoint_stores:
        if store.PIN in manifest:
            return store.scrub(root, repair, ttl)
    for store in checkpoint_stores:
        if (root / store.UNIT_DIR).is_dir():
            return store.scrub(root, repair, ttl)
    if (root / ModelRegistry.MODEL_DIR).is_dir() or (root / ModelRegistry.PROMOTED_NAME).exists():
        return ModelRegistry.scrub(root, repair)
    if any(path.is_dir() and path.name.startswith("job-") for path in root.iterdir()):
        return JobManager.scrub(root, repair)
    scrub = Scrub(root, root.name, repair)
    if (root / "manifest.json").exists():
        scrub.note(
            root / "manifest.json", "manifest", "corrupt",
            "manifest belongs to no known store family", "quarantine",
        )
    return scrub.findings


def fsck_path(root: str | Path, repair: bool = False, ttl: float | None = None) -> FsckReport:
    """Scrub one store directory, inferring which store family it is."""
    root = Path(root)
    findings = _scrub_store(root, repair, ttl) if root.is_dir() else []
    return FsckReport(root=str(root), repair=repair, findings=findings)


def fsck_cache(
    cache_directory: str | Path | None = None,
    repair: bool = False,
    ttl: float | None = None,
) -> FsckReport:
    """Scrub every store under the cache root (the CLI entry point)."""
    from repro.experiments.dataset import cache_dir

    root = cache_dir(cache_directory)
    report = FsckReport(root=str(root), repair=repair)
    if not root.is_dir():
        return report
    for child in sorted(root.iterdir()):
        if not child.is_dir() or child.name == QUARANTINE_DIR:
            continue
        if child.name not in ("registry", "jobs") and not child.name.startswith(
            ("store-", "protocol-")
        ):
            continue
        # Stores report paths relative to their own root; re-anchor to
        # the cache root so findings name their store unambiguously.
        report.findings.extend(
            dataclasses.replace(finding, path=f"{child.name}/{finding.path}")
            for finding in _scrub_store(child, repair, ttl)
        )
    return report
