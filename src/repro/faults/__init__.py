"""repro.faults — deterministic fault injection for every durable store.

The reproduction's durability story — byte-identical kill/resume builds,
digest-chained job journals, lease-based reclaim — is only trustworthy
if the atomic-write/verify/replay machinery is exercised under the
failures it claims to survive.  This package makes those failures
injectable, deterministic, and cheap to leave compiled in:

* :mod:`repro.faults.core` — the :class:`FailpointRegistry`: named
  failpoint sites threaded through :mod:`repro.ioutil` (and therefore
  through every durable store), armed with per-site policies (fail-once,
  fail-Nth, probability-p under a seeded RNG, always) and actions
  (``torn`` half-written artifacts, ``enospc`` :class:`OSError`,
  ``error`` a plain :class:`FaultInjected`, ``crash`` via
  ``os._exit``).  Sites cost one module-global check when nothing is
  armed, so production runs pay ~nothing.
* :mod:`repro.faults.fsck` — the scrub/repair pass behind
  ``repro-experiments fsck``: classifies every artifact of every store
  (ok / torn-tail / digest-mismatch / orphaned / stale-lease / corrupt)
  and under ``--repair`` quarantines or truncates the damage so the next
  resume rebuilds exactly the broken units.  Each store owns its
  verification — its ``scrub`` runs the checks its reader runs — and
  fsck only walks the cache root and dispatches to the stores.
* :mod:`repro.faults.chaos` — the chaos harness behind
  ``repro-experiments chaos``: drives real dataset builds, protocol
  runs, cluster drains, and serving sessions under randomized fault
  schedules and asserts the invariants that define correctness (final
  fingerprints byte-identical to a fault-free run, zero re-simulation
  of intact units after repair).

Arm failpoints in-process (:func:`armed` / :meth:`FailpointRegistry.arm`)
or for subprocesses via ``REPRO_FAILPOINTS``, e.g.::

    REPRO_FAILPOINTS="store.shard.npz=once:torn,lease.heartbeat=prob-0.2:enospc"
"""

from repro.faults.core import (
    FailpointRegistry,
    FaultInjected,
    Injection,
    armed,
    fire,
    registry,
)

__all__ = [
    "FailpointRegistry",
    "FaultInjected",
    "Injection",
    "armed",
    "fire",
    "registry",
]
