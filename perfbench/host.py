"""Host-speed probe and host-normalised timing.

On a shared host the same pure-Python loop runs at visibly different
speeds for seconds at a time (phases of roughly 1.7x were seen on a
shared 2-vCPU virtual machine), and wall time equals CPU time while it
happens, so ``process_time`` cannot hide it.  Every timed interval is therefore also
reported host-normalised:

    normalised = raw x NOMINAL_PROBE_S / median(probes bracketing it)

The probe is a fixed ~3 ms pure-Python loop.  It only runs while the
program under test is idle (between operations, between load rounds
with nothing in flight, between set-up stages), so it never competes
with the work it calibrates.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: The probe's nominal duration: normalised seconds are "seconds on a
#: host that runs the probe in exactly this long".
NOMINAL_PROBE_S = 0.003

PROBE_ITERATIONS = 12_000

#: A probe slower than this multiple of the run's 10th-percentile probe
#: counts towards ``host.slow_share``.
SLOW_FACTOR = 1.3


def probe() -> float:
    """Run the fixed probe loop once; return its wall seconds."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(PROBE_ITERATIONS):
        key = i & 255
        acc = (acc + table.get(key, i) * 7) & 0xFFFFF
        table[key] = acc
    return time.perf_counter() - start


class HostClock:
    """Probe log plus the normalisation of intervals against it.

    ``idle()`` is called whenever the program is idle; it runs the probe
    and returns the time at which work may resume.  ``factor(start,
    end)`` is known once probes exist on both sides of an interval.
    """

    #: Probes taken on each side of an interval.
    SIDE = 2

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._seconds: list[float] = []

    def idle(self) -> float:
        """Probe now; return ``perf_counter()`` after the probe."""
        start = time.perf_counter()
        seconds = probe()
        end = time.perf_counter()
        self.add_probe(start, end, seconds)
        return end

    def add_probe(self, start: float, end: float, seconds: float) -> None:
        """Record a probe taken elsewhere (e.g. in a child process)."""
        index = bisect.bisect(self._starts, start)
        self._starts.insert(index, start)
        self._ends.insert(index, end)
        self._seconds.insert(index, seconds)

    def records(self) -> list[tuple[float, float, float]]:
        """Every probe as ``(start, end, seconds)``."""
        return list(zip(self._starts, self._ends, self._seconds))

    def factor(self, start: float, end: float) -> float:
        """``NOMINAL_PROBE_S / median`` of the probes bracketing the interval."""
        before = bisect.bisect_right(self._ends, start)
        after = bisect.bisect_left(self._starts, end)
        near = (
            self._seconds[max(0, before - self.SIDE):before]
            + self._seconds[after:after + self.SIDE]
        )
        if not near:
            raise RuntimeError("no host probe brackets the interval")
        return NOMINAL_PROBE_S / statistics.median(near)

    def normalise(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)

    def diagnostics(self) -> dict:
        """``host.*`` figures: probe median (ms) and share of slow probes."""
        fast = sorted(self._seconds)[len(self._seconds) // 10]
        slow = sum(1 for s in self._seconds if s > SLOW_FACTOR * fast)
        return {
            "probe_ms_p50": statistics.median(self._seconds) * 1e3,
            "slow_share": slow / len(self._seconds),
            "probes": len(self._seconds),
        }


class Intervals:
    """Busy intervals of one measured phase, some of them operations.

    Raw and host-normalised totals are both kept, so the correction can
    be audited.
    """

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self._items: list[tuple[float, float, bool]] = []

    def add(self, start: float, end: float, op: bool) -> None:
        self._items.append((start, end, op))

    @property
    def ops(self) -> int:
        return sum(1 for *_, op in self._items if op)

    def op_seconds(self, normalised: bool = True) -> list[float]:
        return [
            self.clock.normalise(s, e) if normalised else e - s
            for s, e, op in self._items
            if op
        ]

    def busy_seconds(self, normalised: bool = True) -> float:
        return sum(
            self.clock.normalise(s, e) if normalised else e - s
            for s, e, _ in self._items
        )

    def busy_profile(self, normalised: bool = True) -> list[float]:
        """Every busy interval's seconds, in order."""
        return [
            self.clock.normalise(s, e) if normalised else e - s
            for s, e, _ in self._items
        ]

    def op_spans(self) -> list[tuple[float, float]]:
        return [(s, e) for s, e, op in self._items if op]
