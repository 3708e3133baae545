"""The host's speed, measured between timed passes by a fixed probe.

On a shared host the speed of one core drifts: for seconds to minutes it
runs up to twice as slow, in CPU time as well as in wall time, while other
guests load the machine.  Run totals of raw times then spread by 12-26 %
between runs of the same code.  So the benchmark probes the host right
before and right after every pass and divides the pass time by the host
factor

    f = mean(probing before, probing after) / PROBE_REFERENCE_S.

The scaled time is what the pass would have taken on a host where the
probe takes ``PROBE_REFERENCE_S``.  The probe calls no flatscale code, so a
change to the program moves the scaled times in full; only the host's
drift cancels.  It cancels in full only for work that slows as much as the
probe: in a phase with f near 2, scaled scan and oracle times stayed
within 8 % of their values in quiet phases.

The probe mixes, in about equal time, four kinds of work the program's
hot paths do, because each kind slows by a different share in a slow
phase: a Python loop over floats, tuples and dicts; numpy calls on tiny
arrays; numpy calls on arrays of a few thousand entries; and allocation of
many small objects.  The garbage collector is off while it runs, so the
program's heap cannot slow it.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

# The probe's median time on the host where the benchmark was written
# (2 vCPUs of a shared Intel Xeon, Python 3.11), measured in a quiet phase.
PROBE_REFERENCE_S = 0.08
# Share of each interval spent probing after it.
PROBE_SHARE = 0.15

_TINY = np.linspace(-1.0, 1.0, 8)
_WIDE = np.linspace(-1.0, 1.0, 4096)


class _Node:
    __slots__ = ("edges", "key", "attrs")

    def __init__(self, edges, key, attrs):
        self.edges = edges
        self.key = key
        self.attrs = attrs


def _python_loop(n: int = 30000) -> float:
    acc = 0.0
    table: dict[int, tuple[float, float]] = {}
    for i in range(n):
        x = (i * 0.6180339887) % 1.0
        lo, hi = min(x, 1.0 - x), max(x, 1.0 - x)
        table[i & 255] = (lo, hi)
        other = table.get((i * 7) & 255, (lo, hi))
        acc += math.hypot(lo - other[1], hi - other[0])
    return acc


def _tiny_arrays(n: int = 5000) -> float:
    acc = 0.0
    for i in range(n):
        v = _TINY * i
        acc += float(np.dot(v, _TINY[::-1])) + float(np.abs(v).max())
    return acc


def _wide_arrays(n: int = 850) -> float:
    acc = 0.0
    for i in range(n):
        w = _WIDE * i
        mask = (np.abs(w) < 0.5) & (w * w + i > 0.25)
        acc += float(np.where(mask, np.sqrt(np.abs(w)), 0.0).sum())
    return acc


def _allocation(n: int = 50000) -> int:
    keep = []
    for i in range(n):
        keep.append(_Node([i, i + 1], (i, 2.0), {"k": i}))
        if len(keep) > 4000:
            keep = keep[2000:]
    return len(keep)


def probe_seconds() -> float:
    """Wall time of one probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _python_loop()
        _tiny_arrays()
        _wide_arrays()
        _allocation()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Host factors for consecutive intervals, each bounded by two probings.

    A probing repeats the probe until it has taken ``PROBE_SHARE`` of the
    interval before it: a single probe catches the host's speed in one
    tenth of a second, and a pass of several seconds needs a longer look.
    """

    def __init__(self):
        self.probes: list[float] = [self._probing(0.0)]

    @staticmethod
    def _probing(interval_s: float) -> float:
        times = [probe_seconds()]
        while sum(times) < PROBE_SHARE * interval_s:
            times.append(probe_seconds())
        return sum(times) / len(times)

    def factor(self, interval_s: float) -> float:
        """Probe again; return the host factor of the last ``interval_s``."""
        self.probes.append(self._probing(interval_s))
        return 0.5 * (self.probes[-2] + self.probes[-1]) / PROBE_REFERENCE_S
