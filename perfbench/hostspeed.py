"""The host's speed, sampled during a run with a fixed reference kernel.

On a shared virtual machine the same Python code runs faster or slower by
10-50 % from one minute to the next, because other guests share the cores
and caches.  That drift hits the package and any other Python code alike.
A run therefore times a fixed reference kernel, which never touches the
package, between its queries.  The end-to-end times are reported at the
reference speed: each measured time is multiplied by

    REFERENCE_NS / (median CPU time of the reference kernel within
                    WINDOW_S seconds either side of the measurement)

so they read as they would on a host where the kernel takes exactly 1 ms.
A change to the package moves them; a change of the host's speed, within a
run or between runs, cancels out.  The report keeps the measured, unscaled
values beside them.
"""

from __future__ import annotations

import bisect
import statistics
import time
from array import array

REFERENCE_NS = 1_000_000
# One sample per this much timed work, so that the kernel costs a few per
# cent of a run and its samples spread evenly over the run.
SAMPLE_EVERY_NS = 20_000_000
WINDOW_S = 2.0
# A window with fewer samples than this takes the whole run's median.
MIN_WINDOW_SAMPLES = 5
# Measurements within one bucket of this many seconds share a window.
BUCKET_S = 0.25


class _Cell:
    __slots__ = ("value", "modulus")

    def __init__(self, value, modulus):
        self.value = value
        self.modulus = modulus


def reference_kernel() -> int:
    """About 1 ms of the kinds of work the package does: big-integer
    elimination, small objects, tuples, lists and dicts.  Deterministic."""
    n = 10
    rows = [[(i * 7919 + j * 104729) % 1000003 * (1 << 70) + j + 1 for j in range(n)] for i in range(n)]
    # Fraction-free elimination, as in a Bareiss determinant.
    prev = 1
    for k in range(n - 1):
        pivot = rows[k][k] or 1
        for i in range(k + 1, n):
            ri, rk = rows[i], rows[k]
            rows[i] = [(pivot * ri[j] - ri[k] * rk[j]) // prev for j in range(n)]
        prev = pivot
    acc = rows[-1][-1] % 1000000007
    cells = [_Cell(i * 37 % 101, 12) for i in range(1500)]
    counts: dict = {}
    for c in cells:
        key = (c.value % c.modulus, c.modulus)
        counts[key] = counts.get(key, 0) + 1
    ordered = sorted(counts.items())
    return acc + sum(v for _, v in ordered) + len(tuple(str(k) for k, _ in ordered))


class HostSpeed:
    """Reference-kernel samples taken between the queries of a run."""

    def __init__(self):
        self.samples_ns = array("q")
        self.stamps = array("d")  # time.monotonic() of each sample
        self._since_ns = 0

    def sample(self) -> None:
        t0 = time.thread_time_ns()
        reference_kernel()
        self.samples_ns.append(time.thread_time_ns() - t0)
        self.stamps.append(time.monotonic())

    def tick(self, elapsed_ns: int) -> None:
        """Account for ``elapsed_ns`` of timed work: one sample per
        SAMPLE_EVERY_NS of it, so that a long query gets several."""
        self._since_ns += elapsed_ns
        while self._since_ns >= SAMPLE_EVERY_NS:
            self._since_ns -= SAMPLE_EVERY_NS
            self.sample()

    def scale(self) -> float:
        """Factor from measured times to times at the reference speed, over
        the whole run."""
        return REFERENCE_NS / statistics.median(self.samples_ns)

    def scales(self, stamps) -> list[float]:
        """The factor for a measurement taken at each ``time.monotonic()``
        in ``stamps``, from the samples within WINDOW_S of it."""
        whole = self.scale()
        by_bucket: dict[int, float] = {}
        out = []
        for t in stamps:
            bucket = int(t // BUCKET_S)
            if bucket not in by_bucket:
                mid = (bucket + 0.5) * BUCKET_S
                lo = bisect.bisect_left(self.stamps, mid - WINDOW_S)
                hi = bisect.bisect_right(self.stamps, mid + WINDOW_S)
                window = self.samples_ns[lo:hi]
                by_bucket[bucket] = (
                    REFERENCE_NS / statistics.median(window) if len(window) >= MIN_WINDOW_SAMPLES else whole
                )
            out.append(by_bucket[bucket])
        return out

    def report(self) -> dict:
        return {
            "reference_ns": REFERENCE_NS,
            "window_s": WINDOW_S,
            "kernel_median_ns": statistics.median(self.samples_ns),
            "samples": len(self.samples_ns),
            "whole_run_scale": self.scale(),
        }
