"""Shared pieces of the benchmark: the host reference kernel, seeded
draws, the op recorder and the end-to-end summary.

Every time-based end-to-end metric is *calibrated*: each op's latency is
multiplied by ``REF / k``, where ``k`` is the median of the nearest runs
(in time) of a fixed numpy kernel timed in between the workload's ops,
and ``REF`` is the constant passed as ``--ref-ms`` (recorded in
``BENCHMARK.json``).  Rates follow from the calibrated latencies.  On a
shared 2-CPU host the raw brush median of one seeded run swung 6.6–8.6 ms
between processes while its ratio to this kernel stayed within
0.18–0.19; and within one process the kernel drifted by up to 17%
between the read loop and the capture phase that followed it.  Hence
the calibration is local to each op, not one factor per run.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
from bisect import bisect_left
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: The reference kernel runs once every this many quiet points (one
#: quiet point precedes each op, or each serving tick).
KERNEL_EVERY = 8
#: An op is calibrated by the median of this many kernel runs nearest to
#: it in time.
KERNEL_NEIGHBOURS = 9

#: Loops run at least this many reads so that ten samples lie beyond the
#: p99 — but never longer than ``OVERRUN`` times the requested seconds.
MIN_READS = 1000
OVERRUN = 3.0

#: How many failure messages to print (all are counted).
SHOWN_FAILURES = 5


def running(start: float, seconds: float, reads: int, min_reads: int) -> bool:
    """Whether a loop started at ``start`` goes on: until ``seconds`` have
    passed and ``min_reads`` reads are done, or ``OVERRUN`` times longer."""
    elapsed = perf_counter() - start
    return elapsed < seconds * OVERRUN and (elapsed < seconds or reads < min_reads)


class HostRef:
    """The reference kernel: gather + bincount + stable argsort on data
    fixed by a constant seed, never by the workload seed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20180901)
        self._values = rng.integers(0, 4096, 1 << 20)
        self._positions = rng.integers(0, 1 << 20, 1 << 16)
        self.times: List[float] = []
        self.samples: List[float] = []

    def sample(self) -> None:
        start = perf_counter()
        gathered = self._values[self._positions]
        counts = np.bincount(gathered, minlength=4096)
        order = np.argsort(gathered, kind="stable")
        checksum = int(counts[gathered[order[0]]])
        end = perf_counter()
        if checksum <= 0:
            raise RuntimeError("reference kernel produced an impossible count")
        self.times.append((start + end) / 2)
        self.samples.append((end - start) * 1e3)

    def median_ms(self) -> float:
        return statistics.median(self.samples)

    def near(self, t: float) -> float:
        """Median of the kernel runs nearest to time ``t``."""
        i = bisect_left(self.times, t)
        lo = max(0, i - KERNEL_NEIGHBOURS)
        window = sorted(range(lo, min(len(self.times), i + KERNEL_NEIGHBOURS)),
                        key=lambda j: abs(self.times[j] - t))
        return statistics.median(self.samples[j] for j in window[:KERNEL_NEIGHBOURS])


def host_fingerprint() -> str:
    return (
        f"host: nproc={os.cpu_count()} numpy={np.__version__} "
        f"python={platform.python_version()} machine={platform.machine()}"
    )


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stratified_ranks(rng: np.random.Generator, n_items: int, exponent: float,
                     block: int):
    """Endless seeded Zipf draws of 0-based ranks over ``n_items``.

    Each block of ``block`` draws takes one uniform point per stratum of
    the Zipf CDF, in seeded order: the seed picks which ranks and in
    which order, while the mix of heavy and light ranks is the same in
    every block — so a run's latency distribution does not hinge on how
    many heavy ranks one seed happened to draw.
    """
    weights = 1.0 / np.arange(1, n_items + 1, dtype=np.float64) ** exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    while True:
        points = (np.arange(block) + rng.random(block)) / block
        ranks = np.minimum(np.searchsorted(cdf, points), n_items - 1)
        yield from rng.permutation(ranks).tolist()


#: ``(start time, milliseconds)`` of one timed op.
Timing = Tuple[float, float]


class Recorder:
    """Times the ops of one run and counts attempts and failures.

    Kinds: ``read``, ``write``, ``capture`` (capture-on side of a pair)
    and ``capture_off``.  A tracer, when attached, learns each op's id
    and kind so that spans can be charged to ops.  A workload whose reads
    overlap records the wall time of its loop in ``walls``.
    """

    def __init__(self, host_ref: HostRef, tracer=None) -> None:
        self.host_ref = host_ref
        self.tracer = tracer
        self.samples: Dict[str, List[Timing]] = defaultdict(list)
        self.ratios: Dict[str, List[float]] = defaultdict(list)
        self.capture_ms: Dict[str, List[Timing]] = defaultdict(list)
        self.walls: List[Timing] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._quiet = 0
        self._ops = 0

    def quiet_point(self) -> None:
        """Called where no op is in flight; samples the kernel at a fixed
        cadence."""
        self._quiet += 1
        if self._quiet % KERNEL_EVERY == 0:
            self.host_ref.sample()

    def next_op(self, kind: str) -> int:
        self._ops += 1
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.register_op(self._ops, kind)
        return self._ops

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < SHOWN_FAILURES:
            self.failures.append(message)

    def op(self, kind: str, fn: Callable, *args, **kwargs):
        """Run one synchronous op; returns ``(value, ms)`` or ``None``
        when it raised (counted as a failure)."""
        op_id = self.next_op(kind)
        tracer = self.tracer
        if tracer is not None:
            tracer.enter_op(op_id)
        start = perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # any engine error is a failed op
            self.fail(f"{kind}: {exc!r}")
            return None
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.exit_op()
        ms = elapsed * 1e3
        self.samples[kind].append((start, ms))
        return value, ms

    def capture_pair(self, label: str, run_off: Callable, run_on: Callable,
                     on_first: bool) -> None:
        """One interleaved pair of the same plan, capture off and on.
        Pairs are long enough to get a kernel run each."""
        self.host_ref.sample()
        sides = [("capture_off", run_off), ("capture", run_on)]
        if on_first:
            sides.reverse()
        times = {}
        for kind, fn in sides:
            out = self.op(kind, fn)
            if out is None:
                return
            times[kind] = self.samples[kind][-1]
        self.ratios[label].append(times["capture"][1] / times["capture_off"][1])
        self.capture_ms[label].append(times["capture"])


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def geomean_of_medians(series: Dict[str, List[float]]) -> float:
    """Geometric mean over statements of each statement's median — the
    statements differ by up to 10x in cost, so a median over the pooled
    samples would jump between them from one run to the next."""
    medians = [statistics.median(v) for v in series.values()]
    return math.exp(sum(math.log(m) for m in medians) / len(medians))


#: (name, unit) of every end-to-end metric, in print order.
END_TO_END = (
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("reads_per_s", "1/s"),
    ("capture_p50_ms", "ms"),
    ("capture_overhead_x", "ratio"),
    ("write_p50_ms", "ms"),
    ("lineage_bytes_per_row", "B/row"),
    ("peak_rss_mb", "MB"),
)


def summarize(rec: Recorder, setups: List[Timing], write_kind: str,
               lineage_bytes_per_row: float,
               ref_ms: Optional[float] = None) -> Dict[str, float]:
    """The end-to-end metrics of one run: raw, or calibrated when
    ``ref_ms`` (REF) is given.  ``setups`` are ``(start, seconds)``.

    ``write_kind`` is ``"write"`` for a workload with writes of its own,
    or ``"capture"`` where the capture-on side of a pair is the
    workload's write (it registers its result)."""
    host = rec.host_ref

    def scaled(timings: List[Timing]) -> List[float]:
        if ref_ms is None:
            return [value for _t, value in timings]
        return [value * ref_ms / host.near(t) for t, value in timings]

    reads = scaled(rec.samples["read"])
    # Single client: reads ÷ Σ read latency; overlapping reads: ÷ loop wall.
    wall_s = sum(scaled(rec.walls)) if rec.walls else sum(reads) / 1e3
    capture_p50 = geomean_of_medians(
        {label: scaled(series) for label, series in rec.capture_ms.items()}
    )
    return {
        "setup_s": statistics.median(scaled(setups)),
        "read_p50_ms": percentile(reads, 50),
        "read_p99_ms": percentile(reads, 99),
        "reads_per_s": len(reads) / wall_s,
        "capture_p50_ms": capture_p50,
        "capture_overhead_x": geomean_of_medians(rec.ratios),
        "write_p50_ms": (capture_p50 if write_kind == "capture"
                         else statistics.median(scaled(rec.samples["write"]))),
        "lineage_bytes_per_row": lineage_bytes_per_row,
        "peak_rss_mb": peak_rss_mb(),
    }


def report_failures(rec: Recorder) -> None:
    ratio = rec.failed / rec.attempted
    print(f"fail_ratio {ratio:.6f} ratio ({rec.failed} of {rec.attempted} ops)")
    for message in rec.failures:
        print(f"  failure: {message}", file=sys.stderr)
