"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --ref-ms 8.0 --workload crossfilter \\
        --seed 1 --seconds 25 --trace 0

Workloads: ``crossfilter``, ``tpch_capture``, ``serve_refresh`` (see
``perfbench/README.md``).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a separate traced
run with ``--trace 1``.  Lines before it give every metric with its unit,
calibrated next to raw, plus the host fingerprint and the sample counts.

``--ref-ms`` is REF, the reference kernel's median on the host the
benchmark was defined on; ``BENCHMARK.json`` passes it.  ``--holdout``
moves the seed into a range kept for confirming a claim on inputs not
used while the change was written.  ``--repeat N`` is the steadiness
mode: N runs on seeds ``seed .. seed+N-1``, then each metric's median
and quartiles next to its bound.

The program is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: ``--holdout`` adds this to the seed.
HOLDOUT_OFFSET = 1_000_000


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ref-ms", type=float, required=True)
    parser.add_argument("--holdout", action="store_true")
    parser.add_argument("--repeat", type=int, default=0)
    return parser.parse_args(argv)


def load_engine() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no engine sources under {src}")
    sys.path[:0] = [src, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def cache_stats() -> dict:
    """Σ ``LineageResolutionCache.stats()`` over every live cache."""
    from repro.lineage.cache import LineageResolutionCache

    total = {"hits": 0, "misses": 0}
    for obj in gc.get_objects():
        if isinstance(obj, LineageResolutionCache):
            stats = obj.stats()
            total["hits"] += stats["hits"]
            total["misses"] += stats["misses"]
    return total


#: Kernel runs before each set-up and after the last, so that every
#: set-up has its own neighbours to be calibrated by.
SETUP_KERNEL_RUNS = 3


def set_up(workload, host_ref) -> list:
    """The program's set-up, ``setup_reps`` times; keeps the last one.
    Returns ``(start, seconds)`` of each."""
    times = []
    for _ in range(workload.setup_reps):
        workload.release()
        gc.collect()
        for _ in range(SETUP_KERNEL_RUNS):
            host_ref.sample()
        start = perf_counter()
        workload.setup()
        times.append((start, perf_counter() - start))
    for _ in range(SETUP_KERNEL_RUNS):
        host_ref.sample()
    return times


def measure(args, workload, host_ref, setup_times, bytes_per_row):
    from perfbench.harness import END_TO_END, MIN_READS, Recorder, report_failures, summarize

    rec = Recorder(host_ref)
    workload.run(rec, args.seconds)
    workload.capture_phase(rec)
    raw = summarize(rec, setup_times, workload.write_kind, bytes_per_row)
    cal = summarize(rec, setup_times, workload.write_kind, bytes_per_row, args.ref_ms)
    host_ms = host_ref.median_ms()
    reads = len(rec.samples["read"])
    print(f"host_ref_ms {host_ms:.4f} ms median of {len(host_ref.samples)} kernel runs "
          f"(min {min(host_ref.samples):.4f}, max {max(host_ref.samples):.4f}; REF {args.ref_ms} ms)")
    print(f"read samples {reads}, {reads - int(0.99 * reads)} beyond p99"
          + ("" if reads >= MIN_READS else " (fewer than 10: p99 is not resolved)"))
    print(f"capture pairs {sum(len(v) for v in rec.ratios.values())} "
          f"over {len(rec.ratios)} statements; writes {len(rec.samples[workload.write_kind])}")
    print(workload.describe())
    print("set-ups (raw s): " + " ".join(f"{s:.4f}" for _t, s in setup_times))
    for name, unit in END_TO_END:
        print(f"{name:24s} {cal[name]:14.4f} {unit:6s} raw {raw[name]:14.4f} {unit}")
    report_failures(rec)
    metrics = {name: {"value": cal[name], "unit": unit} for name, unit in END_TO_END}
    return rec.attempted, rec.failed, metrics


def measure_traced(args, workload, host_ref, setup_times, bytes_per_row):
    """Half the seconds untraced, then half traced after a fresh set-up,
    both replaying the same seeded ops; per-layer numbers come from the
    traced half, raw values from the untraced one, the tracing overhead
    from both."""
    from perfbench.harness import Recorder, report_failures, summarize
    from perfbench.trace import PER_LAYER, Tracer

    half = args.seconds / 2
    plain = Recorder(host_ref)
    workload.run(plain, half, min_reads=0)
    workload.capture_phase(plain)
    workload.release()
    workload.setup()
    gc.collect()
    tracer = Tracer()
    rec = Recorder(host_ref, tracer)
    before = cache_stats()
    tracer.install()
    try:
        workload.run(rec, half, min_reads=0)
        workload.capture_phase(rec)
    finally:
        tracer.uninstall()
    after = cache_stats()
    missing = [layer for layer in workload.expected_layers if tracer.calls(layer) == 0]
    if missing:
        raise SystemExit(
            f"perfbench: traced run of {workload.name} recorded no calls of {missing}; "
            "a layer this workload exercises was renamed or is no longer reached"
        )
    raw = summarize(plain, setup_times, workload.write_kind, bytes_per_row)
    # Calibrated, so that host drift between the halves does not count.
    untraced_rate, traced_rate = (
        summarize(r, setup_times, workload.write_kind, bytes_per_row, args.ref_ms)["reads_per_s"]
        for r in (plain, rec)
    )
    attempted = plain.attempted + rec.attempted
    failed = plain.failed + rec.failed
    extra = {
        "host.ref_kernel_ms": host_ref.median_ms(),
        "trace.overhead_pct": (untraced_rate / traced_rate - 1.0) * 100.0,
        "fail_ratio": failed / attempted,
        "serve.write_apply_ms": 0.0,
        "serve.write_commit_ms": 0.0,
    }
    for name in ("setup_s", "read_p50_ms", "read_p99_ms", "reads_per_s",
                 "capture_p50_ms", "write_p50_ms"):
        extra[f"raw.{name}"] = raw[name]
    if hasattr(workload, "serve_split"):
        extra.update(workload.serve_split())
    delta = {k: after[k] - before[k] for k in before}
    values = tracer.metrics(delta, getattr(workload, "wal_bytes", 0), extra)
    path = os.path.join(OUT_DIR, f"trace-{workload.name}-seed{workload.seed}.jsonl")
    tracer.write(path)
    print(f"spans {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    for name, unit, _better in PER_LAYER:
        print(f"{name:50s} {values[name]:14.4f} {unit}")
    report_failures(plain)
    report_failures(rec)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _b in PER_LAYER}
    return attempted, failed, metrics


def check_spec(metrics: dict, trace: int) -> None:
    """The printed metrics must be exactly the ones BENCHMARK.json lists."""
    if not os.path.isfile(SPEC):
        return
    with open(SPEC) as fh:
        spec = json.load(fh)
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in metrics.items()}
    if listed != printed:
        raise SystemExit(f"perfbench: metrics differ from {SPEC}: "
                         f"{sorted(set(listed.items()) ^ set(printed.items()))}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.repeat:
        sys.path.insert(0, ROOT)
        from perfbench.steady import steady

        return steady(args, ROOT)
    load_engine()
    from perfbench.harness import HostRef, host_fingerprint
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    seed = args.seed + (HOLDOUT_OFFSET if args.holdout else 0)
    workload = WORKLOADS[args.workload](seed, OUT_DIR)
    print(host_fingerprint())
    print(f"workload {workload.name} seed {seed} seconds {args.seconds} trace {args.trace}")
    host_ref = HostRef()
    try:
        workload.generate()
        setup_times = set_up(workload, host_ref)
        workload.prepare_oracle()
        bytes_per_row = workload.lineage_bytes_per_row()
        gc.collect()
        run_once = measure_traced if args.trace else measure
        attempted, failed, metrics = run_once(
            args, workload, host_ref, setup_times, bytes_per_row
        )
    finally:
        workload.close()
    check_spec(metrics, args.trace)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
