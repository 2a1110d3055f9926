"""Steadiness mode: repeat one workload on consecutive seeds and print
each metric's median and quartiles next to its bound.

A metric whose quartile spread ``(q3 - q1) / median`` stays below a
third of its bound is steady; between a third and the whole bound it is
usable; above the bound a change in it cannot be told from noise
("unresolved" rather than "unchanged").  Quartiles are
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

#: A child run that has not finished by then is stopped and reported.
CHILD_TIMEOUT_S = 900


def steady(args, root: str) -> int:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    values = defaultdict(list)
    for i in range(args.repeat):
        seed = args.seed + i
        command = [
            sys.executable, os.path.join(root, "perfbench", "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--ref-ms", str(args.ref_ms),
        ] + (["--holdout"] if args.holdout else [])
        proc = subprocess.run(command, cwd=root, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
            print(f"run {i + 1} (seed {seed}) exited with {proc.returncode}")
            return proc.returncode
        log = os.path.join(root, ".perfbench_out", "steady",
                           f"{args.workload}-trace{args.trace}-seed{seed}.log")
        os.makedirs(os.path.dirname(log), exist_ok=True)
        with open(log, "w") as fh:
            fh.write(proc.stdout)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"run {i + 1}/{args.repeat} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} (output in {log})",
              flush=True)
    print(f"{'metric':45s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} bound")
    for metric in listed:
        name = metric["name"]
        series = values[name]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / abs(median) if median else float("nan")
        bound = metric.get("bound")
        if bound is None:
            verdict = ""
        elif spread <= bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "unresolved"
        print(f"{name:45s} {median:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} "
              f"{'' if bound is None else bound} {verdict}")
    return 0
