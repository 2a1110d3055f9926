"""serve_refresh: snapshot readers while durable refreshes land — the
reader latency under writes that an HTAP design trades off (Polynesia).

The server is ``Database.open(<dir>)`` with fsync on commit (the WAL
default) and ``db.serve(readers=nproc)`` over a 500k-row flights table
with a captured ``latlon_bin`` view.  One client thread runs ticks: in
each tick 8 simulated users each ``submit_query`` one seeded
re-aggregation brush of the view, and the tick ends when all 8 answers
are in.  A read is timed from submit to answer, so queue wait counts.
Every 10th tick one synchronous ``server.write(refresh)`` runs: a
``preserve_rids`` bump of a payload column plus re-registration of the
view, i.e. refresh, re-capture, WAL append and fsync.  Writes are
triggered by tick count, never by a timer.  The brushed bars are drawn
from a Zipf over the view's bars, so the hot set fits the server's
answer memo and rid cache — and every write invalidates both.

The oracle counts with numpy; the brushes are invariant to the payload
bump.  The views' capture cost is measured after the read loop, as
off/on pairs of the view statement while the server is idle.
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
import threading
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

from repro import Database, ExecOptions
from repro.datagen import make_ontime_table
from repro.lineage.capture import CaptureMode
from repro.storage import Table

from ..harness import MIN_READS, Recorder, running, stratified_ranks

ROWS = 500_000
PAYLOAD_COLS = 4
USERS = 8
WRITE_EVERY = 10
ZIPF_EXPONENT = 1.0
CAPTURE_ROUNDS = 20

VIEW = "SELECT latlon_bin, COUNT(*) AS cnt FROM ontime GROUP BY latlon_bin"
VIEW_OPTIONS = ExecOptions(capture=CaptureMode.INJECT, name="view", pin=True)
#: User u re-aggregates by USER_DIMS[u % 3].
USER_DIMS = ("carrier", "delay_bin", "date_bin")
BRUSH = "SELECT {dim}, COUNT(*) AS cnt FROM Lb(view, 'ontime', :bars) GROUP BY {dim}"

OFF = ExecOptions(capture=CaptureMode.NONE)
ON = ExecOptions(capture=CaptureMode.INJECT)


class ServeRefresh:
    name = "serve_refresh"
    write_kind = "write"
    setup_reps = 5
    expected_layers = (
        "serve.sql",
        "serve.execute_plan",
        "serve.cached_answer",
        "exec.lineage_scan.resolve_scan_source",
        "exec.late_mat.execute_pushed",
        "lineage.wal.append",
        "lineage.wal.fsync",
        "lineage.composer.compose_node",
    )

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.db = self.server = self.path = None
        self.tracer = None
        self.write_split: List[Tuple[float, float]] = []
        self.wal_bytes = 0

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.ontime = make_ontime_table(
            ROWS, seed=int(rng.integers(2**31)), payload_cols=PAYLOAD_COLS
        )

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="serve-", dir=self.out_dir)
        db = Database.open(self.path)
        db.create_table("ontime", self.ontime)
        db.sql(VIEW, options=VIEW_OPTIONS)
        server = db.serve(readers=os.cpu_count())
        warm = [
            server.submit_query(BRUSH.format(dim=USER_DIMS[u % 3]),
                                {"bars": np.array([u], dtype=np.int64)})
            for u in range(USERS)
        ]
        for future in warm:
            future.result()
        self.db, self.server = db, server

    def release(self) -> None:
        if self.server is not None:
            self.server.close()
            self.db.close()
            shutil.rmtree(self.path)
        self.db = self.server = self.path = None

    def lineage_bytes_per_row(self) -> float:
        lineage = self.db.result("view").lineage
        rows = sum(self.db.table(rel).num_rows for rel in lineage.relations)
        return lineage.memory_bytes() / rows

    def _disk_bytes(self) -> int:
        return sum(entry.stat().st_size for entry in os.scandir(self.path))

    # -- oracle ----------------------------------------------------------------

    def prepare_oracle(self) -> None:
        view = self.db.result("view").table
        self.bar_values = np.asarray(view.column("latlon_bin"))
        latlon = self.ontime.column("latlon_bin")
        self.rows_by_value = np.argsort(latlon, kind="stable")
        self.sorted_values = latlon[self.rows_by_value]
        counts = np.asarray(view.column("cnt"))
        self.bars_by_rank = np.argsort(-counts, kind="stable")
        self._expected: Dict[Tuple[str, int], Tuple[np.ndarray, np.ndarray]] = {}

    def expected(self, dim: str, bar: int):
        key = (dim, bar)
        if key not in self._expected:
            value = self.bar_values[bar]
            lo, hi = np.searchsorted(self.sorted_values, [value, value + 1])
            rows = self.rows_by_value[lo:hi]
            counts = np.bincount(self.ontime.column(dim)[rows])
            present = np.flatnonzero(counts)
            self._expected[key] = (present, counts[present])
        return self._expected[key]

    def _check(self, dim: str, bar: int, res) -> bool:
        keys, counts = self.expected(dim, bar)
        got_keys = np.asarray(res.table.column(dim))
        order = np.argsort(got_keys)
        return (np.array_equal(got_keys[order], keys)
                and np.array_equal(np.asarray(res.table.column("cnt"))[order], counts))

    # -- load ------------------------------------------------------------------

    def _refresh(self, op_id: int):
        def refresh(db):
            if self.tracer is not None:
                self.tracer.adopt_op(op_id)
            start = perf_counter()
            table = db.table("ontime")
            columns = {n: table.column(n) for n in table.schema.names}
            columns["payload0"] = columns["payload0"] + 1
            db.create_table("ontime", Table(columns), replace=True, preserve_rids=True)
            db.sql(VIEW, options=VIEW_OPTIONS)
            return (perf_counter() - start) * 1e3

        return refresh

    def run(self, rec: Recorder, seconds: float, min_reads: int = MIN_READS) -> None:
        self.tracer = rec.tracer
        self.write_split = []
        # Every run replays the same seeded brushes from the start.
        self.stream = stratified_ranks(np.random.default_rng([self.seed, 1]),
                                       self.bar_values.size, ZIPF_EXPONENT,
                                       USERS * WRITE_EVERY)
        disk_before = self._disk_bytes()
        ticks = 0
        start = perf_counter()
        while running(start, seconds, ticks * USERS, min_reads):
            rec.quiet_point()
            self._tick(rec, write=(ticks + 1) % WRITE_EVERY == 0)
            ticks += 1
        self.wal_bytes = self._disk_bytes() - disk_before
        self.tracer = None

    def _tick(self, rec: Recorder, write: bool) -> None:
        """One tick; its wall time, oracle checks excluded, goes to
        ``rec.walls``."""
        submitted = []
        tick_start = perf_counter()
        for user in range(USERS):
            dim = USER_DIMS[user % len(USER_DIMS)]
            bar = int(self.bars_by_rank[next(self.stream)])
            params = {"bars": np.array([bar], dtype=np.int64)}
            op_id = rec.next_op("read")
            if rec.tracer is not None:
                rec.tracer.submitted(op_id, params)
            done: List[float] = []
            arrived = threading.Event()
            sent = perf_counter()
            try:
                future = self.server.submit_query(BRUSH.format(dim=dim), params)
            except Exception as exc:  # a refused read is a failed op
                rec.fail(f"submit: {exc!r}")
                continue
            future.add_done_callback(
                lambda _f, d=done, e=arrived: (d.append(perf_counter()), e.set())
            )
            submitted.append((dim, bar, params, sent, done, arrived, future))
        answers = []
        for dim, bar, _params, sent, done, arrived, future in submitted:
            # The future may report done before its callbacks have run.
            arrived.wait()
            try:
                res = future.result()
            except Exception as exc:  # any engine error is a failed op
                rec.fail(f"read {dim}={bar}: {exc!r}")
                continue
            rec.samples["read"].append((sent, (done[0] - sent) * 1e3))
            answers.append((dim, bar, res))
        if write:
            op_id = rec.next_op("write")
            sent = perf_counter()
            try:
                apply_ms = self.server.write(self._refresh(op_id))
            except Exception as exc:  # any engine error is a failed op
                rec.fail(f"write: {exc!r}")
            else:
                write_ms = (perf_counter() - sent) * 1e3
                rec.samples["write"].append((sent, write_ms))
                self.write_split.append((write_ms, apply_ms))
        rec.walls.append((tick_start, perf_counter() - tick_start))
        for dim, bar, res in answers:
            if not self._check(dim, bar, res):
                rec.fail(f"read {dim}={bar}: answer differs from the numpy oracle")

    def capture_phase(self, rec: Recorder) -> None:
        """Off/on pairs of the view statement, unregistered, with the
        server idle."""
        for round_no in range(CAPTURE_ROUNDS):
            rec.capture_pair(
                "view",
                lambda: self.db.sql(VIEW, options=OFF),
                lambda: self.db.sql(VIEW, options=ON),
                on_first=round_no % 2 == 1,
            )

    def serve_split(self) -> Dict[str, float]:
        apply = [a for _w, a in self.write_split]
        commit = [w - a for w, a in self.write_split]
        return {"serve.write_apply_ms": statistics.median(apply),
                "serve.write_commit_ms": statistics.median(commit)}

    def describe(self) -> str:
        return f"writes {len(self.write_split)}, disk growth {self.wal_bytes} B"

    def close(self) -> None:
        self.release()
