"""tpch_capture: capture cost and one-shot lineage SQL over TPC-H at
scale factor 1 (about 600k lineitem rows).

A fixed rotation: each of Q1/Q3/Q10/Q12 (:mod:`repro.tpch`) runs as a
capture-off/on pair of the same plan, alternating which side runs first;
the capture-on side registers the result under ``qN`` (the write of this
workload).  Then come unprepared ``db.sql`` reads over the registered
results: ``Lb(qN, 'lineitem', :bars)`` re-aggregations — every output row
of Q1 and Q12 once per cycle in seeded order, 80 seeded output rows each
of Q3 and Q10 — and one ``Lf('lineitem', q3, :rids)`` read.  Because the
rotation is fixed, the heavy/light mix of reads is the same in every run.
Inject capture, the base-table operators and the SQL front end do the
work; the lineage cache, the chain core and serving are bypassed.

The oracle resolves each read's rids with ``QueryLineage.backward`` /
``forward`` of the registered result and groups them with numpy.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro import Database, ExecOptions
from repro.datagen.tpch import generate_tpch
from repro.lineage.capture import CaptureMode
from repro.tpch import ALL_QUERIES

from ..harness import MIN_READS, Recorder, running

SCALE_FACTOR = 1.0
QUERIES = ("Q1", "Q3", "Q10", "Q12")
#: Seeded reads per cycle of each result with many output rows; results
#: with few rows (Q1, Q12) are read at every output row once per cycle.
SAMPLED_READS = {"q3": 80, "q10": 80}
#: Lineitem column each result's reads re-aggregate by.
GROUP_COLUMN = {"q1": "l_shipmode", "q3": "l_shipmode", "q10": "l_shipmode",
                "q12": "l_linestatus"}
REAGGREGATE = (
    "SELECT {col}, COUNT(*) AS c, SUM(l_quantity) AS q "
    "FROM Lb({name}, 'lineitem', :bars) GROUP BY {col}"
)
FORWARD = "SELECT l_orderkey, revenue FROM Lf('lineitem', q3, :rids)"

OFF = ExecOptions(capture=CaptureMode.NONE)


def _on(name: str) -> ExecOptions:
    return ExecOptions(capture=CaptureMode.INJECT, name=name)


class TpchCapture:
    name = "tpch_capture"
    write_kind = "capture"
    setup_reps = 3
    expected_layers = (
        "sql.parse_sql",
        "plan.match_late_materialization",
        "exec.lineage_scan.resolve_scan_source",
        "exec.vector.groupby.execute_groupby",
        "exec.vector.kernels.factorize",
        "storage.table.filter",
        "storage.table.take",
        "lineage.composer.compose_node",
    )

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.db = None

    def generate(self) -> None:
        self.tables = generate_tpch(SCALE_FACTOR, seed=self.seed)
        self.plans = {q.lower(): ALL_QUERIES[q]() for q in QUERIES}

    def setup(self) -> None:
        db = Database()
        for name, table in self.tables.items():
            db.create_table(name, table)
        for name, plan in self.plans.items():
            db.execute(plan, options=_on(name))
        for name in self.plans:
            db.sql(REAGGREGATE.format(col=GROUP_COLUMN[name], name=name),
                   params={"bars": np.array([0], dtype=np.int64)})
        db.sql(FORWARD, params={"rids": np.array([0], dtype=np.int64)})
        self.db = db

    def release(self) -> None:
        self.db = None

    def lineage_bytes_per_row(self) -> float:
        held = rows = 0
        for name in self.plans:
            lineage = self.db.result(name).lineage
            held += lineage.memory_bytes()
            rows += sum(self.db.table(rel).num_rows for rel in lineage.relations)
        return held / rows

    def prepare_oracle(self) -> None:
        lineitem = self.tables["lineitem"]
        self.quantity = lineitem.column("l_quantity")
        self.group_values = {
            col: np.unique(lineitem.column(col), return_inverse=True)
            for col in set(GROUP_COLUMN.values())
        }

    # -- reads -----------------------------------------------------------------

    def _cycle_reads(self, draws: np.random.Generator):
        """This cycle's reads: (statement, params, oracle check)."""
        reads = []
        for name in self.plans:
            size = len(self.db.result(name))
            if name in SAMPLED_READS:
                bars = draws.integers(0, size, SAMPLED_READS[name])
            else:
                bars = draws.permutation(size)
            statement = REAGGREGATE.format(col=GROUP_COLUMN[name], name=name)
            for bar in bars.tolist():
                params = {"bars": np.array([bar], dtype=np.int64)}
                reads.append((statement, params,
                              lambda res, n=name, p=params: self._check_backward(n, p, res)))
        q3 = self.db.result("q3")
        out_row = int(draws.integers(0, len(q3)))
        traced = q3.backward([out_row], "lineitem")
        params = {"rids": traced[draws.integers(0, traced.size, 1)]}
        reads.append((FORWARD, params, lambda res, p=params: self._check_forward(p, res)))
        return reads

    def _check_backward(self, name: str, params: dict, res) -> bool:
        rids = self.db.result(name).lineage.backward(params["bars"], "lineitem")
        col = GROUP_COLUMN[name]
        keys, inverse = self.group_values[col]
        codes = inverse[rids]
        counts = np.bincount(codes, minlength=keys.size)
        sums = np.bincount(codes, weights=self.quantity[rids], minlength=keys.size)
        present = np.flatnonzero(counts)
        got = res.table
        order = np.argsort(got.column(col))
        return (
            np.array_equal(got.column(col)[order], keys[present])
            and np.array_equal(got.column("c")[order], counts[present])
            # The engine and numpy sum in different orders: equal to the
            # last bits of a double, declared up front.
            and np.allclose(got.column("q")[order], sums[present], rtol=1e-12, atol=0)
        )

    def _check_forward(self, params: dict, res) -> bool:
        q3 = self.db.result("q3")
        outs = q3.lineage.forward("lineitem", params["rids"])
        want = sorted(zip(q3.table.column("l_orderkey")[outs].tolist(),
                          q3.table.column("revenue")[outs].tolist(), strict=True))
        got = sorted(zip(res.table.column("l_orderkey").tolist(),
                         res.table.column("revenue").tolist(), strict=True))
        return bool(want) and got == want

    # -- load ------------------------------------------------------------------

    def run(self, rec: Recorder, seconds: float, min_reads: int = MIN_READS) -> None:
        # Every run replays the same seeded reads from the start.
        draws = np.random.default_rng([self.seed, 1])
        reads = cycle = 0
        start = perf_counter()
        while running(start, seconds, reads, min_reads):
            for i, (name, plan) in enumerate(self.plans.items()):
                rec.capture_pair(
                    name,
                    lambda p=plan: self.db.execute(p, options=OFF),
                    lambda p=plan, n=name: self.db.execute(p, options=_on(n)),
                    on_first=(cycle + i) % 2 == 1,
                )
            for statement, params, check in self._cycle_reads(draws):
                rec.quiet_point()
                out = rec.op("read", self.db.sql, statement, params=params)
                reads += 1
                if out is not None and not check(out[0]):
                    rec.fail(f"read {statement!r} {params}: answer differs from the oracle")
            cycle += 1
        self.cycles = cycle

    def capture_phase(self, rec: Recorder) -> None:
        """Capture pairs are part of every cycle of the read loop."""

    def describe(self) -> str:
        return f"cycles {self.cycles}"

    def close(self) -> None:
        self.release()
