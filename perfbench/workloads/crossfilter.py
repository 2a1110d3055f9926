"""crossfilter: the paper's §6.5.1 dashboard over one 500k-row flights
table.

Six views are built by ``CrossfilterSession.from_database(technique=
"bt")``: the four base dimensions, a star-join view (``region``, through
``carriers``) and a two-hop snowflake view (``continent``, through
``carriers`` and ``regions``).  One user brushes the base dimensions in
a fixed rotation with seeded Zipf bars; one read is one ``brush()``, i.e.
five pushed lineage-consuming statements through the session's prepared
statements and its 512-entry rid-resolution cache.  Capture, one-shot parsing, serving and the WAL stay
off the read path; the views' capture cost is measured after the read
loop, as off/on pairs of the six view statements.

The oracle shares no code with the engine: each view's bar of every
fact row is derived with numpy (through numpy lookup tables for the
joined views), and a brush's expected answer is a ``bincount`` of the
other views' bars over the brushed bar's rows.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict

import numpy as np

from repro import Database, ExecOptions
from repro.apps.crossfilter import CrossfilterSession, DimensionJoin
from repro.datagen import VIEW_DIMENSIONS, make_ontime_table
from repro.datagen.ontime import NUM_CARRIERS
from repro.lineage.capture import CaptureMode
from repro.storage import Table

from ..harness import MIN_READS, Recorder, running, stratified_ranks

ROWS = 500_000
PAYLOAD_COLS = 12
NUM_REGIONS = 5
NUM_CONTINENTS = 3
ZIPF_EXPONENT = 0.8
ZIPF_BLOCK = 64
#: Five of eight brushes hit the date view: the distinct brushed bars
#: then outgrow the 512-entry rid cache, and the read median falls inside
#: the dense band of light date brushes rather than on the edge between
#: two dimensions' latency bands, where it would jump from seed to seed.
ROTATION = ("date_bin", "latlon_bin", "date_bin", "delay_bin",
            "date_bin", "carrier", "date_bin", "date_bin")
CAPTURE_ROUNDS = 3

CARRIER_HOP = DimensionJoin("carriers", "carrier", "carrier_id", "region")
JOINS = {
    "region": CARRIER_HOP,
    "continent": DimensionJoin("regions", "region", "region", "continent",
                               parent=CARRIER_HOP),
}
DIMENSIONS = VIEW_DIMENSIONS + ("region", "continent")

VIEW_STATEMENTS = {
    **{d: f"SELECT {d}, COUNT(*) AS cnt FROM ontime GROUP BY {d}" for d in VIEW_DIMENSIONS},
    "region": (
        "SELECT carriers.region AS region, COUNT(*) AS cnt FROM ontime "
        "JOIN carriers ON ontime.carrier = carriers.carrier_id "
        "GROUP BY carriers.region"
    ),
    "continent": (
        "SELECT regions.continent AS continent, COUNT(*) AS cnt FROM ontime "
        "JOIN carriers ON ontime.carrier = carriers.carrier_id "
        "JOIN regions ON carriers.region = regions.region "
        "GROUP BY regions.continent"
    ),
}

OFF = ExecOptions(capture=CaptureMode.NONE)


class Crossfilter:
    name = "crossfilter"
    write_kind = "capture"
    setup_reps = 3
    expected_layers = (
        "exec.lineage_scan.resolve_scan_source",
        "exec.late_mat.execute_pushed",
        "exec.vector.join.compute_matches_oriented",
        "exec.vector.groupby.execute_groupby",
        "exec.vector.kernels.factorize",
        "api.session.sql",
        "lineage.composer.compose_node",
    )

    def __init__(self, seed: int, out_dir: str) -> None:
        self.seed = seed
        self.db = None
        self.session = None

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.ontime = make_ontime_table(
            ROWS, seed=int(rng.integers(2**31)), payload_cols=PAYLOAD_COLS
        )
        self.carriers = Table({
            "carrier_id": np.arange(NUM_CARRIERS, dtype=np.int64),
            "region": rng.permutation(NUM_CARRIERS) % NUM_REGIONS,
        })
        self.regions = Table({
            "region": np.arange(NUM_REGIONS, dtype=np.int64),
            "continent": rng.permutation(NUM_REGIONS) % NUM_CONTINENTS,
        })

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        db = Database()
        db.create_table("ontime", self.ontime)
        db.create_table("carriers", self.carriers)
        db.create_table("regions", self.regions)
        session = CrossfilterSession.from_database(
            db, "ontime", DIMENSIONS, technique="bt", joins=JOINS
        )
        for dim in VIEW_DIMENSIONS:
            session.brush(dim, 0)
        self.db, self.session = db, session

    def release(self) -> None:
        if self.session is not None:
            self.session.close()
        self.db = self.session = None

    def lineage_bytes_per_row(self) -> float:
        names = self.db.results()
        held = sum(self.db.result(n).lineage.memory_bytes() for n in names)
        rows = sum(
            self.db.table(rel).num_rows
            for n in names
            for rel in self.db.result(n).lineage.relations
        )
        return held / rows

    # -- oracle ----------------------------------------------------------------

    def prepare_oracle(self) -> None:
        """Per view: the bar of every fact row, and the rows of every bar
        as numpy CSR.  Bars are numbered in the session's view order."""
        carrier = self.ontime.column("carrier")
        region_of = _lookup(self.carriers.column("carrier_id"),
                            self.carriers.column("region"), NUM_CARRIERS)
        continent_of = _lookup(self.regions.column("region"),
                               self.regions.column("continent"), NUM_REGIONS)
        values = {d: self.ontime.column(d) for d in VIEW_DIMENSIONS}
        values["region"] = region_of[carrier]
        values["continent"] = continent_of[values["region"]]
        self.bar_of_row: Dict[str, np.ndarray] = {}
        self.rows_of_bar: Dict[str, tuple] = {}
        self.bars_by_rank: Dict[str, np.ndarray] = {}
        for dim in DIMENSIONS:
            view = self.session.views[dim]
            size = int(max(values[dim].max(), np.max(view.bin_values))) + 1
            bar = _lookup(view.bin_values, np.arange(view.num_bars), size)[values[dim]]
            if (bar < 0).any():
                raise RuntimeError(f"view {dim} lacks bars present in the data")
            counts = np.bincount(bar, minlength=view.num_bars)
            if not np.array_equal(counts, view.counts):
                raise RuntimeError(f"view {dim} counts differ from numpy counts")
            self.bar_of_row[dim] = bar
            self.rows_of_bar[dim] = (np.argsort(bar, kind="stable"),
                                     np.concatenate(([0], np.cumsum(counts))))
            self.bars_by_rank[dim] = np.argsort(-counts, kind="stable")

    def expected(self, dim: str, bar: int) -> Dict[str, np.ndarray]:
        order, starts = self.rows_of_bar[dim]
        rows = order[starts[bar]:starts[bar + 1]]
        return {
            other: np.bincount(self.bar_of_row[other][rows],
                               minlength=self.session.views[other].num_bars)
            for other in DIMENSIONS if other != dim
        }

    # -- load ------------------------------------------------------------------

    def run(self, rec: Recorder, seconds: float, min_reads: int = MIN_READS) -> None:
        # Every run replays the same seeded brushes from the start.
        draws = np.random.default_rng([self.seed, 1])
        streams = {
            dim: stratified_ranks(draws, self.bars_by_rank[dim].size,
                                  ZIPF_EXPONENT, ZIPF_BLOCK)
            for dim in VIEW_DIMENSIONS
        }
        brushed = set()
        reads = 0
        start = perf_counter()
        while running(start, seconds, reads, min_reads):
            dim = ROTATION[reads % len(ROTATION)]
            bar = int(self.bars_by_rank[dim][next(streams[dim])])
            brushed.add((dim, bar))
            rec.quiet_point()
            out = rec.op("read", self.session.brush, dim, bar)
            reads += 1
            if out is None:
                continue
            want = self.expected(dim, bar)
            got = out[0]
            if set(got) != set(want) or not all(
                np.array_equal(got[d], want[d]) for d in want
            ):
                rec.fail(f"brush {dim}={bar}: answer differs from the numpy oracle")
        self.distinct_bars = len(brushed)

    def capture_phase(self, rec: Recorder) -> None:
        """Off/on pairs of the six view statements; the capture-on side
        registers its result (a write to the result registry)."""
        for round_no in range(CAPTURE_ROUNDS):
            for i, (dim, statement) in enumerate(VIEW_STATEMENTS.items()):
                on = ExecOptions(capture=CaptureMode.INJECT, name=f"cap_{dim}")
                rec.capture_pair(
                    dim,
                    lambda s=statement: self.db.sql(s, options=OFF),
                    lambda s=statement, o=on: self.db.sql(s, options=o),
                    on_first=(round_no + i) % 2 == 1,
                )

    def describe(self) -> str:
        return f"distinct brushed bars {self.distinct_bars} (rid cache holds 512)"

    def close(self) -> None:
        self.release()


def _lookup(keys: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Dense numpy lookup table ``key -> value`` over ``[0, size)``, -1
    where absent."""
    table = np.full(size, -1, dtype=np.int64)
    table[np.asarray(keys, dtype=np.int64)] = values
    return table
