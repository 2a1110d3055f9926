"""The benchmark's workloads, by name.

Each workload class takes ``(seed, out_dir)`` and provides:
``generate()`` (the benchmark's own data generation, excluded from
set-up), ``setup()`` / ``release()`` (one program set-up, repeated),
``prepare_oracle()``, ``run(rec, seconds[, min_reads])`` (the timed
loop), ``capture_phase(rec)``, ``lineage_bytes_per_row()``,
``describe()`` and ``close()``; plus ``write_kind`` (which recorded op
kind the write latency is taken from), ``setup_reps`` and
``expected_layers`` (layers the traced run must see called).
"""

from .crossfilter import Crossfilter
from .serve_refresh import ServeRefresh
from .tpch_capture import TpchCapture

WORKLOADS = {w.name: w for w in (Crossfilter, TpchCapture, ServeRefresh)}
