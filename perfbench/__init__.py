"""End-to-end benchmark of the lineage engine: three workloads against
the public API, host-calibrated times, a per-op answer oracle and a
separate traced run for per-layer numbers.  Entry point: ``run.py``."""
