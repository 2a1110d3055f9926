"""The traced run: spans recorded by wrappers around the engine's layer
boundaries, kept in memory and written out at exit.

Wrappers are installed only in the traced run.  A module-level ``from
… import f`` binds ``f`` into the importing module, so a function is
rebound at *every* module of the ``repro`` package that holds it (for
example ``late_mat.resolve_scan_source`` and
``vector.executor.execute_pushed``); function-local imports read the
defining module, which is rebound too.  Methods are wrapped on their
class.

A span is ``(id, name, start_ns, end_ns, parent id, op id)``.  The
parent is the innermost open span on the same thread; the op id is the
benchmark op the thread is working for (reader threads learn it from the
submitted statement, the writer thread from the benchmark's write
callable).  A span's self time is its duration minus the durations of
its children, which on one thread never overlap.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps
from itertools import count
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.exec.timings import LATE_MAT_BUILD_SWAPS


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


@dataclass(frozen=True)
class Layer:
    """One traced binding: ``target`` is ``module:function`` or
    ``module:Class.attribute`` (a method or a property).  ``entry`` and
    ``hook`` name Tracer methods called with the call's arguments before
    the span opens, and with its arguments and result after it closes."""

    name: str
    target: str
    hook: Optional[str] = None
    entry: Optional[str] = None


LAYERS = (
    Layer("sql.parse_sql", "repro.sql.binder:parse_sql"),
    Layer("plan.precompute_rewrites", "repro.plan.rewrite:precompute_rewrites"),
    Layer("plan.match_late_materialization",
          "repro.plan.rewrite:match_late_materialization"),
    Layer("exec.lineage_scan.resolve_scan_source",
          "repro.exec.lineage_scan:resolve_scan_source"),
    Layer("exec.late_mat.execute_pushed", "repro.exec.late_mat:execute_pushed"),
    Layer("exec.vector.join.compute_matches_oriented",
          "repro.exec.vector.join:compute_matches_oriented"),
    Layer("exec.vector.groupby.execute_groupby",
          "repro.exec.vector.groupby:execute_groupby"),
    Layer("exec.vector.kernels.factorize", "repro.exec.vector.kernels:factorize"),
    Layer("storage.table.filter", "repro.storage.table:Table.filter", "_copied"),
    Layer("storage.table.take", "repro.storage.table:Table.take", "_copied"),
    Layer("exec.vector.kernels.group_order", "repro.exec.vector.kernels:GroupLayout.order"),
    # Capture proper: the local lineage of each operator and its
    # composition into end-to-end indexes.  The append-emulating inject
    # index functions run only under ``CaptureConfig(emulate_tuple_appends=True)``.
    Layer("lineage.composer.compose_node", "repro.lineage.composer:compose_node"),
    Layer("lineage.composer.merge_binary", "repro.lineage.composer:merge_binary"),
    Layer("lineage.composer.absorb", "repro.lineage.composer:NodeLineage.absorb"),
    Layer("lineage.composer.selection_locals", "repro.lineage.composer:selection_locals"),
    Layer("exec.vector.join.join_lineage_locals", "repro.exec.vector.join:join_lineage_locals"),
    Layer("exec.vector.groupby.inject_backward_index",
          "repro.exec.vector.groupby:inject_backward_index"),
    Layer("exec.vector.join.inject_forward_index",
          "repro.exec.vector.join:inject_forward_index"),
    Layer("lineage.wal.append", "repro.lineage.wal:WriteAheadLog.append"),
    Layer("lineage.wal.fsync", "os:fsync"),
    Layer("api.session.sql", "repro.api:Session.sql", "_build_swaps"),
    Layer("serve.sql", "repro.serve:DatabaseServer.sql", entry="_reader_entry"),
    Layer("serve.execute_plan", "repro.serve:Snapshot.execute_plan"),
    Layer("serve.cached_answer", "repro.serve:Snapshot.cached_answer", "_memo"),
)

#: Name of the root span the benchmark opens around each synchronous op.
OP_SPAN = "op"

#: Layers whose self time together is ``lineage.capture.inject_ms``.
CAPTURE_LAYERS = (
    "lineage.composer.compose_node",
    "lineage.composer.merge_binary",
    "lineage.composer.absorb",
    "lineage.composer.selection_locals",
    "exec.vector.join.join_lineage_locals",
    "exec.vector.groupby.inject_backward_index",
    "exec.vector.join.inject_forward_index",
)

#: Per-layer metrics: (name, unit, better).  Time metrics are self time
#: per op of the kind the layer's end-to-end metric counts: per read,
#: per capture-on execution, or per write.
PER_LAYER = (
    ("sql.parse_sql.self_ms", "ms", "lower"),
    ("sql.parse_sql.calls", "count", "lower"),
    ("plan.precompute_rewrites.self_ms", "ms", "lower"),
    ("plan.match_late_materialization.self_ms", "ms", "lower"),
    ("exec.lineage_scan.resolve_scan_source.self_ms", "ms", "lower"),
    ("exec.lineage_scan.resolve_scan_source.calls", "count", "lower"),
    ("lineage.cache.hit_ratio", "ratio", "higher"),
    ("lineage.cache.misses", "count", "lower"),
    ("exec.late_mat.execute_pushed.self_ms", "ms", "lower"),
    ("exec.vector.join.compute_matches_oriented.self_ms", "ms", "lower"),
    ("exec.vector.join.compute_matches_oriented.calls", "count", "lower"),
    ("exec.late_mat.build_swaps", "count", "lower"),
    ("exec.vector.groupby.execute_groupby.self_ms", "ms", "lower"),
    ("exec.vector.kernels.factorize.self_ms", "ms", "lower"),
    ("storage.table.filter.self_ms", "ms", "lower"),
    ("storage.table.take.self_ms", "ms", "lower"),
    ("storage.table.bytes_copied", "B", "lower"),
    ("lineage.capture.inject_ms", "ms", "lower"),
    ("exec.vector.kernels.group_order.self_ms", "ms", "lower"),
    ("lineage.wal.append.self_ms", "ms", "lower"),
    ("lineage.wal.fsyncs", "count", "lower"),
    ("lineage.wal.fsync_ms", "ms", "lower"),
    ("lineage.wal.bytes_per_write", "B", "lower"),
    ("serve.queue_wait_p50_ms", "ms", "lower"),
    ("serve.queue_wait_p99_ms", "ms", "lower"),
    ("serve.memo_hit_ratio", "ratio", "higher"),
    ("serve.execute_plan.self_ms", "ms", "lower"),
    ("serve.write_apply_ms", "ms", "lower"),
    ("serve.write_commit_ms", "ms", "lower"),
    ("host.ref_kernel_ms", "ms", "lower"),
    ("raw.setup_s", "s", "lower"),
    ("raw.read_p50_ms", "ms", "lower"),
    ("raw.read_p99_ms", "ms", "lower"),
    ("raw.reads_per_s", "1/s", "higher"),
    ("raw.capture_p50_ms", "ms", "lower"),
    ("raw.write_p50_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("fail_ratio", "ratio", "lower"),
)

#: Layer -> op kinds whose count divides its time (default: reads).
_PER_CAPTURE = ("capture",)
_PER_CAPTURE_ON = ("capture", "write")
_PER_WRITE = ("write",)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, int, int, int, int]] = []
        self.op_kinds: Dict[int, str] = {}
        self.counters: Dict[Tuple[str, str], float] = defaultdict(float)
        self.queue_waits_ms: List[float] = []
        self._pending: Dict[int, Tuple[int, int]] = {}
        self._ids = count(1)
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # -- ops -----------------------------------------------------------------

    def register_op(self, op_id: int, kind: str) -> None:
        self.op_kinds[op_id] = kind

    def enter_op(self, op_id: int) -> None:
        """Open the op's root span on the calling thread."""
        self.adopt_op(op_id)
        self._open(OP_SPAN)

    def exit_op(self) -> None:
        self._close()

    def adopt_op(self, op_id: int) -> None:
        """Charge this thread's following spans to ``op_id``."""
        self._local.op = op_id

    def submitted(self, op_id: int, params: dict) -> None:
        """A read handed to a reader thread: its ``DatabaseServer.sql``
        entry finds the op (and the submit time) by the params object,
        which the caller keeps alive until the answer arrives."""
        self._pending[id(params)] = (op_id, perf_counter_ns())

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, name, parent, perf_counter_ns()))

    def _close(self) -> None:
        span_id, name, parent, start = self._stack().pop()
        self.spans.append((span_id, name, start, perf_counter_ns(), parent,
                           getattr(self._local, "op", 0)))

    # -- hooks ---------------------------------------------------------------

    def _kind(self) -> str:
        return self.op_kinds.get(getattr(self._local, "op", 0), "none")

    def _copied(self, args, kwargs, result) -> None:
        nbytes = sum(result.column(n).nbytes for n in result.schema.names)
        self.counters[("storage.table.bytes_copied", self._kind())] += nbytes

    def _build_swaps(self, args, kwargs, result) -> None:
        swaps = result.timings.get(LATE_MAT_BUILD_SWAPS, 0.0)
        self.counters[("exec.late_mat.build_swaps", self._kind())] += swaps

    def _memo(self, args, kwargs, result) -> None:
        kind = self._kind()
        self.counters[("serve.memo_calls", kind)] += 1
        if result is not None:
            self.counters[("serve.memo_hits", kind)] += 1

    def _reader_entry(self, args, kwargs) -> None:
        params = args[2] if len(args) > 2 else kwargs.get("params")
        pending = self._pending.pop(id(params), None)
        if pending is None:
            return
        op_id, submitted = pending
        self.adopt_op(op_id)
        self.queue_waits_ms.append((perf_counter_ns() - submitted) / 1e6)

    # -- installation --------------------------------------------------------

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        tracer = self
        hook = getattr(self, layer.hook) if layer.hook else None
        on_entry = getattr(self, layer.entry) if layer.entry else None

        @wraps(fn)
        def traced(*args, **kwargs):
            if on_entry is not None:
                on_entry(args, kwargs)
            tracer._open(layer.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            module_name, _, attr = layer.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                if isinstance(original, property):
                    wrapped = property(self._wrap(layer, original.fget))
                else:
                    wrapped = self._wrap(layer, original)
                self._rebind(owner, method, wrapped)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(layer, original)
            if not module_name.startswith("repro"):
                # A library function the engine calls as ``module.f``.
                self._rebind(module, attr, wrapper)
                continue
            for other in list(sys.modules.values()):
                name = getattr(other, "__name__", "")
                if name != "repro" and not name.startswith("repro."):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._rebind(other, key, wrapper)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> Dict[Tuple[str, str], List[float]]:
        """``(layer, op kind) -> [calls, self ms, total ms]``."""
        children_ns: Dict[int, int] = defaultdict(int)
        for _sid, _name, start, end, parent, _op in self.spans:
            if parent:
                children_ns[parent] += end - start
        totals: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, name, start, end, _parent, op in self.spans:
            entry = totals[(name, self.op_kinds.get(op, "none"))]
            entry[0] += 1
            entry[1] += (end - start - children_ns[sid]) / 1e6
            entry[2] += (end - start) / 1e6
        return totals

    def metrics(self, cache_delta: Dict[str, int], wal_bytes: int,
                extra: Dict[str, float]) -> Dict[str, float]:
        """Every layer metric of :data:`PER_LAYER` except the ones the
        benchmark measures itself, which ``extra`` supplies."""
        totals = self.layer_totals()
        ops: Dict[str, int] = defaultdict(int)
        for kind in self.op_kinds.values():
            ops[kind] += 1

        def per(kinds, layer, column):
            amount = sum(totals[(layer, k)][column] for k in kinds if (layer, k) in totals)
            n = sum(ops[k] for k in kinds)
            return amount / n if n else 0.0

        def counter(kinds, name):
            n = sum(ops[k] for k in kinds)
            return sum(self.counters.get((name, k), 0.0) for k in kinds) / n if n else 0.0

        read = ("read",)
        out = {
            "sql.parse_sql.self_ms": per(read, "sql.parse_sql", 1),
            "sql.parse_sql.calls": per(read, "sql.parse_sql", 0),
            "plan.precompute_rewrites.self_ms": per(read, "plan.precompute_rewrites", 1),
            "plan.match_late_materialization.self_ms":
                per(read, "plan.match_late_materialization", 1),
            "exec.lineage_scan.resolve_scan_source.self_ms":
                per(read, "exec.lineage_scan.resolve_scan_source", 1),
            "exec.lineage_scan.resolve_scan_source.calls":
                per(read, "exec.lineage_scan.resolve_scan_source", 0),
            "exec.late_mat.execute_pushed.self_ms":
                per(read, "exec.late_mat.execute_pushed", 1),
            "exec.vector.join.compute_matches_oriented.self_ms":
                per(read, "exec.vector.join.compute_matches_oriented", 1),
            "exec.vector.join.compute_matches_oriented.calls":
                per(read, "exec.vector.join.compute_matches_oriented", 0),
            "exec.late_mat.build_swaps": counter(read, "exec.late_mat.build_swaps"),
            "exec.vector.groupby.execute_groupby.self_ms":
                per(read, "exec.vector.groupby.execute_groupby", 1),
            "exec.vector.kernels.factorize.self_ms":
                per(read, "exec.vector.kernels.factorize", 1),
            "storage.table.filter.self_ms": per(_PER_CAPTURE, "storage.table.filter", 1),
            "storage.table.take.self_ms": per(_PER_CAPTURE, "storage.table.take", 1),
            "storage.table.bytes_copied":
                counter(_PER_CAPTURE, "storage.table.bytes_copied"),
            "lineage.capture.inject_ms":
                sum(per(_PER_CAPTURE_ON, layer, 1) for layer in CAPTURE_LAYERS),
            "exec.vector.kernels.group_order.self_ms":
                per(_PER_CAPTURE_ON, "exec.vector.kernels.group_order", 1),
            "lineage.wal.append.self_ms": per(_PER_WRITE, "lineage.wal.append", 1),
            "lineage.wal.fsyncs": per(_PER_WRITE, "lineage.wal.fsync", 0),
            "lineage.wal.fsync_ms": per(_PER_WRITE, "lineage.wal.fsync", 2),
            "lineage.wal.bytes_per_write": wal_bytes / ops["write"] if ops["write"] else 0.0,
            "serve.execute_plan.self_ms": per(read, "serve.execute_plan", 1),
        }
        lookups = cache_delta["hits"] + cache_delta["misses"]
        out["lineage.cache.hit_ratio"] = cache_delta["hits"] / lookups if lookups else 0.0
        out["lineage.cache.misses"] = cache_delta["misses"] / ops["read"] if ops["read"] else 0.0
        waits = sorted(self.queue_waits_ms)
        out["serve.queue_wait_p50_ms"] = _percentile(waits, 50)
        out["serve.queue_wait_p99_ms"] = _percentile(waits, 99)
        memo_calls = sum(v for (n, _k), v in self.counters.items() if n == "serve.memo_calls")
        memo_hits = sum(v for (n, _k), v in self.counters.items() if n == "serve.memo_hits")
        out["serve.memo_hit_ratio"] = memo_hits / memo_calls if memo_calls else 0.0
        out.update(extra)
        return out

    def calls(self, layer: str) -> int:
        return sum(1 for span in self.spans if span[1] == layer)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            for sid, name, start, end, parent, op in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op,
                    "kind": self.op_kinds.get(op, "none"),
                }) + "\n")
