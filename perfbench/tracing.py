"""Span recording for the traced run, and the analysis of the recorded spans.

Server side: :func:`install` wraps the public function of every layer seam
listed in :data:`SPAN_POINTS` at the module attribute its caller resolves.
It must run before any server object is built, because compiled plans bind
some of these methods (``QueryPlan.execute``) at compile time.  Each wrapped
call records one span -- name, wall start/end, thread-CPU start/end, parent
span and op id -- into flat in-memory arrays.  The arrays are written to a
file once, when the process shuts down.

Benchmark side: :func:`load` reads those files back and :func:`summarize`
folds the spans that started inside the timed window into per-name totals,
with self time = span time minus the time of its child spans.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import importlib
import inspect
import json
import os
import threading
import time
from array import array
from pathlib import Path

#: (module, attribute path, span name, sized).  A sized span also records
#: ``len()`` of the call's result: rows of a query, edits of a diff, bytes
#: of a WAL record.
SPAN_POINTS = (
    # serve.net: top-level request handling and the WebSocket encode path
    ("repro.serve.net.app", "NetServer._dispatch", "net.dispatch", False),
    ("repro.serve.net.protocol", "read_request", "net.read", False),
    ("repro.serve.net.app", "canonical_json", "net.ws_encode.json", False),
    ("repro.xmltree.diff", "EditScript.to_wire", "net.ws_encode.edits", False),
    ("repro.serve.net.protocol", "ws_text_frame", "net.ws_encode.frame", False),
    # serve.net.shard: the router hop
    ("repro.serve.net.shard", "ShardRouter._route", "router.route", False),
    ("repro.serve.net.protocol", "render_request", "router.render", False),
    ("repro.serve.net.protocol", "read_response", "router.upstream_wait", False),
    # serve
    ("repro.serve.server", "ViewServer.publish", "serve.publish", False),
    ("repro.serve.server", "SourceHandle.commit", "serve.commit", False),
    # serve.net.wal
    ("repro.serve.net.wal", "DeltaLog.append", "wal.append", False),
    ("repro.serve.net.wal", "DeltaLog.checkpoint", "wal.checkpoint", False),
    ("repro.serve.net.wal", "_record_line", "wal.record", True),
    ("os", "fsync", "wal.fsync", False),
    # engine
    ("repro.engine.plan", "PublishingPlan.publish_bytes", "engine.publish_bytes", False),
    ("repro.engine.plan", "PublishingPlan.republish", "engine.republish", False),
    ("repro.engine.plan", "PublishingPlan.publish", "engine.publish_tree", False),
    # query (execute is renamed per backend once the call returns)
    ("repro.query.plan", "QueryPlan.execute", "query.execute.row", True),
    ("repro.query.plan", "QueryPlan.execute_encoded", "query.execute.columnar", True),
    ("repro.query.plan", "QueryPlan.execute_delta", "query.execute_delta", False),
    ("repro.logic.fo", "FormulaQuery.evaluate", "query.evaluate", True),
    ("repro.logic.cq", "ConjunctiveQuery.evaluate", "query.evaluate", True),
    # relational
    ("repro.relational.instance", "Instance.apply_delta", "relational.apply_delta", False),
    ("repro.relational.delta", "Delta.normalized", "relational.normalize", False),
    ("repro.serve.net.app", "delta_from_wire", "relational.wire_decode", False),
    ("repro.serve.net.app", "instance_from_wire", "relational.wire_decode", False),
    # xmltree
    ("repro.engine.plan", "diff_trees", "xmltree.diff", True),
    ("repro.serve.server", "diff_trees", "xmltree.diff", True),
    # typecheck
    ("repro.typecheck.streaming", "StreamingValidator.validate", "typecheck.validate", False),
    ("repro.typecheck", "validate_tree", "typecheck.validate", False),
    ("repro.typecheck", "validate_events", "typecheck.validate", False),
)

#: Spans whose wall time includes idle waiting for a peer; they count
#: towards CPU coverage but not towards any wall-clock layer time.
CPU_ONLY = frozenset({"net.read"})

BACKENDS = ("row", "columnar")

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """Flat arrays of spans plus garbage-collector pause totals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self.c0 = array("q")
        self.c1 = array("q")
        self.extra = array("q")
        self.thread = array("Q")
        self.ops = 0
        self.gc_pauses = array("q")
        self._gc_start = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int):
        current = _CURRENT.get()
        if current is None:
            self.ops += 1
            parent, op = -1, self.ops
        else:
            parent, op = current
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(parent)
        self.op.append(op)
        self.t0.append(time.perf_counter_ns())
        self.c0.append(time.thread_time_ns())
        self.t1.append(0)
        self.c1.append(0)
        self.extra.append(0)
        self.thread.append(threading.get_ident())
        return index, _CURRENT.set((index, op))

    def close(self, index: int, token, extra: int = 0, rename: int | None = None) -> None:
        self.c1[index] = time.thread_time_ns()
        self.t1[index] = time.perf_counter_ns()
        self.extra[index] = extra
        if rename is not None:
            self.name[index] = rename
        _CURRENT.reset(token)

    def gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        elif self._gc_start:
            self.gc_pauses.append(self._gc_start)
            self.gc_pauses.append(time.perf_counter_ns())
            self._gc_start = 0

    def dump(self, path: str | Path) -> None:
        """Write every recorded span (and GC pause) to ``path``."""
        columns = (
            "name", "parent", "op", "t0", "t1", "c0", "c1", "extra", "thread", "gc_pauses"
        )
        header = {
            "pid": os.getpid(),
            "names": self.names,
            "columns": [[column, getattr(self, column).typecode, len(getattr(self, column))]
                        for column in columns],
        }
        with open(path, "wb") as handle:
            line = json.dumps(header).encode("utf-8") + b"\n"
            handle.write(line)
            for column in columns:
                getattr(self, column).tofile(handle)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(recorder: Recorder, fn, name: str, sized: bool):
    name_id = recorder.name_id(name)
    # QueryPlan.execute picks its kernel per call; the span takes its name
    # from the plan's ``last_backend`` once the call returns
    renames = (
        {backend: recorder.name_id(f"query.execute.{backend}") for backend in BACKENDS}
        if name == "query.execute.row"
        else None
    )
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            index, token = recorder.open(name_id)
            try:
                return await fn(*args, **kwargs)
            finally:
                recorder.close(index, token)

        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index, token = recorder.open(name_id)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            size = len(result) if sized and hasattr(result, "__len__") else 0
            rename = renames.get(args[0].last_backend) if renames else None
            recorder.close(index, token, size, rename)

    return traced


def install() -> Recorder:
    """Wrap every span point and hook the garbage collector; returns the recorder.

    Forked children (shard workers) start with empty arrays.
    """
    recorder = Recorder()
    for module_name, path, name, sized in SPAN_POINTS:
        owner, attr = _resolve(module_name, path)
        setattr(owner, attr, _wrap(recorder, getattr(owner, attr), name, sized))
    gc.callbacks.append(recorder.gc_callback)
    os.register_at_fork(after_in_child=recorder.reset)
    return recorder


# ---------------------------------------------------------------------------
# Benchmark side: reading and folding the dumps.
# ---------------------------------------------------------------------------


def load(path: str | Path) -> dict:
    """One dump file as ``{"names": [...], column: array}``."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        spans = {"names": header["names"], "pid": header["pid"]}
        for column, typecode, count in header["columns"]:
            values = array(typecode)
            values.fromfile(handle, count)
            spans[column] = values
    return spans


def summarize(dumps: list[dict], window: tuple[int, int]) -> dict:
    """Per-name totals over spans that started inside ``window`` (ns).

    Returns ``{name: {"calls", "wall_ms", "self_ms", "self_cpu_ms", "extra"}}``
    plus ``"_gc": {"pauses", "pause_ms"}`` and ``"_cpu_ms"``: the thread CPU
    consumed while any span was open on that thread.  Spans of concurrent
    asyncio tasks overlap on the loop thread, and thread CPU during an
    ``await`` belongs to whichever task ran, so the spans' own CPU would
    count the overlaps twice; the union of their intervals does not.
    """
    start, end = window
    totals: dict[str, dict] = {}
    gc_pauses = 0
    gc_ms = 0.0
    cpu_ms = 0.0
    for spans in dumps:
        names, parent = spans["names"], spans["parent"]
        t0, t1, c0, c1 = spans["t0"], spans["t1"], spans["c0"], spans["c1"]
        count = len(spans["name"])
        child_wall = [0] * count
        child_cpu = [0] * count
        for index in range(count):
            up = parent[index]
            if up >= 0 and t1[index]:
                child_wall[up] += t1[index] - t0[index]
                child_cpu[up] += c1[index] - c0[index]
        top: dict[int, list[int]] = {}
        for index in range(count):
            if not (start <= t0[index] < end) or not t1[index]:
                continue
            name = names[spans["name"][index]]
            entry = totals.setdefault(
                name, {"calls": 0, "wall_ms": 0.0, "self_ms": 0.0, "self_cpu_ms": 0.0, "extra": 0}
            )
            wall = t1[index] - t0[index]
            cpu = c1[index] - c0[index]
            self_cpu = max(0, cpu - child_cpu[index]) / 1e6
            if parent[index] < 0:
                top.setdefault(spans["thread"][index], []).append(index)
            entry["calls"] += 1
            entry["wall_ms"] += wall / 1e6
            entry["self_ms"] += max(0, wall - child_wall[index]) / 1e6
            entry["self_cpu_ms"] += self_cpu
            entry["extra"] += spans["extra"][index]
        for indices in top.values():
            indices.sort(key=t0.__getitem__)
            first, last = indices[0], indices[0]
            for index in indices[1:]:
                if t0[index] > t1[last]:
                    cpu_ms += (c1[last] - c0[first]) / 1e6
                    first, last = index, index
                elif t1[index] > t1[last]:
                    last = index
            cpu_ms += (c1[last] - c0[first]) / 1e6
        pauses = spans["gc_pauses"]
        for index in range(0, len(pauses), 2):
            if start <= pauses[index] < end:
                gc_pauses += 1
                gc_ms += (pauses[index + 1] - pauses[index]) / 1e6
    totals["_gc"] = {"pauses": gc_pauses, "pause_ms": gc_ms}
    totals["_cpu_ms"] = cpu_ms
    return totals
