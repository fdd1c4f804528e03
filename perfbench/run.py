"""The serving benchmark: one workload against an out-of-process server.

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload eval_cold --seed 1 --seconds 10 --repeat 5

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` runs the workload twice on fresh servers, untraced and then traced
(half the seconds each), and reports the per-layer metrics.  ``--repeat N``
is the steadiness mode: N untraced runs with seeds ``seed .. seed+N-1``,
printing each metric's median and quartile spread.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if not (HERE.parent / "src" / "repro").is_dir():
    sys.exit(f"no repro package under {HERE.parent / 'src'}: run from a full checkout")
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
from harness import (  # noqa: E402
    ROOT,
    OpLog,
    ServerProcess,
    filesystem_of,
    fresh_dir,
    nproc,
    percentile,
    source_id,
)
from repro.serve.net.client import NetClient  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: (name, unit) of every end-to-end metric, reported with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("publish_p50_ms", "ms"),
    ("publish_tail_ms", "ms"),
    ("commit_p50_ms", "ms"),
    ("commit_tail_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("server_cpu_ms_per_op", "ms"),
    ("server_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric, reported by the traced run.
#: ``*_ms`` values are per completed op; ``*_per_commit`` per acknowledged
#: commit; bare counts are totals over the traced window.
PER_LAYER = (
    ("net.self_ms", "ms"),
    ("net.response_cache_hit_ratio", "ratio"),
    ("net.not_modified_ratio", "ratio"),
    ("net.body_bytes_per_op", "bytes"),
    ("net.ws_encode_ms", "ms"),
    ("router.render_ms", "ms"),
    ("router.upstream_wait_ms", "ms"),
    ("router.hop_ms", "ms"),
    ("router.retries", "count"),
    ("serve.publish_ms", "ms"),
    ("serve.publish_self_ms", "ms"),
    ("serve.commit_ms", "ms"),
    ("serve.commit_self_ms", "ms"),
    ("serve.maintained_views", "count"),
    ("wal.append_ms", "ms"),
    ("wal.fsyncs_per_commit", "count"),
    ("wal.bytes_per_commit", "bytes"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.checkpoints", "count"),
    ("engine.publish_bytes_ms", "ms"),
    ("engine.publish_bytes_calls", "count"),
    ("engine.republish_ms", "ms"),
    ("engine.expansion_hit_rate", "ratio"),
    ("engine.rendered_hit_rate", "ratio"),
    ("engine.invalidated_per_commit", "count"),
    ("engine.evictions", "count"),
    ("query.execute_ms.row", "ms"),
    ("query.execute_ms.columnar", "ms"),
    ("query.execute_calls", "count"),
    ("query.rows_per_call", "count"),
    ("query.execute_delta_ms", "ms"),
    ("relational.apply_delta_ms", "ms"),
    ("relational.normalize_ms", "ms"),
    ("relational.wire_decode_ms", "ms"),
    ("xmltree.diff_ms", "ms"),
    ("xmltree.edits_per_commit", "count"),
    ("typecheck.validate_ms", "ms"),
    ("typecheck.validations", "count"),
    ("runtime.gc_pause_ms", "ms"),
    ("runtime.gc_collections", "count"),
    ("loadgen.busy_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("edit_delivery_p50_ms", "ms"),
    ("edit_delivery_tail_ms", "ms"),
    ("recovery_s", "s"),
    ("failed_frac", "ratio"),
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: The window is cut into this many segments.  Throughput, server CPU per
#: op and the p50 latencies are the median over segments, so a few seconds
#: of host-level slowdown do not move them; tails pool the whole window.
SEGMENTS = 5
#: A load generator busier than this (CPU cores) may be the bottleneck.
BUSY_LIMIT = 0.9
#: Span-name prefix -> layer (module) for the breakdown table.
LAYERS = {
    "net": "serve.net",
    "router": "serve.net.shard",
    "serve": "serve",
    "wal": "serve.net.wal",
    "engine": "engine",
    "query": "query",
    "relational": "relational",
    "xmltree": "xmltree",
    "typecheck": "typecheck",
}


def _latency_ms(values: list[float], pct: float) -> float:
    if not values:
        return 0.0
    value = percentile(values, pct)
    return (value if math.isfinite(value) else 30.0) * 1000


class Run:
    """One measured window against one server, plus everything around it."""

    def __init__(self, workload, seconds: float, tmp: Path) -> None:
        self.workload = workload
        self.seconds = seconds
        self.tmp = tmp
        self.log = OpLog()
        self.wal_dir = None
        self.server = None
        self.setup_times: list[float] = []

    def launch(self, trace=None) -> ServerProcess:
        return ServerProcess(
            self.workload.server_config(self.wal_dir, trace), self.tmp / "server.stderr"
        )

    def set_up(self, count: int, trace=None) -> None:
        """Set the server up ``count`` times; the last one stays running."""
        for index in range(count):
            if self.workload.uses_wal():
                self.wal_dir = fresh_dir(self.tmp / f"wal{index}")
            start = time.perf_counter()
            server = self.launch(trace)
            try:
                self.workload.setup(server.address, self.log)
            except BaseException:
                server.kill()
                raise
            self.setup_times.append(time.perf_counter() - start)
            if index < count - 1:
                self.workload.teardown()
                server.stop()
            else:
                self.server = server

    def measure(self) -> dict:
        """Drive the window; returns raw measurements (server left running).

        Server CPU is also sampled at :data:`SEGMENTS` evenly spaced points
        of the window, so rates can be reported per segment.
        """
        server = self.server
        busy_before = time.process_time()
        window_start = time.perf_counter_ns()
        samples = [(time.perf_counter(), server.cpu_seconds())]
        bounds = [samples[0][0] + self.seconds * index / SEGMENTS for index in range(1, SEGMENTS)]

        def tick() -> None:
            if bounds and time.perf_counter() >= bounds[0]:
                del bounds[0]
                samples.append((time.perf_counter(), server.cpu_seconds()))

        log, elapsed = self.workload.drive(server.address, self.seconds, tick)
        samples.append((time.perf_counter(), server.cpu_seconds()))
        window_end = time.perf_counter_ns()
        busy = (time.process_time() - busy_before) / elapsed
        self.log.merge(log)
        return {
            "window": (window_start, window_end),
            "elapsed": elapsed,
            "completed": log.attempted - log.failed,
            "window_log": log,
            "samples": samples,
            "server_cpu_s": samples[-1][1] - samples[0][1],
            "rss_mb": server.peak_rss_mb(),
            "busy_frac": busy,
        }

    def verify(self, extra_failures=()) -> list[str]:
        failures = list(extra_failures)
        failures += self.workload.check(self.log, self.workload.replayed_trees())
        return failures

    def close(self) -> None:
        self.workload.teardown()
        if self.server is not None and self.server.process.poll() is None:
            self.server.stop()


def _segment_medians(log: OpLog, samples: list) -> dict:
    """Throughput, server CPU per op and p50 latencies, median over segments."""
    values: dict[str, list[float]] = {"throughput": [], "cpu": [], "publish": [], "commit": []}
    for (start, cpu_start), (end, cpu_end) in zip(samples, samples[1:]):
        latencies = {
            kind: [
                latency
                for latency, done in zip(log.latency[kind], log.ends[kind])
                if start <= done < end
            ]
            for kind in ("publish", "commit")
        }
        completed = sum(
            math.isfinite(latency) for kind in latencies for latency in latencies[kind]
        )
        if not completed:
            continue
        values["throughput"].append(completed / (end - start))
        values["cpu"].append((cpu_end - cpu_start) * 1000 / completed)
        for kind, latency in latencies.items():
            if latency:
                values[kind].append(_latency_ms(latency, 50))
    return {key: statistics.median(found) if found else 0.0 for key, found in values.items()}


def untraced(name: str, seed: int, seconds: float, setups: int, tmp: Path) -> dict:
    """One untraced run: set-ups, the window, recovery, the oracle."""
    began = time.perf_counter()
    workload = WORKLOADS[name](seed)
    run = Run(workload, seconds, tmp)
    phases = {"inputs": time.perf_counter() - began}
    try:
        run.set_up(setups)
        phases["setups"] = sum(run.setup_times)
        raw = run.measure()
        phases["window"] = raw["elapsed"]
        mark = time.perf_counter()
        after = workload.after(run.server, run.launch)
        if after.get("log") is not None:
            run.log.merge(after["log"])
    finally:
        run.close()
    phases["recovery+stop"] = time.perf_counter() - mark
    mark = time.perf_counter()
    failures = run.verify(after.get("failures", ()))
    phases["oracle"] = time.perf_counter() - mark
    print("# phases (s): " + " ".join(f"{key}={value:.2f}" for key, value in phases.items()))
    log, window_log = run.log, raw["window_log"]
    tails = workload.tails
    latency = window_log.latency
    segments = _segment_medians(window_log, raw["samples"])
    metrics = {
        "setup_s": statistics.median(run.setup_times),
        "publish_p50_ms": segments["publish"],
        "publish_tail_ms": _latency_ms(latency["publish"], tails["publish"]),
        "commit_p50_ms": segments["commit"],
        "commit_tail_ms": _latency_ms(latency["commit"], tails["commit"]),
        "throughput_ops_s": segments["throughput"],
        "server_cpu_ms_per_op": segments["cpu"],
        "server_rss_mb": raw["rss_mb"],
        "edit_delivery_p50_ms": _latency_ms(latency["edit_delivery"], 50),
        "edit_delivery_tail_ms": _latency_ms(
            latency["edit_delivery"], tails["edit_delivery"]
        ),
        "recovery_s": after.get("recovery_s", 0.0),
        "loadgen.busy_frac": raw["busy_frac"],
    }
    attempted = max(1, log.attempted)
    failed = log.failed + len(failures)
    metrics["failed_frac"] = failed / attempted
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "errors": log.errors + failures,
        "samples": {kind: len(values) for kind, values in latency.items()},
        "distributions": latency,
        "raw": raw,
    }


def _stats_snapshot(workload, address) -> dict:
    """Engine, net and router counters over HTTP (outside the window)."""
    snapshot = {"engine": {}, "net": {}, "router": {}, "maintained_views": 0}
    client = NetClient(*address)
    try:
        for ns in workload.spec:
            client.namespace = ns
            stats = client.stats()
            snapshot["maintained_views"] += stats["server"]["maintained_views"]
            for view in stats["server"]["views"]:
                for key, value in view["cache"].items():
                    if key != "hit_rate":
                        snapshot["engine"][key] = snapshot["engine"].get(key, 0) + value
            snapshot["net"] = stats["net"]
        if workload.kind == "cluster":
            cluster = client.cluster_stats()
            snapshot["net"] = cluster["totals"]
            snapshot["router"] = cluster["router"]
    finally:
        client.close()
    return snapshot


def _delta(after: dict, before: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def traced(name: str, seed: int, seconds: float, tmp: Path) -> dict:
    """The per-layer run: untraced half for the baseline, then a traced half."""
    half = seconds / 2
    base = untraced(name, seed, half, 1, fresh_dir(tmp / "untraced"))
    workload = WORKLOADS[name](seed)
    run = Run(workload, half, fresh_dir(tmp / "traced"))
    prefix = run.tmp / "spans"
    try:
        run.set_up(1, trace=prefix)
        before = _stats_snapshot(workload, run.server.address)
        raw = run.measure()
        after = _stats_snapshot(workload, run.server.address)
    finally:
        run.close()
    failures = run.verify()
    dumps = [tracing.load(path) for path in sorted(run.tmp.glob("spans.*"))]
    spans = tracing.summarize(dumps, raw["window"])

    window_log = raw["window_log"]
    ops = max(1, raw["completed"])
    commits = max(1, len(window_log.latency["commit"]))
    client_ms = sum(
        value
        for kind in ("publish", "commit")
        for value in window_log.latency[kind]
        if math.isfinite(value)
    ) * 1000

    def span(key: str, field: str = "wall_ms") -> float:
        return spans.get(key, {}).get(field, 0.0)

    def per_op(*keys: str, field: str = "wall_ms") -> float:
        return sum(span(key, field) for key in keys) / ops

    front = "router.route" if workload.kind == "cluster" else "net.dispatch"
    engine = {key: _delta(after["engine"], before["engine"], key) for key in after["engine"]}
    net = {key: _delta(after["net"], before["net"], key) for key in after["net"]}
    publishes = max(1, len(window_log.latency["publish"]))
    expansions = engine.get("hits", 0) + engine.get("misses", 0)
    rendered = engine.get("rendered_hits", 0) + engine.get("rendered_misses", 0)
    cache_lookups = net.get("response_cache_hits", 0) + net.get("publishes", 0)
    query_calls = sum(
        span(key, "calls")
        for key in ("query.execute.row", "query.execute.columnar", "query.evaluate")
    )
    query_rows = sum(
        span(key, "extra")
        for key in ("query.execute.row", "query.execute.columnar", "query.evaluate")
    )
    server_cpu_ms = raw["server_cpu_s"] * 1000
    metrics = {
        "net.self_ms": (client_ms - span(front)) / ops,
        "net.response_cache_hit_ratio": (
            net.get("response_cache_hits", 0) / cache_lookups if cache_lookups else 0.0
        ),
        "net.not_modified_ratio": net.get("not_modified", 0) / publishes,
        "net.body_bytes_per_op": window_log.body_bytes / ops,
        "net.ws_encode_ms": per_op(
            "net.ws_encode.json", "net.ws_encode.edits", "net.ws_encode.frame"
        ),
        "router.render_ms": per_op("router.render"),
        "router.upstream_wait_ms": per_op("router.upstream_wait"),
        "router.hop_ms": (
            (client_ms - span("router.upstream_wait")) / ops
            if workload.kind == "cluster"
            else 0.0
        ),
        "router.retries": _delta(after["router"], before["router"], "retries"),
        "serve.publish_ms": per_op("serve.publish"),
        "serve.publish_self_ms": per_op("serve.publish", field="self_ms"),
        "serve.commit_ms": per_op("serve.commit"),
        "serve.commit_self_ms": per_op("serve.commit", field="self_ms"),
        "serve.maintained_views": after["maintained_views"],
        "wal.append_ms": per_op("wal.append"),
        "wal.fsyncs_per_commit": span("wal.fsync", "calls") / commits,
        "wal.bytes_per_commit": span("wal.record", "extra") / commits,
        "wal.checkpoint_ms": per_op("wal.checkpoint"),
        "wal.checkpoints": span("wal.checkpoint", "calls"),
        "engine.publish_bytes_ms": per_op("engine.publish_bytes"),
        "engine.publish_bytes_calls": span("engine.publish_bytes", "calls") / ops,
        "engine.republish_ms": per_op("engine.republish"),
        "engine.expansion_hit_rate": engine.get("hits", 0) / expansions if expansions else 0.0,
        "engine.rendered_hit_rate": (
            engine.get("rendered_hits", 0) / rendered if rendered else 0.0
        ),
        "engine.invalidated_per_commit": engine.get("invalidated", 0) / commits,
        "engine.evictions": engine.get("evictions", 0),
        "query.execute_ms.row": per_op("query.execute.row", "query.evaluate", field="self_ms"),
        "query.execute_ms.columnar": per_op("query.execute.columnar", field="self_ms"),
        "query.execute_calls": query_calls / ops,
        "query.rows_per_call": query_rows / query_calls if query_calls else 0.0,
        "query.execute_delta_ms": per_op("query.execute_delta"),
        "relational.apply_delta_ms": per_op("relational.apply_delta"),
        "relational.normalize_ms": per_op("relational.normalize"),
        "relational.wire_decode_ms": per_op("relational.wire_decode"),
        "xmltree.diff_ms": per_op("xmltree.diff"),
        "xmltree.edits_per_commit": span("xmltree.diff", "extra") / commits,
        "typecheck.validate_ms": per_op("typecheck.validate"),
        "typecheck.validations": span("typecheck.validate", "calls"),
        "runtime.gc_pause_ms": spans["_gc"]["pause_ms"] / ops,
        "runtime.gc_collections": spans["_gc"]["pauses"],
        "trace.overhead_frac": 1
        - _segment_medians(window_log, raw["samples"])["throughput"]
        / max(1e-9, base["metrics"]["throughput_ops_s"]),
        "trace.coverage_frac": spans["_cpu_ms"] / server_cpu_ms if server_cpu_ms else 0.0,
    }
    for key in (
        "loadgen.busy_frac",
        "edit_delivery_p50_ms",
        "edit_delivery_tail_ms",
        "recovery_s",
        "failed_frac",
    ):
        metrics[key] = base["metrics"][key]
    layers: dict[str, list[float]] = {}
    for key, totals in spans.items():
        if key.startswith("_") or key in tracing.CPU_ONLY:
            continue
        layer = LAYERS[key.split(".")[0]]
        entry = layers.setdefault(layer, [0.0, 0.0])
        entry[0] += totals["self_ms"] / ops
        entry[1] += totals["self_cpu_ms"] / ops
    failed = base["failed"] + window_log.failed + len(failures)
    return {
        "metrics": metrics,
        "attempted": base["attempted"] + max(1, window_log.attempted),
        "failed": failed,
        "errors": base["errors"] + window_log.errors + failures,
        "samples": base["samples"],
        "layers": layers,
        "server_cpu_ms_per_op": server_cpu_ms / ops,
        "raw": raw,
    }


def _print_metadata(workload, args, wal_dir: Path) -> None:
    flush = "fsync=True, group-committed" if workload.fsync else (
        "WAL without fsync (page cache)" if workload.kind == "cluster" else "no WAL"
    )
    meta = {
        "workload": workload.name,
        "why": workload.why,
        "commit": source_id(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "wal_filesystem": filesystem_of(wal_dir),
        "flush_policy": flush,
        "seed": args.seed,
        "clients": workload.clients,
        "subscribers": workload.subscribers,
        "loop": "closed",
        "server": "2-shard ShardCluster + router" if workload.kind == "cluster" else "NetServer",
        "tails": {kind: f"p{pct}" for kind, pct in workload.tails.items()},
    }
    print("# run " + json.dumps(meta))


def _print_result(result: dict, units: dict, workload_cls) -> None:
    samples = result.get("samples", {})
    for name, value in result["metrics"].items():
        note = ""
        for kind in ("publish", "commit", "edit_delivery"):
            if name.startswith(kind) and name.endswith("tail_ms"):
                note = f"  (p{workload_cls.tails[kind]}, n={samples.get(kind, 0)})"
        print(f"  {name:34s} {value:14.4f} {units.get(name, ''):6s}{note}")
    for kind, values in result.get("distributions", {}).items():
        if values:
            points = "  ".join(
                f"p{pct}={_latency_ms(values, pct):.3f}" for pct in (50, 75, 90, 95, 99)
            )
            print(f"# {kind} latency (ms, n={len(values)}): {points}")
    busy = result["metrics"].get("loadgen.busy_frac")
    if busy is not None and busy >= BUSY_LIMIT:
        print(f"# WARNING: load generator busy {busy:.2f} cores: the client, not the "
              "server, may be the bottleneck")
    for error in result["errors"][:10]:
        print(f"# failure: {error}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: this many untraced runs, seeds seed..")
    args = parser.parse_args(argv)

    workload_cls = WORKLOADS[args.workload]
    # a terminated run still stops its servers (the finally clauses run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = fresh_dir(ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}")
    try:
        _print_metadata(workload_cls, args, tmp)
        if args.repeat:
            return _steadiness(args, workload_cls, tmp)
        if args.trace:
            result = traced(args.workload, args.seed, args.seconds, tmp)
            names = PER_LAYER
            print("# per-layer metrics (traced run; ms values are per completed op)")
            _print_result(result, dict(PER_LAYER), workload_cls)
            print("# layer self time per op (wall ms, thread-CPU ms):")
            for layer, (wall, cpu) in sorted(result["layers"].items()):
                print(f"  {layer:18s} {wall:10.4f} {cpu:10.4f}")
            print(f"  {'server CPU/op':18s} {'':10s} {result['server_cpu_ms_per_op']:10.4f}")
        else:
            result = untraced(args.workload, args.seed, args.seconds, SETUPS, tmp)
            names = END_TO_END
            print("# end-to-end metrics (tracing off)")
            _print_result(result, dict(END_TO_END + PER_LAYER), workload_cls)
        line = {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": result["metrics"][name], "unit": unit} for name, unit in names
            },
        }
        print(json.dumps(line))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()


def _steadiness(args, workload_cls, tmp: Path) -> int:
    """Repeat the untraced run and print each metric's median and spread."""
    runs = []
    for index in range(args.repeat):
        result = untraced(
            args.workload, args.seed + index, args.seconds, SETUPS,
            fresh_dir(tmp / f"repeat{index}"),
        )
        runs.append(result)
        values = " ".join(f"{name}={result['metrics'][name]:.4f}" for name, _ in END_TO_END)
        print(f"# seed {args.seed + index}: failed={result['failed']} {values}")
    print("# metric                              median        q1        q3   spread")
    medians = {}
    for name, unit in END_TO_END:
        values = [run["metrics"][name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        medians[name] = {"value": median, "unit": unit}
        spread = (q3 - q1) / median if median else 0.0
        print(f"  {name:34s} {median:9.4f} {q1:9.4f} {q3:9.4f} {spread:8.4f}")
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": failed,
        "metrics": medians,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
