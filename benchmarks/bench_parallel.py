"""Multi-core publishing: the ``repro.parallel`` worker pool under load.

One workload, asserting byte-identity between pooled and serial output
before any timing is trusted:

* **multi-view publish storm** -- a :class:`ViewServer` holding sixteen
  view bindings (``closure`` and ``hierarchy`` over equal-cost synthetic
  departments) serves every binding after each commit, serial vs.
  ``publish_batch`` on 2- and 4-worker pools.  Bindings are chosen so the
  ``(view, binding)`` shard hash splits them evenly across both pool
  sizes, making the measured speedup the scheduler's, not the hash's.
  The acceptance bar: **>= 1.6x with 2 workers and monotone scaling to
  4** -- asserted whenever the host actually has that many cores, and
  recorded (with the skip reason) otherwise, so a 1-core CI box checks
  correctness while a multi-core box enforces the perf claim.

Runnable directly -- ``python benchmarks/bench_parallel.py [--quick]`` --
printing the numbers as JSON with ``workers`` / ``cpu_count`` metadata;
``run_all.py`` and the CI smoke step consume that.
"""

from __future__ import annotations

import json
import os
import sys
import time
from zlib import crc32

from repro.parallel import WorkerPool
from repro.relational.delta import Delta
from repro.relational.instance import Instance
from repro.serve import ViewServer
from repro.workloads.registrar import REGISTRAR_SCHEMA, registrar_view_suite

#: The acceptance thresholds of the multi-core tentpole.
MIN_SPEEDUP_2_WORKERS = 1.6
POOL_SIZES = (2, 4)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Multi-view publish storm.
# ---------------------------------------------------------------------------


def _storm_instance(departments, chain: int) -> Instance:
    """Equal-cost departments: one prerequisite chain of ``chain`` courses
    each, so every ``closure`` binding does the same transitive-closure
    work and every ``hierarchy`` binding renders the same nesting."""
    courses, prereqs = [], []
    for dept in departments:
        names = [f"{dept.lower()}{i:03d}" for i in range(chain)]
        for index, cno in enumerate(names):
            courses.append((cno, f"Course {dept} {index}", dept))
            if index:
                prereqs.append((cno, names[index - 1]))
    return Instance.from_dict(
        {"course": courses, "prereq": prereqs}, schema=REGISTRAR_SCHEMA
    )


def _balanced_departments(server: ViewServer, view: str, per_class: int) -> list[str]:
    """Departments whose ``(view, binding)`` shard keys split evenly.

    The pool shards by ``crc32(repr(key)) % size`` (deterministic), so the
    benchmark can pick bindings that land ``per_class`` on each of 4
    workers -- which is automatically an even split over 2 as well.  With
    an unbalanced set the measured ceiling would be the hash skew, not the
    pool.
    """
    registered = server.view(view)
    by_class: dict[int, list[str]] = {0: [], 1: [], 2: [], 3: []}
    for index in range(64):
        dept = f"DEPT{index:02d}"
        key = (view, registered.binding_key({"department": dept}))
        by_class[crc32(repr(key).encode("utf-8", "backslashreplace")) % 4].append(dept)
    return [dept for cls in range(4) for dept in by_class[cls][:per_class]]


def _storm_server(instance: Instance, pool=None):
    server = ViewServer(pool=pool)
    for name, (factory, params) in registrar_view_suite().items():
        server.register_view(name, factory, params=params)
    handle = server.attach(instance.copy() if hasattr(instance, "copy") else instance)
    return server, handle


def _storm_requests(handle, bindings) -> list[dict]:
    return [
        dict(
            view=view,
            params={"department": dept},
            source=handle,
            output="bytes",
            maintenance="full",
        )
        for view, dept in bindings
    ]


def measure_publish_storm(chain: int, rounds: int) -> dict:
    """Serve every binding after every commit: serial vs 2 vs 4 workers."""
    probe = ViewServer()
    for name, (factory, params) in registrar_view_suite().items():
        probe.register_view(name, factory, params=params)
    bindings = [
        ("closure", dept)
        for dept in _balanced_departments(probe, "closure", per_class=2)
    ] + [
        ("hierarchy", dept)
        for dept in _balanced_departments(probe, "hierarchy", per_class=2)
    ]
    departments = sorted({dept for _, dept in bindings})
    instance = _storm_instance(departments, chain)
    deltas = [
        Delta.insert("course", (f"extra{index:03d}", f"Extra {index}", "PAD"))
        for index in range(rounds)
    ]

    def run(pool):
        server, handle = _storm_server(instance, pool)
        requests = _storm_requests(handle, bindings)
        server.publish_batch(requests)  # warm-up: compile plans, start pool
        documents, elapsed = [], 0.0
        for delta in deltas:
            handle.commit(delta)  # a new version: every render is cold
            batch, seconds = _time(lambda: server.publish_batch(requests))
            documents.append(batch)
            elapsed += seconds
        return documents, elapsed

    serial_documents, serial_seconds = run(None)
    report = {
        "bindings": len(bindings),
        "rounds": rounds,
        "chain": chain,
        "serial_seconds": serial_seconds,
        "byte_identical": True,
    }
    for size in POOL_SIZES:
        with WorkerPool(workers=size) as pool:
            pooled_documents, pooled_seconds = run(pool)
            stats = pool.stats()
        assert pooled_documents == serial_documents, (
            f"pooled output diverged from serial at {size} workers"
        )
        report[f"pool{size}_seconds"] = pooled_seconds
        report[f"speedup_{size}"] = serial_seconds / pooled_seconds
        report[f"pool{size}_tasks_per_worker"] = stats["tasks_per_worker"]
    return report


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    cpu_count = _cpu_count()
    storm = measure_publish_storm(
        chain=12 if quick else 20, rounds=1 if quick else 2
    )
    checks = []
    for size in POOL_SIZES:
        if cpu_count >= size:
            checks.append((size, None))
        else:
            checks.append(
                (size, f"host has {cpu_count} core(s); needs >= {size}")
            )
    report = {
        "benchmark": "bench_parallel",
        "mode": "quick" if quick else "full",
        "cpu_count": cpu_count,
        "workers_tested": list(POOL_SIZES),
        "publish_storm": storm,
        "speedup_checks": {
            f"pool{size}": ("asserted" if reason is None else f"skipped: {reason}")
            for size, reason in checks
        },
    }
    print(json.dumps(report, indent=2))

    failed = False
    if cpu_count >= 2 and storm["speedup_2"] < MIN_SPEEDUP_2_WORKERS:
        print(
            f"FAIL: publish storm only {storm['speedup_2']:.2f}x with 2 "
            f"workers (required: {MIN_SPEEDUP_2_WORKERS}x)",
            file=sys.stderr,
        )
        failed = True
    if cpu_count >= 4 and storm["speedup_4"] < storm["speedup_2"]:
        print(
            f"FAIL: scaling is not monotone: {storm['speedup_4']:.2f}x at 4 "
            f"workers < {storm['speedup_2']:.2f}x at 2",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
