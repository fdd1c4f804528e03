"""Run every benchmark and merge the results into one ``BENCH_results.json``.

Two kinds of benchmark module live in this directory:

* **script-capable** modules exposing a ``main(argv)`` entry point that
  prints a JSON report (``bench_query_eval``, ``bench_incremental``,
  ``bench_columnar``, ``bench_serve``, ``bench_shard``, ...) -- these
  are run as subprocesses and their JSON is captured verbatim;
* **pytest-only** modules (the table/figure reproductions) -- these are run
  through pytest with ``--benchmark-disable`` (the timings are secondary;
  the reproduction assertions are the point) and their pass/fail status and
  wall time recorded.

The merged report lands in ``BENCH_results.json`` next to this script (or at
``--output PATH``), seeding the perf trajectory: every entry carries both
the speedup ratios and the absolute times its module reported, so future
sessions can diff against it.

Usage::

    PYTHONPATH=src python benchmarks/run_all.py [--quick] [--output PATH]

``--quick`` is forwarded to the script-capable modules (smaller workloads)
and is what the CI smoke step uses.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
DEFAULT_OUTPUT = BENCH_DIR / "BENCH_results.json"


def _discover() -> list[Path]:
    return sorted(BENCH_DIR.glob("bench_*.py"))


def _is_script_capable(path: Path) -> bool:
    source = path.read_text(encoding="utf-8")
    return "def main(" in source and "__main__" in source


def _run_script(path: Path, quick: bool) -> dict:
    """Run a script-capable benchmark and capture its JSON report."""
    command = [sys.executable, str(path)] + (["--quick"] if quick else [])
    start = time.perf_counter()
    proc = subprocess.run(
        command,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=_env(),
    )
    elapsed = time.perf_counter() - start
    entry: dict = {
        "kind": "script",
        "status": "passed" if proc.returncode == 0 else "failed",
        "returncode": proc.returncode,
        "wall_seconds": elapsed,
    }
    try:
        entry["report"] = json.loads(proc.stdout)
    except json.JSONDecodeError:
        entry["stdout_tail"] = proc.stdout[-2000:]
    if proc.returncode != 0:
        entry["stderr_tail"] = proc.stderr[-2000:]
    return entry


def _run_pytest(path: Path) -> dict:
    """Run a pytest-only benchmark module with timings disabled."""
    command = [
        sys.executable,
        "-m",
        "pytest",
        "-q",
        str(path),
        "--benchmark-disable",
    ]
    start = time.perf_counter()
    proc = subprocess.run(
        command,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env=_env(),
    )
    elapsed = time.perf_counter() - start
    entry: dict = {
        "kind": "pytest",
        "status": "passed" if proc.returncode == 0 else "failed",
        "returncode": proc.returncode,
        "wall_seconds": elapsed,
    }
    if proc.returncode != 0:
        entry["stdout_tail"] = proc.stdout[-2000:]
    return entry


def _cpu_count() -> int:
    import os

    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _shard_counts(results: dict) -> list[int]:
    """Cluster sizes exercised by the shard benchmark (metadata)."""
    report = results.get("bench_shard", {}).get("report", {})
    return list(report.get("shard_counts", []))


def _env() -> dict:
    import os

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else f"{src}{os.pathsep}{existing}"
    return env


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"merged report path (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    results: dict[str, dict] = {}
    failed = []
    for path in _discover():
        name = path.stem
        print(f"== {name} ==", flush=True)
        if _is_script_capable(path):
            entry = _run_script(path, args.quick)
        else:
            entry = _run_pytest(path)
        results[name] = entry
        print(f"   {entry['status']} in {entry['wall_seconds']:.1f}s", flush=True)
        if entry["status"] != "passed":
            failed.append(name)

    if failed:
        # Do not overwrite the previous good baseline with a partial run:
        # a failing bench means these numbers are not a trustworthy
        # trajectory point, and a half-written report is worse than none.
        print(
            f"FAIL: {', '.join(failed)} -- {args.output} left untouched",
            file=sys.stderr,
        )
        return 1

    merged = {
        "suite": "repro-benchmarks",
        "mode": "quick" if args.quick else "full",
        "python": sys.version.split()[0],
        "cpu_count": _cpu_count(),
        "shard_counts": _shard_counts(results),
        "results": results,
    }
    args.output.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
