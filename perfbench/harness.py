"""Benchmark-side plumbing: the server child process, /proc readings, op logs."""

from __future__ import annotations

import hashlib
import json
import math
import os
import select
import shutil
import subprocess
import sys
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to an op that failed)."""


class ServerProcess:
    """The system under test in a child process (see ``server.py``)."""

    def __init__(self, config: dict, stderr: Path, timeout: float = 60.0) -> None:
        # the server's own stderr goes to a file: shown only if it fails to start
        with open(stderr, "ab") as errors:
            self.process = subprocess.Popen(
                [sys.executable, str(HERE / "server.py"), json.dumps(config)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=errors,
                cwd=str(ROOT),
            )
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if ready else b""
        if not line:
            self.kill()
            raise BenchError(f"server did not start: {stderr.read_text()[-2000:]}")
        announced = json.loads(line)
        self.address = tuple(announced["address"])
        self.pids = announced["pids"]

    def cpu_seconds(self) -> float:
        """User plus system CPU of every server process so far."""
        total = 0
        for pid in self.pids:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        return total / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) summed over the server processes."""
        total_kb = 0
        for pid in self.pids:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024

    def stop(self, timeout: float = 60.0) -> None:
        """Ask the server to shut down cleanly; kill it if it does not."""
        try:
            self.process.stdin.write(b"stop\n")
            self.process.stdin.flush()
        except (BrokenPipeError, OSError):
            pass
        try:
            self.process.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        self._close_pipes()

    def kill(self) -> None:
        """SIGKILL the launcher process (shard workers die with their pipe)."""
        self.process.kill()
        self.process.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.process.stdin, self.process.stdout):
            try:
                pipe.close()
            except OSError:
                pass


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def digest(body: bytes) -> tuple[int, int]:
    return zlib.crc32(body), len(body)


class OpLog:
    """What one client thread saw: latencies, failures, served bytes, acks.

    Each thread owns one log, so nothing here is shared while the loop runs;
    :meth:`merge` folds the logs together afterwards.
    """

    def __init__(self) -> None:
        self.latency: dict[str, list[float]] = {"publish": [], "commit": [], "edit_delivery": []}
        #: completion time (perf_counter) of each entry of ``latency``
        self.ends: dict[str, list[float]] = {kind: [] for kind in self.latency}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.body_bytes = 0
        #: (doc, version) -> (crc32, length) of every 200 body
        self.served: dict[tuple, tuple[int, int]] = {}
        #: (doc, version) -> ETag
        self.etags: dict[tuple, str] = {}
        #: (namespace, source) -> {version: Delta} of every acknowledged commit
        self.acked: dict[tuple, dict] = {}

    def record(self, kind: str, latency: float) -> None:
        self.latency[kind].append(latency)
        self.ends[kind].append(time.perf_counter())

    def fail(self, kind: str | None, message: str) -> None:
        self.failed += 1
        if kind is not None:
            self.record(kind, math.inf)
        if len(self.errors) < 20:
            self.errors.append(message)

    def serve(self, doc: tuple, version: int, body: bytes, etag: str | None) -> None:
        """Record a 200 body; a second, different body for one version fails."""
        key = (doc, version)
        seen = digest(body)
        known = self.served.setdefault(key, seen)
        if known != seen:
            self.fail(None, f"{doc} v{version}: two different bodies")
        if etag is not None and self.etags.setdefault(key, etag) != etag:
            self.fail(None, f"{doc} v{version}: two different ETags")

    def merge(self, other: "OpLog") -> None:
        for kind, values in other.latency.items():
            self.latency[kind].extend(values)
            self.ends[kind].extend(other.ends[kind])
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: max(0, 20 - len(self.errors))])
        self.body_bytes += other.body_bytes
        for key, value in other.served.items():
            if self.served.setdefault(key, value) != value:
                self.fail(None, f"{key}: two different bodies across clients")
        for key, value in other.etags.items():
            if self.etags.setdefault(key, value) != value:
                self.fail(None, f"{key}: two different ETags across clients")
        for key, versions in other.acked.items():
            self.acked.setdefault(key, {}).update(versions)


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``inf`` entries sort last)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def source_id() -> str:
    """The checked-out commit, or a digest of ``src/`` outside a git checkout."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=10,
        )
        if result.returncode == 0:
            return result.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return f"src-sha1:{digest.hexdigest()[:12]}"


def filesystem_of(path: Path) -> str:
    """The mount type and point holding ``path`` (from /proc/mounts)."""
    target = str(path.resolve())
    best = ("?", "?")
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                parts = line.split()
                mount, fstype = parts[1], parts[2]
                if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(
                    mount
                ) >= len(best[1]):
                    best = (fstype, mount)
    except OSError:
        pass
    return f"{best[0]} at {best[1]}"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1

