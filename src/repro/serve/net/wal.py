"""Durability beneath :class:`~repro.serve.server.SourceHandle`: a delta WAL.

A :class:`DeltaLog` is an append-only write-ahead log of wire-encoded
:class:`~repro.relational.delta.Delta` records plus periodic full-instance
snapshots, stored in one directory per source::

    <dir>/
      snapshot-00000000000.json     # instance at version 0 (atomic rename)
      wal-00000000001.log           # deltas for versions 1, 2, ... (segment)
      wal-00000000257.log           # next segment after rotation

* **Write-ahead ordering.**  :func:`attach_durable` arms the handle so
  :meth:`SourceHandle.commit` appends (and flushes) the normalized delta
  *before* the new version becomes visible; a failed append truncates the
  segment back to its previous length and aborts the commit with the
  in-memory chain untouched, so the next commit reuses the version number
  and recovery never sees the aborted record.
* **Records are self-verifying.**  Each log line is ``<crc32> <canonical
  JSON>``; the checksum is over exactly the bytes the network tier would
  stream for the same delta.  A torn final record -- the half-written line of
  a crash mid-commit -- is detected and discarded on recovery; corruption
  anywhere *else* raises :class:`WalError` rather than silently truncating
  history.
* **Snapshot compaction interoperates with ``prune()``.**  A checkpoint
  snapshots the handle's *oldest retained* version and drops only the log
  segments lying entirely at or below it, so every version the handle still
  promises to serve (and the current version) remains replayable.  Until
  :meth:`~repro.serve.server.SourceHandle.prune` advances the retained base,
  compaction therefore drops nothing -- the log keeps the full history the
  handle does.
* **Recovery is exact.**  :func:`recover_source` rebuilds the newest
  snapshot, replays every durable delta in order through the normal commit
  path (version numbers continue via ``attach(base_version=...)``), re-arms
  the log and returns a handle whose current version and ``publish()`` bytes
  are identical to the uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.relational.delta import Delta
from repro.relational.instance import Instance
from repro.relational.wire import (
    WIRE_FORMAT,
    WireError,
    canonical_json,
    delta_from_wire,
    instance_from_wire,
    instance_to_wire,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.serve.server import SourceHandle, ViewServer

_SNAPSHOT_PREFIX = "snapshot-"
_SEGMENT_PREFIX = "wal-"
_WIDTH = 11  # zero-padded version numbers keep lexicographic == numeric order


class WalError(RuntimeError):
    """Raised when the write-ahead log is corrupt or used inconsistently."""


def _segment_path(directory: Path, first_version: int) -> Path:
    return directory / f"{_SEGMENT_PREFIX}{first_version:0{_WIDTH}d}.log"


def _snapshot_path(directory: Path, version: int) -> Path:
    return directory / f"{_SNAPSHOT_PREFIX}{version:0{_WIDTH}d}.json"


def _indexed(paths: list[Path], prefix: str, suffix: str) -> list[tuple[int, Path]]:
    """Parse ``<prefix><version><suffix>`` names into (version, path) pairs."""
    found = []
    for path in paths:
        middle = path.name[len(prefix) : len(path.name) - len(suffix)]
        if path.name.startswith(prefix) and path.name.endswith(suffix) and middle.isdigit():
            found.append((int(middle), path))
    found.sort()
    return found


def _record_line(version: int, delta: Delta) -> bytes:
    body = canonical_json({"v": version, "delta": delta.to_wire()}).encode("utf-8")
    return b"%08x %s\n" % (zlib.crc32(body), body)


def _parse_record(line: bytes, where: str) -> tuple[int, Delta]:
    """Decode one complete record line; raises :class:`WalError` on damage."""
    try:
        crc_text, body = line.split(b" ", 1)
        crc = int(crc_text, 16)
    except ValueError:
        raise WalError(f"{where}: malformed record framing") from None
    if zlib.crc32(body) != crc:
        raise WalError(f"{where}: checksum mismatch")
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as error:  # crc passed but JSON bad: real damage
        raise WalError(f"{where}: unreadable record ({error})") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("v"), int):
        raise WalError(f"{where}: record missing its version")
    try:
        delta = delta_from_wire(payload.get("delta"))
    except WireError as error:
        raise WalError(f"{where}: {error}") from None
    return payload["v"], delta


@dataclass
class RecoveredState:
    """What :meth:`DeltaLog.recover` found on disk.

    ``instance`` is the newest snapshot (decoded, row representation);
    ``encoded`` records whether the source ran on the columnar backend;
    ``deltas`` are the durable post-snapshot records in version order;
    ``torn`` flags a discarded half-written final record.
    """

    base_version: int
    instance: Instance
    encoded: bool
    deltas: list[tuple[int, Delta]]
    torn: bool

    @property
    def current_version(self) -> int:
        """The version the source reaches after replaying every delta."""
        return self.deltas[-1][0] if self.deltas else self.base_version


class DeltaLog:
    """One source's write-ahead log directory (see the module docstring).

    ``fsync=True`` additionally fsyncs every appended record (and snapshot)
    on the committing thread before the commit proceeds -- full crash
    durability at the price of one disk sync per commit.  The default
    flushes to the OS, which survives process crashes (the failure mode the
    tests exercise) but not power loss.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        fsync: bool = False,
        segment_records: int = 256,
    ) -> None:
        self.directory = Path(directory)
        self.fsync = fsync
        self.segment_records = max(1, segment_records)
        self._file = None  # the open current segment, append mode
        self._segment_count = 0  # records in the current segment
        self._since_checkpoint = 0  # records since the last snapshot
        self._last_version: int | None = None
        self._fsyncs = 0  # append-path os.fsync calls completed for this log

    # -- inspection ----------------------------------------------------------

    def segments(self) -> list[tuple[int, Path]]:
        """The (first_version, path) of every log segment, oldest first."""
        if not self.directory.is_dir():
            return []
        return _indexed(list(self.directory.iterdir()), _SEGMENT_PREFIX, ".log")

    def snapshots(self) -> list[tuple[int, Path]]:
        """The (version, path) of every snapshot file, oldest first."""
        if not self.directory.is_dir():
            return []
        return _indexed(list(self.directory.iterdir()), _SNAPSHOT_PREFIX, ".json")

    @property
    def records_since_checkpoint(self) -> int:
        """Appended records since the last snapshot (drives auto-compaction)."""
        return self._since_checkpoint

    @property
    def last_version(self) -> int | None:
        """The version of the most recently appended record, if any."""
        return self._last_version

    def stats(self) -> dict[str, int]:
        """Append-path durability counters.

        ``fsyncs`` counts the record :func:`os.fsync` calls that completed,
        one per durable commit.  Snapshot fsyncs are not counted -- they are
        rare.
        """
        return {"fsyncs": self._fsyncs}

    # -- writing -------------------------------------------------------------

    def begin(self, version: int, instance: Instance, encoded: bool = False) -> None:
        """Start a fresh log with a snapshot of the initial version.

        Refuses a directory that already holds log state -- recovery, not
        ``begin``, is the entry point for existing logs.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        if self.snapshots() or self.segments():
            raise WalError(
                f"{self.directory} already holds a log; recover it instead of beginning anew"
            )
        self._write_snapshot(version, instance, encoded)
        self._last_version = version
        self._since_checkpoint = 0

    def append(self, version: int, delta: Delta) -> None:
        """Append one commit record (called by the armed handle, pre-visibility).

        The segment is unbuffered, so the record reaches the OS in the write
        itself.  If the write or the fsync raises, the segment is truncated
        back to its length before the record and the error propagates: the
        log is unchanged, and the aborted version is free for the next
        commit.
        """
        if self._last_version is not None and version != self._last_version + 1:
            raise WalError(
                f"out-of-order append: version {version} after {self._last_version}"
            )
        if self._file is None or self._segment_count >= self.segment_records:
            self._roll_segment(version)
        line = _record_line(version, delta)
        start = self._file.tell()
        try:
            written = 0
            while written < len(line):
                written += self._file.write(line[written:])
            if self.fsync:
                os.fsync(self._file.fileno())
                self._fsyncs += 1
        except BaseException:
            os.ftruncate(self._file.fileno(), start)
            raise
        self._segment_count += 1
        self._since_checkpoint += 1
        self._last_version = version

    def _roll_segment(self, first_version: int) -> None:
        if self._file is not None:
            self._file.close()
        self.directory.mkdir(parents=True, exist_ok=True)
        path = _segment_path(self.directory, first_version)
        self._file = open(path, "ab", buffering=0)
        self._segment_count = 0

    def _write_snapshot(self, version: int, instance: Instance, encoded: bool) -> None:
        payload = {
            "format": WIRE_FORMAT,
            "kind": "wal-snapshot",
            "version": version,
            "encoded": bool(encoded),
            "instance": instance_to_wire(instance),
        }
        path = _snapshot_path(self.directory, version)
        temp = path.with_suffix(".json.tmp")
        data = canonical_json(payload).encode("utf-8")
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(temp, path)  # atomic: a crash leaves old or new, never half

    def checkpoint(self, version: int, instance: Instance, encoded: bool = False) -> list[Path]:
        """Snapshot ``version`` and drop every segment it makes redundant.

        A segment is dropped only when *all* of its records are at or below
        the snapshot version -- segments still needed to replay any newer
        (retained or current) version survive, which is the contract that
        lets compaction interoperate with :meth:`SourceHandle.prune`.
        Older snapshot files are removed as well.  Returns the deleted paths.
        """
        self._write_snapshot(version, instance, encoded)
        self._since_checkpoint = 0
        removed: list[Path] = []
        segments = self.segments()
        # Never unlink the segment currently open for append -- its future
        # records would land in an unlinked file and vanish.
        current = Path(self._file.name) if self._file is not None else None
        for position, (first, path) in enumerate(segments):
            last = (
                segments[position + 1][0] - 1
                if position + 1 < len(segments)
                else (self._last_version if self._last_version is not None else version)
            )
            if last <= version and (current is None or path != current):
                path.unlink()
                removed.append(path)
        for snap_version, path in self.snapshots():
            if snap_version < version:
                path.unlink()
                removed.append(path)
        return removed

    def close(self) -> None:
        """Close the open segment file (appends reopen it transparently)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    # -- recovery ------------------------------------------------------------

    def recover(self, repair: bool = True) -> RecoveredState | None:
        """Read the durable state back: newest snapshot plus replayable deltas.

        Returns ``None`` for a directory with no snapshot (nothing was ever
        logged).  A torn *final* record -- the signature of a crash mid-append
        -- is discarded, and with ``repair=True`` (the default) the segment
        file is truncated back to its durable prefix so future appends start
        clean.  Damage anywhere else raises :class:`WalError`.
        """
        snapshots = self.snapshots()
        if not snapshots:
            return None
        base_version, snapshot_path = snapshots[-1]
        try:
            payload = json.loads(snapshot_path.read_bytes())
        except json.JSONDecodeError as error:
            raise WalError(f"{snapshot_path.name}: unreadable snapshot ({error})") from None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != WIRE_FORMAT
            or payload.get("kind") != "wal-snapshot"
            or payload.get("version") != base_version
        ):
            raise WalError(f"{snapshot_path.name}: malformed snapshot envelope")
        try:
            instance = instance_from_wire(payload.get("instance"))
        except WireError as error:
            raise WalError(f"{snapshot_path.name}: {error}") from None

        deltas: list[tuple[int, Delta]] = []
        torn = False
        segments = self.segments()
        expected = base_version + 1
        for position, (first, path) in enumerate(segments):
            data = path.read_bytes()
            lines = data.split(b"\n")
            complete, tail = lines[:-1], lines[-1]
            durable_bytes = len(data) - len(tail)
            is_last_segment = position == len(segments) - 1
            if tail:
                if not is_last_segment:
                    raise WalError(f"{path.name}: truncated record inside the log")
                torn = True
            for line_number, line in enumerate(complete):
                where = f"{path.name}:{line_number + 1}"
                is_final_record = (
                    is_last_segment and not tail and line_number == len(complete) - 1
                )
                try:
                    version, delta = _parse_record(line, where)
                except WalError:
                    if is_final_record:
                        # A crash can also tear a record that got its newline
                        # out before its payload bytes settled; only the very
                        # last record of the log is forgivable.
                        torn = True
                        durable_bytes = sum(len(other) + 1 for other in complete[:line_number])
                        break
                    raise
                if version <= base_version:
                    continue  # pre-snapshot history kept for older segments
                if version != expected:
                    raise WalError(
                        f"{where}: version {version} breaks the chain (expected {expected})"
                    )
                deltas.append((version, delta))
                expected = version + 1
            if torn and repair and durable_bytes < len(data):
                with open(path, "ab") as handle:
                    handle.truncate(durable_bytes)
        self._last_version = deltas[-1][0] if deltas else base_version
        self._since_checkpoint = len(deltas)
        return RecoveredState(base_version, instance, bool(payload.get("encoded")), deltas, torn)


# ---------------------------------------------------------------------------
# Arming handles.
# ---------------------------------------------------------------------------


class DurableSource:
    """The hook arming one :class:`SourceHandle` with a :class:`DeltaLog`.

    Installed as the handle's write-ahead sink: :meth:`append` runs inside
    the handle's commit critical section, *before* the new version becomes
    visible.  Every ``snapshot_every`` records it also checkpoints at the
    handle's oldest retained version -- the compaction cadence; pass
    ``snapshot_every=0`` to compact only explicitly via :meth:`compact`.
    """

    def __init__(self, log: DeltaLog, handle: "SourceHandle", snapshot_every: int = 256) -> None:
        self.log = log
        self.handle = handle
        self.snapshot_every = snapshot_every

    def append(self, version: int, delta: Delta) -> None:
        self.log.append(version, delta)
        if self.snapshot_every and self.log.records_since_checkpoint >= self.snapshot_every:
            # Called under the handle's lock: read the retained base directly.
            base = self.handle._versions[0]
            self.log.checkpoint(base.index, base.instance, base.instance.is_encoded)

    def compact(self) -> list[Path]:
        """Checkpoint now, at the handle's oldest retained version.

        The natural companion of :meth:`SourceHandle.prune`: after pruning,
        the retained base has advanced and every segment below it becomes
        droppable.  Returns the deleted files.
        """
        with self.handle._lock:
            base = self.handle._versions[0]
        return self.log.checkpoint(base.index, base.instance, base.instance.is_encoded)


def attach_durable(
    server: "ViewServer",
    instance: Instance,
    log: DeltaLog | str | os.PathLike,
    *,
    name: str | None = None,
    encoded: bool = False,
    snapshot_every: int = 256,
) -> "SourceHandle":
    """Attach a source whose commits are write-ahead logged to ``log``.

    The log directory must be fresh (use :func:`recover_source` to resume an
    existing one).  The initial instance is snapshotted immediately, so a
    crash before the first commit already recovers to version 0.
    """
    if not isinstance(log, DeltaLog):
        log = DeltaLog(log)
    handle = server.attach(instance, name=name, encoded=encoded)
    log.begin(handle.version, handle.instance, handle.instance.is_encoded)
    handle._wal = DurableSource(log, handle, snapshot_every)
    return handle


def rehome_source(
    handle: "SourceHandle",
    directory: str | os.PathLike,
    *,
    fsync: bool = False,
    snapshot_every: int = 256,
) -> DeltaLog:
    """Move a durable handle's log into a fresh directory (shard handoff).

    The new log begins with a snapshot at the handle's *current* version, so
    the new directory is immediately self-sufficient -- the old shard's
    directory can be removed once the caller no longer needs its history.
    Future commits append to the new log; replaying it reproduces the
    handle's publishes byte-identically from the snapshot forward.
    """
    old = handle._wal
    log = DeltaLog(directory, fsync=fsync)
    with handle._lock:
        current = handle._versions[-1]
        log.begin(current.index, current.instance, current.instance.is_encoded)
        handle._wal = DurableSource(log, handle, snapshot_every)
    if old is not None:
        old.log.close()
    return log


def recover_source(
    server: "ViewServer",
    log: DeltaLog | str | os.PathLike,
    *,
    name: str | None = None,
    snapshot_every: int = 256,
) -> "SourceHandle":
    """Replay a log into ``server`` and return the re-armed, caught-up handle.

    The handle resumes the pre-crash version numbering (the snapshot version
    seeds ``attach(base_version=...)``) and its ``publish()`` output is
    byte-identical to the uninterrupted run at the recovered version, on
    whichever backend the source originally ran.
    """
    if not isinstance(log, DeltaLog):
        log = DeltaLog(log)
    state = log.recover()
    if state is None:
        raise WalError(f"{log.directory} holds no snapshot; nothing to recover")
    instance = state.instance
    if state.encoded:
        from repro.relational.columnar import ensure_encoded

        ensure_encoded(instance)
    handle = server.attach(instance, name=name, base_version=state.base_version)
    for version, delta in state.deltas:
        committed = handle.commit(delta)
        if committed.index != version:  # pragma: no cover - defensive
            raise WalError(
                f"replay drifted: log record {version} landed at {committed.index}"
            )
    handle._wal = DurableSource(log, handle, snapshot_every)
    return handle
