"""The durable write-ahead delta log beneath ``SourceHandle``.

The acceptance bar: kill the server at any point -- including mid-record on
the final append -- and ``recover_source`` restores the source to the exact
pre-crash version with ``publish()`` output byte-identical to an
uninterrupted oracle, on both the row and the columnar backend.  Compaction
(snapshots + segment dropping, including via ``prune()``) must never drop a
segment still needed for replay.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.relational.delta import Delta
from repro.serve import PruneResult, ViewServer
from repro.serve.net.wal import (
    DeltaLog,
    WalError,
    attach_durable,
    recover_source,
)
from repro.workloads.registrar import generate_registrar_instance


def _deltas(count: int, seed: int = 0) -> list[Delta]:
    rng = random.Random(seed)
    out = []
    for step in range(count):
        out.append(
            Delta(
                inserted={
                    "course": {(f"X{step}", f"Title {step}", "CS")},
                    "prereq": {(f"X{step}", f"X{step - 1}")} if step else set(),
                },
                deleted={
                    "course": {(f"X{step - 2}", f"Title {step - 2}", "CS")}
                    if step >= 2 and rng.random() < 0.5
                    else set()
                },
            )
        )
    return out


def _fresh(encoded: bool):
    vs = ViewServer()
    instance = generate_registrar_instance(10, seed=4)
    return vs, instance


def _oracle_bytes(tau1, deltas: list[Delta], encoded: bool) -> str:
    """The publish output of an uninterrupted run over the same commits."""
    vs = ViewServer()
    vs.register_view("t", tau1)
    handle = vs.attach(generate_registrar_instance(10, seed=4), encoded=encoded)
    for delta in deltas:
        handle.commit(delta)
    return vs.publish("t", source=handle, output="bytes")


@pytest.mark.parametrize("encoded", [False, True], ids=["row", "columnar"])
def test_clean_recovery_is_byte_identical(tmp_path, tau1, encoded):
    vs, instance = _fresh(encoded)
    vs.register_view("t", tau1)
    handle = attach_durable(vs, instance, tmp_path / "wal", encoded=encoded)
    deltas = _deltas(6)
    for delta in deltas:
        handle.commit(delta)
    before = vs.publish("t", source=handle, output="bytes")

    vs2 = ViewServer()
    vs2.register_view("t", tau1)
    restored = recover_source(vs2, tmp_path / "wal", name="db")
    assert restored.version == 6
    assert restored.instance.is_encoded == encoded
    after = vs2.publish("t", source=restored, output="bytes")
    assert after == before
    assert after == _oracle_bytes(tau1, deltas, encoded)


@pytest.mark.parametrize("encoded", [False, True], ids=["row", "columnar"])
def test_torn_final_record_recovers_previous_version(tmp_path, tau1, encoded):
    vs, instance = _fresh(encoded)
    vs.register_view("t", tau1)
    handle = attach_durable(vs, instance, tmp_path / "wal", encoded=encoded)
    deltas = _deltas(5, seed=2)
    for delta in deltas:
        handle.commit(delta)
    handle._wal.log.close()

    # Tear the tail: chop bytes off the final record, as a crash mid-write
    # would.  Everything through version 4 must survive.
    segments = sorted((tmp_path / "wal").glob("wal-*.log"))
    tail = segments[-1]
    tail.write_bytes(tail.read_bytes()[:-7])

    vs2 = ViewServer()
    vs2.register_view("t", tau1)
    restored = recover_source(vs2, tmp_path / "wal", name="db")
    assert restored.version == 4
    assert vs2.publish("t", source=restored, output="bytes") == _oracle_bytes(
        tau1, deltas[:4], encoded
    )


def test_recovery_continues_and_recovers_again(tmp_path, tau1):
    vs, instance = _fresh(False)
    handle = attach_durable(vs, instance, tmp_path / "wal")
    deltas = _deltas(4, seed=9)
    for delta in deltas[:3]:
        handle.commit(delta)
    handle._wal.log.close()
    segments = sorted((tmp_path / "wal").glob("wal-*.log"))
    segments[-1].write_bytes(segments[-1].read_bytes()[:-3])

    vs2 = ViewServer()
    vs2.register_view("t", tau1)
    restored = recover_source(vs2, tmp_path / "wal", name="db")
    assert restored.version == 2
    restored.commit(deltas[3])  # keep going after the repair
    assert restored.version == 3

    vs3 = ViewServer()
    vs3.register_view("t", tau1)
    again = recover_source(vs3, tmp_path / "wal", name="db")
    assert again.version == 3
    assert vs3.publish("t", source=again, output="bytes") == _oracle_bytes(
        tau1, deltas[:2] + [deltas[3]], False
    )


def test_mid_log_corruption_raises(tmp_path):
    vs, instance = _fresh(False)
    handle = attach_durable(vs, instance, tmp_path / "wal")
    for delta in _deltas(4):
        handle.commit(delta)
    handle._wal.log.close()

    segment = sorted((tmp_path / "wal").glob("wal-*.log"))[0]
    lines = segment.read_bytes().splitlines(keepends=True)
    lines[1] = b"00000000 {\"corrupted\": true}\n"
    segment.write_bytes(b"".join(lines))

    with pytest.raises(WalError):
        DeltaLog(tmp_path / "wal").recover()


def test_append_rejects_out_of_order_versions(tmp_path):
    vs, instance = _fresh(False)
    handle = attach_durable(vs, instance, tmp_path / "wal")
    handle.commit(_deltas(1)[0])
    log = handle._wal.log
    with pytest.raises(WalError):
        log.append(7, Delta())


def test_begin_refuses_a_dirty_directory(tmp_path):
    vs, instance = _fresh(False)
    attach_durable(vs, instance, tmp_path / "wal")
    vs2 = ViewServer()
    with pytest.raises(WalError):
        attach_durable(vs2, instance, tmp_path / "wal", name="again")


def test_compaction_keeps_segments_needed_for_replay(tmp_path, tau1):
    vs, instance = _fresh(False)
    vs.register_view("t", tau1)
    log = DeltaLog(tmp_path / "wal", segment_records=3)
    handle = attach_durable(vs, instance, log, snapshot_every=4)
    deltas = _deltas(11, seed=5)
    for delta in deltas:
        handle.commit(delta)

    # prune drops old versions from memory; compaction then advances the
    # checkpoint to the oldest *retained* version, not the newest.
    pruned = handle.prune(keep_last=2)
    assert isinstance(pruned, PruneResult)
    assert pruned == 10  # the int-compatible count (pre-existing callers)
    assert pruned.indices == tuple(range(10))
    handle._wal.compact()

    remaining = sorted((tmp_path / "wal").glob("wal-*.log"))
    assert remaining, "compaction must never delete the live tail"
    first_kept = int(remaining[0].stem.split("-")[1])
    assert first_kept > 1, "compaction should drop fully-snapshotted segments"

    vs2 = ViewServer()
    vs2.register_view("t", tau1)
    restored = recover_source(vs2, tmp_path / "wal", name="db")
    assert restored.version == 11
    assert vs2.publish("t", source=restored, output="bytes") == _oracle_bytes(
        tau1, deltas, False
    )


def test_recover_empty_directory_returns_none(tmp_path):
    assert DeltaLog(tmp_path / "nothing").recover() is None
    with pytest.raises(WalError):
        recover_source(ViewServer(), tmp_path / "nothing")


def test_prune_result_semantics():
    result = PruneResult((3, 4, 5))
    assert result == 3  # legacy: compares as the count
    assert result != 2
    assert int(result) == 3
    assert result.count == 3
    assert result.indices == (3, 4, 5)
    assert list(result) == [3, 4, 5]
    empty = PruneResult()
    assert empty == 0
    assert empty.indices == ()


def test_prune_returns_dropped_indices(tau1):
    vs = ViewServer()
    handle = vs.attach(generate_registrar_instance(8, seed=1), name="db")
    for delta in _deltas(4):
        handle.commit(delta)
    result = handle.prune(keep_last=2)
    assert result == 3
    assert result.indices == (0, 1, 2)
    assert [version.index for version in handle.history()] == [3, 4]


# -- fsync and failed appends ------------------------------------------------


def test_fsync_counters_for_serial_commits(tmp_path, tau1, monkeypatch):
    import threading

    import repro.serve.net.wal as wal_module

    vs = ViewServer()
    vs.register_view("t", tau1)
    log = DeltaLog(tmp_path / "wal", fsync=True)
    handle = attach_durable(vs, generate_registrar_instance(10, seed=4), log)
    real_fsync = os.fsync
    threads = []

    def recording_fsync(fd):
        threads.append(threading.get_ident())
        real_fsync(fd)

    monkeypatch.setattr(wal_module.os, "fsync", recording_fsync)
    for delta in _deltas(3):
        handle.commit(delta)
    # every record pays its own fsync, on the thread that commits it
    assert log.stats() == {"fsyncs": 3}
    assert threads == [threading.get_ident()] * 3

    vs2 = ViewServer()
    vs2.register_view("t", tau1)
    restored = recover_source(vs2, tmp_path / "wal", name="db")
    assert restored.version == 3
    assert vs2.publish("t", source=restored, output="bytes") == vs.publish(
        "t", source=handle, output="bytes"
    )
    log.close()


def test_failed_fsync_leaves_the_log_unchanged(tmp_path, tau1, monkeypatch):
    import repro.serve.net.wal as wal_module

    vs = ViewServer()
    vs.register_view("t", tau1)
    log = DeltaLog(tmp_path / "wal", fsync=True)
    handle = attach_durable(vs, generate_registrar_instance(10, seed=4), log)
    deltas = _deltas(3)
    handle.commit(deltas[0])
    history = [version.index for version in handle.history()]

    real_fsync = os.fsync
    failures = [OSError("disk on fire")]

    def flaky_fsync(fd):
        if failures:
            raise failures.pop()
        real_fsync(fd)

    monkeypatch.setattr(wal_module.os, "fsync", flaky_fsync)
    with pytest.raises(OSError, match="disk on fire"):
        handle.commit(deltas[1])
    assert handle.version == 1
    assert [version.index for version in handle.history()] == history
    # the aborted version number is free again, and the chain continues
    assert handle.commit(deltas[1]).index == 2
    assert handle.commit(deltas[2]).index == 3

    vs2 = ViewServer()
    vs2.register_view("t", tau1)
    restored = recover_source(vs2, tmp_path / "wal", name="db")
    assert restored.version == 3
    assert vs2.publish("t", source=restored, output="bytes") == vs.publish(
        "t", source=handle, output="bytes"
    )
    assert log.stats() == {"fsyncs": 3}
    log.close()


def test_failed_write_truncates_the_partial_record(tmp_path):
    log = DeltaLog(tmp_path / "wal")
    log.begin(0, generate_registrar_instance(4, seed=1))
    deltas = _deltas(2, seed=3)
    log.append(1, deltas[0])
    [(_, segment)] = log.segments()
    before = segment.read_bytes()

    class HalfWriter:
        """Writes half of the record, then fails like a full disk."""

        def __init__(self, file):
            self.file = file

        def write(self, data):
            self.file.write(data[: len(data) // 2])
            raise OSError("no space left")

        def tell(self):
            return self.file.tell()

        def fileno(self):
            return self.file.fileno()

    real = log._file
    log._file = HalfWriter(real)
    with pytest.raises(OSError, match="no space left"):
        log.append(2, deltas[1])
    log._file = real
    assert segment.read_bytes() == before
    assert log.last_version == 1
    log.append(2, deltas[1])
    log.close()
    state = DeltaLog(tmp_path / "wal").recover()
    assert [version for version, _ in state.deltas] == [1, 2]
    assert not state.torn


def test_fsync_failure_propagates_to_the_committer(tmp_path, monkeypatch):
    import repro.serve.net.wal as wal_module

    log = DeltaLog(tmp_path / "wal", fsync=False)
    log.begin(0, generate_registrar_instance(4, seed=1))
    log.fsync = True

    def failing_fsync(fd):
        raise OSError("disk on fire")

    monkeypatch.setattr(wal_module.os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="disk on fire"):
        log.append(1, _deltas(1)[0])
    log.close()
