"""The network tier end to end: serve, subscribe, crash, recover.

A :class:`~repro.serve.net.app.NetServerThread` is stood up on a loopback
port with a write-ahead log directory, and a :class:`~repro.serve.net.client.NetClient`
drives the whole HTTP surface:

* register the paper's ``tau1`` view and attach the registrar database as a
  *durable* source;
* publish over HTTP with ETags -- an unchanged document answers ``304 Not
  Modified`` before any evaluation work;
* subscribe over WebSocket: each commit pushes one wire-encoded
  :class:`~repro.xmltree.diff.EditScript`, which the client replays against
  its local copy of the document;
* stop the server ("crash"), start a fresh one over the same log directory,
  and verify the source resumes at the exact pre-crash version with a
  byte-identical document.

This doubles as the CI smoke test for the tier (CI runs every example).

Run with::

    python examples/serve_http.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.relational.delta import Delta
from repro.serve.net import NetClient, NetServerThread, edits_of
from repro.workloads.registrar import example_registrar_instance
from repro.xmltree.diff import tree_from_wire, trees_equal


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-wal-") as wal_dir:
        serve_and_recover(Path(wal_dir))


def serve_and_recover(wal_dir: Path) -> None:
    # -- first life: serve, publish, subscribe ---------------------------
    with NetServerThread("127.0.0.1", 0, wal_dir=wal_dir) as srv:
        host, port = srv.address
        print(f"serving on http://{host}:{port}  (wal: {wal_dir})")
        with NetClient(host, port, namespace="registrar") as client:
            client.register_view("tau1")
            client.attach(example_registrar_instance(), name="db", durable=True)

            first = client.publish("tau1", source="db")
            print(f"GET publish -> {first.status}, version {first.version}, "
                  f"etag {first.etag}, {len(first.document)} bytes")

            cached = client.publish("tau1", source="db", etag=first.etag)
            print(f"GET publish (If-None-Match) -> {cached.status} Not Modified")
            assert cached.not_modified

            with client.subscribe("tau1", source="db") as subscription:
                init = subscription.recv()
                document = tree_from_wire(init["document"])
                print(f"WS subscribe -> init at version {init['version']}")

                commits = [
                    Delta.insert("course", ("CS999", "Research Topics", "CS")),
                    Delta.insert("prereq", ("CS999", "CS240")),
                ]
                for delta in commits:
                    out = client.commit("db", delta)
                    message = subscription.recv()
                    document = edits_of(message).apply(document)
                    print(f"commit -> version {out['version']}, "
                          f"{len(message['edits']['edits'])} edit(s) pushed to "
                          f"{out['delivered']} subscriber(s)")

            final = client.publish("tau1", source="db")
            assert final.version == 2
            # the client's edit-replayed document tracks the server's
            with client.subscribe("tau1", source="db") as check:
                assert trees_equal(document, tree_from_wire(check.recv()["document"]))
            print("edit-replayed client document matches the served document")

    # -- second life: recover from the write-ahead log -------------------
    print("\nserver stopped; starting a fresh one over the same log ...")
    with NetServerThread("127.0.0.1", 0, wal_dir=wal_dir) as srv:
        with NetClient(*srv.address, namespace="registrar") as client:
            client.register_view("tau1")  # views are code; sources are replayed

            sources = client.sources()
            print(f"recovered sources: {[s['name'] for s in sources]}")
            replayed = client.publish("tau1", source="db")
            print(f"GET publish -> {replayed.status}, version {replayed.version}")
            assert replayed.version == final.version
            assert replayed.document == final.document
            print("recovered document is byte-identical at the pre-crash version")

            out = client.commit("db", Delta.insert("course", ("CS1000", "Beyond", "CS")))
            assert out["version"] == 3
            print(f"and the recovered source keeps going: version {out['version']}")


if __name__ == "__main__":
    main()
