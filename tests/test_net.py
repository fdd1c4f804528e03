"""The asyncio network tier: HTTP round trips, ETags, subscriptions, replay.

Everything runs against a real :class:`NetServerThread` on a loopback port
-- no mocked transports -- so the tests cover the protocol layer, the
routing and the ViewServer integration together.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.relational.delta import Delta
from repro.serve import ViewServer
from repro.serve.net import NetClient, NetClientError, NetServerThread, edits_of
from repro.workloads.registrar import example_registrar_instance
from repro.xmltree.diff import tree_from_wire, trees_equal


@pytest.fixture()
def server():
    with NetServerThread("127.0.0.1", 0) as srv:
        yield srv


@pytest.fixture()
def client(server):
    return NetClient(*server.address, namespace="test")


def _setup(client):
    client.register_view("tau1")
    client.attach(example_registrar_instance(), name="db")


def test_health_and_unknown_routes(server):
    client = NetClient(*server.address)
    assert client.healthz()["ok"] is True
    with pytest.raises(NetClientError) as caught:
        client._json("GET", "/no/such/route")
    assert caught.value.status == 404
    status, _, _ = client.request("PUT", "/healthz")
    assert status == 405


def test_register_attach_commit_publish_round_trip(client):
    _setup(client)
    assert [view["name"] for view in client.views()] == ["tau1"]
    assert [source["name"] for source in client.sources()] == ["db"]

    first = client.publish("tau1", source="db")
    assert first.status == 200
    assert first.version == 0
    assert first.document.startswith("<db>")

    out = client.commit("db", Delta.insert("course", ("CS999", "Capstone", "CS")))
    assert out["version"] == 1
    second = client.publish("tau1", source="db")
    assert second.version == 1
    assert "CS999" in second.document

    # the HTTP bytes equal an in-process oracle over the same story
    vs = ViewServer()
    from repro.serve.net.app import default_catalog

    vs.register_view("tau1", default_catalog()["tau1"]())
    handle = vs.attach(example_registrar_instance(), name="db")
    handle.commit(Delta.insert("course", ("CS999", "Capstone", "CS")))
    assert second.document == vs.publish("tau1", source=handle, output="bytes")


def test_etag_304_and_invalidation(client):
    _setup(client)
    first = client.publish("tau1", source="db")
    assert first.etag

    cached = client.publish("tau1", source="db", etag=first.etag)
    assert cached.not_modified
    assert cached.document is None

    client.commit("db", Delta.insert("course", ("CS888", "More", "CS")))
    fresh = client.publish("tau1", source="db", etag=first.etag)
    assert fresh.status == 200
    assert fresh.etag != first.etag


def test_response_body_cache_serves_repeat_publishes(client):
    # A client that does not revalidate still gets cache-warm 200s: the
    # encoded body is reused from the ETag-keyed LRU, and a commit (new
    # ETag) goes back to evaluation.
    _setup(client)
    first = client.publish("tau1", source="db")
    repeat = client.publish("tau1", source="db")
    assert repeat.status == 200
    assert repeat.document == first.document
    stats = client.stats()
    assert stats["net"]["response_cache_hits"] == 1
    assert stats["net"]["publishes"] == 1

    client.commit("db", Delta.insert("course", ("CS555", "Fresh", "CS")))
    fresh = client.publish("tau1", source="db")
    assert "CS555" in fresh.document
    stats = client.stats()
    assert stats["net"]["publishes"] == 2
    assert stats["net"]["response_cache_hits"] == 1


def test_etag_varies_with_output_axes(client):
    _setup(client)
    pretty = client.publish("tau1", source="db", indent=2)
    compact = client.publish("tau1", source="db", output="compact", indent=None)
    assert pretty.etag != compact.etag
    assert compact.document == client.publish(
        "tau1", source="db", output="compact", indent=None, etag=pretty.etag
    ).document


def test_publish_pinned_version_snapshot_isolation(client):
    _setup(client)
    v0 = client.publish("tau1", source="db", version=0)
    client.commit("db", Delta.insert("course", ("CS777", "New", "CS")))
    pinned = client.publish("tau1", source="db", version=0)
    assert pinned.document == v0.document
    assert "CS777" not in pinned.document


def test_subscription_replays_to_publish_oracle(client):
    _setup(client)
    with client.subscribe("tau1", source="db") as sub:
        init = sub.recv()
        assert init["type"] == "init"
        tree = tree_from_wire(init["document"])

        commits = [
            Delta.insert("course", ("CS901", "A", "CS")),
            Delta.insert("prereq", ("CS901", "CS240")),
            Delta.delete("course", ("CS901", "A", "CS")),
        ]
        for index, delta in enumerate(commits, start=1):
            client.commit("db", delta)
            message = sub.recv()
            assert message["type"] == "edits"
            assert message["version"] == index
            tree = edits_of(message).apply(tree)

        # the locally-maintained tree equals a fresh server-side document
        with client.subscribe("tau1", source="db") as check:
            fresh = tree_from_wire(check.recv()["document"])
        assert trees_equal(tree, fresh)


def test_two_subscribers_get_identical_payloads(client):
    _setup(client)
    with client.subscribe("tau1", source="db") as a, client.subscribe(
        "tau1", source="db"
    ) as b:
        a.recv(), b.recv()
        out = client.commit("db", Delta.insert("course", ("CS902", "B", "CS")))
        assert out["delivered"] == 2
        assert a.recv() == b.recv()


def test_two_group_delivery_matches_oracle(client):
    client.register_view("tau1")
    client.register_view("tau2")
    client.attach(example_registrar_instance(), name="db")
    with client.subscribe("tau1", source="db") as one, client.subscribe(
        "tau2", source="db"
    ) as two, client.subscribe("tau1", source="db") as echo:
        tree_one = tree_from_wire(one.recv()["document"])
        tree_two = tree_from_wire(two.recv()["document"])
        echo.recv()
        commits = [
            Delta.insert("course", ("CS901", "A", "CS")),
            Delta.insert("prereq", ("CS901", "CS240")),
            Delta.delete("prereq", ("CS901", "CS240")),
        ]
        for version, delta in enumerate(commits, start=1):
            out = client.commit("db", delta)
            assert out["delivered"] == 3
            message = one.recv()
            # Same-group subscribers share one encoded frame.
            assert echo.recv() == message
            assert message["version"] == version
            tree_one = edits_of(message).apply(tree_one)
            tree_two = edits_of(two.recv()).apply(tree_two)
        for view, tree in (("tau1", tree_one), ("tau2", tree_two)):
            with client.subscribe(view, source="db") as check:
                fresh = tree_from_wire(check.recv()["document"])
            assert trees_equal(tree, fresh)


def test_namespaces_are_isolated(server):
    east = NetClient(*server.address, namespace="east")
    west = NetClient(*server.address, namespace="west")
    _setup(east)
    west.register_view("tau1")
    west.attach(example_registrar_instance(), name="db")

    east.commit("db", Delta.insert("course", ("CS903", "EastOnly", "CS")))
    assert "CS903" in east.publish("tau1", source="db").document
    assert "CS903" not in west.publish("tau1", source="db").document
    # and a namespace nobody wrote to does not exist
    nobody = NetClient(*server.address, namespace="nowhere")
    with pytest.raises(NetClientError) as caught:
        nobody.views()
    assert caught.value.status == 404


def test_error_statuses(client):
    with pytest.raises(NetClientError) as caught:
        client.publish("ghost", source="db")
    assert caught.value.status in (400, 404)
    _setup(client)
    status, _, _ = client.request(
        "POST", client._ns("sources/db/commit"), {"format": 0}
    )
    assert status == 400
    with pytest.raises(NetClientError) as caught:
        client.register_view("not-in-catalog")
    assert caught.value.status in (400, 404)


def test_stats_and_explain(client):
    _setup(client)
    client.publish("tau1", source="db")
    stats = client.stats()
    assert stats["namespace"] == "test"
    assert stats["net"]["publishes"] >= 1
    explain = client.explain("tau1")
    assert explain["view"] == "tau1"


def test_prune_over_http(client):
    _setup(client)
    for step in range(3):
        client.commit("db", Delta.insert("course", (f"CS91{step}", "T", "CS")))
    result = client.prune("db", keep_last=1)
    assert result["count"] == 3
    assert result["indices"] == [0, 1, 2]


def test_restart_replays_from_wal(tmp_path):
    wal_dir = tmp_path / "wal"
    with NetServerThread("127.0.0.1", 0, wal_dir=wal_dir) as srv:
        client = NetClient(*srv.address, namespace="prod")
        client.register_view("tau1")
        client.attach(example_registrar_instance(), name="db", durable=True)
        client.commit("db", Delta.insert("course", ("CS904", "Durable", "CS")))
        client.commit("db", Delta.insert("prereq", ("CS904", "CS240")))
        before = client.publish("tau1", source="db")
        assert before.version == 2

    with NetServerThread("127.0.0.1", 0, wal_dir=wal_dir) as srv:
        client = NetClient(*srv.address, namespace="prod")
        client.register_view("tau1")  # views are re-registered, sources recovered
        assert [source["name"] for source in client.sources()] == ["db"]
        after = client.publish("tau1", source="db")
        assert after.version == 2
        assert after.document == before.document
        # and the recovered source keeps accepting commits
        out = client.commit("db", Delta.insert("course", ("CS905", "After", "CS")))
        assert out["version"] == 3


def test_subscribe_failure_answers_http_not_dead_socket(client):
    # opening a subscription runs a full publish; if that raises (here: the
    # node budget on a blow-up chain), the server must answer with an HTTP
    # error on the not-yet-upgraded socket and keep serving
    from repro.relational.instance import Instance
    from repro.workloads.registrar import REGISTRAR_SCHEMA

    n = 3000
    blowup = Instance(
        REGISTRAR_SCHEMA,
        {
            "course": [(f"c{i}", f"T{i}", "CS") for i in range(n)],
            "prereq": [(f"c{i}", f"c{i + 1}") for i in range(n - 1)],
        },
    )
    client.register_view("tau1")
    client.attach(blowup, name="chain")
    with pytest.raises(NetClientError) as caught:
        client.subscribe("tau1", source="chain").__enter__()
    assert caught.value.status == 500
    assert "node budget" in str(caught.value)
    assert client.healthz()["ok"] is True


def test_commit_schema_violation_is_a_client_error(client):
    _setup(client)
    with pytest.raises(NetClientError) as caught:
        client.commit("db", Delta.insert("course", ("only-two", "columns")))
    assert caught.value.status == 400
    assert client.healthz()["ok"] is True


def test_non_durable_attach_without_wal_dir(client):
    client.register_view("tau1")
    info = client.attach(example_registrar_instance(), name="db")
    assert info["durable"] is False
    with pytest.raises(NetClientError) as caught:
        client.attach(example_registrar_instance(), name="db2", durable=True)
    assert caught.value.status == 400


def test_client_reuses_one_keepalive_connection(client):
    _setup(client)
    client.publish("tau1", source="db")
    first = client._connection
    assert first is not None
    client.publish("tau1", source="db")
    client.stats()
    assert client._connection is first

    # a stale socket (server restart, idle close) is retried transparently
    # on a fresh connection -- the caller never sees the hiccup
    first.sock.close()
    fresh = client.publish("tau1", source="db")
    assert fresh.status == 200
    assert client._connection is not None
    assert client._connection is not first

    client.close()
    assert client._connection is None
    with client as managed:  # context manager: usable, then dropped
        assert managed.healthz()["ok"] is True
    assert client._connection is None


def test_slow_consumer_is_evicted_not_serviced_forever(server):
    # A subscriber that stops reading must not pin memory or stall commits:
    # it is evicted either when its send buffer passes max_buffered_bytes
    # within a burst, or when it stalls a whole drain window.
    server.server.max_buffered_bytes = 64 * 1024
    server.server.drain_timeout = 0.5
    client = NetClient(*server.address, namespace="slow")
    _setup(client)

    slow = client.subscribe("tau1", source="db")
    slow.recv()  # consume the init document, then never read again
    with client.subscribe("tau1", source="db") as live:
        live.recv()
        # each edit frame carries ~1MB of text: enough to blow past the
        # kernel's socket buffering and back up into the transport buffer
        big = "X" * 1_000_000
        evicted = 0
        for step in range(16):
            client.commit("db", Delta.insert("course", (f"CSBIG{step}", big, "CS")))
            live.recv()  # the healthy subscriber keeps the group flowing
            evicted = client.stats()["net"]["evicted"]
            if evicted:
                break
        assert evicted >= 1

        # the healthy subscriber still gets every subsequent push
        out = client.commit("db", Delta.insert("course", ("CSAFTER", "ok", "CS")))
        assert out["delivered"] == 1
        message = live.recv()
        assert message["type"] == "edits"
        assert message["version"] == out["version"]
    slow._socket.close()


def test_wal_damage_surfaces_through_startup_recovery(tmp_path):
    from repro.serve.net import WalError

    wal_dir = tmp_path / "wal"
    with NetServerThread("127.0.0.1", 0, wal_dir=wal_dir) as srv:
        client = NetClient(*srv.address, namespace="prod")
        client.register_view("tau1")
        client.attach(example_registrar_instance(), name="db", durable=True)
        for step in range(4):
            client.commit("db", Delta.insert("course", (f"CS93{step}", "T", "CS")))

    # flip one mid-log record: damage that is NOT a torn tail must refuse
    # to recover rather than silently truncate history
    segment = sorted((wal_dir / "prod" / "db").glob("wal-*.log"))[0]
    lines = segment.read_bytes().splitlines(keepends=True)
    lines[1] = b'00000000 {"corrupted": true}\n'
    segment.write_bytes(b"".join(lines))

    broken = NetServerThread("127.0.0.1", 0, wal_dir=wal_dir)
    with pytest.raises(WalError):
        broken.start()


# ---------------------------------------------------------------------------
# Output typechecking over the wire (the DTD travels as pure data).
# ---------------------------------------------------------------------------


def _wire_dtds():
    from repro.xmltree.dtd import DTD, Epsilon, alt, concat, opt, star, sym

    text = sym("text")
    permissive = DTD(
        "db",
        {
            "db": star(sym("course")),
            "course": alt(Epsilon(), concat(sym("cno"), sym("title"), sym("prereq"))),
            "prereq": star(sym("course")),
            "cno": opt(text),
            "title": opt(text),
        },
    )
    strict = DTD(
        "db",
        {
            "db": star(sym("course")),
            "course": concat(sym("cno"), sym("title")),
            "cno": opt(text),
            "title": opt(text),
        },
    )
    undecided = DTD(
        "db",
        {
            "db": star(sym("course")),
            "course": concat(sym("cno"), sym("title"), sym("title")),
            "cno": opt(text),
            "title": opt(text),
        },
    )
    return permissive, strict, undecided


def test_register_with_dtd_reports_the_verdict(client):
    permissive, _, _ = _wire_dtds()
    out = client.register_view("tau1", output_dtd=permissive)
    assert out["typecheck"] == {"mode": "static", "verdict": "proved"}
    client.attach(example_registrar_instance(), name="db")
    assert client.publish("tau1", source="db").status == 200


def test_refuted_registration_answers_422_with_replayable_witness(client):
    _, strict, _ = _wire_dtds()
    with pytest.raises(NetClientError) as caught:
        client.register_view("tau1", output_dtd=strict)
    assert caught.value.status == 422
    payload = caught.value.payload
    assert payload["typecheck"]["verdict"] == "refuted"
    assert payload["typecheck"]["violation"]["location"].startswith("/db/course[")

    # the witness decodes and replays the refutation client-side
    from repro.engine.plan import compile_plan
    from repro.relational.wire import instance_from_wire
    from repro.serve.net.app import default_catalog
    from repro.typecheck import find_violation

    witness = instance_from_wire(payload["witness"])
    tree = compile_plan(default_catalog()["tau1"]()).publish(witness)
    replayed = find_violation(tree, strict)
    assert replayed is not None
    assert replayed.location() == payload["typecheck"]["violation"]["location"]

    # the rejection did not squat on the name
    assert client.register_view("tau1")["name"] == "tau1"


def test_runtime_violation_answers_422_with_the_violation(client):
    _, _, undecided = _wire_dtds()
    out = client.register_view("tau3", output_dtd=undecided)
    assert out["typecheck"]["verdict"] == "undecided"
    client.attach(example_registrar_instance(), name="db")
    with pytest.raises(NetClientError) as caught:
        client.publish("tau3", source="db")
    assert caught.value.status == 422
    assert caught.value.payload["view"] == "tau3"
    assert caught.value.payload["violation"]["location"].startswith("/db/course[")


def test_malformed_wire_dtd_is_a_400(client):
    with pytest.raises(NetClientError) as caught:
        client.register_view("tau1", output_dtd={"root": "db", "rules": {"db": {"op": "??"}}})
    assert caught.value.status == 400
    with pytest.raises(NetClientError) as caught:
        client.register_view("tau1", output_dtd=_wire_dtds()[0], typecheck="sometimes")
    assert caught.value.status == 400


def test_wire_dtd_publish_matches_unchecked_bytes(client):
    permissive, _, _ = _wire_dtds()
    client.register_view("checked", view="tau1", output_dtd=permissive)
    client.register_view("plain", view="tau1")
    client.attach(example_registrar_instance(), name="db")
    checked = client.publish("checked", source="db")
    plain = client.publish("plain", source="db")
    assert checked.document == plain.document


@pytest.mark.parametrize("example", ["serve_cluster.py", "serve_http.py"])
def test_network_examples_shut_down_cleanly(example):
    """Under ``-X dev`` an unclosed socket or transport, or a task destroyed
    while pending, prints a warning to stderr: the network examples -- a
    router over two shard workers, and a server stopped and restarted over
    its log -- must exit without any."""
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-X", "dev", str(root / "examples" / example)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr
    assert "Task was destroyed" not in done.stderr
