"""The multi-core tier: repro.parallel and the pool seams of the server.

The contract under test is one sentence long: **pooled output is
byte-identical to serial output, always** -- on every backend x maintenance
x output combination, for batched serving
(:meth:`ViewServer.publish_batch`) and the network tier's sharded
subscriber fan-out -- and every pool failure (worker crash, unpicklable
artefact, dead fleet) degrades to the serial path rather than to an error
or to different bytes.  Alongside that: snapshot isolation under
commit-during-publish, exception transparency across the process boundary,
and torn-counter-free cache stats under concurrent ``publish()``.
"""

from __future__ import annotations

import itertools
import threading

import pytest

from repro.engine.plan import compile_plan
from repro.parallel import (
    NotShippable,
    PoolBroken,
    WorkerCrashed,
    WorkerPool,
)
from repro.relational.columnar import encoded_twin
from repro.relational.delta import Delta
from repro.serve import ViewServer
from repro.workloads.blowup import (
    binary_counter_instance,
    binary_counter_transducer,
    chain_of_diamonds_instance,
    chain_of_diamonds_transducer,
)
from repro.workloads.registrar import (
    example_registrar_instance,
    registrar_view_suite,
    tau1_prerequisite_hierarchy,
    tau2_prerequisite_closure,
)
from repro.xmltree.diff import trees_equal


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(workers=2) as shared:
        yield shared


class TestPoolBasics:
    def test_ping_round_trip_and_sharding(self, pool):
        assert pool.submit("ping", "hello").result() == "hello"
        # Equal keys land on one worker; the mapping is stable across calls.
        first = pool._worker_for(("view", "binding"))
        assert all(
            pool._worker_for(("view", "binding")) is first for _ in range(8)
        )

    def test_install_is_idempotent_per_object(self, pool):
        plan = compile_plan(tau1_prerequisite_hierarchy())
        assert pool.install(plan) == pool.install(plan)

    def test_unpicklable_object_raises_not_shippable(self, pool):
        with pytest.raises(NotShippable):
            pool.install(lambda row: row)

    def test_worker_task_error_carries_traceback(self, pool):
        from repro.parallel.pool import WorkerTaskError

        future = pool.submit("publish_bytes", 10**9, 10**9)  # unknown tokens
        with pytest.raises((KeyError, WorkerTaskError)):
            future.result()

    def test_closed_pool_is_broken(self):
        small = WorkerPool(workers=1)
        small.close()
        assert small.broken
        with pytest.raises(PoolBroken):
            small.submit("ping", 1)


class TestPublishBatch:
    """Part (b): concurrent ``publish()`` calls behind ``ViewServer(pool=)``."""

    def _servers(self, pool):
        serial, pooled = ViewServer(), ViewServer(pool=pool)
        handles = []
        for server in (serial, pooled):
            for name, (factory, params) in registrar_view_suite().items():
                server.register_view(name, factory, params=params)
            server.register_view("diamonds", chain_of_diamonds_transducer())
            server.register_view("counter", binary_counter_transducer())
            handles.append(
                {
                    "reg": server.attach(example_registrar_instance(), name="reg"),
                    "dia": server.attach(
                        chain_of_diamonds_instance(5), name="dia"
                    ),
                    "cnt": server.attach(
                        binary_counter_instance(2), name="cnt", encoded=True
                    ),
                }
            )
        return serial, pooled, handles[0], handles[1]

    @staticmethod
    def _requests(handles):
        axes = itertools.product(
            ("bytes", "compact", "xml"),
            ("auto", "row", "columnar"),
            ("auto", "full", "incremental"),
        )
        requests = []
        for output, backend, maintenance in axes:
            requests.append(
                dict(
                    view="hierarchy",
                    params={"department": "CS"},
                    source=handles["reg"],
                    output=output,
                    backend=backend,
                    maintenance=maintenance,
                )
            )
        requests.append(dict(view="diamonds", source=handles["dia"], output="bytes"))
        requests.append(
            dict(view="counter", source=handles["cnt"], output="bytes",
                 backend="columnar")
        )
        requests.append(dict(view="counter", source=handles["cnt"], output="tree"))
        return requests

    def test_byte_identity_across_all_axes(self, pool):
        serial, pooled, serial_handles, pooled_handles = self._servers(pool)
        expected = [serial.publish(**r) for r in self._requests(serial_handles)]
        got = pooled.publish_batch(self._requests(pooled_handles))
        assert len(got) == len(expected)
        for want, have in zip(expected, got):
            if isinstance(want, str):
                assert have == want
            else:
                assert trees_equal(want, have)

    def test_byte_identity_after_commits(self, pool):
        serial, pooled, serial_handles, pooled_handles = self._servers(pool)
        delta = Delta.insert("course", ("CS901", "A", "CS"))
        serial_handles["reg"].commit(delta)
        pooled_handles["reg"].commit(delta)
        requests = [
            dict(view="hierarchy", params={"department": "CS"},
                 source=handles["reg"], output="bytes")
            for handles in (serial_handles, pooled_handles)
        ]
        assert pooled.publish_batch([requests[1]]) == [serial.publish(**requests[0])]

    def test_snapshot_isolation_of_pinned_batch(self, pool):
        _, pooled, _, handles = self._servers(pool)
        request = dict(
            view="hierarchy", params={"department": "CS"},
            source=handles["reg"], version=0, output="bytes",
        )
        before = pooled.publish(**request)
        handles["reg"].commit(Delta.insert("course", ("CS950", "New", "CS")))
        # A pinned reader is unaffected by the later commit -- including
        # when the publish runs on a worker that got the snapshot shipped.
        assert pooled.publish_batch([request]) == [before]

    def test_commit_racing_a_pinned_batch(self, pool):
        _, pooled, _, handles = self._servers(pool)
        request = dict(
            view="hierarchy", params={"department": "CS"},
            source=handles["reg"], version=0, output="bytes",
        )
        before = pooled.publish(**request)
        stop = threading.Event()

        def churn():
            index = 0
            while not stop.is_set():
                handles["reg"].commit(
                    Delta.insert("course", (f"CS9{index:02d}", "Racing", "CS"))
                )
                index += 1

        committer = threading.Thread(target=churn)
        committer.start()
        try:
            for _ in range(5):
                assert pooled.publish_batch([request] * 4) == [before] * 4
        finally:
            stop.set()
            committer.join()

    def test_pool_stats_surface_in_server_stats_and_explain(self, pool):
        _, pooled, _, handles = self._servers(pool)
        pooled.publish_batch(
            [
                dict(view="hierarchy", params={"department": "CS"},
                     source=handles["reg"], output="bytes"),
                dict(view="diamonds", source=handles["dia"], output="bytes"),
            ]
        )
        stats = pooled.stats()
        assert stats.pool is not None
        assert stats.pool["workers"] == 2
        assert stats.pool["tasks_dispatched"] > 0
        assert "pool:" in stats.describe()
        as_dict = stats.as_dict()
        assert as_dict["pool"]["workers"] == 2
        report = pooled.explain("hierarchy", params={"department": "CS"})
        assert report.pool is not None and "pool:" in report.describe()
        serial = ViewServer()
        serial.register_view("tau1", tau1_prerequisite_hierarchy())
        assert serial.stats().pool is None

    def test_serial_server_has_no_pool(self):
        server = ViewServer()
        assert server.pool is None
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        server.attach(example_registrar_instance())
        # publish_batch without a pool is exactly a serial loop.
        serial = server.publish("tau1", output="bytes")
        assert server.publish_batch([dict(view="tau1", output="bytes")]) == [serial]


class TestDegradation:
    """Crashes and unshippable work fall back to serial, never to errors."""

    def test_worker_crash_mid_batch_falls_back(self):
        with WorkerPool(workers=2) as crashy:
            server = ViewServer(pool=crashy)
            server.register_view("tau1", tau1_prerequisite_hierarchy())
            handle = server.attach(example_registrar_instance())
            oracle = server.publish("tau1", source=handle, output="bytes")
            crashy.submit("ping", 1).result()  # spin the fleet up
            for worker in crashy._workers:
                worker.process.terminate()
                worker.process.join(timeout=5)
            # Dead workers fail the futures; publish_batch re-runs serially.
            out = server.publish_batch(
                [dict(view="tau1", source=handle, output="bytes")] * 3
            )
            assert out == [oracle] * 3
            assert crashy.broken

    def test_crashed_future_raises_worker_crashed(self, monkeypatch):
        import multiprocessing
        import os

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the test handler reaches the worker by fork inheritance")
        from repro.parallel import tasks

        # Registered before the pool forks, so the worker inherits it and
        # the pipe.  It never answers until a byte arrives, so the future
        # can only end by the worker's death -- no race against a fast
        # reply.  (A multiprocessing.Event would not do: its set() waits for
        # every sleeper to acknowledge, and the killed worker never does.)
        release, tell = os.pipe()
        monkeypatch.setitem(tasks.HANDLERS, "block", lambda registry: os.read(release, 1))
        try:
            with WorkerPool(workers=1, start_method="fork") as crashy:
                future = crashy.submit("block")
                worker = crashy._workers[0]
                worker.process.terminate()
                worker.process.join(timeout=5)
                with pytest.raises((WorkerCrashed, PoolBroken)):
                    future.result(timeout=10)
        finally:
            os.write(tell, b"x")
            os.close(tell)
            os.close(release)


class TestConcurrentServing:
    """Satellite: no torn cache counters under concurrent ``publish()``."""

    def test_concurrent_publish_is_consistent(self):
        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        server.register_view("tau2", tau2_prerequisite_closure("CS"))
        handle = server.attach(example_registrar_instance())
        oracles = {
            name: server.publish(name, source=handle, output="bytes")
            for name in ("tau1", "tau2")
        }
        errors: list[BaseException] = []

        def hammer(name):
            try:
                for _ in range(20):
                    assert (
                        server.publish(name, source=handle, output="bytes")
                        == oracles[name]
                    )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(name,))
            for name in ("tau1", "tau2", "tau1", "tau2")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for view in server.stats().views:
            cache = view.cache
            # Counters moved under a lock: totals must be coherent (no torn
            # half-updates showing e.g. negative or impossible values).
            assert cache["hits"] >= 0 and cache["misses"] >= 0
            assert cache["rendered_hits"] + cache["rendered_misses"] > 0
            assert 0.0 <= cache["hit_rate"] <= 1.0


class TestShardedFanOut:
    """Part (c): per-commit subscriber delivery sharded across the pool."""

    def test_pooled_delivery_matches_oracle(self, pool):
        from repro.serve.net import NetClient, NetServerThread, edits_of
        from repro.xmltree.diff import tree_from_wire

        with NetServerThread("127.0.0.1", 0, pool=pool) as srv:
            client = NetClient(*srv.address, namespace="test")
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
                with client.subscribe("tau1", source="db") as check:
                    fresh = tree_from_wire(check.recv()["document"])
                assert trees_equal(tree_one, fresh)
            stats = client.stats()
            # Two groups with pending events per commit -> sharded encoding.
            assert stats["net"]["sharded_groups"] == 2 * len(commits)

    def test_single_group_encodes_inline(self, pool):
        from repro.serve.net import NetClient, NetServerThread

        with NetServerThread("127.0.0.1", 0, pool=pool) as srv:
            client = NetClient(*srv.address, namespace="test")
            client.register_view("tau1")
            client.attach(example_registrar_instance(), name="db")
            with client.subscribe("tau1", source="db") as sub:
                sub.recv()
                client.commit("db", Delta.insert("course", ("CS903", "C", "CS")))
                assert sub.recv()["type"] == "edits"
            # One group's encode is not worth a process round trip.
            assert client.stats()["net"]["sharded_groups"] == 0


class TestPlanPickling:
    """The process boundary: what ships, and what deliberately does not."""

    def test_plan_ships_without_caches(self):
        import pickle

        tau = tau2_prerequisite_closure("CS")
        instance = example_registrar_instance()
        plan = compile_plan(tau)
        warm = plan.publish_bytes(instance)
        clone = pickle.loads(pickle.dumps(plan))
        stats = clone.cache_stats.as_dict()
        assert stats["hits"] == stats["misses"] == stats["instances"] == 0
        assert clone.publish_bytes(instance) == warm

    def test_encoded_instance_round_trips(self):
        import pickle

        instance = encoded_twin(binary_counter_instance(2))
        clone = pickle.loads(pickle.dumps(instance))
        tau = binary_counter_transducer()
        assert compile_plan(tau).publish_bytes(clone) == compile_plan(
            tau
        ).publish_bytes(instance)

    def test_encoder_ships_decode_table_not_caches(self):
        import pickle

        from repro.relational.columnar import encoding_of

        instance = encoded_twin(example_registrar_instance())
        tau = tau1_prerequisite_hierarchy()
        compile_plan(tau).publish_bytes(instance)  # warm the encoder caches
        encoder = encoding_of(instance)
        assert encoder._value_fragments  # warm on this side...
        clone = pickle.loads(pickle.dumps(encoder))
        # ...but only the decode table crossed; the id map is rebuilt.
        assert clone.values == encoder.values
        assert clone._ids == encoder._ids
        assert not clone._value_fragments and not clone._row_cache
