"""The serving layer: ViewServer, versioned sources, subscriptions, params.

The contract under test is the acceptance bar of the API redesign:

* ``server.publish`` output is byte-identical to a fresh plan's serialised
  tree on tau1-tau3 and both blow-up workloads for every (backend,
  maintenance) combination, before and after commits;
* snapshot isolation: a reader pinned to version ``N`` is unaffected by
  commit ``N + 1``;
* subscription edit scripts replay to the full-publish oracle;
* parameterized views bind exactly like manually-substituted constants;
* the engine's core drivers emit no deprecation warnings.
"""

from __future__ import annotations

import itertools
import random
import threading

import pytest

from repro.engine.builder import TransducerBuilder
from repro.engine.plan import compile_plan
from repro.languages.common import element
from repro.languages.forxml import ForXmlView
from repro.languages.registry import compile_frontend, frontend_language
from repro.logic.cq import ConjunctiveQuery, RelationAtom, equality
from repro.logic.terms import Constant, Variable
from repro.relational.columnar import encoding_of
from repro.relational.delta import Delta
from repro.relational.instance import Instance
from repro.serve import (
    BACKENDS,
    MAINTENANCE,
    ServeError,
    SourceHandle,
    SourceVersion,
    ViewServer,
    serialize_tree,
)
from repro.workloads.blowup import (
    binary_counter_instance,
    binary_counter_transducer,
    chain_of_diamonds_instance,
    chain_of_diamonds_transducer,
)
from repro.workloads.registrar import (
    REGISTRAR_SCHEMA,
    example_registrar_instance,
    registrar_view_suite,
    tau1_prerequisite_hierarchy,
    tau2_prerequisite_closure,
    tau3_courses_without_db_prereq,
)
from repro.xmltree.diff import trees_equal
from repro.xmltree.events import events_to_tree
from repro.xmltree.serialize import to_compact_xml, to_xml
from repro.xmltree.tree import TreeNode


def oracle_xml(transducer, instance: Instance) -> str:
    """The legacy-path document: a fresh compiled plan, serialised tree."""
    return serialize_tree(compile_plan(transducer).publish(instance))


ALL_COMBOS = tuple(itertools.product(BACKENDS, MAINTENANCE))


# ---------------------------------------------------------------------------
# Byte identity with the legacy path, across every routing combination.
# ---------------------------------------------------------------------------


class TestByteIdentity:
    @pytest.mark.parametrize("backend,maintenance", ALL_COMBOS)
    def test_registrar_views_all_combos(self, backend, maintenance):
        views = {
            "tau1": tau1_prerequisite_hierarchy(),
            "tau2": tau2_prerequisite_closure(),
            "tau3": tau3_courses_without_db_prereq(),
        }
        server = ViewServer()
        for name, tau in views.items():
            server.register_view(name, tau)
        handle = server.attach(example_registrar_instance())
        deltas = [
            Delta.insert("course", ("cs500", "Compilers", "CS")),
            Delta(
                inserted={"prereq": [("cs500", "cs340"), ("cs500", "cs450")]},
                deleted={"prereq": [("cs240", "cs101")]},
            ),
            Delta.delete("course", ("cs450", "Databases", "CS")),
        ]
        for name, tau in views.items():
            xml = server.publish(
                name, output="bytes", backend=backend, maintenance=maintenance
            )
            assert xml == oracle_xml(tau, handle.instance)
        for delta in deltas:
            handle.commit(delta)
            for name, tau in views.items():
                xml = server.publish(
                    name, output="bytes", backend=backend, maintenance=maintenance
                )
                assert xml == oracle_xml(tau, handle.instance)

    @pytest.mark.parametrize("backend,maintenance", ALL_COMBOS)
    def test_blowup_workloads_all_combos(self, backend, maintenance):
        server = ViewServer()
        server.register_view("diamonds", chain_of_diamonds_transducer())
        server.register_view("counter", binary_counter_transducer())
        diamonds = server.attach(chain_of_diamonds_instance(4), name="diamonds")
        counter = server.attach(binary_counter_instance(2), name="counter")

        xml = server.publish(
            "diamonds",
            source=diamonds,
            output="bytes",
            backend=backend,
            maintenance=maintenance,
        )
        assert xml == oracle_xml(chain_of_diamonds_transducer(), diamonds.instance)
        diamonds.commit(Delta.delete("R", ("b3_2", "a4")))
        xml = server.publish(
            "diamonds",
            source=diamonds,
            output="bytes",
            backend=backend,
            maintenance=maintenance,
        )
        assert xml == oracle_xml(chain_of_diamonds_transducer(), diamonds.instance)

        xml = server.publish(
            "counter",
            source=counter,
            output="bytes",
            backend=backend,
            maintenance=maintenance,
        )
        assert xml == oracle_xml(binary_counter_transducer(), counter.instance)

    def test_encoded_source_all_combos(self):
        tau = tau1_prerequisite_hierarchy()
        server = ViewServer()
        server.register_view("tau1", tau)
        handle = server.attach(example_registrar_instance(), encoded=True)
        assert encoding_of(handle.instance) is not None
        handle.commit(Delta.insert("prereq", ("cs452", "cs240")))
        for backend, maintenance in ALL_COMBOS:
            xml = server.publish(
                "tau1", output="bytes", backend=backend, maintenance=maintenance
            )
            assert xml == oracle_xml(tau, handle.instance.without_encoding())

    def test_output_forms_agree(self):
        tau = tau2_prerequisite_closure()
        server = ViewServer()
        server.register_view("tau2", tau)
        server.attach(example_registrar_instance())
        tree = server.publish("tau2")
        assert isinstance(tree, TreeNode)
        events = server.publish("tau2", output="events")
        assert trees_equal(events_to_tree(events), tree)
        assert server.publish("tau2", output="bytes") == to_xml(tree)
        assert server.publish("tau2", output="bytes", indent=None) == serialize_tree(
            tree, indent=None
        )
        assert server.publish("tau2", output="compact") == to_compact_xml(tree)
        chunks: list[str] = []
        assert server.publish("tau2", output="bytes", write=chunks.append) == ""
        assert "".join(chunks) == to_xml(tree)


# ---------------------------------------------------------------------------
# MVCC snapshots.
# ---------------------------------------------------------------------------


class TestSnapshotIsolation:
    def test_events_output_stays_lazy_under_auto_maintenance(self):
        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        server.attach(example_registrar_instance())
        events = server.publish("tau1", output="events")
        # No maintained chain was seeded just to answer a streaming request;
        # the events come straight from the lazy engine driver.  The same
        # holds for the serialised forms (bytes/compact stream through the
        # incremental serializer instead of materialising a tree).
        assert server._maintained == {}
        assert events_to_tree(events).label == "db"
        server.publish("tau1", output="bytes")
        server.publish("tau1", output="compact")
        assert server._maintained == {}
        server.publish("tau1")  # a tree request does seed the chain
        assert len(server._maintained) == 1

    def test_maintained_chains_are_lru_capped(self):
        server = ViewServer(maintained_views=2)
        server.register_view(
            "hierarchy", tau1_prerequisite_hierarchy, params=("department",)
        )
        server.attach(example_registrar_instance())
        for department in ("CS", "Math", "Physics", "EE"):
            server.publish(
                "hierarchy",
                params={"department": department},
                maintenance="incremental",
            )
        assert len(server._maintained) == 2

    def test_reader_on_old_version_is_unaffected_by_commits(self):
        tau = tau1_prerequisite_hierarchy()
        server = ViewServer()
        server.register_view("tau1", tau)
        handle = server.attach(example_registrar_instance())
        snapshot = handle.snapshot()
        frozen = server.publish("tau1", source=snapshot, output="bytes")
        handle.commit(Delta.insert("course", ("cs700", "Quantum", "CS")))
        handle.commit(Delta.delete("prereq", ("cs340", "cs240")))
        # The snapshot still reads version 0, in every backend/maintenance.
        for backend, maintenance in ALL_COMBOS:
            again = server.publish(
                "tau1",
                source=snapshot,
                output="bytes",
                backend=backend,
                maintenance=maintenance,
            )
            assert again == frozen
        # The latest version sees both commits.
        latest = server.publish("tau1", output="bytes")
        assert latest == oracle_xml(tau, handle.instance)
        assert latest != frozen

    def test_version_chain_addressing(self):
        server = ViewServer()
        server.register_view("tau3", tau3_courses_without_db_prereq())
        handle = server.attach(example_registrar_instance())
        v0 = handle.latest
        v1 = handle.commit(Delta.insert("course", ("cs800", "Logic", "CS")))
        assert (v0.index, v1.index, handle.version) == (0, 1, 1)
        assert handle.snapshot(0) is v0 and handle.snapshot(1) is v1
        assert handle.history() == (v0, v1)
        assert handle.commits == 1
        by_number = server.publish("tau3", source=handle, version=0, output="bytes")
        by_snapshot = server.publish("tau3", source=v0, output="bytes")
        assert by_number == by_snapshot
        with pytest.raises(ServeError):
            handle.snapshot(2)
        with pytest.raises(ServeError):
            server.publish("tau3", source=v0, version=1)

    def test_commit_normalizes_the_delta(self):
        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        handle = server.attach(example_registrar_instance())
        version = handle.commit(
            Delta.insert("prereq", ("cs240", "cs101"))  # already present
        )
        assert version.delta.is_empty()
        assert version.instance is handle.snapshot(0).instance

    def test_old_versions_share_untouched_relations(self):
        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        handle = server.attach(example_registrar_instance())
        v0 = handle.latest
        v1 = handle.commit(Delta.insert("prereq", ("cs610", "cs101")))
        assert v1.instance["course"] is v0.instance["course"]
        assert v1.instance["prereq"] is not v0.instance["prereq"]


# ---------------------------------------------------------------------------
# Subscriptions.
# ---------------------------------------------------------------------------


class TestSubscriptions:
    def test_edit_scripts_replay_to_the_full_publish_oracle(self):
        tau = tau1_prerequisite_hierarchy()
        server = ViewServer()
        server.register_view("tau1", tau)
        handle = server.attach(example_registrar_instance())
        subscription = server.subscribe("tau1")
        replayed = subscription.tree
        assert trees_equal(replayed, compile_plan(tau).publish(handle.instance))
        rng = random.Random(11)
        courses = [f"cs9{i:02d}" for i in range(6)]
        for step in range(10):
            if rng.random() < 0.6:
                cno = rng.choice(courses)
                delta = Delta(
                    inserted={
                        "course": [(cno, f"Title {step}", "CS")],
                        "prereq": [(cno, rng.choice(["cs101", "cs240", "cs340"]))],
                    }
                )
            else:
                victim = rng.choice(sorted(handle.instance["prereq"].tuples))
                delta = Delta.delete("prereq", victim)
            handle.commit(delta)
            event = subscription.pop()
            replayed = event.edits.apply(replayed)
            oracle = compile_plan(tau).publish(handle.instance)
            assert trees_equal(replayed, oracle)
            assert trees_equal(event.tree, oracle)
        assert subscription.version == handle.version == 10
        assert subscription.pending == 0

    def test_unaffecting_commit_delivers_an_empty_script(self):
        server = ViewServer()
        server.register_view("tau3", tau3_courses_without_db_prereq())
        handle = server.attach(example_registrar_instance())
        subscription = server.subscribe("tau3")
        # tau3 is depth-two: prereqs of non-existent courses never show.
        handle.commit(Delta.insert("prereq", ("nope", "cs101")))
        event = subscription.pop()
        assert event.edits.is_empty()
        assert event.version == 1

    def test_multiple_subscriptions_and_close(self):
        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        handle = server.attach(example_registrar_instance())
        first = server.subscribe("tau1")
        second = server.subscribe("tau1")
        handle.commit(Delta.insert("course", ("cs901", "Graphs", "CS")))
        assert first.pending == second.pending == 1
        first.close()
        handle.commit(Delta.insert("course", ("cs902", "Flows", "CS")))
        assert first.pending == 1  # nothing new after close
        assert [event.version for event in second.drain()] == [1, 2]
        assert server.stats().deliveries == 3

    def test_subscription_on_a_deep_spine(self):
        # A chain-unfold view whose output is deeper than the recursion
        # limit; the commit rewrites the bottom of every unfolded chain.
        # Exercises the equal-child-count fast path of diff_trees (the
        # prefix/suffix scan used to re-walk the spine per ancestor level).
        from repro.relational.schema import RelationalSchema

        x, y = Variable("x"), Variable("y")
        builder = TransducerBuilder("unfold", root="r", start="q0")
        builder.start().emit(
            "q", "a", ConjunctiveQuery((x,), (RelationAtom("E", (x, y)),))
        )
        builder.state("q").on("a").emit(
            "q",
            "a",
            ConjunctiveQuery(
                (x,), (RelationAtom("Reg_a", (y,)), RelationAtom("E", (y, x)))
            ),
        )
        n = 400
        instance = Instance(
            RelationalSchema.from_attributes({"E": ("s", "d")}),
            {"E": [(f"n{i}", f"n{i + 1}") for i in range(n)]},
        )
        server = ViewServer(max_nodes=10**7)
        server.register_view("deep", builder.build())
        handle = server.attach(instance)
        subscription = server.subscribe("deep")
        base = subscription.tree
        assert base.depth() > n
        handle.commit(Delta.delete("E", (f"n{n - 1}", f"n{n}")))
        event = subscription.pop()
        assert trees_equal(event.edits.apply(base), subscription.tree)
        assert trees_equal(
            subscription.tree,
            compile_plan(builder.build(), max_nodes=10**7).publish(handle.instance),
        )

    def test_subscribers_share_one_chain_per_key(self):
        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        handle = server.attach(example_registrar_instance())
        subscriptions = [server.subscribe("tau1") for _ in range(3)]
        plan = server.view("tau1").plan_for(None)
        calls = []
        original = plan.republish

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        plan.republish = counting
        try:
            handle.commit(Delta.insert("course", ("cs980", "Shared", "CS")))
        finally:
            plan.republish = original
        # One republish serves every subscriber of the key.
        assert len(calls) == 1
        for subscription in subscriptions:
            event = subscription.pop()
            assert event.version == 1 and not event.edits.is_empty()
        first, second = subscriptions[0], subscriptions[1]
        assert first.tree is second.tree  # the shared chain's tree

    def test_subscribed_chain_survives_the_maintained_cap(self):
        server = ViewServer(maintained_views=1)
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        server.register_view("tau2", tau2_prerequisite_closure("CS"))
        handle = server.attach(example_registrar_instance())
        first = server.subscribe("tau1")
        # A tree publish seeds an idle chain; the cap must evict it, not the
        # subscribed one.
        server.publish("tau2")
        second = server.subscribe("tau1")
        plan = server.view("tau1").plan_for(None)
        calls = []
        original = plan.republish

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        plan.republish = counting
        try:
            handle.commit(Delta.insert("course", ("cs983", "Capped", "CS")))
        finally:
            plan.republish = original
        assert len(calls) == 1
        assert first.tree is second.tree
        assert first.pop().version == second.pop().version == 1
        # The subscribed chain plus the one idle chain the cap allows.
        assert server.stats().maintained_views == 2

    def test_prune_bounds_history_and_lagging_chains_reseed(self):
        tau = tau1_prerequisite_hierarchy()
        server = ViewServer()
        server.register_view("tau1", tau)
        handle = server.attach(example_registrar_instance())
        pinned = handle.snapshot()
        frozen = server.publish("tau1", source=pinned, output="bytes")
        # A maintained chain left behind at version 0 (no subscribers).
        server.publish("tau1", backend="row", maintenance="incremental")
        subscription = server.subscribe("tau1")
        handle.commit(Delta.insert("course", ("cs981", "Pruned A", "CS")))
        handle.commit(Delta.insert("course", ("cs982", "Pruned B", "CS")))
        assert handle.prune(keep_last=1) == 2
        assert len(handle.history()) == 1
        with pytest.raises(ServeError, match="pruned"):
            handle.snapshot(0)
        # The pinned version object still reads its own snapshot.
        assert server.publish("tau1", source=pinned, output="bytes") == frozen
        # The lagging chain reseeds across the pruned gap, byte-identically.
        assert server.publish(
            "tau1", backend="row", maintenance="incremental", output="bytes"
        ) == oracle_xml(tau, handle.instance)
        # The subscriber chain was advanced at commit time, before pruning.
        assert [event.version for event in subscription.drain()] == [1, 2]

    def test_pending_queue_is_bounded_with_a_dropped_counter(self):
        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        handle = server.attach(example_registrar_instance())
        subscription = server.subscribe("tau1", max_pending=3)
        for i in range(5):
            handle.commit(Delta.insert("course", (f"cs97{i}", f"Q{i}", "CS")))
        assert subscription.pending == 3
        assert subscription.dropped == 2
        # After an overflow the consumer resynchronises from the tree, which
        # is always the complete current document.
        oracle = compile_plan(tau1_prerequisite_hierarchy()).publish(handle.instance)
        assert trees_equal(subscription.tree, oracle)
        assert [event.version for event in subscription.drain()] == [3, 4, 5]

    def test_close_deregisters_from_server_and_handle(self):
        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        handle = server.attach(example_registrar_instance())
        subscription = server.subscribe("tau1")
        assert server.stats().subscriptions == 1
        subscription.close()
        assert server.subscriptions == ()
        assert server.stats().subscriptions == 0
        stats = {s.name: s for s in server.stats().sources}[handle.name]
        assert stats.subscriptions == 0

    def test_subscription_on_columnar_backend(self):
        tau = tau1_prerequisite_hierarchy()
        server = ViewServer()
        server.register_view("tau1", tau)
        handle = server.attach(example_registrar_instance())
        subscription = server.subscribe("tau1", backend="columnar")
        assert encoding_of(subscription.instance) is not None
        handle.commit(Delta.insert("prereq", ("cs452", "cs450")))
        event = subscription.pop()
        assert trees_equal(event.tree, compile_plan(tau).publish(handle.instance))


# ---------------------------------------------------------------------------
# Parameterized views.
# ---------------------------------------------------------------------------


class TestParameterizedViews:
    def test_binding_equals_manual_constant_substitution(self):
        server = ViewServer()
        server.register_view(
            "hierarchy", tau1_prerequisite_hierarchy, params=("department",)
        )
        server.register_view(
            "no_db", tau3_courses_without_db_prereq, params=("banned_title",)
        )
        handle = server.attach(example_registrar_instance())
        for department in ("CS", "Math", "Physics"):
            bound = server.publish(
                "hierarchy", params={"department": department}, output="bytes"
            )
            manual = oracle_xml(
                tau1_prerequisite_hierarchy(department), handle.instance
            )
            assert bound == manual
        bound = server.publish(
            "no_db", params={"banned_title": "Data Structures"}, output="bytes"
        )
        manual = oracle_xml(
            tau3_courses_without_db_prereq("Data Structures"), handle.instance
        )
        assert bound == manual

    def test_bindings_compile_once_and_push_constants_into_scans(self):
        server = ViewServer()
        view = server.register_view(
            "hierarchy", tau1_prerequisite_hierarchy, params=("department",)
        )
        plan = view.plan_for({"department": "CS"})
        assert view.plan_for({"department": "CS"}) is plan
        assert view.plan_for({"department": "Math"}) is not plan
        assert len(view.plans) == 2
        # The bound constant reaches the scan level: the start rule's plan
        # scans `course` with the department selection pushed down.
        start_plans = [
            qp for state, tag, _, qp in plan.rule_plans() if state == "q0" and qp
        ]
        assert any("course" in qp.stats()["join_order"] for qp in start_plans)

    def test_suite_registration_and_incremental_params(self):
        server = ViewServer()
        for name, (factory, params) in registrar_view_suite().items():
            server.register_view(name, factory, params=params)
        handle = server.attach(example_registrar_instance())
        before = server.publish(
            "closure",
            params={"department": "CS"},
            output="bytes",
            maintenance="incremental",
        )
        assert before == oracle_xml(tau2_prerequisite_closure("CS"), handle.instance)
        handle.commit(Delta.insert("prereq", ("cs450", "cs340")))
        after = server.publish(
            "closure",
            params={"department": "CS"},
            output="bytes",
            maintenance="incremental",
        )
        assert after == oracle_xml(tau2_prerequisite_closure("CS"), handle.instance)

    def test_binding_validation(self):
        server = ViewServer()
        server.register_view(
            "hierarchy", tau1_prerequisite_hierarchy, params=("department",)
        )
        with pytest.raises(ServeError, match="needs parameter"):
            server.publish("hierarchy")
        with pytest.raises(ServeError, match="does not declare"):
            server.publish(
                "hierarchy", params={"department": "CS", "bogus": 1}
            )
        # A non-callable source for a parameterized view fails at
        # registration time, not at first publish.
        with pytest.raises(ServeError, match="factory callable"):
            server.register_view(
                "built", tau1_prerequisite_hierarchy(), params=("department",)
            )

    def test_binding_plan_cache_is_lru_capped(self):
        server = ViewServer()
        view = server.register_view(
            "hierarchy", tau1_prerequisite_hierarchy, params=("department",)
        )
        view.max_bindings = 2
        handle = server.attach(example_registrar_instance())
        for department in ("CS", "Math", "Physics"):
            server.publish("hierarchy", params={"department": department})
        assert len(view.plans) == 2
        # Evicted bindings recompile on demand and stay correct.
        assert server.publish(
            "hierarchy", params={"department": "CS"}, output="bytes"
        ) == oracle_xml(tau1_prerequisite_hierarchy("CS"), handle.instance)


# ---------------------------------------------------------------------------
# Registration of every front-end kind.
# ---------------------------------------------------------------------------


class TestRegistration:
    def _forxml_view(self) -> ForXmlView:
        cno, title, dept = Variable("cno"), Variable("title"), Variable("dept")
        cs_courses = ConjunctiveQuery(
            (cno, title),
            (RelationAtom("course", (cno, title, dept)),),
            (equality(dept, Constant("CS")),),
        )
        return ForXmlView("db", (element("course", cs_courses),), name="cs-courses")

    def test_accepts_transducer_builder_frontend_plan_and_factory(self):
        instance = example_registrar_instance()
        frontend = self._forxml_view()
        transducer = compile_frontend(frontend)
        assert frontend_language(frontend) == "FOR XML"

        builder = TransducerBuilder("builder-view", root="db", start="q0")
        cno, title, dept = Variable("cno"), Variable("title"), Variable("dept")
        builder.start().emit(
            "q",
            "course",
            ConjunctiveQuery((cno,), (RelationAtom("course", (cno, title, dept)),)),
        )

        server = ViewServer()
        from_frontend = server.register_view("frontend", frontend)
        from_transducer = server.register_view("transducer", transducer)
        from_builder = server.register_view("builder", builder)
        from_plan = server.register_view("plan", compile_plan(transducer))
        from_factory = server.register_view("factory", self._forxml_view)
        server.attach(instance)

        assert from_frontend.language == "FOR XML"
        assert from_transducer.language == "transducer"
        assert from_builder.language == "builder DSL"
        assert from_plan.language == "compiled plan"
        assert from_factory.language == "FOR XML"
        reference = server.publish("frontend", output="bytes")
        assert server.publish("transducer", output="bytes") == reference
        assert server.publish("factory", output="bytes") == reference
        assert server.publish("builder", output="bytes")  # structurally different

    def test_shared_plan_cache_and_schema_validation(self):
        transducer = tau1_prerequisite_hierarchy()
        server = ViewServer()
        first = server.register_view("a", transducer, schema=REGISTRAR_SCHEMA)
        second = server.register_view("b", transducer)
        assert first.plan_for(None) is second.plan_for(None)
        with pytest.raises(ServeError, match="already registered"):
            server.register_view("a", transducer)
        from repro.relational.schema import RelationalSchema

        bad_schema = RelationalSchema.from_attributes({"other": ("x",)})
        with pytest.raises(ValueError):
            server.register_view("bad", transducer, schema=bad_schema)
        # Precompiled plans are validated against the declared schema too.
        with pytest.raises(ValueError):
            server.register_view(
                "bad_plan", compile_plan(transducer), schema=bad_schema
            )
        # A failed registration does not squat on the name: retrying with a
        # corrected schema succeeds.
        retried = server.register_view("bad", transducer, schema=REGISTRAR_SCHEMA)
        assert server.view("bad") is retried

    def test_auto_names_skip_explicitly_named_handles(self):
        server = ViewServer()
        first = server.attach(example_registrar_instance(), name="source1")
        second = server.attach(example_registrar_instance())
        assert first.name == "source1" and second.name != "source1"

    def test_failed_attach_does_not_encode_the_instance(self):
        server = ViewServer()
        instance = example_registrar_instance()
        server.attach(instance, name="x")
        with pytest.raises(ServeError, match="already attached"):
            server.attach(instance, name="x", encoded=True)
        assert not instance.is_encoded

    def test_source_resolution_errors(self):
        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        with pytest.raises(ServeError, match="attached sources"):
            server.publish("tau1")
        instance = example_registrar_instance()
        assert isinstance(server.publish("tau1", source=instance), TreeNode)
        with pytest.raises(ServeError, match="incremental"):
            server.publish("tau1", source=instance, maintenance="incremental")
        with pytest.raises(ServeError, match="unknown view"):
            server.publish("nope", source=instance)
        with pytest.raises(ServeError, match="unknown backend"):
            server.publish("tau1", source=instance, backend="gpu")
        handle = server.attach(instance)
        assert isinstance(handle, SourceHandle)
        assert isinstance(handle.latest, SourceVersion)
        with pytest.raises(ServeError, match="already attached"):
            server.attach(instance, name=handle.name)
        # Handles belong to one server; a foreign handle (which may share a
        # name with a local one) is rejected instead of sharing chains.
        foreign = ViewServer().attach(example_registrar_instance())
        with pytest.raises(ServeError, match="different server"):
            server.publish("tau1", source=foreign)
        with pytest.raises(ServeError, match="different server"):
            server.subscribe("tau1", foreign)


# ---------------------------------------------------------------------------
# Observability.
# ---------------------------------------------------------------------------


class TestObservability:
    def test_stats_aggregate_views_sources_and_subscriptions(self):
        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        handle = server.attach(example_registrar_instance())
        subscription = server.subscribe("tau1")
        server.publish("tau1", output="bytes", backend="columnar")
        handle.commit(Delta.insert("course", ("cs950", "Proofs", "CS")))
        assert subscription.pending == 1
        stats = server.stats()
        view_stats = {v.name: v for v in stats.views}["tau1"]
        assert view_stats.publishes >= 1
        assert view_stats.last_backend == "columnar"
        assert view_stats.cache["hits"] + view_stats.cache["misses"] > 0
        source_stats = {s.name: s for s in stats.sources}[handle.name]
        assert source_stats.version == 1 and source_stats.commits == 1
        assert source_stats.subscriptions == 1
        assert source_stats.total_tuples == handle.instance.total_size()
        assert stats.subscriptions == 1 and stats.deliveries == 1
        as_dict = stats.as_dict()
        assert as_dict["views"][0]["name"] == "tau1"
        text = stats.describe()
        assert "tau1" in text and handle.name in text

    def test_explain_report_collects_the_three_object_tour(self):
        server = ViewServer()
        server.register_view("tau3", tau3_courses_without_db_prereq())
        handle = server.attach(example_registrar_instance())
        server.publish("tau3", maintenance="incremental")
        handle.commit(Delta.delete("prereq", ("cs240", "cs101")))
        server.publish("tau3", maintenance="incremental")
        report = server.explain("tau3")
        assert report.view == "tau3"
        assert report.rules  # one entry per compiled rule item
        assert any(rule.executions > 0 for rule in report.rules)
        assert any(rule.last_backend == "row" for rule in report.rules)
        strategies = {rule.delta_strategy for rule in report.rules}
        assert any("semi-naive" in s or "recompute" in s for s in strategies)
        assert "republish:" in report.maintenance
        text = report.describe()
        assert "delta:" in text and "backend=" in text
        assert report.as_dict()["view"] == "tau3"


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


# ---------------------------------------------------------------------------
# The core drivers stay warning-free.
# ---------------------------------------------------------------------------


class TestDeprecationShims:
    def test_core_drivers_do_not_warn(self, tau1):
        import warnings

        plan = compile_plan(tau1)
        instance = example_registrar_instance()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            plan.publish(instance)
            list(plan.publish_events(instance))
            plan.republish(instance, Delta.insert("prereq", ("cs610", "cs240")))
