"""Delta-sized republish: sparse publishes over a subscribed source.

A commit settles every memoised configuration of each invalidated rule
once, and cached subtrees and rendered spans carry over iff they name no
configuration whose expansion changed.  The contract under test:

* every bytes publish -- after 1, 2, 4 or 7 unpublished commits -- equals a
  fresh plan's ``publish_bytes`` of the same version, on tau1-tau3 and the
  chain of diamonds, row and columnar, pretty and compact, and the pushed
  edit scripts replay to the fresh tree;
* a sparse incremental publish re-renders a small fraction of what cold
  publishes of the same versions render;
* a long-lived chain's caches stay proportional to its live document;
* the ``changed`` count surfaces through results, ``stats()`` and
  ``explain()``.
"""

from __future__ import annotations

import itertools
import random
import sys
import threading
from collections import deque

import pytest

from repro.engine.plan import compile_plan
from repro.relational.delta import Delta
from repro.relational.instance import Instance
from repro.serve import ViewServer
from repro.workloads.blowup import (
    chain_of_diamonds_instance,
    chain_of_diamonds_transducer,
)
from repro.workloads.registrar import (
    REGISTRAR_SCHEMA,
    example_registrar_instance,
    generate_registrar_instance,
    tau1_prerequisite_hierarchy,
    tau2_prerequisite_closure,
    tau3_courses_without_db_prereq,
)
from repro.xmltree.diff import trees_equal

#: A prerequisite chain zz7 -> zz6 -> ... -> zz0: an edge below zz0 changes
#: the deepest configuration of the longest spine in the document.
CHAIN = [f"zz{index}" for index in range(8)]


def _registrar_source(size: int = 14, seed: int = 4, cycles: float = 0.1) -> Instance:
    """A random registrar plus the long :data:`CHAIN`.  Every prerequisite
    edge points to a smaller course number except the ``cycles`` share of
    back edges the generator adds."""
    base = generate_registrar_instance(size, max_prereqs=2, seed=seed, cycle_fraction=cycles)
    courses = set(base.tuples("course")) | {
        (cno, f"Chain {index}", "CS") for index, cno in enumerate(CHAIN)
    }
    prereqs = set(base.tuples("prereq")) | set(zip(CHAIN[1:], CHAIN))
    return Instance(REGISTRAR_SCHEMA, {"course": courses, "prereq": prereqs})


def _registrar_delta(rng: random.Random, instance: Instance, fresh) -> Delta:
    """One single-tuple change: fresh courses (some titled "Databases", which
    tau3 filters on), prereq edges -- random or under the long chain, always
    to a smaller course number, so they close no new cycle -- and deletions
    of prereqs and of courses that prereqs reference."""
    courses = sorted(instance.tuples("course"))
    cnos = [row[0] for row in courses]
    prereqs = sorted(instance.tuples("prereq"))
    kind = rng.randrange(5)
    if kind == 0:
        index = next(fresh)
        title = "Databases" if rng.random() < 0.3 else f"Fresh {index}"
        return Delta.insert("course", (f"new{index}", title, rng.choice(("CS", "CS", "Math"))))
    if kind == 1:
        return Delta.insert("prereq", (CHAIN[0], rng.choice(cnos)))
    if kind == 2:
        return Delta.insert("prereq", tuple(sorted(rng.sample(cnos, 2), reverse=True)))
    if kind == 3 and prereqs:
        return Delta.delete("prereq", rng.choice(prereqs))
    referenced = {row[1] for row in prereqs}
    victims = [row for row in courses if row[0] in referenced] or courses
    return Delta.delete("course", rng.choice(victims))


def _graph_delta(rng: random.Random, instance: Instance, fresh) -> Delta:
    """Insert a forward edge of the diamond chain (it stays acyclic, so the
    unfolding stays small) or delete a random edge."""
    nodes = ["a0"]
    for index in range(4):
        nodes += [f"b{index}_1", f"b{index}_2", f"a{index + 1}"]
    edges = sorted(instance.tuples("R"))
    if edges and rng.random() < 0.5:
        return Delta.delete("R", rng.choice(edges))
    source, target = sorted(rng.sample(range(len(nodes)), 2))
    return Delta.insert("R", (nodes[source], nodes[target]))


VIEWS = {
    "tau1": (tau1_prerequisite_hierarchy, _registrar_source, _registrar_delta),
    "tau2": (tau2_prerequisite_closure, _registrar_source, _registrar_delta),
    "tau3": (tau3_courses_without_db_prereq, _registrar_source, _registrar_delta),
    "diamonds": (
        chain_of_diamonds_transducer,
        lambda: chain_of_diamonds_instance(4),
        _graph_delta,
    ),
}


def _subscribed(tau, instance, encoded=False, name="view"):
    server = ViewServer()
    server.register_view(name, tau)
    handle = server.attach(instance, name="src", encoded=encoded)
    return server, handle, server.subscribe(name, handle)


class TestSparsePublish:
    @pytest.mark.parametrize("indent", [2, None], ids=["pretty", "compact"])
    @pytest.mark.parametrize("encoded", [False, True], ids=["row", "columnar"])
    @pytest.mark.parametrize("view", sorted(VIEWS))
    def test_sparse_publishes_match_a_fresh_plan(self, view, encoded, indent):
        factory, source, step = VIEWS[view]
        tau = factory()
        rng = random.Random(f"{view}/{encoded}/{indent}")
        fresh = itertools.count()
        server, handle, subscription = _subscribed(tau, source(), encoded, view)
        tree = subscription.tree
        for gap in (1, 2, 4, 7):
            for _ in range(gap):
                handle.commit(step(rng, handle.instance, fresh))
            produced = server.publish(view, source=handle, output="bytes", indent=indent)
            oracle = compile_plan(tau)
            assert produced == oracle.publish_bytes(handle.instance, indent=indent), gap
            for event in subscription.drain():
                tree = event.edits.apply(tree)
            assert trees_equal(tree, oracle.publish(handle.instance)), gap

    def test_sparse_publishes_rerender_a_fraction_of_cold(self):
        tau = tau1_prerequisite_hierarchy()
        rng = random.Random(12)
        fresh = itertools.count()
        server, handle, _ = _subscribed(tau, _registrar_source(size=60, seed=9, cycles=0))
        plan = server.view("view").plan_for(None)
        server.publish("view", source=handle, output="bytes")
        before = plan.cache_stats.rendered_misses
        cold = 0
        for _ in range(30):
            for _ in range(2):
                handle.commit(_registrar_delta(rng, handle.instance, fresh))
            produced = server.publish("view", source=handle, output="bytes")
            oracle = compile_plan(tau)
            assert produced == oracle.publish_bytes(handle.instance)
            cold += oracle.cache_stats.rendered_misses
        incremental = plan.cache_stats.rendered_misses - before
        assert incremental < cold / 4, (incremental, cold)


def _products(state) -> int:
    """The per-form products held across a state's clean-subtree cache."""
    return sum(len(entry.products) for entry in state.clean.values())


class TestCacheBound:
    def test_chain_caches_stay_proportional_to_the_live_document(self):
        """Insert/delete churn keeps minting configurations that later fall
        out of the document; the chain's memo, its clean-subtree cache and
        the per-form products in it must track the live document, not the
        history of the stream."""
        tau = tau1_prerequisite_hierarchy()
        rng = random.Random(3)
        instance = generate_registrar_instance(12, max_prereqs=2, seed=2)
        targets = sorted(row[0] for row in instance.tuples("course") if row[2] == "CS")
        server, handle, subscription = _subscribed(tau, instance)
        plan = server.view("view").plan_for(None)
        live: deque = deque()
        streamed: deque = deque()
        for index in range(2000):
            if len(live) >= 8 and index % 2:
                relation, row = live.popleft()
                handle.commit(Delta.delete(relation, row))
            else:
                if index % 4 == 0 or not streamed:
                    change = ("course", (f"w{index:05d}", f"Stream {index}", "CS"))
                    streamed.append(change[1][0])
                    if len(streamed) > 8:
                        streamed.popleft()
                else:
                    change = ("prereq", (rng.choice(targets), rng.choice(streamed)))
                handle.commit(Delta.insert(*change))
                live.append(change)
            subscription.drain()
            if index % 4 == 3:
                server.publish("view", source=handle, output="bytes")
            if index % 64 == 63:
                handle.prune(keep_last=2)
            if index % 250 == 249:
                state = plan._instance_state(subscription.instance)
                oracle = compile_plan(tau)
                oracle.publish(subscription.instance)
                oracle.publish_bytes(subscription.instance)
                bound = oracle._instance_state(subscription.instance)
                assert len(state.expansions) <= 4 * len(bound.expansions), index
                assert len(state.clean) <= 4 * len(bound.clean), index
                assert _products(state) <= 4 * _products(bound), index


class TestConcurrentMigration:
    def test_publishes_racing_commits_serve_their_versions(self):
        """Publisher threads expand configurations into a version's memo
        while commits migrate it.  Every configuration a migration copies
        must be settled, so each pinned publish -- and the chain at the end
        -- equals a fresh plan's document of its version."""
        tau = tau1_prerequisite_hierarchy()
        rng = random.Random(21)
        fresh = itertools.count()
        server, handle, _ = _subscribed(tau, _registrar_source(size=30, seed=5))
        served: list[tuple[int, int | None, str]] = []
        errors: list[BaseException] = []
        stop = threading.Event()

        def publish(indent):
            try:
                while not stop.is_set():
                    version = handle.version
                    document = server.publish(
                        "view", source=handle, version=version, output="bytes",
                        indent=indent, maintenance="full",
                    )
                    served.append((version, indent, document))
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=publish, args=(indent,)) for indent in (2, None, 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for _ in range(40):
                handle.commit(_registrar_delta(rng, handle.instance, fresh))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        oracles: dict[tuple[int, int | None], str] = {}
        for version, indent, document in served:
            if (version, indent) not in oracles:
                instance = handle.snapshot(version).instance
                oracles[version, indent] = compile_plan(tau).publish_bytes(instance, indent=indent)
            assert document == oracles[version, indent], (version, indent)
        assert server.publish("view", source=handle, output="bytes") == compile_plan(
            tau
        ).publish_bytes(handle.instance)


class TestChangedCount:
    def test_result_and_cache_stats_report_changed(self):
        tau = tau1_prerequisite_hierarchy()
        instance = example_registrar_instance()
        plan = compile_plan(tau)
        plan.publish(instance)
        result = plan.republish(instance, Delta.insert("prereq", ("cs450", "cs340")))
        assert 0 < result.changed <= result.invalidated
        assert plan.cache_stats.changed == result.changed
        # An EE course no rule of the CS view observes: every invalidated
        # configuration re-expands the same, so nothing changed.
        quiet = plan.republish(result, Delta.insert("course", ("ee999", "Signals", "EE")))
        assert quiet.invalidated > 0
        assert quiet.changed == 0
        assert quiet.edits.is_empty()
        assert plan.cache_stats.as_dict()["changed"] == result.changed

    def test_changed_surfaces_in_stats_and_explain(self):
        server, handle, subscription = _subscribed(
            tau1_prerequisite_hierarchy(), example_registrar_instance()
        )
        handle.commit(Delta.insert("prereq", ("cs450", "cs340")))
        (event,) = subscription.drain()
        stats = server.stats()
        assert stats.views[0].cache["changed"] == event.result.changed > 0
        assert f"{event.result.changed} changed" in stats.describe()
        assert f"{event.result.changed} changed" in server.explain("view").describe()
