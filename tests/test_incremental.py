"""Delta-driven incremental maintenance, tested against the full-publish oracle.

Every layer of the pipeline is differential-tested: deltas against explicit
set algebra, ``execute_delta`` against plain recomputation, ``republish``
against a from-scratch publish (tree- and byte-wise) -- including random
update sequences with deletions that empty a relation, and blow-up
workloads.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import RepublishResult, compile_plan
from repro.logic.cq import (
    ConjunctiveQuery,
    RelationAtom,
    UnionOfConjunctiveQueries,
    equality,
)
from repro.logic.fo import And, Eq, Exists, FormulaQuery, Not, Rel
from repro.logic.terms import Constant, Variable
from repro.query import plan_query
from repro.relational.delta import Delta
from repro.relational.errors import ArityError, UnknownRelationError
from repro.relational.instance import Instance
from repro.workloads.blowup import (
    chain_of_diamonds_instance,
    chain_of_diamonds_transducer,
)
from repro.workloads.registrar import (
    example_registrar_instance,
    generate_registrar_instance,
    tau1_prerequisite_hierarchy,
    tau2_prerequisite_closure,
    tau3_courses_without_db_prereq,
)
from repro.serve import ViewServer, publish_document, publish_stream, serialize_tree
from repro.xmltree.diff import (
    DeleteSubtree,
    EditScript,
    InsertSubtree,
    ReplaceSubtree,
    diff_trees,
    trees_equal,
)
from repro.xmltree.serialize import to_xml
from repro.xmltree.tree import text_node, tree


# ---------------------------------------------------------------------------
# Relational layer: Delta, apply_delta, Relation.diff / added / removed.
# ---------------------------------------------------------------------------


class TestDelta:
    def test_value_semantics_and_empty_entries_dropped(self):
        a = Delta(inserted={"R": [("a", "b")], "S": []}, deleted={"R": ()})
        b = Delta(inserted={"R": {("a", "b")}})
        assert a == b
        assert hash(a) == hash(b)
        assert a.touched_relations() == frozenset({"R"})
        assert a.change_count() == 1
        assert not Delta()
        assert Delta().is_empty()

    def test_apply_delta_semantics(self, registrar_instance):
        delta = Delta(
            inserted={"prereq": [("cs450", "cs340")]},
            deleted={"prereq": [("cs240", "cs101")]},
        )
        updated = registrar_instance.apply_delta(delta)
        assert ("cs450", "cs340") in updated["prereq"]
        assert ("cs240", "cs101") not in updated["prereq"]
        # A tuple both deleted and inserted ends up present.
        both = Delta(
            inserted={"prereq": [("cs240", "cs101")]},
            deleted={"prereq": [("cs240", "cs101")]},
        )
        assert ("cs240", "cs101") in registrar_instance.apply_delta(both)["prereq"]

    def test_apply_delta_reuses_untouched_relations_by_identity(self, registrar_instance):
        delta = Delta.insert("prereq", ("cs450", "cs340"))
        updated = registrar_instance.apply_delta(delta)
        assert updated["course"] is registrar_instance["course"]
        assert updated["prereq"] is not registrar_instance["prereq"]
        assert updated.schema is registrar_instance.schema

    def test_apply_noop_delta_returns_self(self, registrar_instance):
        noop = Delta(
            inserted={"prereq": [("cs240", "cs101")]},  # already present
            deleted={"prereq": [("nope", "nope")]},  # absent
        )
        assert registrar_instance.apply_delta(noop) is registrar_instance
        assert registrar_instance.apply_delta(Delta()) is registrar_instance

    def test_apply_delta_unknown_relation(self, registrar_instance):
        with pytest.raises(UnknownRelationError):
            registrar_instance.apply_delta(Delta.insert("enrolled", ("s1", "cs101")))

    def test_normalized_keeps_only_effective_changes(self, registrar_instance):
        delta = Delta(
            inserted={"prereq": [("cs240", "cs101"), ("cs450", "cs340")]},
            deleted={"prereq": [("cs340", "cs240"), ("zz", "zz")]},
        )
        effective = delta.normalized(registrar_instance)
        assert effective.inserted_into("prereq") == frozenset({("cs450", "cs340")})
        assert effective.deleted_from("prereq") == frozenset({("cs340", "cs240")})
        # Round trip: inverting the normalized delta restores the instance.
        updated = registrar_instance.apply_delta(effective)
        assert updated.apply_delta(effective.inverted()) == registrar_instance

    def test_normalized_rejects_wrong_arity_tuples(self, registrar_instance):
        with pytest.raises(ArityError):
            Delta.delete("prereq", ("cs240",)).normalized(registrar_instance)
        with pytest.raises(ArityError):
            Delta.insert("prereq", ("a", "b", "c")).normalized(registrar_instance)

    def test_instance_diff_round_trips(self, registrar_instance):
        updated = registrar_instance.apply_delta(
            Delta(
                inserted={"course": [("cs999", "Capstone", "CS")]},
                deleted={"prereq": [("cs240", "cs101")]},
            )
        )
        delta = registrar_instance.diff(updated)
        assert registrar_instance.apply_delta(delta) == updated
        assert Delta.from_instances(updated, registrar_instance) == delta.inverted()
        assert registrar_instance.diff(registrar_instance).is_empty()

    def test_relation_fast_paths(self, registrar_instance):
        prereq = registrar_instance["prereq"]
        assert prereq.added([("cs240", "cs101")]) is prereq
        assert prereq.added([]) is prereq
        assert prereq.removed([("zz", "zz")]) is prereq
        assert prereq.removed([]) is prereq
        grown = prereq.added([("cs450", "cs340")])
        assert len(grown) == len(prereq) + 1
        assert grown.diff(grown) == (frozenset(), frozenset())
        added, removed = prereq.diff(grown)
        assert added == frozenset({("cs450", "cs340")}) and not removed
        with pytest.raises(ArityError):
            prereq.diff(registrar_instance["course"])
        with pytest.raises(ArityError):
            prereq.added([("only-one",)])
        with pytest.raises(ArityError):
            prereq.removed([("only-one",)])  # a typo'd delete must not no-op


# ---------------------------------------------------------------------------
# Query layer: execute_delta against plain recomputation.
# ---------------------------------------------------------------------------


def _prereq_join_query() -> ConjunctiveQuery:
    c1, c2, t, d = Variable("c1"), Variable("c2"), Variable("t"), Variable("d")
    return ConjunctiveQuery(
        (c1, c2),
        (RelationAtom("prereq", (c1, c2)), RelationAtom("course", (c2, t, d))),
        (equality(d, Constant("CS")),),
    )


def _random_registrar_delta(rng: random.Random, instance: Instance) -> Delta:
    inserted: dict[str, list] = {}
    deleted: dict[str, list] = {}
    courses = sorted(row[0] for row in instance["course"])
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        if kind == 0:
            name = f"cs9{rng.randrange(100):02d}"
            inserted.setdefault("course", []).append(
                (name, f"Course {name}", rng.choice(["CS", "Math"]))
            )
        elif kind == 1 and len(courses) >= 2:
            inserted.setdefault("prereq", []).append(
                (rng.choice(courses), rng.choice(courses))
            )
        elif kind == 2 and instance["prereq"].tuples:
            deleted.setdefault("prereq", []).append(
                rng.choice(sorted(instance["prereq"].tuples))
            )
        elif kind == 3 and instance["course"].tuples:
            deleted.setdefault("course", []).append(
                rng.choice(sorted(instance["course"].tuples))
            )
        else:
            deleted.setdefault("prereq", []).extend(instance["prereq"].tuples)
    return Delta(inserted, deleted)


class TestQueryDelta:
    def test_untouched_relations_are_free(self, registrar_instance):
        plan = plan_query(_prereq_join_query())
        change = plan.execute_delta(
            registrar_instance, Delta.insert("course", ("m1", "Algebra", "Math"))
        )
        # The course relation *is* scanned; use a relation the plan ignores.
        assert change.strategy in {"delta", "delta+rederive"}
        x = Variable("x")
        only_prereq = plan_query(
            ConjunctiveQuery((x,), (RelationAtom("prereq", (x, x)),))
        )
        change = only_prereq.execute_delta(
            registrar_instance, Delta.insert("course", ("m1", "Algebra", "Math"))
        )
        assert change.strategy == "none" and change.is_empty()

    def test_insert_only_delta_avoids_rederivation(self, registrar_instance):
        plan = plan_query(_prereq_join_query())
        delta = Delta.insert("prereq", ("cs450", "cs340"))
        change = plan.execute_delta(registrar_instance, delta)
        assert change.strategy == "delta"
        assert change.added == frozenset({("cs450", "cs340")})
        assert not change.removed

    def test_random_deltas_match_recomputation(self):
        query = _prereq_join_query()
        plan = plan_query(query)
        rng = random.Random(42)
        instance = generate_registrar_instance(30, max_prereqs=2, seed=3)
        for _ in range(25):
            delta = _random_registrar_delta(rng, instance)
            prev = plan.execute(instance)
            updated = instance.apply_delta(delta)
            change = plan.execute_delta(instance, delta, prev_answers=prev)
            expected = plan.execute(updated)
            assert change.apply(prev) == expected
            assert change.added == expected - prev
            assert change.removed == prev - expected
            instance = updated

    def test_self_join_needs_per_occurrence_plans(self, registrar_instance):
        # prereq >< prereq: a new edge must join against *old* edges on both
        # sides, which a wholesale override of the relation would miss.
        c1, c2, c3 = Variable("c1"), Variable("c2"), Variable("c3")
        plan = plan_query(
            ConjunctiveQuery(
                (c1, c3),
                (RelationAtom("prereq", (c1, c2)), RelationAtom("prereq", (c2, c3))),
            )
        )
        delta = Delta.insert("prereq", ("cs450", "cs340"))
        prev = plan.execute(registrar_instance)
        change = plan.execute_delta(registrar_instance, delta, prev_answers=prev)
        expected = plan.execute(registrar_instance.apply_delta(delta))
        assert change.apply(prev) == expected
        assert ("cs450", "cs240") in change.added  # new edge >< old edge

    def test_deletion_with_alternative_derivation_survives(self):
        # ans(x) :- R(x, y): deleting one supporting tuple of an answer with
        # two derivations must not remove the answer (DRed rederivation).
        x, y = Variable("x"), Variable("y")
        instance = Instance.from_dict({"R": [("a", "b"), ("a", "c"), ("d", "e")]})
        plan = plan_query(ConjunctiveQuery((x,), (RelationAtom("R", (x, y)),)))
        change = plan.execute_delta(instance, Delta.delete("R", ("a", "b")))
        assert change.strategy == "delta+rederive"
        assert not change.removed and not change.added
        change = plan.execute_delta(instance, Delta.delete("R", ("d", "e")))
        assert change.removed == frozenset({("d",)})

    def test_negation_falls_back_to_recomputation(self, registrar_instance):
        cno, title, dept = Variable("cno"), Variable("title"), Variable("dept")
        c2, t2, d2 = Variable("c2"), Variable("t2"), Variable("d2")
        no_db = Not(
            Exists(
                (c2, t2, d2),
                And(
                    (
                        Rel("prereq", (cno, c2)),
                        Rel("course", (c2, t2, d2)),
                        Eq(t2, Constant("Databases")),
                    )
                ),
            )
        )
        query = FormulaQuery(
            (cno,),
            Exists((title, dept), And((Rel("course", (cno, title, dept)), no_db))),
        )
        plan = plan_query(query)
        assert plan is not None
        assert not plan.is_monotone()
        assert "recompute fallback" in plan.delta_strategy()
        assert "recompute fallback" in plan.explain()
        delta = Delta.insert("prereq", ("cs340", "cs450"))
        prev = plan.execute(registrar_instance)
        change = plan.execute_delta(registrar_instance, delta, prev_answers=prev)
        assert change.strategy == "recompute"
        expected = plan.execute(registrar_instance.apply_delta(delta))
        assert change.apply(prev) == expected
        assert ("cs340",) in change.removed  # cs340 now requires the DB course

    def test_monotone_strategy_is_flagged_in_explain(self):
        plan = plan_query(_prereq_join_query())
        assert plan.is_monotone()
        assert "per-occurrence delta plans" in plan.explain()
        assert "prereq" in plan.scan_relations()

    def test_ucq_delta(self, registrar_instance):
        x, y, t, d = Variable("x"), Variable("y"), Variable("t"), Variable("d")
        ucq = UnionOfConjunctiveQueries(
            (
                ConjunctiveQuery((x,), (RelationAtom("prereq", (x, y)),)),
                ConjunctiveQuery(
                    (x,),
                    (RelationAtom("course", (x, t, d)),),
                    (equality(d, Constant("Math")),),
                ),
            )
        )
        plan = plan_query(ucq)
        delta = Delta(
            inserted={"course": [("m2", "Topology", "Math")]},
            deleted={"prereq": list(registrar_instance["prereq"].tuples)},
        )
        prev = plan.execute(registrar_instance)
        change = plan.execute_delta(registrar_instance, delta, prev_answers=prev)
        expected = plan.execute(registrar_instance.apply_delta(delta))
        assert change.apply(prev) == expected


# ---------------------------------------------------------------------------
# xmltree layer: edit scripts.
# ---------------------------------------------------------------------------


class TestEditScript:
    def test_identical_trees_diff_to_empty(self):
        doc = tree("db", tree("a", "b"), tree("c"))
        assert diff_trees(doc, doc).is_empty()
        assert diff_trees(doc, tree("db", tree("a", "b"), tree("c"))).is_empty()

    def test_root_replacement(self):
        old, new = tree("db", "a"), tree("catalog", "a")
        script = diff_trees(old, new)
        assert [type(e) for e in script] == [ReplaceSubtree]
        assert script.apply(old) == new

    @pytest.mark.parametrize(
        "old,new",
        [
            (tree("r", "a", "b", "c"), tree("r", "a", "x", "c")),  # replace middle
            (tree("r", "a", "c"), tree("r", "a", "b", "c")),  # insert middle
            (tree("r", "a", "b", "c"), tree("r", "a", "c")),  # delete middle
            (tree("r"), tree("r", "a", "b")),  # grow from empty
            (tree("r", "a", "b"), tree("r")),  # shrink to empty
            (
                tree("r", tree("a", text_node("x"))),
                tree("r", tree("a", text_node("y"))),  # text change
            ),
            (
                tree("r", tree("a", "b", "c"), "d"),
                tree("r", "d", tree("a", "c", "b")),  # reordering
            ),
        ],
    )
    def test_apply_reproduces_new_tree(self, old, new):
        script = diff_trees(old, new)
        assert script.apply(old) == new
        # And the inverse direction also round-trips.
        assert diff_trees(new, old).apply(new) == old

    def test_nested_edit_paths(self):
        old = tree("db", tree("a", tree("b", "x", "y"), "k"), "t")
        new = tree("db", tree("a", tree("b", "x", "z", "y"), "k"), "t")
        script = diff_trees(old, new)
        assert len(script) == 1
        (edit,) = script
        assert isinstance(edit, InsertSubtree) and edit.path == (1, 1, 2)
        assert script.apply(old) == new

    def test_describe_mentions_paths_and_xml(self):
        old = tree("db", "a")
        new = tree("db", "a", tree("course", text_node("cs1")))
        text = diff_trees(old, new).describe()
        assert "insert /2" in text and "<course>cs1</course>" in text
        deleted = diff_trees(new, old).describe()
        assert deleted == "delete /2"

    def test_apply_errors(self):
        doc = tree("r", "a")
        with pytest.raises(ValueError):
            EditScript((DeleteSubtree(()),)).apply(doc)
        with pytest.raises(ValueError):
            EditScript((DeleteSubtree((5,)),)).apply(doc)
        with pytest.raises(ValueError):
            EditScript((InsertSubtree((1, 3), tree("x")),)).apply(doc)

    def test_diff_survives_recursion_limit_on_deep_spines(self):
        import sys

        from repro.xmltree import trees_equal

        depth = sys.getrecursionlimit() + 500
        old = tree("leaf")
        peer = tree("leaf")
        for _ in range(depth):
            old = tree("a", old)
            peer = tree("a", peer)
        new = tree("a", peer, "extra")
        assert trees_equal(old, peer)
        assert not trees_equal(old, new)
        script = diff_trees(tree("r", old), tree("r", new))
        assert trees_equal(script.apply(tree("r", old)), tree("r", new))


# ---------------------------------------------------------------------------
# Engine layer: republish against the full-publish oracle.
# ---------------------------------------------------------------------------


def _assert_matches_oracle(tau, result: RepublishResult, prev_tree) -> None:
    oracle_plan = compile_plan(tau, max_nodes=10**6)
    oracle_tree = oracle_plan.publish(result.instance)
    assert result.tree == oracle_tree
    assert to_xml(result.tree) == publish_document(oracle_plan, result.instance)
    assert result.edits.apply(prev_tree) == result.tree


class TestRepublish:
    @pytest.mark.parametrize("view", ["tau1", "tau2", "tau3"])
    def test_single_update_matches_full_publish(self, view, request):
        tau = request.getfixturevalue(view)
        instance = example_registrar_instance()
        plan = compile_plan(tau, max_nodes=10**6)
        prev_tree = plan.publish(instance)
        for delta in (
            Delta.insert("prereq", ("cs450", "cs340")),
            Delta.delete("prereq", ("cs240", "cs101")),
            Delta.insert("course", ("cs500", "Compilers", "CS")),
            Delta.delete("course", ("math101", "Calculus", "Math")),
        ):
            result = plan.republish(instance, delta, prev_tree=prev_tree)
            _assert_matches_oracle(tau, result, prev_tree)

    def test_chained_results_feed_back_in(self, tau1):
        instance = example_registrar_instance()
        plan = compile_plan(tau1)
        result = plan.republish(instance, Delta.insert("prereq", ("cs450", "cs340")))
        previous = result.tree
        result = plan.republish(result, Delta.delete("prereq", ("cs240", "cs101")))
        _assert_matches_oracle(tau1, result, previous)

    def test_empty_delta_is_free(self, tau1, registrar_instance):
        plan = compile_plan(tau1)
        prev_tree = plan.publish(registrar_instance)
        result = plan.republish(
            registrar_instance,
            Delta.insert("prereq", ("cs240", "cs101")),  # already present
            prev_tree=prev_tree,
        )
        assert result.instance is registrar_instance
        assert result.tree is prev_tree
        assert result.edits.is_empty()
        assert result.delta.is_empty()

    def test_invalidation_is_per_rule(self, tau1, registrar_instance):
        plan = compile_plan(tau1)
        plan.publish(registrar_instance)
        before = plan.cache_stats
        result = plan.republish(registrar_instance, Delta.insert("prereq", ("cs450", "cs340")))
        stats = plan.cache_stats
        assert stats.invalidated == before.invalidated + result.invalidated
        assert result.invalidated > 0
        assert result.retained > 0
        # tau1's cno/title/text rules read only registers: always retained.
        assert result.retained > result.invalidated

    def test_unchanged_subtrees_are_shared_by_identity(self, tau1):
        instance = generate_registrar_instance(20, max_prereqs=2, seed=4)
        plan = compile_plan(tau1)
        prev_tree = plan.publish(instance)
        result = plan.republish(
            instance, Delta.insert("course", ("zz01", "New Elective", "CS")),
            prev_tree=prev_tree,
        )
        prev_children = {id(child): child for child in prev_tree.children}
        shared = [c for c in result.tree.children if id(c) in prev_children]
        assert shared  # most course subtrees are the same objects as before
        _assert_matches_oracle(tau1, result, prev_tree)

    def test_republish_survives_cache_eviction(self, tau1):
        from repro.engine import Engine

        plan = Engine(cache_instances=1).compile(tau1)
        instance = example_registrar_instance()
        prev_tree = plan.publish(instance)
        plan.publish(generate_registrar_instance(8, seed=1))  # evicts `instance`
        result = plan.republish(
            instance, Delta.insert("prereq", ("cs450", "cs340")), prev_tree=prev_tree
        )
        _assert_matches_oracle(tau1, result, prev_tree)
        assert result.invalidated == 0 and result.retained == 0  # cold start

    @pytest.mark.parametrize("view,steps,size", [("tau1", 10, 25), ("tau3", 8, 20)])
    def test_random_update_sequences(self, view, steps, size, request):
        tau = request.getfixturevalue(view)
        rng = random.Random(hash(view) & 0xFFFF)
        instance = generate_registrar_instance(size, max_prereqs=2, seed=6)
        plan = compile_plan(tau, max_nodes=10**6)
        prev_tree = plan.publish(instance)
        result = RepublishResult(instance, prev_tree, EditScript(), Delta())
        emptied = False
        for step in range(steps):
            if step == steps // 2:
                # The required edge case: a deletion emptying a relation.
                delta = Delta.delete("prereq", *result.instance["prereq"].tuples)
                emptied = True
            else:
                delta = _random_registrar_delta(rng, result.instance)
            previous = result.tree
            result = plan.republish(result, delta)
            _assert_matches_oracle(tau, result, previous)
        assert emptied

    def test_random_update_sequence_tau2_virtual_relation_registers(self, tau2):
        rng = random.Random(9)
        instance = generate_registrar_instance(10, max_prereqs=2, seed=2)
        plan = compile_plan(tau2, max_nodes=10**6)
        result = RepublishResult(instance, plan.publish(instance), EditScript(), Delta())
        for _ in range(3):
            delta = _random_registrar_delta(rng, result.instance)
            previous = result.tree
            result = plan.republish(result, delta)
            _assert_matches_oracle(tau2, result, previous)

    def test_blowup_workload_with_cyclic_updates(self):
        tau = chain_of_diamonds_transducer()
        instance = chain_of_diamonds_instance(5)
        plan = compile_plan(tau, max_nodes=10**6)
        prev_tree = plan.publish(instance)
        for delta in (
            Delta.insert("R", ("a5", "a0")),  # close a cycle: stop condition
            Delta.delete("R", ("a0", "b0_1")),  # halve the first diamond
            Delta.delete("R", *chain_of_diamonds_instance(5)["R"].tuples),
        ):
            result = plan.republish(instance, delta, prev_tree=prev_tree)
            _assert_matches_oracle(tau, result, prev_tree)

    def test_budget_still_enforced_after_republish(self):
        from repro.core.runtime import TransformationLimitError

        tau = chain_of_diamonds_transducer()
        instance = chain_of_diamonds_instance(4)
        plan = compile_plan(tau, max_nodes=10**6)
        plan.publish(instance)
        with pytest.raises(TransformationLimitError):
            plan.republish(instance, Delta.insert("R", ("x", "a0")), max_nodes=5)

    def test_source_relation_with_register_like_name_is_invalidated(self):
        # A *source* relation that happens to be called ``Reg_item`` is only
        # shadowed by the overlay for item-tagged nodes; rules for other
        # tags genuinely read it, so deltas on it must invalidate them.
        from repro.engine import TransducerBuilder

        x = Variable("x")
        phi_doc = ConjunctiveQuery((x,), (RelationAtom("P", (x,)),))
        phi_item = ConjunctiveQuery((x,), (RelationAtom("Reg_item", (x,)),))
        builder = TransducerBuilder("reg-named-source")
        builder.start().emit("q", "doc", phi_doc)
        builder.state("q").on("doc").emit("q", "item", phi_item)
        tau = builder.build()
        instance = Instance.from_dict({"P": [("p1",)], "Reg_item": [("a",)]})
        plan = compile_plan(tau)
        prev_tree = plan.publish(instance)
        result = plan.republish(instance, Delta.insert("Reg_item", ("b",)), prev_tree=prev_tree)
        _assert_matches_oracle(tau, result, prev_tree)
        assert result.tree.find_all("item") != prev_tree.find_all("item")
        previous = result.tree
        result = plan.republish(result, Delta.delete("Reg_item", ("a",), ("b",)))
        _assert_matches_oracle(tau, result, previous)
        assert not result.tree.find_all("item")

    def test_cache_stats_typed_dataclass_and_as_dict(self, tau1, registrar_instance):
        from repro.engine import CacheStats

        plan = compile_plan(tau1)
        plan.publish(registrar_instance)
        plan.republish(registrar_instance, Delta.insert("prereq", ("cs450", "cs340")))
        stats = plan.cache_stats
        assert isinstance(stats, CacheStats)
        as_dict = stats.as_dict()
        for key in ("hits", "misses", "evictions", "instances", "invalidated", "retained"):
            assert as_dict[key] == getattr(stats, key)
        assert as_dict["hit_rate"] == stats.hit_rate


# ---------------------------------------------------------------------------
# A subscribed view maintained along a commit stream.
# ---------------------------------------------------------------------------


def _subscribed(view, instance, encoded=False):
    server = ViewServer()
    server.register_view("view", view)
    handle = server.attach(instance, encoded=encoded)
    return server, handle, server.subscribe("view", handle)


def _assert_matches_fresh_plan(tau, subscription) -> None:
    """The maintained view equals a cold plan's publish of its version,
    tree- and byte-wise."""
    oracle = compile_plan(tau).publish(subscription.instance)
    assert trees_equal(oracle, subscription.tree)
    assert serialize_tree(oracle) == serialize_tree(subscription.tree)


class TestSubscribedView:
    def test_stream_of_updates_with_verification(self, tau1):
        server, handle, subscription = _subscribed(tau1, example_registrar_instance())
        handle.commit(Delta.insert("course", ("cs500", "Compilers", "CS")))
        handle.commit(Delta.insert("prereq", ("cs500", "cs340"), ("cs500", "cs450")))
        handle.commit(Delta.delete("prereq", ("cs240", "cs101")))
        events = subscription.drain()
        assert len(events) == 3
        assert events[-1].result.instance is subscription.instance
        _assert_matches_fresh_plan(tau1, subscription)
        assert server.publish("view", output="bytes") == to_xml(subscription.tree)
        assert server.publish("view", output="compact").startswith("<db>")

    def test_accepts_precompiled_plan(self, tau1, registrar_instance):
        plan = compile_plan(tau1)
        server, handle, subscription = _subscribed(plan, registrar_instance)
        assert server.view("view").plan_for(None) is plan
        handle.commit(Delta.delete("prereq", *registrar_instance["prereq"].tuples))
        _assert_matches_fresh_plan(tau1, subscription)


# ---------------------------------------------------------------------------
# publish_stream laziness.
# ---------------------------------------------------------------------------


class TestLazyBatches:
    def test_publish_stream_pulls_instances_on_demand(self, tau1):
        pulled = []

        def instances():
            for seed in range(4):
                pulled.append(seed)
                yield generate_registrar_instance(6, seed=seed)

        plan = compile_plan(tau1)
        stream = publish_stream(plan, instances())
        assert pulled == []  # nothing consumed before iteration starts
        first = next(stream)
        assert pulled == [0] and first.label == "db"
        rest = list(stream)
        assert pulled == [0, 1, 2, 3] and len(rest) == 3

    def test_publish_stream_accepts_generators(self, tau1):
        plan = compile_plan(tau1)
        instances = [generate_registrar_instance(6, seed=s) for s in range(3)]
        assert list(publish_stream(plan, iter(instances))) == list(
            publish_stream(plan, instances)
        )
