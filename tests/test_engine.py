"""Tests for the compiled publishing engine (`repro.engine`).

The literal Section 3 interpreter (:class:`TransducerRuntime`) serves as the
executable specification: every evaluation mode of the compiled plan must
reproduce its output exactly, tree for tree and byte for byte.
"""

from __future__ import annotations

import pytest

from repro.core import classify, publish
from repro.core.rules import RuleItem, RuleQuery, TransductionRule
from repro.core.runtime import TransducerRuntime, TransformationLimitError
from repro.core.transducer import make_transducer
from repro.engine import (
    BuilderError,
    Engine,
    PublishingPlan,
    TransducerBuilder,
    compile_plan,
    transducer,
)
from repro.languages.registry import TABLE_I
from repro.logic.cq import ConjunctiveQuery, RelationAtom, equality
from repro.logic.terms import Constant, Variable
from repro.relational.instance import Instance
from repro.relational.schema import RelationalSchema
from repro.serve import publish_document, publish_stream
from repro.workloads.blowup import (
    binary_counter_instance,
    binary_counter_transducer,
    chain_of_diamonds_instance,
    chain_of_diamonds_transducer,
)
from repro.workloads.registrar import (
    REGISTRAR_SCHEMA,
    generate_registrar_instance,
    tau1_prerequisite_hierarchy,
    tau2_prerequisite_closure,
    tau3_courses_without_db_prereq,
)
from repro.xmltree.events import events_to_tree
from repro.xmltree.serialize import to_compact_xml, to_xml
from repro.xmltree.tree import TEXT_TAG


# ---------------------------------------------------------------------------
# Builder DSL.
# ---------------------------------------------------------------------------


def _tiny_schema() -> RelationalSchema:
    return RelationalSchema.from_attributes({"P": ("v",)})


def _tiny_instance() -> Instance:
    return Instance(_tiny_schema(), {"P": [("p1",), ("p2",)]})


def _all_p() -> ConjunctiveQuery:
    x = Variable("x")
    return ConjunctiveQuery((x,), (RelationAtom("P", (x,)),))


def _copy_register(parent_tag: str) -> ConjunctiveQuery:
    x = Variable("x")
    return ConjunctiveQuery((x,), (RelationAtom(f"Reg_{parent_tag}", (x,)),))


class TestTransducerBuilder:
    def test_builder_matches_manual_assembly(self, registrar_instance):
        """The builder produces the same machine as hand-written dataclasses."""
        x = Variable("x")
        phi = _all_p()
        copy = _copy_register("a")
        manual = make_transducer(
            [
                TransductionRule("q0", "r", (RuleItem("q", "a", RuleQuery(phi, 1)),)),
                TransductionRule("q", "a", (RuleItem("q", TEXT_TAG, RuleQuery(copy, 1)),)),
                TransductionRule("q", TEXT_TAG, ()),
            ],
            start_state="q0",
            root_tag="r",
        )
        builder = TransducerBuilder()
        builder.start().emit("q", "a", phi)
        builder.state("q").on("a").emit_text(copy)
        built = builder.build()
        assert built.states == manual.states
        assert built.alphabet == manual.alphabet
        assert dict(built.register_arities) == dict(manual.register_arities)
        assert classify(built) == classify(manual)
        instance = _tiny_instance()
        assert publish(built, instance) == publish(manual, instance)

    def test_fluent_chaining_and_terse_entry(self):
        tau = (
            transducer("chain", root="r")
            .start()
            .emit("q", "a", _all_p())
            .state("q")
            .on("a")
            .emit_text(_copy_register("a"))
            .build()
        )
        tree = publish(tau, _tiny_instance())
        assert tree.child_labels() == ("a", "a")

    def test_group_argument_selects_relation_registers(self):
        builder = TransducerBuilder("relreg")
        builder.start().emit("q", "a", _all_p(), group=0)
        tau = builder.build()
        assert tau.uses_relation_registers()
        tree = publish(tau, _tiny_instance())
        assert tree.child_labels() == ("a",)  # one child carrying the whole relation

    def test_virtual_and_register_arity_declarations(self):
        builder = TransducerBuilder("virt")
        builder.virtual("v").register_arity("v", 1)
        builder.start().emit("q", "v", _all_p())
        builder.state("q").on("v").emit("q", "a", _copy_register("v"))
        tau = builder.build()
        assert tau.virtual_tags == frozenset({"v"})
        tree = publish(tau, _tiny_instance())
        assert "v" not in tree.labels()

    def test_missing_start_rule_is_rejected(self):
        with pytest.raises(BuilderError):
            TransducerBuilder().build()

    def test_emit_text_rejects_start_state(self):
        builder = TransducerBuilder()
        with pytest.raises(BuilderError):
            builder.start().emit_text(_all_p())

    def test_conflicting_group_arities_are_rejected(self):
        builder = TransducerBuilder()
        with pytest.raises(BuilderError):
            builder.start().emit("q", "a", RuleQuery(_all_p(), 1), group=0)

    def test_declared_tracks_rules_in_order(self):
        builder = TransducerBuilder()
        builder.start().emit("q", "a", _all_p())
        builder.state("q").on("a").leaf()
        assert builder.declared == (("q0", "r"), ("q", "a"))

    def test_repeated_on_merges_into_one_rule(self):
        builder = TransducerBuilder()
        builder.start().emit("q", "a", _all_p())
        builder.start().emit("q", "b", _all_p())
        tau = builder.build()
        assert tau.start_rule.child_pairs() == (("q", "a"), ("q", "b"))


# ---------------------------------------------------------------------------
# Plan equivalence against the reference interpreter.
# ---------------------------------------------------------------------------


def _reference_cases():
    instance = generate_registrar_instance(25, max_prereqs=2, seed=9, cycle_fraction=0.1)
    cases = [
        ("tau1", tau1_prerequisite_hierarchy(), instance),
        ("tau2", tau2_prerequisite_closure(), instance),
        ("tau3", tau3_courses_without_db_prereq(), instance),
        ("diamonds", chain_of_diamonds_transducer(), chain_of_diamonds_instance(5)),
        ("counter", binary_counter_transducer(), binary_counter_instance(2)),
    ]
    for entry in TABLE_I:
        cases.append((f"table1-{entry.vendor}-{entry.language}", entry.build_example(), instance))
    return cases


@pytest.mark.parametrize(
    "name,tau,instance", _reference_cases(), ids=lambda case: case if isinstance(case, str) else ""
)
class TestPlanMatchesInterpreter:
    def test_publish_matches(self, name, tau, instance):
        reference = TransducerRuntime(tau, max_nodes=10**6).run(instance)
        plan = compile_plan(tau, max_nodes=10**6)
        assert plan.publish(instance) == reference.tree

    def test_publish_full_matches(self, name, tau, instance):
        reference = TransducerRuntime(tau, max_nodes=10**6).run(instance)
        plan = compile_plan(tau, max_nodes=10**6)
        full = plan.publish_full(instance)
        assert full.tree == reference.tree
        assert full.steps == reference.steps
        assert full.node_count == reference.node_count
        assert full.output_size == reference.output_size

    def test_streamed_events_match_materialised_tree(self, name, tau, instance):
        plan = compile_plan(tau, max_nodes=10**6)
        materialised = plan.publish(instance)
        assert events_to_tree(plan.publish_events(instance)) == materialised

    def test_streamed_serialisation_is_byte_identical(self, name, tau, instance):
        plan = compile_plan(tau, max_nodes=10**6)
        materialised = plan.publish(instance)
        assert publish_document(plan, instance) == to_xml(materialised)
        assert publish_document(plan, instance, indent=None) == to_compact_xml(materialised)


# ---------------------------------------------------------------------------
# Batch evaluation and the shared memo cache.
# ---------------------------------------------------------------------------


class TestBatchAndCache:
    def test_publish_stream_matches_individual_publishes(self, tau1):
        instances = [generate_registrar_instance(15, seed=s) for s in range(5)]
        plan = Engine().compile(tau1, REGISTRAR_SCHEMA)
        batched = list(publish_stream(plan, instances))
        assert batched == [publish(tau1, instance) for instance in instances]

    def test_repeated_instances_hit_the_cross_run_cache(self, tau1, registrar_instance):
        plan = compile_plan(tau1)
        first = plan.publish(registrar_instance)
        stats_after_first = plan.cache_stats
        second = plan.publish(registrar_instance)
        assert first == second
        stats_after_second = plan.cache_stats
        assert stats_after_second.misses == stats_after_first.misses  # all memoised
        assert stats_after_second.hits > stats_after_first.hits
        assert stats_after_second.instances == 1
        assert 0.0 < stats_after_second.hit_rate <= 1.0

    def test_within_run_memoisation_fires_on_shared_subtrees(self, tau1, registrar_instance):
        # cs240's hierarchy appears under both cs340 and cs450: the second
        # occurrence must be answered from the cache, not re-evaluated.
        plan = compile_plan(tau1)
        plan.publish(registrar_instance)
        stats = plan.cache_stats
        assert stats.hits > 0
        assert stats.misses < stats.hits + stats.misses

    def test_instance_cache_eviction(self, tau1):
        engine = Engine(cache_instances=1)
        plan = engine.compile(tau1)
        for seed in range(3):
            plan.publish(generate_registrar_instance(8, seed=seed))
        stats = plan.cache_stats
        assert stats.instances == 3
        assert stats.evictions == 2

    def test_instance_cache_is_lru_not_fifo(self, tau1):
        plan = Engine(cache_instances=2).compile(tau1)
        a = generate_registrar_instance(8, seed=0)
        b = generate_registrar_instance(8, seed=1)
        c = generate_registrar_instance(8, seed=2)
        plan.publish(a)
        plan.publish(b)
        plan.publish(a)  # refresh a: b becomes the least recently used
        plan.publish(c)  # evicts b, not a
        seen = plan.cache_stats.instances
        plan.publish(a)  # still cached
        assert plan.cache_stats.instances == seen
        plan.publish(b)  # was evicted: needs a fresh instance state
        assert plan.cache_stats.instances == seen + 1

    def test_clear_cache_preserves_counters(self, tau1, registrar_instance):
        plan = compile_plan(tau1)
        plan.publish(registrar_instance)
        before = plan.cache_stats
        plan.clear_cache()
        assert plan.cache_stats == before
        assert plan.publish(registrar_instance) == publish(tau1, registrar_instance)


# ---------------------------------------------------------------------------
# Validation and budgets.
# ---------------------------------------------------------------------------


class TestValidationAndBudgets:
    def test_compile_time_schema_validation(self, tau1):
        with pytest.raises(ValueError):
            Engine().compile(tau1, _tiny_schema())

    def test_publish_validates_instance_schema(self, tau1, graph_instance):
        plan = compile_plan(tau1)
        with pytest.raises(ValueError):
            plan.publish(graph_instance)

    def test_budget_enforced_in_tree_mode(self):
        plan = compile_plan(binary_counter_transducer(), max_nodes=50)
        with pytest.raises(TransformationLimitError):
            plan.publish(binary_counter_instance(3))

    def test_budget_enforced_in_event_mode(self):
        plan = compile_plan(binary_counter_transducer(), max_nodes=50)
        with pytest.raises(TransformationLimitError):
            for _ in plan.publish_events(binary_counter_instance(3)):
                pass

    def test_budget_enforced_in_full_mode(self):
        plan = compile_plan(binary_counter_transducer(), max_nodes=50)
        with pytest.raises(TransformationLimitError):
            plan.publish_full(binary_counter_instance(3))

    def test_per_call_budget_override(self, tau1, registrar_instance):
        plan = compile_plan(tau1, max_nodes=2)
        with pytest.raises(TransformationLimitError):
            plan.publish(registrar_instance)
        assert plan.publish(registrar_instance, max_nodes=10**6).size() > 1

    def test_engine_defaults_flow_into_plans(self, tau1):
        plan = Engine(max_nodes=123).compile(tau1)
        assert plan.max_nodes == 123
        assert Engine(max_nodes=1).compile(tau1, max_nodes=456).max_nodes == 456
        assert isinstance(plan, PublishingPlan)
        assert plan.transducer is tau1


# ---------------------------------------------------------------------------
# Deep outputs: beyond the recursion limit.
# ---------------------------------------------------------------------------


class TestDeepTrees:
    def test_deep_chain_survives_recursion_limit(self):
        import sys

        depth = sys.getrecursionlimit() + 500
        x, y = Variable("x"), Variable("y")
        start = ConjunctiveQuery(
            (x,), (RelationAtom("E", (x, y)),), (equality(x, Constant("n0")),)
        )
        step = ConjunctiveQuery(
            (y,), (RelationAtom("Reg_a", (x,)), RelationAtom("E", (x, y)))
        )
        builder = TransducerBuilder("deep-chain")
        builder.start().emit("q", "a", start)
        builder.state("q").on("a").emit("q", "a", step)
        tau = builder.build()

        from repro.workloads.random_instances import chain_instance

        # chain_instance(depth) has nodes n0..n<depth>: depth+1 a-nodes + root.
        instance = chain_instance(depth)
        plan = compile_plan(tau, max_nodes=10 * depth)
        tree = plan.publish(instance)
        assert tree.depth() == depth + 2
        assert tree.size() == depth + 2
        assert sum(1 for _ in tree.walk()) == depth + 2
        full = plan.publish_full(instance)
        assert full.extended_root.depth() == depth + 2
        assert full.extended_root.size() == depth + 2
        compact = publish_document(plan, instance, indent=None)
        assert compact.count("<a>") == depth  # innermost renders as <a/>
