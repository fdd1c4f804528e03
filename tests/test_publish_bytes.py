"""The output forms of the one expansion walker (`repro.engine.walk`).

The bytes sink is the focus; the contract under test:

* ``publish_bytes`` / ``publish(output="bytes"|"compact")`` is byte-identical
  to the established serialisers (``to_xml`` / ``to_compact_xml`` /
  ``IncrementalXmlSerializer``) on every backend x maintenance x output
  combination, including escaping edge cases and republish chains;
* the bytes path never constructs a ``TreeNode``;
* rendered-span cache hits surface through ``stats()`` / ``explain()``;
* one clean-subtree cache serves every form: an entry holds one product per
  cached form, the event and annotated forms leave it empty, and a republish
  carries each entry with all its products; text leaves never touch the
  memo, and the counters are added once per walk, budget errors included;
* every form -- tree, bytes (pretty and compact), events, the annotated
  ``publish_full`` and the reference interpreter -- finds the same minimal
  node budget, and they agree on a text root;
* ``publish_events`` stays lazy, raising a budget error only when the
  stream reaches it;
* the recursive serialisers are now iterative and survive
  Proposition-1-depth trees.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.runtime import TransducerRuntime, TransformationLimitError
from repro.engine import compile_plan, transducer
from repro.logic.cq import ConjunctiveQuery, RelationAtom
from repro.logic.terms import Variable
from repro.relational.columnar import ensure_encoded
from repro.relational.delta import Delta
from repro.relational.instance import Instance
from repro.relational.schema import RelationalSchema
from repro.serve import BACKENDS, MAINTENANCE, ViewServer
from repro.workloads.blowup import (
    binary_counter_instance,
    binary_counter_transducer,
    chain_of_diamonds_instance,
    chain_of_diamonds_transducer,
)
from repro.workloads.registrar import (
    generate_registrar_instance,
    tau1_prerequisite_hierarchy,
    tau2_prerequisite_closure,
    tau3_courses_without_db_prereq,
)
from repro.xmltree.events import OpenEvent, events_to_tree
from repro.xmltree.serialize import IncrementalXmlSerializer, to_compact_xml, to_xml
from repro.xmltree.tree import TreeNode


def _fresh_document(tau, instance, indent=2):
    """The oracle document: a fresh plan's materialised tree, serialised."""
    tree = compile_plan(tau).publish(instance)
    return to_xml(tree, indent=indent) if indent is not None else to_compact_xml(tree)


def _workloads():
    registrar = generate_registrar_instance(15, max_prereqs=2, seed=11, cycle_fraction=0.1)
    return [
        ("tau1", tau1_prerequisite_hierarchy(), registrar),
        ("tau2", tau2_prerequisite_closure(), registrar),
        ("tau3", tau3_courses_without_db_prereq(), registrar),
        ("diamonds", chain_of_diamonds_transducer(), chain_of_diamonds_instance(4)),
        ("counter", binary_counter_transducer(), binary_counter_instance(2)),
    ]


ALL_COMBOS = tuple(itertools.product(BACKENDS, MAINTENANCE, ("bytes", "compact")))


# ---------------------------------------------------------------------------
# Byte identity across every routing combination.
# ---------------------------------------------------------------------------


class TestByteIdentity:
    @pytest.mark.parametrize("backend,maintenance,output", ALL_COMBOS)
    def test_all_workloads_all_combos(self, backend, maintenance, output):
        for name, tau, instance in _workloads():
            expected = _fresh_document(
                tau, instance, indent=2 if output == "bytes" else None
            )
            server = ViewServer()
            server.register_view(name, tau)
            server.attach(instance, name="src")
            produced = server.publish(
                name, output=output, backend=backend, maintenance=maintenance
            )
            assert produced == expected, (name, backend, maintenance, output)
            # A second publish serves from the rendered-span cache; the
            # bytes must not change.
            assert server.publish(
                name, output=output, backend=backend, maintenance=maintenance
            ) == expected

    @pytest.mark.parametrize("indent", [0, 2, 4, None])
    def test_indent_variants_match_serializers(self, indent):
        tau = tau1_prerequisite_hierarchy()
        instance = generate_registrar_instance(10, seed=5)
        plan = compile_plan(tau)
        tree = compile_plan(tau).publish(instance)
        expected = to_compact_xml(tree) if indent is None else to_xml(tree, indent=indent)
        assert plan.publish_bytes(instance, indent=indent) == expected
        # and again from the warm cache
        assert plan.publish_bytes(instance, indent=indent) == expected

    def test_matches_incremental_event_serializer(self):
        for name, tau, instance in _workloads():
            plan = compile_plan(tau)
            streamed = IncrementalXmlSerializer(indent=2).feed_all(
                plan.publish_events(instance)
            ).finish()
            assert compile_plan(tau).publish_bytes(instance, indent=2) == streamed, name

    def test_encoded_instances_match_row_instances(self):
        for name, tau, instance in _workloads():
            row_doc = compile_plan(tau).publish_bytes(instance)
            ensure_encoded(instance)  # in place; the content is unchanged
            assert compile_plan(tau).publish_bytes(instance) == row_doc, name


# ---------------------------------------------------------------------------
# Escaping edge cases: the interned fragments must escape exactly like the
# tree serialisers escape.
# ---------------------------------------------------------------------------

_NASTY_VALUES = (
    "&",
    "<tag>",
    "a&b<c>d",
    'he said "hi"',
    "it's",
    "héllo wörld ☃",
    "line\nbreak",
    "\ttab",
    "",
    True,
    False,
    42,
    -7,
    3.5,
)


def _escape_case():
    schema = RelationalSchema.from_attributes({"P": ("v",)})
    instance = Instance(schema, {"P": [(value,) for value in _NASTY_VALUES]})
    x = Variable("x")
    phi = ConjunctiveQuery((x,), (RelationAtom("P", (x,)),))
    copy = ConjunctiveQuery((x,), (RelationAtom("Reg_item", (x,)),))
    tau = (
        transducer("esc", root="r")
        .start()
        .emit("q", "item", phi)
        .state("q")
        .on("item")
        .emit_text(copy)
        .build()
    )
    return tau, instance


class TestEscaping:
    @pytest.mark.parametrize("encoded", [False, True])
    @pytest.mark.parametrize("indent", [2, None])
    def test_nasty_character_data(self, encoded, indent):
        tau, instance = _escape_case()
        if encoded:
            ensure_encoded(instance)
        expected = _fresh_document(tau, instance, indent=indent)
        produced = compile_plan(tau).publish_bytes(instance, indent=indent)
        assert produced == expected
        for value in ("&amp;", "&lt;tag&gt;", "true", "false", "42", "3.5"):
            assert value in produced
        assert "<tag>" not in produced

    def test_relation_register_join_escapes_identically(self):
        # Relation-valued registers render "; "-joined rows; escaping the
        # join must equal joining the escaped parts (tau2 exercises this).
        tau = tau2_prerequisite_closure()
        instance = generate_registrar_instance(12, seed=2)
        assert compile_plan(tau).publish_bytes(instance) == _fresh_document(tau, instance)


# ---------------------------------------------------------------------------
# Republish chains: incremental bytes vs the full-render oracle.
# ---------------------------------------------------------------------------


class TestRepublishChains:
    @pytest.mark.parametrize("encoded", [False, True])
    def test_delta_chain_matches_full_render(self, encoded):
        tau = tau1_prerequisite_hierarchy()
        server = ViewServer()
        server.register_view("tau1", tau)
        handle = server.attach(
            generate_registrar_instance(12, max_prereqs=2, seed=7),
            name="reg",
            encoded=encoded,
        )
        deltas = [
            Delta.insert("course", ("cs901", "Fancy Topics", "CS")),
            Delta.insert("prereq", ("cs901", "cs1")),
            Delta(
                inserted={
                    "course": {("cs902", "Fancier Topics", "CS")},
                    "prereq": {("cs902", "cs901")},
                }
            ),
            Delta.delete("prereq", ("cs901", "cs1")),
            Delta.delete("course", ("cs901", "Fancy Topics", "CS")),
        ]
        for delta in deltas:
            handle.commit(delta)
            for output, indent in (("bytes", 2), ("compact", None)):
                produced = server.publish(
                    "tau1", output=output, maintenance="incremental"
                )
                assert produced == _fresh_document(tau, handle.instance, indent=indent)

    def test_republish_reuses_rendered_spans(self):
        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        handle = server.attach(
            generate_registrar_instance(30, max_prereqs=2, seed=13),
            name="reg",
            encoded=True,
        )
        server.publish("tau1", output="bytes", maintenance="incremental")
        handle.commit(Delta.insert("course", ("cs999", "New Course", "CS")))
        server.publish("tau1", output="bytes", maintenance="incremental")
        cache = server.stats().as_dict()["views"][0]["cache"]
        assert cache["rendered_hits"] > 0
        assert cache["rendered_misses"] > 0


# ---------------------------------------------------------------------------
# No tree materialisation on the bytes path.
# ---------------------------------------------------------------------------


class TestNoTreeMaterialisation:
    def test_bytes_output_builds_no_tree_nodes(self, monkeypatch):
        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        server.attach(generate_registrar_instance(10, seed=3), name="reg")
        constructed = []
        original = TreeNode.__post_init__

        def probe(node):
            constructed.append(node)
            original(node)

        monkeypatch.setattr(TreeNode, "__post_init__", probe)
        cold = server.publish("tau1", output="bytes")
        hot = server.publish("tau1", output="bytes")
        compact = server.publish("tau1", output="compact")
        assert cold == hot and cold and compact
        assert constructed == []
        # The probe itself works: a tree publish does build nodes.
        server.publish("tau1", output="tree")
        assert constructed


# ---------------------------------------------------------------------------
# Observability: render-cache counters through stats() and explain().
# ---------------------------------------------------------------------------


class TestRenderCacheStats:
    def test_counters_surface_in_stats_and_explain(self):
        server = ViewServer()
        server.register_view("tau1", tau1_prerequisite_hierarchy())
        server.attach(generate_registrar_instance(10, seed=4), name="reg")
        first = server.publish("tau1", output="bytes")
        assert server.publish("tau1", output="bytes") == first
        stats = server.stats()
        cache = stats.as_dict()["views"][0]["cache"]
        assert cache["rendered_misses"] > 0
        assert cache["rendered_hits"] > 0  # the second publish is a cache hit
        assert "rendered spans" in stats.describe()
        report = server.explain("tau1")
        assert report.as_dict()["cache"]["rendered_hits"] == cache["rendered_hits"]
        assert "render cache:" in report.describe()


# ---------------------------------------------------------------------------
# One clean-subtree cache shared by every form; counters once per walk.
# ---------------------------------------------------------------------------


class _CountingLock:
    """Wraps a plan's lock and counts how often it is taken."""

    def __init__(self, lock) -> None:
        self.lock = lock
        self.taken = 0

    def __enter__(self):
        self.taken += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


def _forms(plan):
    return {
        "tree": plan.publish,
        "bytes": plan.publish_bytes,
        "compact": lambda instance: plan.publish_bytes(instance, indent=None),
        "events": lambda instance: list(plan.publish_events(instance)),
        "full": plan.publish_full,
    }


class TestOneCleanCache:
    def test_one_entry_holds_every_cached_form(self):
        # Acyclic prerequisites: no stop-condition hit, so the root is clean.
        instance = generate_registrar_instance(15, max_prereqs=2, seed=11)
        plan = compile_plan(tau1_prerequisite_hierarchy())
        plan.publish(instance)
        state = plan._instance_state(instance)
        configurations = set(state.clean)
        plan.publish_bytes(instance, indent=2)
        plan.publish_bytes(instance, indent=None)
        # The bytes walks add products to the tree walk's entries, no entries.
        assert set(state.clean) == configurations
        root = state.clean[plan._root_triple()]
        assert set(root.products) == {"tree", (2, 0), (None, 0)}
        for entry in state.clean.values():
            forms = set(entry.products)
            assert "tree" in forms and (None, 0) in forms
            assert any(form[0] == 2 for form in forms - {"tree"})

    def test_cacheless_forms_leave_the_cache_empty(self):
        instance = generate_registrar_instance(15, max_prereqs=2, seed=11)
        plan = compile_plan(tau1_prerequisite_hierarchy())
        list(plan.publish_events(instance))
        plan.publish_full(instance)
        state = plan._instance_state(instance)
        assert state.expansions and state.clean == {}

    @pytest.mark.parametrize("form", ["tree", "bytes", "compact", "events", "full"])
    def test_text_leaves_never_touch_the_memo(self, form):
        instance = generate_registrar_instance(15, max_prereqs=2, seed=11, cycle_fraction=0.1)
        tau = tau1_prerequisite_hierarchy()
        assert any(node.label == "text" for node in compile_plan(tau).publish(instance).walk())
        plan = compile_plan(tau)
        _forms(plan)[form](instance)
        expansions = plan._instance_state(instance).expansions
        assert all(triple[1] != "text" for triple in expansions)
        # Each miss memoises one configuration; a text leaf is never one.
        assert plan.cache_stats.misses == len(expansions)

    def test_counters_are_added_once_per_walk(self):
        small = generate_registrar_instance(5, max_prereqs=2, seed=1)
        large = generate_registrar_instance(40, max_prereqs=2, seed=1)
        plan = compile_plan(tau1_prerequisite_hierarchy())
        for name, publish in _forms(plan).items():
            for instance in (small, large):
                publish(instance)  # warm: the state and its memo exist
            lock = plan._lock = _CountingLock(plan._lock)
            taken = []
            for instance in (small, large):
                hits = plan.cache_stats.hits
                lock.taken = 0
                publish(instance)
                taken.append(lock.taken)
                assert plan.cache_stats.hits > hits, name
            plan._lock = lock.lock
            # The lock is taken as often for 40 courses as for 5.
            assert taken[0] == taken[1], (name, taken)

    def test_a_budget_error_still_adds_the_counters(self):
        plan = compile_plan(binary_counter_transducer(), max_nodes=50)
        instance = binary_counter_instance(3)
        with pytest.raises(TransformationLimitError):
            plan.publish(instance)
        expansions = plan._instance_state(instance).expansions
        assert plan.cache_stats.misses == len(expansions) > 0
        assert plan.cache_stats.hits > 0

    def test_republish_carries_each_entry_with_all_its_products(self):
        instance = generate_registrar_instance(20, max_prereqs=2, seed=13)
        plan = compile_plan(tau1_prerequisite_hierarchy())
        plan.publish(instance)
        plan.publish_bytes(instance)
        before = plan._instance_state(instance).clean
        result = plan.republish(
            instance, Delta.insert("course", ("cs999", "New Course", "CS"))
        )
        after = plan._instance_state(result.instance).clean
        carried = [triple for triple, entry in after.items() if before.get(triple) is entry]
        assert result.changed and carried
        for triple in carried:
            assert "tree" in after[triple].products
            assert any(form != "tree" for form in after[triple].products)
        hits = plan.cache_stats.rendered_hits
        assert plan.publish_bytes(result.instance) == _fresh_document(
            tau1_prerequisite_hierarchy(), result.instance
        )
        assert plan.cache_stats.rendered_hits > hits


# ---------------------------------------------------------------------------
# Iterative serialisers on Proposition-1-depth trees.
# ---------------------------------------------------------------------------


class TestDeepTrees:
    def _chain(self, depth: int) -> TreeNode:
        node = TreeNode("a")
        for _ in range(depth):
            node = TreeNode("a", (node,))
        return node

    def test_to_xml_survives_deep_chains(self):
        depth = 5000  # far beyond the default recursion limit
        document = to_xml(self._chain(depth))
        lines = document.split("\n")
        assert len(lines) == 2 * depth + 1
        assert lines[0] == "<a>" and lines[-1] == "</a>"
        assert lines[depth] == " " * (2 * depth) + "<a/>"

    def test_to_compact_xml_survives_deep_chains(self):
        depth = 5000
        assert to_compact_xml(self._chain(depth)) == (
            "<a>" * depth + "<a/>" + "</a>" * depth
        )


# ---------------------------------------------------------------------------
# Degenerate roots: a text root renders through the event serialiser, errors
# included; virtual roots cannot be defined.
# ---------------------------------------------------------------------------


def _text_root():
    from repro.core.rules import TransductionRule
    from repro.core.transducer import make_transducer
    from repro.xmltree.tree import TEXT_TAG

    tau = make_transducer(
        [TransductionRule("q0", TEXT_TAG, ())], start_state="q0", root_tag=TEXT_TAG
    )
    schema = RelationalSchema.from_attributes({"P": ("v",)})
    return tau, Instance(schema, {"P": [("p1",)]})


class TestDegenerateRoots:
    def test_virtual_roots_are_rejected_at_definition(self):
        # The walker's sentinel frame opens the root like any node, which is
        # only sound because the transducer layer forbids virtual roots.
        from repro.core.transducer import TransducerDefinitionError

        x = Variable("x")
        phi = ConjunctiveQuery((x,), (RelationAtom("P", (x,)),))
        builder = transducer("vroot", root="v")
        builder.virtual("v")
        builder.start().emit("q", "a", phi)
        builder.state("q").on("a").leaf()
        with pytest.raises(TransducerDefinitionError, match="root tag cannot be virtual"):
            builder.build()

    def test_text_root_keeps_the_event_serializer_semantics(self):
        # A text root is constructible; the bytes path must surface the
        # event serialiser's document-rule error, message included.
        tau, instance = _text_root()
        with pytest.raises(ValueError, match="outside the document root"):
            compile_plan(tau).publish_bytes(instance)

    def test_text_root_matches_the_interpreter(self):
        tau, instance = _text_root()
        reference = TransducerRuntime(tau).run(instance)
        assert reference.tree == TreeNode("text", (), "")
        assert reference.steps == 1
        plan = compile_plan(tau)
        assert plan.publish(instance) == reference.tree
        assert events_to_tree(plan.publish_events(instance)) == reference.tree
        full = plan.publish_full(instance)
        assert full.tree == reference.tree
        assert full.steps == reference.steps


# ---------------------------------------------------------------------------
# The write= contract and budget parity with tree mode.
# ---------------------------------------------------------------------------


class TestContracts:
    def test_write_sink_returns_empty_string(self):
        tau = tau1_prerequisite_hierarchy()
        instance = generate_registrar_instance(8, seed=6)
        plan = compile_plan(tau)
        document = plan.publish_bytes(instance)
        chunks: list[str] = []
        assert plan.publish_bytes(instance, write=chunks.append) == ""
        assert "".join(chunks) == document

    def test_budget_parity_with_tree_mode(self):
        # Every output form charges the node budget alike, cold and with the
        # clean-subtree cache warm (the diamonds reuse subtrees within one
        # document; the counter's blow-up comes from stop-condition hits).
        def minimal_budget(publish) -> int:
            low, high = 1, 2000
            while low < high:
                mid = (low + high) // 2
                try:
                    publish(mid)
                except TransformationLimitError:
                    low = mid + 1
                else:
                    high = mid
            return low

        cases = (
            (binary_counter_transducer(), binary_counter_instance(2)),
            (chain_of_diamonds_transducer(), chain_of_diamonds_instance(4)),
        )
        for tau, instance in cases:

            def plan(budget, tau=tau):
                return compile_plan(tau, max_nodes=budget)

            warm = compile_plan(tau, max_nodes=10**6)
            warm.publish(instance)
            warm.publish_bytes(instance)
            forms = {
                "tree": lambda budget: plan(budget).publish(instance),
                "bytes": lambda budget: plan(budget).publish_bytes(instance, indent=2),
                "compact": lambda budget: plan(budget).publish_bytes(instance, indent=None),
                "events": lambda budget: list(plan(budget).publish_events(instance)),
                "full": lambda budget: plan(budget).publish_full(instance),
                "interpreter": lambda budget: TransducerRuntime(
                    tau, max_nodes=budget
                ).run(instance),
                "warm tree": lambda budget: warm.publish(instance, max_nodes=budget),
                "warm bytes": lambda budget: warm.publish_bytes(
                    instance, max_nodes=budget
                ),
            }
            minima = {name: minimal_budget(publish) for name, publish in forms.items()}
            tree_minimum = minima["tree"]
            assert minima == dict.fromkeys(forms, tree_minimum), tau.name
            with pytest.raises(TransformationLimitError):
                plan(tree_minimum - 1).publish_bytes(instance)

    def test_publish_events_is_lazy(self):
        plan = compile_plan(binary_counter_transducer(), max_nodes=50)
        stream = plan.publish_events(binary_counter_instance(3))
        assert next(stream) == OpenEvent("r")
        produced = 1
        with pytest.raises(TransformationLimitError):
            for _ in stream:
                produced += 1
        assert produced == 62  # the events before the budget is exhausted
