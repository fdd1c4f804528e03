"""Virtual-node elimination edge cases in streaming mode, and the serialisers.

The on-the-fly virtual-tag elimination of ``publish_events`` must agree with
the materialised pipeline (strip + bottom-up splice) in every corner the
definition permits: virtual tags directly under the root, nested virtual
tags, and virtual nodes whose entire subtree is virtual.
"""

from __future__ import annotations

import pytest

from repro.core.runtime import TransducerRuntime
from repro.engine import TransducerBuilder, compile_plan
from repro.logic.cq import ConjunctiveQuery, RelationAtom, equality
from repro.logic.terms import Constant, Variable
from repro.relational.instance import Instance
from repro.relational.schema import RelationalSchema
from repro.serve import publish_document
from repro.xmltree.events import (
    CloseEvent,
    OpenEvent,
    TextEvent,
    events_to_tree,
    tree_to_events,
)
from repro.xmltree.serialize import (
    IncrementalXmlSerializer,
    compact_xml_from_events,
    to_compact_xml,
    to_xml,
    xml_from_events,
)
from repro.xmltree.tree import tree, text_node

SCHEMA = RelationalSchema.from_attributes({"P": ("v",)})
INSTANCE = Instance(SCHEMA, {"P": [("p1",), ("p2",)]})


def _all_p() -> ConjunctiveQuery:
    x = Variable("x")
    return ConjunctiveQuery((x,), (RelationAtom("P", (x,)),))


def _copy(parent_tag: str) -> ConjunctiveQuery:
    x = Variable("x")
    return ConjunctiveQuery((x,), (RelationAtom(f"Reg_{parent_tag}", (x,)),))


def _one_p(value: str) -> ConjunctiveQuery:
    x = Variable("x")
    return ConjunctiveQuery(
        (x,), (RelationAtom("P", (x,)),), (equality(x, Constant(value)),)
    )


def _assert_stream_matches_materialised(tau, instance=INSTANCE):
    """The acceptance criterion: streamed == materialised, byte for byte."""
    reference = TransducerRuntime(tau).run(instance).tree
    plan = compile_plan(tau)
    materialised = plan.publish(instance)
    assert materialised == reference
    assert events_to_tree(plan.publish_events(instance)) == reference
    assert publish_document(plan, instance) == to_xml(reference)
    assert publish_document(plan, instance, indent=None) == to_compact_xml(reference)
    return materialised


class TestVirtualEliminationEdgeCases:
    def test_virtual_tag_directly_under_root(self):
        builder = TransducerBuilder("virtual-under-root")
        builder.virtual("v")
        builder.start().emit("q", "v", _all_p())
        builder.state("q").on("v").emit("q", "a", _copy("v"))
        out = _assert_stream_matches_materialised(builder.build())
        # The two v-nodes are spliced out; their a-children surface at the root.
        assert out.child_labels() == ("a", "a")
        assert "v" not in out.labels()

    def test_nested_virtual_tags(self):
        builder = TransducerBuilder("nested-virtual")
        builder.virtual("v", "w")
        builder.start().emit("q", "v", _one_p("p1"))
        (
            builder.state("q")
            .on("v")
            .emit("q", "w", _copy("v"))
            .emit("q", "b", _copy("v"))
        )
        builder.state("q").on("w").emit("q", "a", _copy("w"))
        out = _assert_stream_matches_materialised(builder.build())
        # v -> (w -> a), b collapses to a, b at the root, order preserved.
        assert out.child_labels() == ("a", "b")
        assert out.labels() & {"v", "w"} == set()

    def test_entirely_virtual_subtree_vanishes(self):
        builder = TransducerBuilder("all-virtual-subtree")
        builder.virtual("v", "w")
        builder.start().emit("q", "a", _one_p("p1")).emit("q", "v", _one_p("p1"))
        builder.state("q").on("v").emit("q", "w", _copy("v"))
        builder.state("q").on("w").leaf()
        out = _assert_stream_matches_materialised(builder.build())
        # The v subtree is virtual all the way down: it contributes nothing.
        assert out.child_labels() == ("a",)

    def test_virtual_node_with_text_descendants(self):
        builder = TransducerBuilder("virtual-with-text")
        builder.virtual("v")
        builder.start().emit("q", "v", _all_p())
        builder.state("q").on("v").emit_text(_copy("v"))
        out = _assert_stream_matches_materialised(builder.build())
        assert [node.text for node in out.children] == ["p1", "p2"]

    def test_stopped_virtual_node_contributes_nothing(self):
        # v recurses into v with the same register: the stop condition fires
        # at depth two, and the stopped virtual leaf must vanish entirely.
        builder = TransducerBuilder("virtual-stop")
        builder.virtual("v")
        builder.start().emit("q", "a", _one_p("p1"))
        builder.state("q").on("a").emit("q", "v", _copy("a"))
        builder.state("q").on("v").emit("q", "v", _copy("v")).emit("q", "b", _copy("v"))
        out = _assert_stream_matches_materialised(builder.build())
        a = out.children[0]
        # The inner v repeats (state, tag, register) of its parent v, so the
        # stop condition fires immediately: the stopped virtual leaf is
        # spliced away and only the expanded level's b-child remains.
        assert a.child_labels() == ("b",)

    def test_virtual_recursion_closure(self):
        """The tau2 pattern in miniature: a virtual accumulator under each node."""
        schema = RelationalSchema.from_attributes({"E": ("src", "dst")})
        instance = Instance(
            schema, {"E": [("n0", "n1"), ("n1", "n2"), ("n2", "n0")]}
        )
        x, y = Variable("x"), Variable("y")
        start = ConjunctiveQuery(
            (x,), (RelationAtom("E", (x, y)),), (equality(x, Constant("n0")),)
        )
        step = ConjunctiveQuery((y,), (RelationAtom("Reg", (x,)), RelationAtom("E", (x, y))))
        builder = TransducerBuilder("cyclic-unfold")
        builder.virtual("v")
        builder.start().emit("q", "v", start)
        builder.state("q").on("v").emit("q", "v", step).emit("q", "a", _copy("v"))
        _assert_stream_matches_materialised(builder.build(), instance)


class TestEventRoundTrips:
    def test_tree_to_events_round_trip(self):
        document = tree(
            "r", tree("a", text_node("x"), tree("b")), tree("c"), text_node("y")
        )
        assert events_to_tree(tree_to_events(document)) == document

    def test_events_to_tree_rejects_mismatched_close(self):
        with pytest.raises(ValueError):
            events_to_tree([OpenEvent("a"), CloseEvent("b")])

    def test_events_to_tree_rejects_unclosed(self):
        with pytest.raises(ValueError):
            events_to_tree([OpenEvent("a")])

    def test_events_to_tree_rejects_multiple_roots(self):
        with pytest.raises(ValueError):
            events_to_tree(
                [OpenEvent("a"), CloseEvent("a"), OpenEvent("b"), CloseEvent("b")]
            )

    def test_events_to_tree_rejects_empty(self):
        with pytest.raises(ValueError):
            events_to_tree([])


class TestIncrementalSerializer:
    @pytest.mark.parametrize(
        "document",
        [
            tree("r"),
            tree("r", tree("a"), tree("b")),
            tree("r", text_node("hello")),
            tree("r", text_node("a & b < c")),
            tree("r", tree("a", text_node("x"), text_node("y"))),
            tree("r", tree("a", text_node("x"), tree("b"), text_node("y"))),
            tree("r", tree("a", tree("b", text_node("deep")), text_node("tail"))),
            tree("r", tree("a", tree("empty"))),
        ],
        ids=[
            "empty-root",
            "elements",
            "text-only",
            "escaping",
            "two-texts-inline",
            "mixed-content",
            "nested-mixed",
            "empty-element",
        ],
    )
    def test_byte_identical_to_materialised_renderers(self, document):
        events = list(tree_to_events(document))
        assert xml_from_events(events) == to_xml(document)
        assert compact_xml_from_events(events) == to_compact_xml(document)

    def test_write_callback_streams_chunks(self):
        chunks: list[str] = []
        serializer = IncrementalXmlSerializer(write=chunks.append, indent=None)
        serializer.feed(OpenEvent("r"))
        serializer.feed(TextEvent("x"))
        serializer.feed(CloseEvent("r"))
        assert serializer.finish() == ""
        assert "".join(chunks) == "<r>x</r>"

    def test_none_text_renders_empty(self):
        document = tree("r", text_node("a"))
        stream = [OpenEvent("r"), TextEvent(None), CloseEvent("r")]
        assert compact_xml_from_events(stream) == "<r></r>"
        assert document  # silence unused warnings

    def test_rejects_unbalanced_stream(self):
        serializer = IncrementalXmlSerializer()
        serializer.feed(OpenEvent("r"))
        with pytest.raises(ValueError):
            serializer.finish()

    def test_rejects_mismatched_close(self):
        serializer = IncrementalXmlSerializer()
        serializer.feed(OpenEvent("r"))
        with pytest.raises(ValueError):
            serializer.feed(CloseEvent("a"))

    def test_rejects_text_outside_root(self):
        with pytest.raises(ValueError):
            IncrementalXmlSerializer().feed(TextEvent("x"))

    def test_rejects_second_root(self):
        serializer = IncrementalXmlSerializer()
        serializer.feed(OpenEvent("r"))
        serializer.feed(CloseEvent("r"))
        with pytest.raises(ValueError):
            serializer.feed(OpenEvent("r"))

    def test_rejects_empty_finish(self):
        with pytest.raises(ValueError):
            IncrementalXmlSerializer().finish()
