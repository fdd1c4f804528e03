"""One-shot publishing helpers for callers holding a compiled plan.

:func:`publish_stream` publishes a stream of instances over one
:class:`~repro.engine.plan.PublishingPlan`, :func:`publish_document` streams
one publish straight into XML text, and the ``serialize_*`` /
:func:`compact_tree` helpers render event streams and materialised trees
byte-identically to :meth:`repro.serve.server.ViewServer.publish`.  They
build only on the engine's core drivers (``publish`` / ``publish_events``).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.relational.instance import Instance
from repro.xmltree.events import XmlEvent, tree_to_events
from repro.xmltree.serialize import IncrementalXmlSerializer, compact_xml_from_events
from repro.xmltree.tree import TreeNode


def publish_stream(
    plan, instances: Iterable[Instance], max_nodes: int | None = None
) -> Iterator[TreeNode]:
    """Lazily publish a stream of instances over one compiled plan.

    One tree per input instance, in order, built only when the consumer asks
    for it; all instances share the plan's LRU-bounded per-instance caches.
    """
    for instance in instances:
        yield plan.publish(instance, max_nodes)


def publish_document(
    plan,
    instance: Instance,
    indent: int | None = 2,
    write=None,
    max_nodes: int | None = None,
) -> str:
    """Stream a publish directly into XML text.

    With ``write`` (a callable receiving string chunks) the document is
    pushed incrementally and an empty string is returned; without it the
    serialised document is returned whole.  Byte-identical to serialising
    the materialised tree.
    """
    return serialize_events(
        plan.publish_events(instance, max_nodes), indent=indent, write=write
    )


def serialize_events(
    events: Iterable[XmlEvent], indent: int | None = 2, write=None
) -> str:
    """Serialise an event stream to an (optionally indented) XML document."""
    serializer = IncrementalXmlSerializer(write=write, indent=indent)
    return serializer.feed_all(events).finish()


def serialize_tree(tree: TreeNode, indent: int | None = 2, write=None) -> str:
    """Serialise a materialised tree, byte-identical to the streaming path."""
    return serialize_events(tree_to_events(tree), indent=indent, write=write)


def compact_tree(tree: TreeNode) -> str:
    """The single-line compact XML form of a materialised tree."""
    return compact_xml_from_events(tree_to_events(tree))
