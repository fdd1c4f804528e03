"""One expansion walker, four output sinks.

The transformation is confluent: a node's subtree depends only on its
``(state, tag, register)`` configuration, and only the stop condition looks
at the root-to-node path.  Every output form of
:class:`~repro.engine.plan.PublishingPlan` is therefore one depth-first walk
over the same memoised expansions, and :func:`walk` is that walk.  It owns
everything the forms share:

* the frame stack, the stop-condition path and the node budget (a node is
  charged the length of its expansion when it opens, so the minimal budget
  is the same in every form);
* memo lookups and text leaves -- a text leaf renders from its register
  alone and never touches the memo;
* the **clean-subtree cache** ``state.clean`` and the hit/miss counters,
  which accumulate locally and are added under the plan's lock once per
  walk.

A subtree is *clean* when no stop-condition hit occurred inside it and its
configuration set stays within :data:`_SUBTREE_TRIPLE_LIMIT`.  Its
:class:`CleanSubtree` entry holds, once, the configuration set (reuse
requires the current path to be disjoint from it, which keeps the stop
condition exact; :meth:`~repro.engine.plan.PublishingPlan.republish` carries
the entry across a delta iff none of its configurations' expansions
changed), the budget weight a reuse charges and the number of expansions it
answers, plus one *product* per output form.

A sink only appends to one flat ``out`` list and rewrites its own span
``out[start:]`` when the node closes -- the append-and-patch output
registers of Alur & D'Antoni's streaming tree transducers.  The four sinks:

* :class:`TreeSink` wraps an element's span in a :class:`TreeNode` (product
  form ``"tree"``: the nodes the subtree contributes to its parent);
* :class:`BytesSink` emits a placeholder when an element opens and patches
  it to the empty, inline or mixed form when it closes (product form
  ``(indent, level)``: the rendered span);
* :class:`EventSink` emits SAX-style events, which :func:`walk` yields as
  they are produced (no cache);
* :class:`AnnotatedSink` builds the interpreter-compatible extended tree,
  virtual nodes included (no cache).

Sinks without a cache skip the configuration-set bookkeeping altogether.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from repro.core.runtime import AnnotatedNode, TransformationLimitError
from repro.relational.domain import relation_to_text
from repro.xmltree.events import CloseEvent, OpenEvent, TextEvent
from repro.xmltree.tree import TEXT_TAG, TreeNode

#: Largest configuration-set size a cached subtree may carry.  Bigger
#: subtrees are rebuilt from the (still memoised) expansions instead, which
#: bounds the bookkeeping cost of structural sharing on blow-up outputs.
_SUBTREE_TRIPLE_LIMIT = 4096

#: Largest chunk span a cached rendered subtree may hold.  Bigger spans are
#: re-emitted from the (still cached) child entries instead, which bounds
#: the cache's memory on blow-up outputs.
_RENDER_SPAN_LIMIT = 65536


class CleanSubtree:
    """The cached, context-free walk of one configuration's subtree.

    ``triples`` is every non-text configuration in the subtree, ``weight``
    the node-budget charge its walk makes below its root, ``nodes`` the
    number of expansions a reuse answers, and ``products`` maps an output
    form to what the subtree contributes to its parent's span in that form.
    """

    __slots__ = ("triples", "weight", "nodes", "products")

    def __init__(self, triples: frozenset, weight: int, nodes: int) -> None:
        self.triples = triples
        self.weight = weight
        self.nodes = nodes
        self.products: dict = {}


class _Frame:
    """One open node of the walk.

    ``start`` is the node's span start in the sink's ``out`` list; ``key``
    is the product form of its children (a sink may change it when the node
    opens); ``triples`` accumulates the subtree's configurations while it is
    still clean and flips to ``None`` -- poisoning every ancestor -- on a
    stop-condition hit or past :data:`_SUBTREE_TRIPLE_LIMIT`; ``aux`` belongs
    to the sink.
    """

    __slots__ = (
        "triple",
        "expansion",
        "index",
        "start",
        "key",
        "triples",
        "weight",
        "nodes",
        "aux",
    )

    def __init__(self, triple, expansion, start: int, key, triples) -> None:
        self.triple = triple
        self.expansion = expansion
        self.index = 0
        self.start = start
        self.key = key
        self.triples = triples
        self.weight = len(expansion)
        self.nodes = 1
        self.aux = None


def walk(plan, state, budget: int, sink):
    """Walk ``state``'s output document into ``sink``.

    A generator: it yields the sink's output as it is produced when the
    sink is lazy, nothing otherwise, and returns the number of nodes
    produced (the interpreter's step count).  The root is the only child of
    a sentinel frame, so it is looked up, opened and closed like any other
    node.
    """
    expansions = state.expansions
    clean = state.clean if sink.caches else None
    memoise = plan._memoised
    out = sink.out
    lazy = sink.lazy
    open_, text, stopped, close = sink.open, sink.text, sink.stopped, sink.close
    reuse = None if clean is None else sink.reuse
    limit = _SUBTREE_TRIPLE_LIMIT
    path: set = set()
    produced = 1
    hits = misses = reused = walked = 0
    top = _Frame(None, (plan._root_triple(),), 0, sink.top_key, None)
    frames = [top]
    try:
        while True:
            if lazy and out:
                yield from out
                out.clear()
            frame = frames[-1]
            index = frame.index
            if index < len(frame.expansion):
                child = frame.expansion[index]
                frame.index = index + 1
                if child[1] == TEXT_TAG:
                    text(frame, child)
                    continue
                if child in path:
                    # Stop condition: the node exists but expands to nothing.
                    frame.triples = None
                    stopped(frame, child)
                    continue
                if clean is not None:
                    entry = clean.get(child)
                    if entry is not None and path.isdisjoint(entry.triples):
                        product = entry.products.get(frame.key)
                        if product is not None:
                            produced += entry.weight
                            if produced > budget:
                                raise _over_budget(budget)
                            hits += entry.nodes
                            reused += 1
                            reuse(frame, product)
                            frame.weight += entry.weight
                            frame.nodes += entry.nodes
                            triples = frame.triples
                            if triples is not None:
                                triples |= entry.triples
                                if len(triples) > limit:
                                    frame.triples = None
                            continue
                expansion = expansions.get(child)
                if expansion is None:
                    misses += 1
                    expansion = memoise(state, child)
                else:
                    hits += 1
                produced += len(expansion)
                if produced > budget:
                    raise _over_budget(budget)
                path.add(child)
                node = _Frame(
                    child, expansion, len(out), frame.key, None if clean is None else {child}
                )
                open_(node, frame)
                frames.append(node)
                continue
            if frame is top:
                break
            frames.pop()
            triple = frame.triple
            path.remove(triple)
            walked += 1
            parent = frames[-1]
            triples = frame.triples
            product = close(frame, parent, triples is not None)
            parent.weight += frame.weight
            parent.nodes += frame.nodes
            if triples is None:
                parent.triples = None
                continue
            if product is not None:
                entry = clean.get(triple)
                if entry is None:
                    entry = clean[triple] = CleanSubtree(
                        frozenset(triples), frame.weight, frame.nodes
                    )
                entry.products[parent.key] = product
            merged = parent.triples
            if merged is not None:
                # Small-to-large: donate the bigger set upward, so deep
                # spines cost O(n log n) bookkeeping, not O(n * depth).
                if len(merged) < len(triples):
                    triples |= merged
                    parent.triples = merged = triples
                else:
                    merged |= triples
                if len(merged) > limit:
                    parent.triples = None
    finally:
        with plan._lock:
            plan._hits += hits
            plan._misses += misses
            if sink.spans:
                plan._render_hits += reused
                plan._render_misses += walked
    return produced


def run(plan, state, budget: int, sink) -> int:
    """Walk to completion with an eager sink; the number of nodes produced."""
    try:
        next(walk(plan, state, budget, sink))
    except StopIteration as done:
        return done.value
    raise TypeError(f"{type(sink).__name__} is lazy: iterate walk() instead")


def _over_budget(budget: int) -> TransformationLimitError:
    return TransformationLimitError(
        f"transformation exceeded the node budget of {budget} nodes; "
        f"raise max_nodes if the blow-up is intended"
    )


def _text(state, register) -> str:
    """The character data of a text leaf (its register decoded)."""
    return relation_to_text(state.decode(register))


class TreeSink:
    """Materialise the output Σ-tree; ``out[0]`` is the root when done.

    Cached products are the :class:`TreeNode` objects themselves, so a
    reused subtree is shared by identity -- within one document, across
    repeated publishes and across republished versions.
    """

    caches = True
    lazy = False
    spans = False
    top_key = "tree"

    def __init__(self, plan, state) -> None:
        self.out: list = []
        self._virtual = plan._virtual
        self._state = state

    def open(self, frame, parent) -> None:
        pass

    def text(self, frame, child) -> None:
        if TEXT_TAG not in self._virtual:
            self.out.append(TreeNode(TEXT_TAG, (), _text(self._state, child[2])))

    def stopped(self, frame, child) -> None:
        if child[1] not in self._virtual:
            self.out.append(TreeNode(child[1]))

    def reuse(self, frame, product) -> None:
        self.out.extend(product)

    def close(self, frame, parent, keep: bool):
        out = self.out
        start = frame.start
        tag = frame.triple[1]
        if tag in self._virtual:
            # Virtual tags splice their children into the parent's span.
            return tuple(out[start:]) if keep else None
        node = TreeNode(tag, tuple(out[start:]))
        del out[start:]
        out.append(node)
        return (node,)


class EventSink:
    """The lazy SAX-style event stream; virtual tags contribute no events,
    only their children's.  No cache: nothing is retained per subtree."""

    caches = False
    lazy = True
    spans = False
    top_key = None

    def __init__(self, plan, state) -> None:
        self.out: list = []
        self._virtual = plan._virtual
        self._state = state

    def open(self, frame, parent) -> None:
        tag = frame.triple[1]
        if tag not in self._virtual:
            self.out.append(OpenEvent(tag))

    def text(self, frame, child) -> None:
        if TEXT_TAG not in self._virtual:
            self.out.append(TextEvent(_text(self._state, child[2])))

    def stopped(self, frame, child) -> None:
        tag = child[1]
        if tag not in self._virtual:
            self.out.append(OpenEvent(tag))
            self.out.append(CloseEvent(tag))

    def close(self, frame, parent, keep: bool) -> None:
        tag = frame.triple[1]
        if tag not in self._virtual:
            self.out.append(CloseEvent(tag))


class AnnotatedSink:
    """The extended tree in ``Tree_{Q x Sigma}`` (interpreter-compatible):
    every node, virtual and stopped ones included, with decoded registers.
    ``out[0]`` is the root when done.  No cache."""

    caches = False
    lazy = False
    spans = False
    top_key = None

    def __init__(self, plan, state) -> None:
        self.out: list = []
        self._decode = state.decode

    def _node(self, triple, parent, **fields) -> AnnotatedNode:
        return AnnotatedNode(
            state=triple[0],
            tag=triple[1],
            register=self._decode(triple[2]),
            parent=parent,
            finalized=True,
            **fields,
        )

    def open(self, frame, parent) -> None:
        frame.aux = self._node(frame.triple, parent.aux)

    def text(self, frame, child) -> None:
        node = self._node(child, frame.aux)
        node.text = relation_to_text(node.register)
        self.out.append(node)

    def stopped(self, frame, child) -> None:
        self.out.append(self._node(child, frame.aux, stopped_by_condition=True))

    def close(self, frame, parent, keep: bool) -> None:
        out = self.out
        node = frame.aux
        node.children = out[frame.start :]
        del out[frame.start :]
        out.append(node)


class BytesSink:
    """Serialise straight from the expansions; no :class:`TreeNode` is built.

    * **byte templates** -- the constant skeleton of the output (``<tag>``,
      ``</tag>``, ``<tag/>``, newline-plus-indentation prefixes) is
      preassembled once per ``(tag, level)`` on the plan and reused across
      publishes;
    * **interned character data** -- text registers render through
      :meth:`~repro.relational.columnar.DictionaryEncoder.escaped_text`
      (encoded pipeline: fragments are interned on the shared encoder and
      survive version migrations) or the per-lineage ``text_fragments`` memo
      (row pipeline), so escaping runs once per distinct register;
    * **rendered spans** -- the product of a clean subtree is its rendered
      chunk span at its level, plus its raw escaped text when the
      contribution is pure text (a virtual subtree of text leaves: the
      enclosing element may still render inline).

    An element's slot in ``out`` holds a placeholder until it closes, when
    the empty (``<tag/>``), inline (text children only, on one line) or
    mixed (multi-line, per-level indentation) form is known; ``aux`` buffers
    the raw escaped text while the node's contribution is still pure text
    and flips to ``None`` when an element child arrives.  Output is
    byte-identical to :func:`repro.xmltree.serialize.to_xml` (``indent=N``)
    and the compact serialiser (``indent=None``).
    """

    caches = True
    lazy = False
    spans = True

    def __init__(self, plan, state, indent: int | None) -> None:
        self.out: list[str] = []
        self._virtual = plan._virtual
        self._indent = indent
        self.top_key = (indent, 0)
        self._keys = [self.top_key]
        templates = plan._templates.get(indent)
        if templates is None:
            # opens / closes / empties keyed (tag, level); ends keyed tag;
            # setdefault so two racing publishes agree on one table (the
            # entries are deterministic, so last-wins fills are fine).
            templates = plan._templates.setdefault(indent, ({}, {}, {}, {}))
        self._opens, self._closes, self._empties, self._ends = templates
        # One line prefix per level; the compact form has none.  Level 0 is
        # the root's only, and the document starts without a newline.
        self._pads = [""] if indent is None else ["\n"]
        encoder = state.encoder
        if encoder is not None:
            self._text_of = encoder.escaped_text
        else:
            fragments = state.text_fragments

            def text_of(register) -> str:
                found = fragments.get(register)
                if found is None:
                    found = fragments[register] = escape(relation_to_text(register))
                return found

            self._text_of = text_of

    def _key(self, level: int):
        """The product form of a span at ``level`` (interned per level)."""
        keys = self._keys
        while len(keys) <= level:
            depth = len(keys)
            keys.append((self._indent, depth))
            self._pads.append("\n" + " " * (self._indent * depth))
        return keys[level]

    def _open_tag(self, tag: str, level: int) -> str:
        key = (tag, level)
        found = self._opens.get(key)
        if found is None:
            prefix = self._pads[level] if level else ""
            found = self._opens[key] = f"{prefix}<{tag}>"
        return found

    def _empty_tag(self, tag: str, level: int) -> str:
        key = (tag, level)
        found = self._empties.get(key)
        if found is None:
            prefix = self._pads[level] if level else ""
            found = self._empties[key] = f"{prefix}<{tag}/>"
        return found

    def _close_tag(self, tag: str, level: int) -> str:
        key = (tag, level)
        found = self._closes.get(key)
        if found is None:
            found = self._closes[key] = f"{self._pads[level]}</{tag}>"
        return found

    def _end_tag(self, tag: str) -> str:
        found = self._ends.get(tag)
        if found is None:
            found = self._ends[tag] = f"</{tag}>"
        return found

    def open(self, frame, parent) -> None:
        frame.aux = []
        if frame.triple[1] in self._virtual:
            return  # spliced at the parent's level
        self.out.append("")  # placeholder: empty / inline / open, patched at close
        if self._indent is not None:
            frame.key = self._key(parent.key[1] + 1)

    def text(self, frame, child) -> None:
        if TEXT_TAG in self._virtual:
            return
        fragment = self._text_of(child[2])
        if self._indent is None:
            self.out.append(fragment)
        else:
            self.out.append(self._pads[frame.key[1]] + fragment)
        if frame.aux is not None:
            frame.aux.append(fragment)

    def stopped(self, frame, child) -> None:
        tag = child[1]
        if tag not in self._virtual:
            self.out.append(self._empty_tag(tag, frame.key[1]))
            frame.aux = None

    def reuse(self, frame, product) -> None:
        chunks, texts = product
        self.out.extend(chunks)
        if texts is None:
            frame.aux = None
        elif frame.aux is not None:
            frame.aux.extend(texts)

    def close(self, frame, parent, keep: bool):
        out = self.out
        start = frame.start
        texts = frame.aux
        tag = frame.triple[1]
        virtual = tag in self._virtual
        if virtual:
            if texts is None:
                parent.aux = None
            elif parent.aux is not None:
                parent.aux.extend(texts)
        else:
            level = parent.key[1]
            if texts is None:
                # Mixed content: children rendered themselves into the span
                # as they were visited; the close tag gets its own line.
                out[start] = self._open_tag(tag, level)
                out.append(self._close_tag(tag, level))
            elif texts:
                # Text-only: the whole span collapses to one inline line
                # (the buffered raw fragments replace their padded lines).
                inline = "".join(texts)
                out[start:] = [f"{self._open_tag(tag, level)}{inline}{self._end_tag(tag)}"]
            else:
                out[start] = self._empty_tag(tag, level)
            parent.aux = None
        if not keep or len(out) - start > _RENDER_SPAN_LIMIT:
            return None
        return tuple(out[start:]), tuple(texts) if virtual and texts is not None else None


def render_document(plan, state, budget: int, indent: int | None) -> str:
    """Render one instance's output document as a string (no trees built)."""
    if plan._root_tag == TEXT_TAG:
        # A text root puts character data outside any element; the event
        # serialiser is the reference for that document-rule error.
        from repro.xmltree.serialize import IncrementalXmlSerializer

        events = walk(plan, state, budget, EventSink(plan, state))
        return IncrementalXmlSerializer(indent=indent).feed_all(events).finish()
    sink = BytesSink(plan, state, indent)
    run(plan, state, budget, sink)
    out = sink.out
    if len(out) == 1:
        return out[0]
    document = "".join(out)
    entry = state.clean.get(plan._root_triple())
    if entry is not None and sink.top_key in entry.products:
        # The root's span as one chunk: a cache-hot publish of this
        # document (on this version or a later one none of whose changes
        # touch it) is then a buffer handoff.
        entry.products[sink.top_key] = ((document,), None)
    return document
