"""The bytes-native publish driver: serialise straight from the expansions.

:meth:`repro.engine.plan.PublishingPlan.publish_bytes` routes here.  The
other evaluation modes materialise a Σ-tree (or an event stream) and hand it
to a serialiser; profiling shows that on warm caches the publish hot path is
dominated by exactly that re-walk -- per-node ``TreeNode`` construction or
per-event serialiser dispatch plus text re-rendering -- while the memoised
expansions answer in a dictionary lookup.  This driver removes the middle
layer entirely:

* **byte templates** -- the constant skeleton of the output (``<tag>``,
  ``</tag>``, ``<tag/>``, newline-plus-indentation prefixes) is preassembled
  once per ``(tag, level)`` on the plan and reused across publishes, so the
  steady-state cost of an element is a few dict lookups and list appends;
* **interned character data** -- text registers render through
  :meth:`~repro.relational.columnar.DictionaryEncoder.escaped_text` (encoded
  pipeline: escaped fragments are interned next to the value ids on the
  shared encoder and survive version migrations) or a per-instance-state
  fragment memo (row pipeline), so ``escape``/:func:`relation_to_text` run
  once per distinct register, not once per node visit;
* **a rendered-bytes cache** -- the rendered span of every clean subtree is
  cached per ``(state, tag, register)`` configuration and level, exactly
  parallel to the structural subtree cache of tree mode: reuse requires the
  current root-to-node path to be disjoint from the subtree's configuration
  set (stop-condition safety), reuse charges the node budget the subtree's
  traversal would have charged, and :meth:`PublishingPlan.republish`
  carries an entry across versions iff none of its configurations'
  expansions changed -- for any number of commits between publishes.  A
  republish therefore re-renders only the spans around changed
  configurations, and a cache-hot publish of an unchanged document is a
  buffer handoff.

Output is **byte-identical** to the established serialisers on every
backend: ``indent=N`` matches :func:`repro.xmltree.serialize.to_xml` /
:class:`~repro.xmltree.serialize.IncrementalXmlSerializer`, ``indent=None``
matches the compact forms.  The rendering rules mirrored here are: an
element with no children is ``<tag/>``; an element whose children are all
text renders inline on one line; anything else renders multi-line with
per-level indentation; virtual tags contribute their children's spans
spliced at the enclosing element's level.

No ``TreeNode`` is ever constructed: working state is a frame stack over
the expansion tuples and one flat list of string chunks.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

from repro.relational.domain import relation_to_text
from repro.xmltree.tree import TEXT_TAG

#: Largest chunk span a cached rendered subtree may hold.  Bigger spans are
#: re-emitted from the (still cached) child entries instead, which bounds
#: the cache's memory on blow-up outputs.
_RENDER_SPAN_LIMIT = 65536


class _RenderEntry:
    """One cached rendered span: the bytes-path analogue of ``_SubtreeEntry``.

    ``chunks`` is the span the subtree contributes to the output buffer
    (already fully rendered, including indentation prefixes); ``texts`` is
    the raw escaped character data when the contribution is pure text (a
    virtual subtree of text leaves -- the enclosing element may still render
    inline), ``None`` when it contains an element.  ``triples`` / ``weight``
    / ``saved`` have the subtree-cache semantics: stop-condition safety and
    carry-over across deltas, node-budget charge, and hit accounting.
    ``document`` memoises the joined document on root entries so a
    cache-hot publish returns one interned string.
    """

    __slots__ = ("chunks", "texts", "triples", "weight", "saved", "document")

    def __init__(
        self,
        chunks: tuple[str, ...],
        texts: tuple[str, ...] | None,
        triples: frozenset,
        weight: int,
        saved: int,
    ) -> None:
        self.chunks = chunks
        self.texts = texts
        self.triples = triples
        self.weight = weight
        self.saved = saved
        self.document: str | None = None


class _EmitFrame:
    """One open node of the byte-rendering walk.

    ``start`` is the frame's span start in the shared output buffer (for an
    element, the index of its placeholder slot -- patched at close once the
    empty/inline/mixed shape is known; the incremental serialiser solves the
    same problem with pending frames).  ``texts`` buffers raw escaped text
    while the frame's contribution is still pure text; it flips to ``None``
    the moment an element child arrives.  ``triples`` / ``weight`` /
    ``opened`` feed the cached entry, with ``None`` poisoning sharing after
    a stop-condition hit exactly as in tree mode.
    """

    __slots__ = (
        "triple",
        "expansion",
        "index",
        "level",
        "child_level",
        "child_pad",
        "start",
        "texts",
        "triples",
        "weight",
        "opened",
        "virtual",
    )


def _render_span(plan, state, cursor, indent, start_triple, start_level):
    """The frame-stack driver: render ``start_triple``'s subtree into chunks.

    Returns the chunk list (the subtree's span, indentation prefixes
    included); the document driver joins it once.
    """
    from repro.engine.plan import _SUBTREE_TRIPLE_LIMIT

    virtual = plan._virtual
    pretty = indent is not None
    templates = plan._templates.get(indent)
    if templates is None:
        # opens / closes / empties keyed (tag, level); ends keyed tag;
        # pads keyed level.  In compact mode every level is normalised to 0.
        # setdefault so two racing publishes agree on one table (the
        # per-tag entries below are deterministic, so last-wins fills are
        # fine, but the five dicts themselves must be shared).
        templates = plan._templates.setdefault(indent, ({}, {}, {}, {}, {}))
    opens, closes, empties, ends, pads = templates

    def pad_of(level: int) -> str:
        found = pads.get(level)
        if found is None:
            found = pads[level] = "\n" + " " * (indent * level) if pretty else ""
        return found

    def open_of(tag: str, level: int) -> str:
        key = (tag, level)
        found = opens.get(key)
        if found is None:
            found = opens[key] = f"{pad_of(level)}<{tag}>"
        return found

    def close_of(tag: str, level: int) -> str:
        key = (tag, level)
        found = closes.get(key)
        if found is None:
            found = closes[key] = f"{pad_of(level)}</{tag}>"
        return found

    def empty_of(tag: str, level: int) -> str:
        key = (tag, level)
        found = empties.get(key)
        if found is None:
            found = empties[key] = f"{pad_of(level)}<{tag}/>"
        return found

    def end_of(tag: str) -> str:
        found = ends.get(tag)
        if found is None:
            found = ends[tag] = f"</{tag}>"
        return found

    encoder = state.encoder
    if encoder is not None:
        text_of = encoder.escaped_text
    else:
        fragments = state.text_fragments

        def text_of(register) -> str:
            found = fragments.get(register)
            if found is None:
                found = fragments[register] = escape(relation_to_text(register))
            return found

    path = cursor._path
    renders = state.renders
    limit = _SUBTREE_TRIPLE_LIMIT

    def lookup(key) -> _RenderEntry | None:
        entry = renders.get(key)
        if entry is None or not path.isdisjoint(entry.triples):
            return None
        return entry

    out: list[str] = []

    def open_frame(triple, level: int) -> _EmitFrame:
        expansion = plan._expansion(state, triple)
        cursor.charge(len(expansion))
        path.add(triple)
        tag = triple[1]
        frame = _EmitFrame()
        frame.triple = triple
        frame.expansion = expansion
        frame.index = 0
        frame.level = level
        frame.virtual = is_virtual = tag in virtual
        if pretty:
            frame.child_level = level if is_virtual else level + 1
        else:
            frame.child_level = 0
        frame.child_pad = pad_of(frame.child_level)
        frame.start = len(out)
        if not is_virtual:
            out.append("")  # placeholder: empty / inline / open, patched at close
        frame.texts = []
        frame.triples = {triple}
        frame.weight = len(expansion)
        frame.opened = 1
        return frame

    frames = [open_frame(start_triple, start_level)]
    while frames:
        frame = frames[-1]
        expansion = frame.expansion
        if frame.index < len(expansion):
            child = expansion[frame.index]
            frame.index += 1
            ctag = child[1]
            if ctag == TEXT_TAG:
                # Text leaves render from the interned fragments; they are
                # pure functions of their register, so they neither consult
                # the expansion memo nor take part in invalidation.  A
                # stop-condition hit yields empty text and, as in tree
                # mode, makes the surrounding spans path-dependent.
                if child in path:
                    fragment = ""
                    frame.triples = None
                else:
                    fragment = text_of(child[2])
                frame.opened += 1
                if ctag in virtual:
                    continue
                out.append(frame.child_pad + fragment if pretty else fragment)
                if frame.texts is not None:
                    frame.texts.append(fragment)
                continue
            if child in path:
                # Stop condition: the node exists but expands to nothing.
                frame.triples = None
                frame.opened += 1
                if ctag not in virtual:
                    out.append(empty_of(ctag, frame.child_level))
                    frame.texts = None
                continue
            entry = lookup((indent, child, frame.child_level))
            if entry is not None:
                cursor.charge(entry.weight)
                with plan._lock:
                    plan._render_hits += 1
                out.extend(entry.chunks)
                frame.weight += entry.weight
                frame.opened += entry.saved
                if entry.texts is None:
                    frame.texts = None
                elif frame.texts is not None:
                    frame.texts.extend(entry.texts)
                if frame.triples is not None:
                    frame.triples |= entry.triples
                    if len(frame.triples) > limit:
                        frame.triples = None
                continue
            frames.append(open_frame(child, frame.child_level))
            continue
        frames.pop()
        path.remove(frame.triple)
        with plan._lock:
            plan._render_misses += 1
        tag = frame.triple[1]
        start = frame.start
        texts = frame.texts
        if not frame.virtual:
            if texts is None:
                # Mixed content: patch the placeholder into an open tag,
                # close on its own line.  Children rendered themselves into
                # the span as they were visited.
                out[start] = open_of(tag, frame.level)
                out.append(close_of(tag, frame.level))
            elif texts:
                # Text-only: the whole span collapses to one inline line
                # (the buffered raw fragments replace their padded lines).
                out[start:] = [f"{open_of(tag, frame.level)}{''.join(texts)}{end_of(tag)}"]
            else:
                # No children at all (len(out) == start + 1 here).
                out[start] = empty_of(tag, frame.level)
        triples = frame.triples
        if triples is not None and len(out) - start <= _RENDER_SPAN_LIMIT:
            entry = _RenderEntry(
                tuple(out[start:]),
                tuple(texts) if frame.virtual and texts is not None else None,
                frozenset(triples),
                frame.weight,
                frame.opened,
            )
            renders[(indent, frame.triple, frame.level)] = entry
        if frames:
            parent = frames[-1]
            parent.weight += frame.weight
            parent.opened += frame.opened
            if frame.virtual:
                if texts is None:
                    parent.texts = None
                elif parent.texts is not None:
                    parent.texts.extend(texts)
            else:
                parent.texts = None
            if triples is None:
                parent.triples = None
            elif parent.triples is not None:
                # Small-to-large: donate the bigger set upward (see
                # _build_tree), bounding bookkeeping on deep spines.
                if len(parent.triples) < len(triples):
                    triples |= parent.triples
                    parent.triples = triples
                else:
                    parent.triples |= triples
                if len(parent.triples) > limit:
                    parent.triples = None
    return out


def render_document(plan, state, budget: int, indent: int | None) -> str:
    """Render one instance's output document as a string (no trees built)."""
    virtual = plan._virtual
    if plan._root_tag in virtual or plan._root_tag == TEXT_TAG:
        # Virtual or text roots splice children at the top level, where the
        # single-root / no-top-level-text document rules live.  They are
        # rare (no shipped workload uses one); keep the event serialiser as
        # the exact reference semantics, error messages included.
        from repro.xmltree.serialize import IncrementalXmlSerializer

        serializer = IncrementalXmlSerializer(indent=indent)
        return serializer.feed_all(plan._stream_events(state, budget)).finish()

    pretty = indent is not None
    cursor = plan._cursor(state, budget)
    root_triple = plan._root_triple()
    root_key = (indent, root_triple, 0)

    # Cache-hot fast path: the whole document was rendered for this
    # instance version, or for an earlier one and no configuration in it
    # has changed since -- hand the joined buffer back.  The path is empty
    # here, so presence is the only reuse condition.
    root_entry = state.renders.get(root_key)
    if root_entry is not None:
        cursor.charge(root_entry.weight)
        with plan._lock:
            plan._render_hits += 1
        document = root_entry.document
        if document is None:
            document = "".join(root_entry.chunks)
            if pretty:
                document = document[1:]
            root_entry.document = document
        return document

    out = _render_span(plan, state, cursor, indent, root_triple, 0)
    document = "".join(out)
    if pretty:
        document = document[1:]
    root_entry = state.renders.get(root_key)
    if root_entry is not None:
        root_entry.document = document
    return document
