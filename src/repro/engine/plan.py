"""The compiled, batch-first evaluation engine.

The interpreter of :mod:`repro.core.runtime` follows the step relation of
Section 3 literally and pays for that fidelity on every call: each ``publish``
re-validates the transducer, re-extends the source instance with the register
relations at *every* node (copying the whole schema and relation table), and
re-evaluates rule queries from scratch even when the same ``(state, tag,
register)`` configuration repeats thousands of times.

:class:`Engine.compile` performs all per-transducer work once and returns a
:class:`PublishingPlan`:

* **dispatch** -- the rule for every ``(state, tag)`` pair is resolved to a
  tuple of compiled items with pre-bound query evaluators;
* **one register channel** -- a rule query reads the register as one more
  relation (``Reg`` / ``Reg_<tag>``) of the instance; planned queries get
  it through the plans' ``overrides`` channel, so no per-node instance is
  built.  Only items without a usable plan evaluate on a register overlay
  of the source (:meth:`~repro.relational.instance.Instance.overlaid`,
  with the extended schema built once per ``(tag, arity)``);
* **memoised expansions** -- the transformation is *confluent*: the one-step
  expansion of a node depends only on its ``(state, tag, register)`` triple
  and the source instance, never on its ancestors (the stop condition is
  applied per path, outside the memo).  The plan caches expansions per
  instance, within and across runs, so repeated subtree configurations --
  ubiquitous in recursive views like the prerequisite hierarchy -- cost a
  dictionary lookup instead of a query evaluation.

Four output forms share that machinery, each one walk over the memoised
expansions (:func:`repro.engine.walk.walk`) into its own sink, with one
clean-subtree cache across them:

* :meth:`PublishingPlan.publish` -- the materialised Σ-tree of one instance
  (batches of instances share the plan's LRU-bounded per-instance caches);
* :meth:`PublishingPlan.publish_full` -- the interpreter-compatible
  :class:`~repro.core.runtime.TransformationResult` with the annotated tree;
* :meth:`PublishingPlan.publish_events` -- a lazy SAX-style event stream with
  virtual-tag elimination done on the fly, so Proposition 1 blow-ups can be
  serialised without ever materialising the tree;
* :meth:`PublishingPlan.publish_bytes` -- the serialised document, rendered
  straight from the expansions without building a tree.

These (plus :meth:`~PublishingPlan.republish` below) are the core drivers
the serving layer (:class:`repro.serve.ViewServer`) routes onto.

Whether registers hold domain values or dictionary ids is decided once per
instance (:class:`_InstanceState`).  On instances carrying a dictionary
encoding (:func:`repro.relational.columnar.ensure_encoded`) the pipeline
runs in **integer space**: register contents and memo keys are frozensets
of encoded tuples, planned rule queries execute on the vectorized columnar
kernel, and values are decoded only where text is emitted or sibling order
consults the implicit order on ``D``.  The same code runs both
representations, and output is byte-identical with the encoding on or off.

On top of them sits **incremental view maintenance**
(:meth:`PublishingPlan.republish`): given a source
:class:`~repro.relational.delta.Delta`, the per-instance caches migrate to
the updated instance instead of being discarded.  Memoised expansions are
invalidated *per rule*: only ``(state, tag, register)`` entries whose rule
queries read a changed relation are re-checked (``cache_stats`` counts them
as ``invalidated`` vs ``retained``), each once, at migration time; the ones
whose expansion really differs form the step's ``changed`` set.  Confluence
makes a clean subtree a function of its configurations' expansions, so
its cached products -- built subtrees and rendered spans, reused by object
identity -- carry over exactly when it contains no changed configuration,
which also makes the :func:`~repro.xmltree.diff.diff_trees` edit script
between the old and new documents cheap to compute.  Incremental output is
always equal -- tree- and byte-wise -- to a from-scratch publish; the full
republish stays as the executable specification and differential oracle.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator

from repro.core.rules import GENERIC_REGISTER_NAME, RuleQuery, register_relation_name
from repro.core.runtime import DEFAULT_MAX_NODES, RegisterContent, TransformationResult
from repro.core.transducer import PublishingTransducer
from repro.core.virtual import eliminate_virtual_nodes, strip_annotations
from repro.engine.walk import (
    AnnotatedSink,
    CleanSubtree,
    EventSink,
    TreeSink,
    render_document,
    run,
    walk,
)
from repro.query.planner import plan_query
from repro.relational.delta import Delta
from repro.relational.domain import tuple_order_key
from repro.relational.instance import Instance, Relation
from repro.relational.schema import RelationSchema, RelationalSchema
from repro.xmltree.diff import EditScript, diff_trees
from repro.xmltree.events import XmlEvent
from repro.xmltree.tree import TEXT_TAG, TreeNode

#: A node configuration: the triple the transformation is confluent over.
Triple = tuple[str, str, RegisterContent]

#: A migration sweeps configurations unreachable from the root out of the
#: caches once the memo has grown by this factor since the previous sweep,
#: so a long-lived chain's caches stay proportional to its live document at
#: amortised O(1) cost per memoised expansion.
_SWEEP_GROWTH = 2


def _carried(clean: dict, changed: set, live: set | None) -> dict:
    """The clean-subtree entries a migration carries over: those naming no
    configuration in ``changed`` -- ``isdisjoint`` walks the smaller set,
    so each costs O(|changed|) -- and, after a sweep, keyed by a ``live``
    configuration."""
    if live is not None:
        clean = {triple: entry for triple, entry in clean.items() if triple in live}
    if not changed:
        return dict(clean)
    return {
        triple: entry
        for triple, entry in clean.items()
        if entry.triples.isdisjoint(changed)
    }


def _shadowed_names(tag: str) -> frozenset[str]:
    """The relation names the register overlay shadows for ``tag``-nodes."""
    return frozenset({GENERIC_REGISTER_NAME, register_relation_name(tag)})


class _PairDelta:
    """How one rule's expansions respond to the current migration's delta.

    ``mode`` is one of ``"clean"`` (no rule query reads a changed relation:
    every register re-expands identically), ``"witness"`` (``dirty`` holds
    the register tuples that can participate in a changed derivation --
    computed once per rule by running the delta variants over the union of
    all invalidated registers -- so a register disjoint from it is provably
    unaffected; ``dirty_all`` marks register-independent changes),
    ``"variants"`` (witnesses unavailable: check each register with the
    per-occurrence delta plans) or ``"recompute"`` (unplanned or
    non-monotone rule queries: no cheap check exists).
    """

    __slots__ = ("mode", "checks", "dirty", "dirty_all")

    def __init__(self, mode, checks=None, dirty=None, dirty_all=False) -> None:
        self.mode = mode
        self.checks = checks
        self.dirty = dirty
        self.dirty_all = dirty_all


_PAIR_CLEAN = _PairDelta("clean")
_PAIR_RECOMPUTE = _PairDelta("recompute")


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of the plan's expansion-cache counters.

    Attributes
    ----------
    hits:
        Expansions answered from the memo (including every expansion inside
        a reused clean subtree, in any output form).  Text leaves render
        from their register without touching the memo and are not counted.
    misses:
        Expansions that had to evaluate their rule queries.
    evictions:
        Whole per-instance caches dropped by the LRU policy.
    instances:
        Distinct per-instance caches created (including migrated versions).
    invalidated:
        Memoised expansions re-checked by :meth:`PublishingPlan.republish`
        because their rule queries read a changed relation.
    retained:
        Memoised expansions carried over across :meth:`republish` untouched.
    changed:
        Invalidated expansions whose re-check found a different expansion:
        the configurations whose cached subtrees and spans were dropped.
    rendered_hits:
        Pre-rendered byte spans reused by the bytes-native publish path
        (:meth:`PublishingPlan.publish_bytes`).
    rendered_misses:
        Subtree spans the bytes path had to render from the expansions.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    instances: int = 0
    invalidated: int = 0
    retained: int = 0
    changed: int = 0
    rendered_hits: int = 0
    rendered_misses: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of expansions answered from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, int | float]:
        """The counters as a plain dict (the pre-dataclass key set plus the
        incremental-maintenance counters and ``hit_rate``)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "instances": self.instances,
            "invalidated": self.invalidated,
            "retained": self.retained,
            "changed": self.changed,
            "rendered_hits": self.rendered_hits,
            "rendered_misses": self.rendered_misses,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class RepublishResult:
    """The outcome of one incremental republish step.

    ``tree`` equals (and serialises byte-identically to) a from-scratch
    publish of ``instance``; unchanged subtrees are shared by object
    identity with the previous tree.  ``edits`` is the
    :class:`~repro.xmltree.diff.EditScript` from the previous tree to
    ``tree``, so consumers can ship the diff instead of the document.
    ``invalidated`` / ``retained`` count the memoised expansions re-checked
    vs carried over by this step, and ``changed`` the re-checked ones whose
    expansion actually differs.  A result can be passed back to
    :meth:`PublishingPlan.republish` as ``prev`` to chain updates.
    """

    instance: Instance
    tree: TreeNode
    edits: EditScript
    delta: Delta
    invalidated: int = 0
    retained: int = 0
    changed: int = 0


class _CompiledItem:
    """One right-hand-side item with its evaluator pre-bound.

    The rule query is planned once at compile time through the shared
    :mod:`repro.query` planner; range-restricted queries bind directly to
    :meth:`QueryPlan.execute`, unsafe ones to the query's own (active-domain)
    evaluator.
    """

    __slots__ = ("state", "tag", "group_arity", "plan", "evaluate", "relations")

    def __init__(self, state: str, tag: str, rule_query: RuleQuery) -> None:
        self.state = state
        self.tag = tag
        self.group_arity = rule_query.group_arity
        self.plan = plan_query(rule_query.query)
        self.evaluate = (
            self.plan.execute if self.plan is not None else rule_query.query.evaluate
        )
        self.relations = frozenset(rule_query.query.relation_names())


def _same(value):
    return value


def _run_rows(plan, source: Instance, overrides) -> frozenset:
    return plan.execute(source, overrides)


def _run_encoded(plan, source: Instance, overrides) -> frozenset | None:
    if plan.vector_kernel() is None:
        return None
    return plan.execute_encoded(source, overrides)


class _InstanceState:
    """Everything the plan caches for one source instance.

    The register representation is decided here, once, from the instance's
    dictionary encoding.  Row instances keep domain values; encoded ones
    keep integer ids, which stay valid across ``apply_delta`` versions (the
    append-only ``encoder`` is shared along the lineage), so encoded memo
    entries survive republish.  Five callables answer everything the engine
    asks of the representation: ``run(plan, source, overrides)`` executes a
    query plan with registers and delta rows supplied as overrides in this
    representation (``None`` when the columnar kernel cannot run the plan);
    ``encode`` brings raw rows into it and ``intern`` one constant;
    ``decode`` turns a register back into domain values; ``order_key`` is
    the implicit order on ``D`` over a group key.

    ``clean`` maps a configuration to the
    :class:`~repro.engine.walk.CleanSubtree` of its subtree, valid for this
    instance, with one product per output form.  Every configuration an
    entry names is memoised in ``expansions`` -- the invariant
    :meth:`PublishingPlan.republish` relies on: a migration settles every
    memoised expansion on the new version, so an entry none of whose
    configurations changed is still exact.
    ``volatile`` indexes the memoised configurations of every ``(state,
    tag)`` pair whose rule reads a source relation, so a migration finds
    the ones to settle without scanning the memo.  ``text_fragments``
    memoises escaped character data per row register (the encoded pipeline
    interns fragments on the shared encoder instead, so they survive
    version migrations for free); it carries over across migrations
    because a text node's rendering is a function of its register alone,
    never of the source instance.  ``sweep_mark`` is the memo size after
    the lineage's last unreachable-entry sweep.
    """

    __slots__ = (
        "instance",
        "encoder",
        "run",
        "encode",
        "intern",
        "decode",
        "order_key",
        "ext_schemas",
        "expansions",
        "volatile",
        "clean",
        "text_fragments",
        "sweep_mark",
    )

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        encoder = self.encoder = instance._encoding
        if encoder is None:
            self.run = _run_rows
            self.encode = self.intern = self.decode = _same
            self.order_key = tuple_order_key
        else:
            self.run = _run_encoded
            self.encode = encoder.encode_rows
            self.intern = encoder.intern
            self.decode = encoder.decode_rows
            self.order_key = encoder.row_order_key
        self.ext_schemas: dict[tuple[str, int], RelationalSchema] = {}
        self.expansions: dict[Triple, tuple[Triple, ...]] = {}
        self.volatile: dict[tuple[str, str], set[Triple]] = {}
        self.clean: dict[Triple, CleanSubtree] = {}
        self.text_fragments: dict[RegisterContent, str] = {}
        self.sweep_mark = 0


class PublishingPlan:
    """A transducer compiled for repeated evaluation.  Built by :class:`Engine`."""

    def __init__(
        self,
        transducer: PublishingTransducer,
        schema: RelationalSchema | None = None,
        max_nodes: int = DEFAULT_MAX_NODES,
        cache_instances: int = 8,
    ) -> None:
        if schema is not None:
            problems = transducer.validate_against_schema(schema)
            if problems:
                raise ValueError("; ".join(problems))
        self._transducer = transducer
        self._schema = schema
        self._max_nodes = max_nodes
        self._cache_instances = max(1, cache_instances)
        self._virtual = transducer.virtual_tags
        self._start_state = transducer.start_state
        self._root_tag = transducer.root_tag
        self._dispatch_table: dict[tuple[str, str], tuple[_CompiledItem, ...]] = {}
        # Source relations read per (state, tag): the invalidation index of
        # incremental republish.  Only the two names the overlay actually
        # shadows for this rule's tag are excluded -- a source relation that
        # happens to be called ``Reg_<other>`` is still a source dependency.
        self._pair_sources: dict[tuple[str, str], frozenset[str]] = {}
        for rule_ in transducer.rules:
            self._dispatch_table[(rule_.state, rule_.tag)] = tuple(
                _CompiledItem(item.state, item.tag, item.query) for item in rule_.items
            )
            shadowed = _shadowed_names(rule_.tag)
            sources: set[str] = set()
            for item in rule_.items:
                sources.update(item.query.query.relation_names() - shadowed)
            self._pair_sources[(rule_.state, rule_.tag)] = frozenset(sources)
        self._volatile_pairs = frozenset(
            pair for pair, sources in self._pair_sources.items() if sources
        )
        # Per-instance caches in LRU order (the batch-first working set).
        # The lock guards the LRU structure and the counters below so
        # concurrent publish() calls (threaded callers, a NetServerThread
        # sharing the plan) neither corrupt the eviction order nor tear
        # counter updates.  Memo *values* need no lock: expansions are pure
        # functions of (triple, instance), so racing writers store the
        # same result and CPython dict operations are atomic.
        self._lock = threading.RLock()
        self._states: dict[Instance, _InstanceState] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._instances_seen = 0
        self._invalidated = 0
        self._retained = 0
        self._changed = 0
        self._render_hits = 0
        self._render_misses = 0
        # Byte-template tables of the bytes sink, one per indent mode
        # (repro.engine.walk.BytesSink); tag sets are per-transducer, so
        # per-plan caching is exactly right.
        self._templates: dict[int | None, object] = {}

    # -- introspection -------------------------------------------------------

    @property
    def transducer(self) -> PublishingTransducer:
        """The compiled transducer."""
        return self._transducer

    @property
    def max_nodes(self) -> int:
        """The default node budget of this plan."""
        return self._max_nodes

    @property
    def cache_stats(self) -> CacheStats:
        """Counters of the shared expansion cache, as a typed
        :class:`CacheStats` (use :meth:`CacheStats.as_dict` for a plain dict)."""
        with self._lock:
            return CacheStats(
                self._hits,
                self._misses,
                self._evictions,
                self._instances_seen,
                self._invalidated,
                self._retained,
                self._changed,
                self._render_hits,
                self._render_misses,
            )

    def clear_cache(self) -> None:
        """Drop all per-instance caches (counters are preserved)."""
        with self._lock:
            self._states.clear()

    def rule_plans(self):
        """Yield ``(state, tag, item_index, QueryPlan | None)`` per rule item.

        One entry per right-hand-side item of every declared rule, in
        declaration order; the query plan is ``None`` for items whose rule
        query could not be planned (unsafe queries evaluated naively).  This
        is the introspection hook behind the serving layer's
        :class:`~repro.serve.stats.ExplainReport`, which aggregates each
        plan's join order, backend and delta strategy into one report.
        The table is snapshotted first: dispatch lazily inserts entries for
        undeclared pairs, so a publish interleaved with this iteration must
        not blow it up.
        """
        for (state, tag), items in list(self._dispatch_table.items()):
            for index, item in enumerate(items):
                yield state, tag, index, item.plan

    # -- the public evaluation surface --------------------------------------

    def publish(self, instance: Instance, max_nodes: int | None = None) -> TreeNode:
        """Evaluate on ``instance`` and return the output Σ-tree ``tau(I)``.

        Every clean subtree built is cached per configuration, so repeated
        configurations -- within one document, across repeated publishes and
        across :meth:`republish` versions -- reuse the previously built
        :class:`TreeNode` objects; a reused subtree charges exactly the
        nodes it would have produced.
        """
        state = self._instance_state(instance)
        budget = self._max_nodes if max_nodes is None else max_nodes
        return self._tree(state, budget)

    def publish_full(
        self, instance: Instance, max_nodes: int | None = None
    ) -> TransformationResult:
        """Evaluate and return the interpreter-compatible full result object."""
        state = self._instance_state(instance)
        budget = self._max_nodes if max_nodes is None else max_nodes
        sink = AnnotatedSink(self, state)
        steps = run(self, state, budget, sink)
        root = sink.out[0]
        tree = eliminate_virtual_nodes(strip_annotations(root), self._virtual)
        return TransformationResult(self._transducer, instance, root, tree, steps)

    def publish_events(
        self, instance: Instance, max_nodes: int | None = None
    ) -> Iterator[XmlEvent]:
        """Lazily yield the SAX-style event stream of the output Σ-tree.

        Virtual tags are eliminated on the fly: they contribute no events,
        only their (recursively streamed) children.  The traversal itself
        holds one frame per level, so no part of the output tree is ever
        materialised; note that the expansion memo still grows with the
        number of *distinct* ``(state, tag, register)`` configurations (call
        :meth:`clear_cache` between streams to bound it).
        """
        state = self._instance_state(instance)
        budget = self._max_nodes if max_nodes is None else max_nodes
        return walk(self, state, budget, EventSink(self, state))

    def publish_bytes(
        self,
        instance: Instance,
        indent: int | None = 2,
        write=None,
        max_nodes: int | None = None,
    ) -> str:
        """Serialise the output document without materialising the tree.

        The bytes sink of :mod:`repro.engine.walk`: constant byte skeletons
        (`<tag>`, indentation, closers) are preassembled per tag and level,
        character data is answered from interned escaped fragments (per
        register, on the shared dictionary encoder when the instance is
        encoded), and the rendered span of every clean subtree is cached
        per ``(state, tag, register)`` configuration next to its built
        subtree -- migrated across :meth:`republish` with it, so an
        incremental publish re-renders only invalidated spans and a
        cache-hot publish is a buffer handoff.  Output is byte-identical to
        serialising :meth:`publish` / :meth:`publish_events` with the
        matching ``indent`` (``indent=None`` matches the compact
        serialiser); stop-condition and node-budget semantics are those of
        every other form.  As with the streaming serialisers, a supplied
        ``write`` receives the document (one chunk here) and the return
        value is ``""``.
        """
        state = self._instance_state(instance)
        budget = self._max_nodes if max_nodes is None else max_nodes
        document = render_document(self, state, budget, indent)
        if write is not None:
            write(document)
            return ""
        return document

    # -- incremental maintenance ----------------------------------------------

    def republish(
        self,
        prev: "Instance | RepublishResult",
        delta: Delta,
        *,
        prev_tree: TreeNode | None = None,
        max_nodes: int | None = None,
    ) -> RepublishResult:
        """Incrementally re-evaluate after a source delta.

        ``prev`` is the previously published instance (or the
        :class:`RepublishResult` of the previous step, which chains
        naturally).  The per-instance caches migrate to the updated
        instance: only memoised ``(state, tag, register)`` expansions whose
        rule queries read a relation the (normalized) delta actually touches
        are dropped, everything else -- including previously built subtrees
        proven unaffected -- is reused.  The result's tree and its
        serialisation are always identical to ``publish`` on the updated
        instance from scratch.

        ``prev_tree`` (the previously published tree) is used as the edit
        script's base; when omitted it is recovered with :meth:`publish`,
        which is cheap while the previous instance's cache is still live.
        """
        if isinstance(prev, RepublishResult):
            if prev_tree is None:
                prev_tree = prev.tree
            prev_instance = prev.instance
        else:
            prev_instance = prev
        budget = self._max_nodes if max_nodes is None else max_nodes
        delta = delta.normalized(prev_instance)
        if not delta.touched_relations():
            if prev_tree is None:
                prev_tree = self._tree(self._instance_state(prev_instance), budget)
            return RepublishResult(prev_instance, prev_tree, EditScript(), delta)
        if prev_tree is None:
            prev_tree = self.publish(prev_instance, max_nodes)
        new_instance = prev_instance.apply_delta(delta)
        with self._lock:
            prev_state = self._states.get(prev_instance)
        if prev_state is not None and prev_state.encoder is not new_instance._encoding:
            # The representation changed mid-lineage (ensure_encoded was
            # called after the previous publish): the memoised triples are
            # in the other mode's register representation, so migrating
            # them would corrupt the output.  Cold-start instead.
            prev_state = None
        invalidated = retained = changed = 0
        if prev_state is not None:
            state, invalidated, retained, changed = self._migrated_state(
                prev_state, new_instance, delta
            )
            self._install_state(new_instance, state)
            with self._lock:
                self._invalidated += invalidated
                self._retained += retained
                self._changed += changed
        else:
            # The previous version's cache was evicted: cold start.
            state = self._instance_state(new_instance)
        new_tree = self._tree(state, budget)
        return RepublishResult(
            new_instance,
            new_tree,
            diff_trees(prev_tree, new_tree),
            delta,
            invalidated,
            retained,
            changed,
        )

    def _migrated_state(
        self,
        prev_state: _InstanceState,
        new_instance: Instance,
        delta: Delta,
    ) -> tuple[_InstanceState, int, int, int]:
        """Carry a version's caches over to the updated instance.

        Expansions of ``(state, tag)`` pairs whose rule queries read no
        changed relation are retained outright.  Every other memoised
        expansion is settled here, once: adopted when the per-occurrence
        delta plans prove it unchanged (:meth:`_unproven`), recomputed and
        compared otherwise.  The configurations whose expansion really
        differs form ``changed``, and a cached subtree or rendered span
        carries over iff it names none of them -- confluence makes it a
        function of its configurations' expansions.  When the
        memo has grown :data:`_SWEEP_GROWTH`-fold since the last sweep,
        configurations unreachable from the root are dropped from every
        cache first, so churn cannot grow them past the live document.

        Returns the state and the invalidated / retained / changed counts.
        """
        touched = delta.touched_relations()
        state = _InstanceState(new_instance)
        # The schema is unchanged by a delta, so the overlay schemas carry
        # over; sharing the dict lets both versions warm it further.  Text
        # rendering is a function of the register alone, so fragments
        # survive every delta.  (Encoded lineages intern on the encoder.)
        state.ext_schemas = prev_state.ext_schemas
        state.text_fragments = prev_state.text_fragments
        state.sweep_mark = prev_state.sweep_mark
        memo = prev_state.expansions
        live = None
        if len(memo) >= _SWEEP_GROWTH * prev_state.sweep_mark:
            live = self._reachable(memo)
            expansions = {t: e for t, e in memo.items() if t in live}
            volatile = {pair: keys & live for pair, keys in prev_state.volatile.items()}
            texts = {t[2] for t in live if t[1] == TEXT_TAG}
            state.text_fragments = {
                register: fragment
                for register, fragment in prev_state.text_fragments.items()
                if register in texts
            }
            state.sweep_mark = len(expansions)
        else:
            # The memo is copied before its index (see _memoised).
            expansions = dict(memo)
            volatile = {pair: set(keys) for pair, keys in prev_state.volatile.items()}
        state.expansions = expansions
        state.volatile = volatile
        prior = prev_state.instance
        changed: set[Triple] = set()
        invalidated = recomputed = 0
        for pair in self._volatile_pairs:
            if not self._pair_sources[pair] & touched:
                continue
            triples = [t for t in volatile.get(pair, ()) if t in expansions]
            if not triples:
                continue
            invalidated += len(triples)
            info = self._pair_delta_info(state, prior, delta, pair, triples)
            for triple in self._unproven(state, prior, delta, info, triples):
                recomputed += 1
                fresh = self._expand(state, triple)
                if fresh != expansions[triple]:
                    changed.add(triple)
                    expansions[triple] = fresh
        with self._lock:
            self._misses += recomputed
        state.clean = _carried(prev_state.clean, changed, live)
        return state, invalidated, len(expansions) - invalidated, len(changed)

    def _reachable(self, expansions: dict[Triple, tuple[Triple, ...]]) -> set[Triple]:
        """The configurations reachable from the root through ``expansions``."""
        root = self._root_triple()
        live = {root}
        stack = [root]
        while stack:
            for child in expansions.get(stack.pop(), ()):
                if child not in live:
                    live.add(child)
                    stack.append(child)
        return live

    def _unproven(
        self,
        state: _InstanceState,
        prior: Instance,
        delta: Delta,
        info: _PairDelta,
        triples: list[Triple],
    ) -> list[Triple]:
        """The memoised configurations of one rule that the delta checks
        cannot prove to re-expand identically.

        The semi-naive device of :mod:`repro.query.delta`, applied at the
        rule level: for every rule query reading a changed relation, the
        per-occurrence delta variants are run with the (tiny) changed tuple
        sets and the register as overrides -- insertions against the updated
        instance, deletions against ``prior``, the previous version (which
        shares the representation: :meth:`republish` cold-starts mixed
        lineages).  Monotonicity bounds the query's answer changes by those
        candidate sets, so when every variant comes back empty the answers
        -- and hence the grouped expansion -- are provably unchanged without
        re-evaluating any full rule query.  ``info`` is the rule's
        :meth:`_pair_delta_info`; rules with unplanned or non-monotone
        queries prove nothing.
        """
        mode = info.mode
        if mode == "clean":
            return []
        if mode == "recompute" or info.dirty_all:
            return triples
        if mode == "witness":
            dirty = info.dirty
            return [t for t in triples if not t[2].isdisjoint(dirty)]
        return [t for t in triples if not self._variants_clean(state, prior, delta, info, t)]

    def _variants_clean(
        self,
        state: _InstanceState,
        prior: Instance,
        delta: Delta,
        info: _PairDelta,
        triple: Triple,
    ) -> bool:
        """The "variants" check of :meth:`_unproven`: run the per-occurrence
        delta plans with one register in the override channel (shadowing
        both register names); empty candidates on every occurrence prove its
        answers (and expansion) unchanged."""
        _, tag, register = triple
        reg_overrides = {GENERIC_REGISTER_NAME: register, register_relation_name(tag): register}
        for machinery, touched in info.checks:
            name = machinery.delta_name
            for relation in touched:
                for rows, source in (
                    (delta.inserted_into(relation), state.instance),
                    (delta.deleted_from(relation), prior),
                ):
                    if not rows:
                        continue
                    overrides = {**reg_overrides, name: state.encode(rows)}
                    for variant in machinery.variants[relation]:
                        answers = state.run(variant, source, overrides)
                        if answers is None or answers:
                            return False
        return True

    def _pair_delta_info(
        self,
        state: _InstanceState,
        prior: Instance,
        delta: Delta,
        pair: tuple[str, str],
        triples: list[Triple],
    ) -> _PairDelta:
        """Classify one rule's sensitivity to the migration delta.

        Computed once per rule and migration.  When every affected rule
        query admits register witnesses, the delta variants run *once per
        rule* -- the register scans overridden by the union of the
        registers of ``triples`` (the rule's memoised configurations),
        insertions against the updated source and deletions against
        ``prior`` -- and the projected witness tuples become the ``dirty``
        register index, making the per-register check a set-disjointness
        test.
        """
        items = self._dispatch(*pair)
        if not items:
            return _PAIR_CLEAN
        changed = delta.touched_relations()
        shadowed = _shadowed_names(pair[1])
        checks: list[tuple] = []
        for item in items:
            plan = item.plan
            if plan is None:
                # Unplanned (naive-evaluated) query: no cheap check exists,
                # but it only matters when the delta actually touches it.
                if (item.relations - shadowed) & changed:
                    return _PAIR_RECOMPUTE
                continue
            machinery = plan._delta_plan()
            # Scans of the shadowed names read the register, never the
            # source, so a source delta on them cannot affect this rule.
            touched = (changed - shadowed) & machinery.relations
            if not touched:
                continue
            if not machinery.monotone:
                return _PAIR_RECOMPUTE
            checks.append((machinery, touched))
        if not checks:
            return _PAIR_CLEAN
        witnessed = []
        for machinery, touched in checks:
            witnesses = machinery.register_witnesses(shadowed)
            if witnesses is None:
                return _PairDelta("variants", checks=tuple(checks))
            witnessed.append((machinery, touched, witnesses))
        pool: set[tuple] = set()
        for triple in triples:
            pool |= triple[2]
        reg_rows = frozenset(pool)
        specific = register_relation_name(pair[1])
        # The dirty index is in the registers' representation, so the
        # per-register check compares like with like.
        dirty: set[tuple] = set()
        dirty_all = False
        for machinery, touched, witnesses in witnessed:
            name = machinery.delta_name
            for relation in touched:
                for rows, source in (
                    (delta.inserted_into(relation), state.instance),
                    (delta.deleted_from(relation), prior),
                ):
                    if not rows:
                        continue
                    overrides = {
                        name: state.encode(rows),
                        GENERIC_REGISTER_NAME: reg_rows,
                        specific: reg_rows,
                    }
                    for variant, specs in witnesses[relation]:
                        if not specs:
                            answers = state.run(variant, source, overrides)
                            if answers is None:
                                return _PAIR_RECOMPUTE
                            dirty_all = dirty_all or bool(answers)
                        for spec in specs:
                            answers = state.run(spec.plan, source, overrides)
                            if answers is None:
                                return _PAIR_RECOMPUTE
                            dirty |= spec.tuples(answers, state.intern)
        return _PairDelta("witness", dirty=frozenset(dirty), dirty_all=dirty_all)

    # -- instance cache -------------------------------------------------------

    def _instance_state(self, instance: Instance) -> _InstanceState:
        with self._lock:
            state = self._states.get(instance)
            if state is not None:
                # Reinsert so eviction is least-recently-used, not
                # first-inserted.  Held under the lock: a concurrent reader
                # between the del and the reinsert would miss the state and
                # build a duplicate, splitting the memo.
                del self._states[instance]
                self._states[instance] = state
                return state
        problems = self._transducer.validate_against_schema(instance.schema)
        if problems:
            raise ValueError("; ".join(problems))
        state = _InstanceState(instance)
        with self._lock:
            # A racing thread may have installed a state meanwhile; adopt
            # theirs so both publishes share one memo.
            existing = self._states.get(instance)
            if existing is not None:
                return existing
            self._install_state(instance, state)
        return state

    def _install_state(self, instance: Instance, state: _InstanceState) -> None:
        """Insert a per-instance cache at the most-recently-used end."""
        with self._lock:
            if instance in self._states:
                del self._states[instance]
            self._states[instance] = state
            self._instances_seen += 1
            while len(self._states) > self._cache_instances:
                oldest = next(iter(self._states))
                del self._states[oldest]
                self._evictions += 1

    # -- dispatch and expansion ----------------------------------------------

    def _dispatch(self, state: str, tag: str) -> tuple[_CompiledItem, ...]:
        key = (state, tag)
        found = self._dispatch_table.get(key)
        if found is None:
            # Undeclared (state, tag) pairs behave as empty rules.
            found = ()
            self._dispatch_table[key] = found
        return found

    def _memoised(self, state: _InstanceState, triple: Triple) -> tuple[Triple, ...]:
        """Expand a configuration the memo lacks, and memoise it.

        Confluence (each node's children depend only on its own state, tag
        and register) makes the expansion a pure function of ``(triple,
        instance)``; the walker applies the stop condition per root-to-node
        path and counts the memo's hits and misses.
        """
        result = self._expand(state, triple)
        pair = (triple[0], triple[1])
        if pair in self._volatile_pairs:
            # Indexed before the memo insert: a migration copying the memo
            # then always finds the entry in its copy of the index.
            state.volatile.setdefault(pair, set()).add(triple)
        state.expansions[triple] = result
        return result

    def _expand(self, state: _InstanceState, triple: Triple) -> tuple[Triple, ...]:
        """Evaluate a configuration's rule queries: its one-step expansion.

        Planned items read the register through the override channel, in
        the state's representation -- no overlay instance, no extended
        schema, no relation re-wrapping.  An item the representation cannot
        run (no plan, or no columnar kernel on an encoded instance)
        evaluates on :meth:`_overlay` with the register decoded, and its
        answers are brought back into the representation.  Sibling order
        is the implicit order on ``D``, keyed per *group key* only (on
        encoded states the encoder memoises one order key per id).
        """
        q, tag, register = triple
        items = self._dispatch(q, tag)
        if not items or tag == TEXT_TAG:
            return ()
        overrides = {GENERIC_REGISTER_NAME: register, register_relation_name(tag): register}
        extended: Instance | None = None
        children: list[Triple] = []
        for item in items:
            plan = item.plan
            answers = None if plan is None else state.run(plan, state.instance, overrides)
            if answers is None:
                if extended is None:
                    extended = self._overlay(state, tag, state.decode(register))
                answers = state.encode(item.evaluate(extended))
            if not answers:
                continue
            group_arity = item.group_arity
            if group_arity == 0:
                children.append((item.state, item.tag, frozenset(answers)))
                continue
            groups: dict[tuple, set[tuple]] = {}
            for row in answers:
                groups.setdefault(row[:group_arity], set()).add(row)
            if len(groups) == 1:
                # Ubiquitous on recursive views (one child per step):
                # nothing to order, skip the sort-key construction.
                children.append(
                    (item.state, item.tag, frozenset(next(iter(groups.values()))))
                )
                continue
            for key in sorted(groups, key=state.order_key):
                children.append((item.state, item.tag, frozenset(groups[key])))
        return tuple(children)

    def _overlay(
        self, state: _InstanceState, tag: str, register: RegisterContent
    ) -> Instance:
        """The source extended with a (decoded) register -- without copying
        it: the evaluation instance of items that cannot read the register
        through the override channel."""
        if register:
            arity = len(next(iter(register)))
        else:
            arity = self._transducer.register_arity(tag)
        specific = register_relation_name(tag)
        key = (tag, arity)
        schema = state.ext_schemas.get(key)
        if schema is None:
            schema = state.instance.schema.extended(
                [RelationSchema(GENERIC_REGISTER_NAME, arity), RelationSchema(specific, arity)]
            )
            state.ext_schemas[key] = schema
        domain = state.instance.active_domain()
        if register:
            domain = domain | {value for row in register for value in row}
        # Registers are already-validated query answers: build both overlay
        # relations through the trusted constructor, sharing one frozenset.
        rows = register if isinstance(register, frozenset) else frozenset(register)
        return state.instance.overlaid(
            {
                GENERIC_REGISTER_NAME: Relation._from_frozenset(
                    GENERIC_REGISTER_NAME, arity, rows
                ),
                specific: Relation._from_frozenset(specific, arity, rows),
            },
            schema,
            domain,
        )

    # -- evaluation drivers ---------------------------------------------------

    def _root_triple(self) -> Triple:
        return (self._start_state, self._root_tag, frozenset())

    def _tree(self, state: _InstanceState, budget: int) -> TreeNode:
        sink = TreeSink(self, state)
        run(self, state, budget, sink)
        return sink.out[0]


class Engine:
    """Compiles publishing transducers into reusable :class:`PublishingPlan` s.

    The engine is the evaluation kernel of the reproduction: compile once,
    run many times, stream when the output is large::

        plan = Engine().compile(tau, schema)
        tree = plan.publish(instance)
        for event in plan.publish_events(big_instance):
            ...

    The recommended serving surface on top of it is
    :class:`repro.serve.ViewServer`, which compiles views through this class
    and routes output form, backend and maintenance in one call.
    """

    def __init__(
        self,
        max_nodes: int = DEFAULT_MAX_NODES,
        cache_instances: int = 8,
    ) -> None:
        self._max_nodes = max_nodes
        self._cache_instances = cache_instances

    def compile(
        self,
        transducer: PublishingTransducer,
        schema: RelationalSchema | None = None,
        max_nodes: int | None = None,
    ) -> PublishingPlan:
        """Compile ``transducer`` (optionally validated against ``schema``)."""
        return PublishingPlan(
            transducer,
            schema=schema,
            max_nodes=self._max_nodes if max_nodes is None else max_nodes,
            cache_instances=self._cache_instances,
        )


def compile_plan(
    transducer: PublishingTransducer,
    schema: RelationalSchema | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
    cache_instances: int = 8,
) -> PublishingPlan:
    """One-call convenience: ``compile_plan(tau).publish(instance)``."""
    return PublishingPlan(
        transducer, schema=schema, max_nodes=max_nodes, cache_instances=cache_instances
    )
