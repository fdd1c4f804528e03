"""The :class:`ViewServer`: one front door to the whole publishing stack.

The paper's transducers are *views*: a relational source publishes an XML
tree, and every question the paper asks (membership, emptiness, equivalence)
is a question about named, long-lived views.  After PRs 1-4 the repo exposed
that idea through four divergent entry-point families -- the
``publish``/``publish_many``/``publish_events``/``publish_xml`` method zoo,
``PublishingPlan.republish``, ``IncrementalPublisher`` and the per-language
front-ends -- with mode flags scattered across constructors.  This module
replaces them with a persistent serving surface, in the spirit of streaming
tree transducers (a machine consuming source updates and emitting output
streams, not a one-shot function call):

* :meth:`ViewServer.register_view` accepts any front-end -- a
  :class:`~repro.core.transducer.PublishingTransducer`, a
  :class:`~repro.engine.builder.TransducerBuilder`, a compiled
  :class:`~repro.engine.plan.PublishingPlan`, any language view of
  :mod:`repro.languages` (ATG, DAD, FOR XML, DBMS_XMLGEN, TreeQL, XPERANTO,
  ...), or a factory callable for parameterized views -- and compiles it
  once into the server's shared plan cache;
* :meth:`ViewServer.attach` returns a versioned :class:`SourceHandle` with
  MVCC-style snapshots: :meth:`SourceHandle.commit` produces a new immutable
  :class:`SourceVersion` (backed by the identity-sharing
  :meth:`~repro.relational.instance.Instance.apply_delta` and the cached
  columnar encodings) while older versions stay readable, so concurrent
  readers always see a consistent snapshot;
* :meth:`ViewServer.publish` is the single evaluation call, routing
  ``output=tree|events|bytes|compact``, ``backend=auto|row|columnar`` and
  ``maintenance=auto|full|incremental`` onto the engine's core drivers
  (``publish`` / ``publish_events`` / ``republish`` / encoded execution);
* :meth:`ViewServer.subscribe` yields one
  :class:`~repro.xmltree.diff.EditScript` per commit, maintained
  incrementally instead of re-published and diffed;
* views may declare bind parameters; a binding compiles the view with the
  parameters substituted as query constants, which the shared planner pushes
  into its indexed scans (prepared-statement style).

Every output mode is byte-identical across routes: ``output="bytes"``
matches serialising ``publish``, ``output="tree"`` matches ``publish``,
maintained trees always equal a from-scratch publish of the same version.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.core.runtime import DEFAULT_MAX_NODES
from repro.core.transducer import PublishingTransducer
from repro.engine.builder import TransducerBuilder
from repro.engine.plan import Engine, PublishingPlan, RepublishResult
from repro.relational.delta import Delta
from repro.relational.domain import DataValue
from repro.relational.instance import Instance
from repro.relational.schema import RelationalSchema
from repro.xmltree.diff import EditScript, diff_trees
from repro.xmltree.events import tree_to_events
from repro.xmltree.tree import TreeNode

#: Recognised values of the ``output=`` routing axis ("xml" aliases "bytes").
OUTPUTS = ("tree", "events", "bytes", "compact")

#: The internally accepted output values (the alias included).
_OUTPUTS_WITH_ALIAS = OUTPUTS + ("xml",)

#: Recognised values of the ``backend=`` routing axis.
BACKENDS = ("auto", "row", "columnar")

#: Recognised values of the ``maintenance=`` routing axis.
MAINTENANCE = ("auto", "full", "incremental")

#: Recognised values of the ``typecheck=`` registration axis.
TYPECHECK_MODES = ("static", "runtime", "off")

#: A parameter binding frozen into a cache key.
BindingKey = tuple[tuple[str, DataValue], ...]


class ServeError(ValueError):
    """Raised when the serving API is used inconsistently."""


class ViewRejected(ServeError):
    """Registration refused: the static typecheck *refuted* the view.

    Raised by :meth:`ViewServer.register_view` (or by the first compile of a
    parameterized binding) when ``output_dtd`` was given, ``typecheck`` is
    ``"static"`` and :func:`repro.typecheck.typecheck_plan` found a concrete
    counterexample.  ``result`` is the full
    :class:`~repro.typecheck.TypecheckResult`; its ``witness`` is a source
    instance that *replays*: publishing it through the rejected view
    produces a document violating the DTD at ``result.violation``.
    """

    def __init__(self, name: str, result) -> None:
        self.view = name
        self.result = result
        super().__init__(f"view {name!r} rejected: {result.describe()}")


def _checked(value: str, allowed: tuple[str, ...], axis: str) -> str:
    if value not in allowed:
        raise ServeError(f"unknown {axis} {value!r}; expected one of {allowed}")
    return value


# ---------------------------------------------------------------------------
# Versioned sources.
# ---------------------------------------------------------------------------


class PruneResult(tuple):
    """The version indices dropped by :meth:`SourceHandle.prune`, oldest first.

    A tuple of the pruned indices, so the write-ahead-log compactor and
    lagging subscribers can react to exactly the versions that went away.
    For the callers that only ever wanted the count, it still compares equal
    to that integer and converts via ``int()`` / :attr:`count`.
    """

    __slots__ = ()

    @property
    def indices(self) -> tuple[int, ...]:
        """The pruned version indices as a plain tuple."""
        return tuple(self)

    @property
    def count(self) -> int:
        """How many versions were pruned (the legacy return value)."""
        return len(self)

    def __int__(self) -> int:
        return len(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, bool):  # bool before int: True must not mean 1
            return NotImplemented
        if isinstance(other, int):
            return len(self) == other
        return tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    # Tuple hashing is kept (equal-to-int is a legacy-compat affordance, not
    # an identity: prune results are not meant to be dict keys next to ints).
    __hash__ = tuple.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PruneResult(count={len(self)}, indices={tuple(self)!r})"


class SourceVersion:
    """One immutable version of an attached source (an MVCC snapshot).

    ``instance`` is the canonical instance of the version; ``delta`` is the
    normalized delta from the parent version (empty for version 0).  Because
    instances are immutable and :meth:`Instance.apply_delta` shares every
    untouched relation object by identity, holding many versions costs only
    the touched relations -- old versions stay readable forever, and a
    reader pinned to version ``N`` is provably unaffected by commit
    ``N + 1``.  Backend twins (the same data pinned to the row or columnar
    representation) are derived lazily per version and cached.
    """

    __slots__ = ("handle", "index", "instance", "delta", "_row", "_columnar")

    def __init__(
        self, handle: "SourceHandle", index: int, instance: Instance, delta: Delta
    ) -> None:
        self.handle = handle
        self.index = index
        self.instance = instance
        self.delta = delta
        self._row: Instance | None = None
        self._columnar: Instance | None = None

    def instance_for(self, backend: str = "auto") -> Instance:
        """The version's instance pinned to a backend (see :class:`SourceHandle`)."""
        return self.handle._instance_for(self, backend)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SourceVersion({self.handle.name!r}, v{self.index})"


class SourceHandle:
    """A versioned source: the write side of the MVCC snapshot chain.

    Obtained from :meth:`ViewServer.attach`.  :meth:`commit` normalizes a
    :class:`~repro.relational.delta.Delta` against the latest version and
    appends a new immutable :class:`SourceVersion`; every previously handed
    out version object keeps reading its own snapshot.  Subscriptions
    registered against this handle are delivered synchronously, in
    registration order, before :meth:`commit` returns.
    """

    def __init__(
        self,
        server: "ViewServer",
        name: str,
        instance: Instance,
        base_version: int = 0,
    ) -> None:
        self._server = server
        self._name = name
        self._versions: list[SourceVersion] = [
            SourceVersion(self, base_version, instance, Delta())
        ]
        self._subscriptions: list[Subscription] = []
        self._twin_encoder = None  # shared by the whole columnar-twin lineage
        self._lock = threading.Lock()
        self._commits = 0
        # Optional durability sink (repro.serve.net.wal): when armed, every
        # commit's normalized delta is appended -- and flushed -- *before*
        # the new version becomes visible (write-ahead ordering).
        self._wal = None

    # -- reading -------------------------------------------------------------

    @property
    def name(self) -> str:
        """The handle's name (unique within its server)."""
        return self._name

    @property
    def version(self) -> int:
        """The index of the latest committed version."""
        return self._versions[-1].index

    @property
    def latest(self) -> SourceVersion:
        """The latest committed version."""
        return self._versions[-1]

    @property
    def instance(self) -> Instance:
        """The latest version's instance."""
        return self._versions[-1].instance

    @property
    def commits(self) -> int:
        """How many deltas have been committed."""
        return self._commits

    def snapshot(self, version: int | None = None) -> SourceVersion:
        """A consistent read snapshot: the given (default: latest) version.

        Raises :class:`ServeError` for unknown or :meth:`prune`-d version
        numbers (version objects already handed out keep working either
        way -- they own their instance).
        """
        versions = self._versions
        if version is None:
            return versions[-1]
        base = versions[0].index
        if not base <= version <= versions[-1].index:
            pruned = " (older versions pruned)" if base else ""
            raise ServeError(
                f"source {self._name!r} has versions "
                f"{base}..{versions[-1].index}{pruned}, not {version}"
            )
        return versions[version - base]

    def history(self) -> tuple[SourceVersion, ...]:
        """All retained versions, oldest first."""
        return tuple(self._versions)

    def prune(self, keep_last: int = 1) -> PruneResult:
        """Drop all but the newest ``keep_last`` versions.

        Returns a :class:`PruneResult` naming exactly the dropped version
        indices (it still compares equal to the dropped *count*, the legacy
        return value), so the write-ahead-log compactor knows which log
        segments became droppable and subscribers know which snapshots they
        can no longer rewind to.

        The version chain otherwise grows by one snapshot per commit (cheap
        -- untouched relations are shared by identity -- but unbounded).
        Pruning bounds it for long-running delta streams that do not need
        time travel.  Contract: handed-out :class:`SourceVersion` objects
        keep reading their own snapshot; :meth:`snapshot` of a pruned
        number raises; a maintained chain or subscription lagging behind
        the pruned range transparently reseeds itself with one full publish
        (its subscribers receive the corresponding edit script).
        """
        with self._lock:
            keep = max(1, keep_last)
            excess = len(self._versions) - keep
            if excess <= 0:
                return PruneResult()
            dropped = PruneResult(version.index for version in self._versions[:excess])
            self._versions = self._versions[excess:]
            return dropped

    # -- writing -------------------------------------------------------------

    def commit(self, delta: Delta) -> SourceVersion:
        """Apply a delta, append a new version and deliver subscriptions.

        The delta is normalized against the latest version (insertions
        already present and deletions of absent tuples are dropped), so the
        version chain records exactly the effective changes.  Older versions
        are untouched and stay readable.
        """
        with self._lock:
            previous = self._versions[-1]
            delta = delta.normalized(previous.instance)
            if self._wal is not None:
                # Write-ahead: the normalized delta must be durable before
                # the version becomes visible.  A failed append aborts the
                # commit with the chain untouched.
                self._wal.append(previous.index + 1, delta)
            instance = previous.instance.apply_delta(delta)
            version = SourceVersion(self, previous.index + 1, instance, delta)
            self._versions.append(version)
            self._commits += 1
        # One advance per distinct maintained chain: subscriptions sharing a
        # chain are fanned out from inside its critical section.
        seen: set[int] = set()
        for subscription in tuple(self._subscriptions):
            chain = subscription._maintained
            if id(chain) not in seen:
                seen.add(id(chain))
                chain.advance(version)
        return version

    # -- backend twins -------------------------------------------------------

    def _instance_for(self, version: SourceVersion, backend: str) -> Instance:
        """The version's instance pinned to ``backend``.

        ``auto`` returns the canonical instance (columnar iff the source was
        attached encoded).  ``row`` / ``columnar`` return a value-equal twin
        on the requested representation, derived lazily: the twin of version
        ``k`` is the twin of version ``k - 1`` with the same delta applied,
        so twin lineages share untouched relation objects (and, on the
        columnar side, one append-only encoder) exactly like the canonical
        chain.
        """
        _checked(backend, BACKENDS, "backend")
        if backend == "auto":
            return version.instance
        if backend == "row":
            if not version.instance.is_encoded:
                return version.instance
            attr = "_row"
        else:
            if version.instance.is_encoded:
                return version.instance
            attr = "_columnar"
        cached = getattr(version, attr)
        if cached is not None:
            return cached
        # Walk back to the nearest version with a cached twin (or the oldest
        # reachable one), then replay the deltas forward, caching every step.
        # Under the handle lock: two concurrent derivations must not each
        # mint a fresh encoder for the columnar lineage -- twins of one
        # handle share one append-only dictionary, or encoded registers from
        # different versions stop being comparable.
        with self._lock:
            cached = getattr(version, attr)
            if cached is not None:
                return cached
            chain: list[SourceVersion] = []
            cursor = version
            while getattr(cursor, attr) is None:
                parent = self._parent_of(cursor)
                if parent is None:
                    break
                chain.append(cursor)
                cursor = parent
            twin = getattr(cursor, attr)
            if twin is None:  # the chain root (or a pruned-off snapshot)
                twin = self._fresh_twin(cursor.instance, backend)
                setattr(cursor, attr, twin)
            for step in reversed(chain):
                twin = twin.apply_delta(step.delta)
                setattr(step, attr, twin)
            return twin

    def _parent_of(self, version: SourceVersion) -> SourceVersion | None:
        """The retained predecessor of ``version``, or ``None`` if pruned."""
        versions = self._versions
        base = versions[0].index
        index = version.index - 1
        if index < base or index > versions[-1].index:
            return None
        return versions[index - base]

    def _fresh_twin(self, instance: Instance, backend: str) -> Instance:
        if backend == "row":
            return instance.without_encoding()
        from repro.relational.columnar import encoded_twin

        twin = encoded_twin(instance, self._twin_encoder)
        if self._twin_encoder is None:
            from repro.relational.columnar import encoding_of

            self._twin_encoder = encoding_of(twin)
        return twin

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SourceHandle({self._name!r}, version={self.version})"


# ---------------------------------------------------------------------------
# Registered views.
# ---------------------------------------------------------------------------


class RegisteredView:
    """One named view: a front-end compiled (per parameter binding) once.

    Created by :meth:`ViewServer.register_view`.  ``params`` names the
    view's bind parameters; each distinct binding compiles the view with the
    bound constants substituted into its queries, which the shared planner
    then pushes into its indexed scans -- the prepared-statement discipline,
    with the compiled plan cached per binding.
    """

    def __init__(
        self,
        server: "ViewServer",
        name: str,
        source,
        language: str | None,
        params: tuple[str, ...],
        schema: RelationalSchema | None,
        max_nodes: int | None,
        output_dtd=None,
        typecheck: str = "static",
    ) -> None:
        self._server = server
        self._name = name
        self._source = source
        self._language = language
        self._params = params
        self._schema = schema
        self._max_nodes = max_nodes
        self._output_dtd = output_dtd
        self._typecheck = typecheck
        self._verdicts: dict[BindingKey, object] = {}
        # instance -> {plan -> {budgets}} of documents already validated, so
        # steady-state publishes of an unchanged version never re-validate.
        # Both layers are weak: entries die with the version or the plan.
        self._validated_docs = weakref.WeakKeyDictionary()
        self._validation_hot: tuple | None = None
        self._plans: dict[BindingKey, PublishingPlan] = {}
        self._plans_lock = threading.Lock()
        self.publishes = 0
        self.last_backend: str | None = None
        self.validated = 0
        self.violations = 0

    @property
    def name(self) -> str:
        """The view's name (unique within its server)."""
        return self._name

    @property
    def params(self) -> tuple[str, ...]:
        """The declared bind-parameter names (empty for plain views)."""
        return self._params

    @property
    def language(self) -> str | None:
        """The source language, detected from the front-end when possible."""
        return self._language

    @property
    def output_dtd(self):
        """The registered target DTD, or ``None`` (no output typechecking)."""
        return self._output_dtd

    @property
    def typecheck_mode(self) -> str:
        """The registered ``typecheck=`` mode (``static``/``runtime``/``off``)."""
        return self._typecheck

    def typecheck_result(self, params: Mapping[str, DataValue] | None = None):
        """The static :class:`~repro.typecheck.TypecheckResult` for a binding.

        ``None`` when no DTD is registered, the mode skips the static check,
        or the binding has not been compiled yet.
        """
        return self._verdicts.get(self.binding_key(params))

    def binding_key(self, params: Mapping[str, DataValue] | None) -> BindingKey:
        """Validate a parameter binding and freeze it into a cache key."""
        given = dict(params or {})
        declared = set(self._params)
        unknown = set(given) - declared
        if unknown:
            raise ServeError(
                f"view {self._name!r} does not declare parameter(s) "
                f"{sorted(unknown)}; declared: {sorted(declared) or 'none'}"
            )
        missing = declared - set(given)
        if missing:
            raise ServeError(
                f"view {self._name!r} needs parameter(s) {sorted(missing)}"
            )
        return tuple(sorted(given.items()))

    #: Cap on compiled plans cached per view, evicted least-recently-used,
    #: so high-cardinality bindings (a plan per user-supplied value) cannot
    #: grow the server without bound; evicted bindings recompile on demand.
    max_bindings = 64

    def plan_for(self, params: Mapping[str, DataValue] | None = None) -> PublishingPlan:
        """The compiled plan for a binding (compiled on first use, LRU-cached)."""
        return self.plan_for_key(self.binding_key(params))

    def plan_for_key(self, key: BindingKey) -> PublishingPlan:
        """:meth:`plan_for` for an already-validated :meth:`binding_key`."""
        with self._plans_lock:
            plan = self._plans.get(key)
            if plan is not None:
                # Reinsert so eviction is least-recently-used, not
                # first-compiled.
                del self._plans[key]
                self._plans[key] = plan
                return plan
        # Compile outside the lock (planning every rule query is the slow
        # part); a concurrent compile of the same binding wastes one plan
        # but cannot corrupt the cache.
        plan = self._compile(key)
        with self._plans_lock:
            winner = self._plans.setdefault(key, plan)
            while len(self._plans) > self.max_bindings:
                del self._plans[next(iter(self._plans))]
            return winner

    @property
    def plans(self) -> tuple[PublishingPlan, ...]:
        """Every plan compiled for this view so far (one per binding)."""
        return tuple(self._plans.values())

    def _compile(self, key: BindingKey) -> PublishingPlan:
        source = self._source
        produced = key or (callable(source) and not self._is_frontend(source))
        if produced:
            if not callable(source):
                raise ServeError(
                    f"view {self._name!r} declares parameters, so its source "
                    f"must be a factory callable, not {type(source).__name__}"
                )
            source = source(**dict(key))
        if isinstance(source, PublishingPlan):
            if self._schema is not None:
                problems = source.transducer.validate_against_schema(self._schema)
                if problems:
                    raise ServeError("; ".join(problems))
            if self._language is None:
                self._language = "compiled plan"
            return self._typechecked(key, source)
        from repro.languages.registry import compile_frontend, frontend_language

        if self._language is None:
            self._language = frontend_language(source)
        transducer = compile_frontend(source)
        # Factory-produced transducers are fresh objects per binding -- they
        # can never be shared across views, so the server-level plan cache
        # (which would pin them forever) is bypassed for them; this view's
        # own LRU-capped binding cache is their only home.
        plan = self._server._compile(
            transducer, self._schema, self._max_nodes, share=not produced
        )
        return self._typechecked(key, plan)

    # -- output typechecking -------------------------------------------------

    def _typechecked(self, key: BindingKey, plan: PublishingPlan) -> PublishingPlan:
        """Run the static output typecheck on a freshly compiled binding.

        ``typecheck="static"`` with a registered DTD classifies the binding
        (the verdict is kept for :meth:`stats`/:meth:`explain` and for the
        runtime-validation decision) and *rejects* refuted bindings: the
        raised :class:`ViewRejected` carries a replayable counterexample
        source.  ``"runtime"`` skips the deploy-time check entirely and
        ``"off"`` disables validation altogether.
        """
        if self._output_dtd is None or self._typecheck != "static":
            return plan
        from repro.typecheck import typecheck_plan

        result = typecheck_plan(plan, self._output_dtd)
        self._verdicts[key] = result
        if result.refuted:
            raise ViewRejected(self._name, result)
        return plan

    def _runtime_validation(self, key: BindingKey) -> bool:
        """Whether publishes of this binding must stream-validate.

        ``False`` for unchecked views and for bindings the static checker
        *proved* (their publishes carry zero validation cost); ``True`` for
        ``typecheck="runtime"`` and for ``UNDECIDED`` static verdicts.
        """
        if self._output_dtd is None or self._typecheck == "off":
            return False
        if self._typecheck == "runtime":
            return True
        result = self._verdicts.get(key)
        return result is None or not result.proved

    def _is_validated(self, plan: PublishingPlan, instance: Instance, budget) -> bool:
        # One-slot hot path: steady-state serving republishes the latest
        # version, so the last-validated triple answers almost every probe
        # without touching the weak memo.  Weak references keep the slot
        # from pinning retired versions in memory.
        hot = self._validation_hot
        if (
            hot is not None
            and hot[2] == budget
            and hot[1]() is instance
            and hot[0]() is plan
        ):
            return True
        plans = self._validated_docs.get(instance)
        if plans is None:
            return False
        budgets = plans.get(plan)
        return budgets is not None and budget in budgets

    def _mark_validated(self, plan: PublishingPlan, instance: Instance, budget) -> None:
        self.validated += 1
        try:
            plans = self._validated_docs.get(instance)
            if plans is None:
                plans = self._validated_docs[instance] = weakref.WeakKeyDictionary()
            plans.setdefault(plan, set()).add(budget)
            self._validation_hot = (weakref.ref(plan), weakref.ref(instance), budget)
        except TypeError:  # pragma: no cover - non-weakrefable artefacts
            pass

    def _ensure_validated(self, plan: PublishingPlan, instance: Instance, budget) -> None:
        """Validate the document of ``(plan, instance, budget)`` once.

        Streams ``publish_events`` through the O(depth) validator -- no tree
        is materialised -- then memoises per version, so repeated publishes
        of an unchanged snapshot (the steady-state serving pattern) skip
        straight to rendering.
        """
        if self._is_validated(plan, instance, budget):
            return
        from repro.typecheck import OutputValidationError, StreamingValidator

        validator = StreamingValidator(self._output_dtd, self._name)
        try:
            validator.validate(plan.publish_events(instance, budget))
        except OutputValidationError:
            self.violations += 1
            raise
        self._mark_validated(plan, instance, budget)

    def _ensure_validated_tree(
        self, plan: PublishingPlan, tree: TreeNode, instance: Instance, budget
    ) -> None:
        """:meth:`_ensure_validated` for a maintained tree (no re-publish).

        The maintained tree is byte-identical to a from-scratch publish of
        its version (the serving stack's core invariant), so validating its
        event replay validates the published document.
        """
        if self._is_validated(plan, instance, budget):
            return
        from repro.typecheck import OutputValidationError, validate_tree

        try:
            validate_tree(tree, self._output_dtd, view=self._name)
        except OutputValidationError:
            self.violations += 1
            raise
        self._mark_validated(plan, instance, budget)

    def _validated_events(self, plan: PublishingPlan, instance: Instance, budget):
        """A validating pass-through for ``output="events"`` publishes.

        Single-pass: the consumer drives the lazy engine driver exactly
        once, every event is checked before it is handed over, and the
        version is marked validated only after the final event passed.
        """
        from repro.typecheck import OutputValidationError, StreamingValidator

        validator = StreamingValidator(self._output_dtd, self._name)
        events = plan.publish_events(instance, budget)
        try:
            for event in events:
                validator.feed(event)
                yield event
            validator.finish()
        except OutputValidationError:
            self.violations += 1
            raise
        self._mark_validated(plan, instance, budget)

    @staticmethod
    def _is_frontend(source) -> bool:
        """Whether ``source`` is itself a view object rather than a factory."""
        return isinstance(
            source, (PublishingTransducer, PublishingPlan, TransducerBuilder)
        ) or hasattr(source, "compile")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RegisteredView({self._name!r}, language={self._language!r}, "
            f"params={self._params!r}, bindings={len(self._plans)})"
        )


# ---------------------------------------------------------------------------
# Maintained views and subscriptions.
# ---------------------------------------------------------------------------


class _MaintainedView:
    """A view's (instance, tree) chain maintained along a handle's versions.

    The incremental unit shared by ``maintenance="incremental"`` publishes
    and by subscriptions: one :meth:`PublishingPlan.republish` per committed
    delta, with the per-rule memo invalidation and subtree reuse of the
    engine.  The maintained tree always equals -- tree- and byte-wise -- a
    from-scratch publish of the same version.  :meth:`advance` is serialized
    by a per-chain lock, so concurrent commits (or publishes racing a
    commit) cannot replay the same delta twice.

    One chain is shared per (view, binding, source, backend, budget) key:
    every subscription on the key attaches as a subscriber and receives each
    replayed step from inside the critical section, so a commit costs one
    republish regardless of subscriber count, delivered exactly once and in
    version order no matter who (commit delivery or a racing publish)
    advances the chain first.
    """

    __slots__ = (
        "plan",
        "handle",
        "backend",
        "max_nodes",
        "version",
        "instance",
        "tree",
        "subscribers",
        "_lock",
    )

    def __init__(
        self,
        plan: PublishingPlan,
        handle: SourceHandle,
        version: SourceVersion,
        backend: str,
        max_nodes: int | None,
    ) -> None:
        self.plan = plan
        self.handle = handle
        self.backend = backend
        self.max_nodes = max_nodes
        self.version = version.index
        self.instance = handle._instance_for(version, backend)
        self.tree = plan.publish(self.instance, max_nodes)
        self.subscribers: list[Subscription] = []
        self._lock = threading.Lock()

    def add_subscriber(self, subscription: "Subscription") -> None:
        with self._lock:
            self.subscribers.append(subscription)

    def remove_subscriber(self, subscription: "Subscription") -> None:
        with self._lock:
            try:
                self.subscribers.remove(subscription)
            except ValueError:  # pragma: no cover - already detached
                pass

    def advance(self, target: SourceVersion) -> TreeNode | None:
        """Republish up to ``target`` and return the tree at that version.

        Returns ``None`` when the chain has already moved *past* the
        requested version (a concurrent publish of a newer snapshot) -- the
        caller must then serve the pinned version with a full publish, never
        with this chain's newer tree.  When an intermediate delta has been
        :meth:`SourceHandle.prune`-d away, the chain reseeds itself with one
        full publish of ``target`` and delivers the corresponding document
        diff instead of per-delta scripts.
        """
        with self._lock:
            if self.version > target.index:
                return None
            while self.version < target.index:
                try:
                    step = self.handle.snapshot(self.version + 1)
                except ServeError:
                    # The needed delta was pruned: reseed at the target.
                    previous_instance, previous_tree = self.instance, self.tree
                    self.instance = self.handle._instance_for(target, self.backend)
                    self.tree = self.plan.publish(self.instance, self.max_nodes)
                    self.version = target.index
                    self._fan_out(
                        RepublishResult(
                            self.instance,
                            self.tree,
                            diff_trees(previous_tree, self.tree),
                            previous_instance.diff(self.instance),
                        )
                    )
                    break
                result = self.plan.republish(
                    self.instance,
                    step.delta,
                    prev_tree=self.tree,
                    max_nodes=self.max_nodes,
                )
                self.instance = result.instance
                self.tree = result.tree
                self.version = step.index
                self._fan_out(result)
            return self.tree

    def _fan_out(self, result: RepublishResult) -> None:
        for subscription in self.subscribers:
            subscription._record(result, self.version)


@dataclass(frozen=True)
class SubscriptionEvent:
    """One delivered commit: the version it produced and the document diff.

    ``edits`` replays the subscriber's previous tree into the new one
    (``edits.apply(prev_tree) == tree``); ``result`` carries the underlying
    :class:`~repro.engine.plan.RepublishResult` (delta, invalidation
    counters, the new tree) for consumers that want more than the diff.
    """

    version: int
    edits: EditScript
    result: RepublishResult

    @property
    def tree(self) -> TreeNode:
        """The maintained tree after this commit."""
        return self.result.tree


class Subscription:
    """A push channel delivering one edit script per source commit.

    Created by :meth:`ViewServer.subscribe`.  The subscription maintains its
    own incrementally republished copy of the view; each
    :meth:`SourceHandle.commit` synchronously appends one
    :class:`SubscriptionEvent` (possibly with an empty edit script, when the
    commit provably does not affect the view).  Consume with :meth:`pop`,
    :meth:`drain` or iteration; :meth:`close` detaches from the handle.

    The queue holds at most ``max_pending`` events (each pins a full tree
    and instance version): when a stalled consumer falls further behind, the
    *oldest* events are dropped and counted in :attr:`dropped`.  Because
    edit scripts compose sequentially, a consumer observing ``dropped > 0``
    can no longer replay its local copy and must resynchronise from
    :attr:`tree` (always the complete, current document).
    """

    #: Default bound on unconsumed events per subscription.
    max_pending = 4096

    def __init__(
        self,
        server: "ViewServer",
        view: RegisteredView,
        handle: SourceHandle,
        maintained: _MaintainedView,
        max_pending: int | None = None,
    ) -> None:
        self._server = server
        self._view = view
        self._handle = handle
        self._maintained = maintained
        if max_pending is not None:
            self.max_pending = max(1, max_pending)
        self._events: deque[SubscriptionEvent] = deque()
        # Guards the event queue: _record runs on the committing thread
        # (inside the chain lock) while pop/drain run on the consumer's.
        self._queue_lock = threading.Lock()
        self.deliveries = 0
        self.dropped = 0
        self._closed = False

    # -- state ---------------------------------------------------------------

    @property
    def view(self) -> RegisteredView:
        """The subscribed view."""
        return self._view

    @property
    def handle(self) -> SourceHandle:
        """The handle whose commits are delivered."""
        return self._handle

    @property
    def version(self) -> int:
        """The version the maintained tree currently reflects."""
        return self._maintained.version

    @property
    def tree(self) -> TreeNode:
        """The maintained tree (equal to a full publish of :attr:`version`)."""
        return self._maintained.tree

    @property
    def instance(self) -> Instance:
        """The maintained instance at :attr:`version` (backend-pinned)."""
        return self._maintained.instance

    @property
    def pending(self) -> int:
        """How many delivered events have not been consumed yet."""
        return len(self._events)

    # -- consuming -----------------------------------------------------------

    def pop(self) -> SubscriptionEvent:
        """The oldest unconsumed event (raises :class:`LookupError` when none)."""
        with self._queue_lock:
            if not self._events:
                raise LookupError("no pending subscription events")
            return self._events.popleft()

    def drain(self) -> list[SubscriptionEvent]:
        """All unconsumed events, oldest first."""
        with self._queue_lock:
            events = list(self._events)
            self._events.clear()
        return events

    def __iter__(self) -> Iterator[SubscriptionEvent]:
        while True:
            with self._queue_lock:
                if not self._events:
                    return
                event = self._events.popleft()
            yield event

    def close(self) -> None:
        """Stop receiving commits (pending events stay consumable).

        Detaches from the shared chain's fan-out list, the handle's delivery
        list and the server's registry, so :meth:`ViewServer.stats` counts
        live subscribers only.
        """
        if not self._closed:
            self._closed = True
            self._maintained.remove_subscriber(self)
            for registry in (self._handle._subscriptions, self._server._subscriptions):
                try:
                    registry.remove(self)
                except ValueError:  # pragma: no cover - already detached
                    pass

    # -- delivery ------------------------------------------------------------

    def _record(self, result: RepublishResult, at_version: int) -> None:
        """Receive one replayed step (called from inside the chain's lock)."""
        with self._queue_lock:
            self._events.append(SubscriptionEvent(at_version, result.edits, result))
            while len(self._events) > self.max_pending:
                self._events.popleft()
                self.dropped += 1
        self.deliveries += 1
        self._server._deliveries += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Subscription(view={self._view.name!r}, source={self._handle.name!r}, "
            f"version={self.version}, pending={self.pending})"
        )


# ---------------------------------------------------------------------------
# The server.
# ---------------------------------------------------------------------------


class ViewServer:
    """Serve named XML views over versioned relational sources.

    The one front door of the reproduction::

        server = ViewServer()
        server.register_view("hierarchy", tau1_prerequisite_hierarchy)
        handle = server.attach(instance)

        xml = server.publish("hierarchy", output="bytes")       # full document
        sub = server.subscribe("hierarchy")                      # live diffs
        handle.commit(Delta.insert("prereq", ("cs500", "cs240")))
        print(sub.pop().edits.describe())

    ``register_view`` accepts every front-end of the code base;
    ``publish`` routes output format, execution backend and maintenance
    strategy in one call; ``stats()`` / ``explain()`` aggregate the
    observability counters that previously had to be collected from the
    plan, the relations and the query plans separately.
    """

    def __init__(
        self,
        max_nodes: int = DEFAULT_MAX_NODES,
        cache_instances: int = 8,
        maintained_views: int = 32,
    ) -> None:
        self._engine = Engine(max_nodes=max_nodes, cache_instances=cache_instances)
        self._max_nodes = max_nodes
        self._max_maintained = max(1, maintained_views)
        self._views: dict[str, RegisteredView] = {}
        self._handles: dict[str, SourceHandle] = {}
        self._plan_cache: dict[tuple[int, int | None], PublishingPlan] = {}
        # Maintained (view, binding, source, backend, budget) chains in LRU
        # order; chains with subscribers are exempt from the cap.
        self._maintained: dict[tuple, _MaintainedView] = {}
        # Encoded twins of raw (unattached) instances published with
        # backend="columnar", so repeated one-shot publishes do not re-intern
        # the world; entries die with the caller's instance.
        self._raw_twins = weakref.WeakKeyDictionary()
        self._subscriptions: list[Subscription] = []
        self._deliveries = 0
        self._lock = threading.Lock()

    # -- registration --------------------------------------------------------

    def register_view(
        self,
        name: str,
        source,
        *,
        language: str | None = None,
        params: Iterable[str] = (),
        schema: RelationalSchema | None = None,
        max_nodes: int | None = None,
        output_dtd=None,
        typecheck: str = "static",
    ) -> RegisteredView:
        """Register a named view and compile its default binding eagerly.

        ``source`` may be a :class:`PublishingTransducer`, a
        :class:`TransducerBuilder`, a compiled :class:`PublishingPlan`, any
        language front-end exposing ``.compile()`` (ATG, DAD, FOR XML,
        DBMS_XMLGEN, TreeQL, XPERANTO, annotated XSD, SQL/XML), or -- when
        ``params`` are declared or the source is a plain callable -- a
        factory invoked with the bound parameters and returning any of the
        above.  ``schema``, when given, validates the compiled transducer
        against the source schema at registration time.

        ``output_dtd`` declares the target :class:`~repro.xmltree.dtd.DTD`
        every published document must conform to, gated by ``typecheck``:

        * ``"static"`` (the default) runs the deploy-time checker of
          :mod:`repro.typecheck` -- a *refuted* view raises
          :class:`ViewRejected` here (with a replayable counterexample
          source), a *proved* view publishes forever after with zero
          validation cost, and an *undecided* view falls back to the
          streaming runtime validator;
        * ``"runtime"`` skips the static check and always stream-validates;
        * ``"off"`` records the DTD without enforcing it.

        Runtime validation folds ``publish_events`` through an O(depth)
        automaton, memoised per source version; violations raise
        :class:`~repro.typecheck.OutputValidationError` and are counted in
        :meth:`stats`.  Subscription deltas are not re-validated (the
        maintained tree is validated when published, not when diffed).
        """
        params = tuple(params)
        if params and not callable(source):
            raise ServeError(
                f"view {name!r} declares parameters {params}, so its source "
                f"must be a factory callable, not {type(source).__name__}"
            )
        _checked(typecheck, TYPECHECK_MODES, "typecheck")
        if output_dtd is None and typecheck != "static":
            raise ServeError(
                f"typecheck={typecheck!r} needs an output_dtd to check against"
            )
        with self._lock:
            if name in self._views:
                raise ServeError(f"view {name!r} is already registered")
            view = RegisteredView(
                self, name, source, language, params, schema, max_nodes,
                output_dtd, typecheck,
            )
            self._views[name] = view
        if not params:
            try:
                view.plan_for(None)  # compile (and validate) eagerly
            except Exception:
                # A failed registration must not squat on the name: drop the
                # half-registered view so a corrected retry can reuse it.
                with self._lock:
                    if self._views.get(name) is view:
                        del self._views[name]
                raise
        return view

    def attach(
        self,
        instance: Instance,
        *,
        name: str | None = None,
        encoded: bool = False,
        base_version: int = 0,
    ) -> SourceHandle:
        """Attach a source instance and return its versioned handle.

        With ``encoded=True`` the instance is dictionary-encoded in place
        (:func:`repro.relational.columnar.ensure_encoded`), so the whole
        version lineage runs on the columnar backend under
        ``backend="auto"``.  The encoding is only applied once the handle is
        actually created -- a failed attach never mutates the instance.

        ``base_version`` numbers the attached snapshot (default ``0``); the
        recovery path of :mod:`repro.serve.net.wal` uses it so a source
        restored from a compacted log resumes its pre-crash version
        numbering instead of restarting at zero.
        """
        with self._lock:
            if name is None:
                counter = len(self._handles)
                name = f"source{counter}"
                while name in self._handles:
                    counter += 1
                    name = f"source{counter}"
            if name in self._handles:
                raise ServeError(f"source {name!r} is already attached")
            if encoded:
                from repro.relational.columnar import ensure_encoded

                ensure_encoded(instance)
            handle = SourceHandle(self, name, instance, base_version)
            self._handles[name] = handle
        return handle

    @property
    def views(self) -> tuple[RegisteredView, ...]:
        """Every registered view, in registration order."""
        return tuple(self._views.values())

    @property
    def handles(self) -> tuple[SourceHandle, ...]:
        """Every attached source handle, in attachment order."""
        return tuple(self._handles.values())

    def view(self, name: str) -> RegisteredView:
        """The registered view called ``name``."""
        try:
            return self._views[name]
        except KeyError:
            raise ServeError(
                f"unknown view {name!r}; registered: {sorted(self._views) or 'none'}"
            ) from None

    def source(self, name: str) -> SourceHandle:
        """The attached source handle called ``name``."""
        try:
            return self._handles[name]
        except KeyError:
            raise ServeError(
                f"unknown source {name!r}; attached: {sorted(self._handles) or 'none'}"
            ) from None

    # -- the single evaluation call ------------------------------------------

    def publish(
        self,
        view: str | RegisteredView,
        *,
        source: "SourceHandle | SourceVersion | Instance | None" = None,
        version: int | None = None,
        params: Mapping[str, DataValue] | None = None,
        output: str = "tree",
        backend: str = "auto",
        maintenance: str = "auto",
        indent: int | None = 2,
        write=None,
        max_nodes: int | None = None,
    ):
        """Evaluate a registered view -- the one call replacing the method zoo.

        ``source`` is a :class:`SourceHandle` (optionally with ``version=``),
        a :class:`SourceVersion` snapshot, a raw
        :class:`~repro.relational.instance.Instance` (one-shot, unversioned)
        or ``None`` when exactly one source is attached.  ``output`` selects
        the result form: the materialised Σ-tree (``"tree"``), a lazy
        SAX-style event stream (``"events"``), the serialised document
        (``"bytes"``, byte-identical to serialising the tree; honours
        ``indent`` / ``write``) or the single-line form (``"compact"``).
        ``backend`` pins execution to the row or columnar kernel (``"auto"``
        follows the source's encoding).  ``maintenance`` chooses between a
        from-scratch publish (``"full"``), delta-driven republish along the
        handle's version chain (``"incremental"``) or picking whichever is
        available (``"auto"``); every combination returns byte-identical
        output.
        """
        registered = view if isinstance(view, RegisteredView) else self.view(view)
        _checked(output, _OUTPUTS_WITH_ALIAS, "output")
        _checked(backend, BACKENDS, "backend")
        _checked(maintenance, MAINTENANCE, "maintenance")
        binding = registered.binding_key(params)
        plan = registered.plan_for_key(binding)
        handle, snapshot = self._resolve_source(source, version)
        budget = max_nodes if max_nodes is not None else registered._max_nodes
        # The runtime-validation gate: None for unchecked or statically
        # proved bindings (zero per-publish cost), the view itself when the
        # rendered document must stream through the DTD validator first.
        guard = registered if registered._runtime_validation(binding) else None

        if handle is None:
            if maintenance == "incremental":
                raise ServeError(
                    "maintenance='incremental' needs an attached source "
                    "(a SourceHandle or SourceVersion), not a raw instance"
                )
            instance = self._route_raw(snapshot, backend)
            registered.publishes += 1
            registered.last_backend = (
                "columnar" if instance.is_encoded else "row"
            )
            return self._render_full(
                plan, instance, output, indent, write, budget, validate=guard
            )

        registered.publishes += 1
        if backend == "auto":
            registered.last_backend = (
                "columnar" if snapshot.instance.is_encoded else "row"
            )
        else:
            registered.last_backend = backend

        if maintenance == "full":
            instance = handle._instance_for(snapshot, backend)
            return self._render_full(
                plan, instance, output, indent, write, budget, validate=guard
            )
        # Keyed by the handle object (identity), not its name: names are
        # only unique within one server, and a chain must never be shared
        # across handles.  Handles are retained by the server, so the key
        # stays valid.
        key = (registered.name, binding, handle, backend, budget)
        maintained = self._maintained_chain(key)
        if maintained is None:
            if maintenance == "auto" and output != "tree":
                # Keep the streaming forms lazy: events/bytes/compact under
                # "auto" serve straight from the lazy engine drivers (no
                # whole tree materialised, no chain pinned) unless a chain
                # already exists.  Tree requests and explicit
                # maintenance="incremental" seed the chain.
                instance = handle._instance_for(snapshot, backend)
                return self._render_full(
                    plan, instance, output, indent, write, budget, validate=guard
                )
            # Seed the maintained chain so subsequent publishes of this key
            # go incremental.  Built outside the server lock (it runs a
            # full publish); a concurrent seeder may win the install.
            maintained = self._install_maintained(
                key, _MaintainedView(plan, handle, snapshot, backend, budget)
            )
        tree = maintained.advance(snapshot)
        if tree is None:
            # The chain has moved past the requested snapshot: a pinned
            # reader must never see the newer tree, and must not rewind the
            # chain -- serve a from-scratch publish of that version.
            instance = handle._instance_for(snapshot, backend)
            return self._render_full(
                plan, instance, output, indent, write, budget, validate=guard
            )
        if output in ("bytes", "xml", "compact"):
            # Serialised forms of a maintained chain render through the
            # bytes-native driver rather than re-walking the maintained
            # tree: the republishes that advanced the chain carried the
            # clean-subtree cache over, so only spans around changed
            # configurations re-render and an unchanged document is a
            # buffer handoff.  The instance is
            # the chain's own snapshot object (``_instance_for`` is cached
            # per version), so the plan's per-instance caches are shared.
            instance = handle._instance_for(snapshot, backend)
            return self._render_full(
                plan, instance, output, indent, write, budget, validate=guard
            )
        if guard is not None:
            # Maintained tree: validate its event replay (byte-identical to
            # a from-scratch publish of the version) instead of re-running
            # the engine; memoised under the version's snapshot instance.
            instance = handle._instance_for(snapshot, backend)
            guard._ensure_validated_tree(plan, tree, instance, budget)
        return self._render_tree(tree, output)

    def subscribe(
        self,
        view: str | RegisteredView,
        source: "SourceHandle | None" = None,
        *,
        params: Mapping[str, DataValue] | None = None,
        backend: str = "auto",
        max_nodes: int | None = None,
        max_pending: int | None = None,
    ) -> Subscription:
        """Subscribe to a view: one :class:`EditScript` per source commit.

        The subscription brings the key's *shared* maintained chain to the
        handle's current version (its tree is the subscriber's base
        document) and attaches to its fan-out: each commit costs one
        :meth:`~repro.engine.plan.PublishingPlan.republish` for *all*
        subscribers of the key, not one per subscriber, and never a publish
        plus a tree diff.  ``max_pending`` bounds the unconsumed-event queue
        (default :attr:`Subscription.max_pending`); see :class:`Subscription`
        for the overflow contract.
        """
        registered = view if isinstance(view, RegisteredView) else self.view(view)
        _checked(backend, BACKENDS, "backend")
        handle = source if source is not None else self._sole_handle()
        if not isinstance(handle, SourceHandle):
            raise ServeError(
                f"subscribe needs a SourceHandle, not {type(handle).__name__}"
            )
        self._check_ownership(handle)
        binding = registered.binding_key(params)
        plan = registered.plan_for_key(binding)
        budget = max_nodes if max_nodes is not None else registered._max_nodes
        key = (registered.name, binding, handle, backend, budget)
        maintained = self._maintained_chain(key)
        if maintained is None:
            maintained = self._install_maintained(
                key, _MaintainedView(plan, handle, handle.latest, backend, budget)
            )
        # Catch the shared chain up before attaching, so the subscriber's
        # base tree is the current version and no pre-subscribe commit is
        # ever delivered as an event.
        maintained.advance(handle.latest)
        subscription = Subscription(
            self, registered, handle, maintained, max_pending=max_pending
        )
        maintained.add_subscriber(subscription)
        handle._subscriptions.append(subscription)
        self._subscriptions.append(subscription)
        return subscription

    # -- observability --------------------------------------------------------

    def stats(self):
        """Aggregate counters across views, sources and subscriptions.

        One call replacing the former tour of ``plan.cache_stats``,
        per-relation ``index_stats()`` and per-query-plan ``last_backend``:
        returns a :class:`~repro.serve.stats.ServerStats` with per-view and
        per-source breakdowns plus ``as_dict()`` / ``describe()``.
        """
        from repro.serve.stats import collect_stats

        return collect_stats(self)

    def explain(
        self,
        view: str | RegisteredView,
        *,
        params: Mapping[str, DataValue] | None = None,
    ):
        """The :class:`~repro.serve.stats.ExplainReport` for one view binding.

        Aggregates, per compiled rule query: the join order, the columnar /
        row backend last used, the incremental-maintenance strategy, and the
        plan-level expansion-cache and invalidation counters.
        """
        from repro.serve.stats import explain_view

        registered = view if isinstance(view, RegisteredView) else self.view(view)
        return explain_view(registered, params)

    @property
    def subscriptions(self) -> tuple[Subscription, ...]:
        """Every subscription created by this server."""
        return tuple(self._subscriptions)

    def close(self) -> None:
        """Close every subscription and every handle's write-ahead log.

        The teardown half of the network tier's lifecycle: a closed server
        keeps its in-memory state (views, sources, versions) but stops
        maintaining subscription chains and releases the WAL segment files,
        so another process may recover and adopt the log directories.
        """
        for subscription in tuple(self._subscriptions):
            subscription.close()
        for handle in self.handles:
            if handle._wal is not None:
                handle._wal.log.close()

    # -- internals ------------------------------------------------------------

    def _compile(
        self,
        transducer: PublishingTransducer,
        schema: RelationalSchema | None,
        max_nodes: int | None,
        share: bool = True,
    ) -> PublishingPlan:
        """The shared plan cache: one compiled plan per transducer object.

        ``share=False`` compiles without touching the cache (used for
        factory-produced transducers, which are unique per binding and
        cached by their view's LRU-capped binding cache instead).
        """
        if not share:
            return self._engine.compile(transducer, schema=schema, max_nodes=max_nodes)
        key = (id(transducer), max_nodes)
        with self._lock:
            plan = self._plan_cache.get(key)
        if plan is None:
            # The cached plan holds a strong reference to the transducer, so
            # the id key cannot be recycled while the entry is alive.
            # Compiled outside the lock (planning is the slow part); a
            # concurrent compile of the same transducer wastes one plan but
            # setdefault keeps exactly one as the shared winner.
            plan = self._engine.compile(transducer, schema=schema, max_nodes=max_nodes)
            with self._lock:
                plan = self._plan_cache.setdefault(key, plan)
        elif schema is not None:
            problems = transducer.validate_against_schema(schema)
            if problems:
                raise ServeError("; ".join(problems))
        return plan

    def _maintained_chain(self, key: tuple) -> _MaintainedView | None:
        """The maintained chain for ``key``, touched for LRU recency."""
        with self._lock:
            chain = self._maintained.get(key)
            if chain is not None:
                del self._maintained[key]
                self._maintained[key] = chain
            return chain

    def _install_maintained(self, key: tuple, chain: _MaintainedView) -> _MaintainedView:
        """Install a freshly seeded chain (or adopt a concurrent winner).

        At most ``maintained_views`` chains without subscribers are kept,
        evicted least-recently-used -- the serving-layer mirror of the
        engine's ``cache_instances`` bound, so long-running servers with many
        distinct (view, binding, source, backend) shapes stay bounded in
        memory.  A chain with subscribers is never evicted: a later
        :meth:`subscribe` on its key must find it and share its republish.
        """
        with self._lock:
            winner = self._maintained.get(key)
            if winner is not None:
                del self._maintained[key]
                self._maintained[key] = winner
                return winner
            self._maintained[key] = chain
            idle = [k for k, c in self._maintained.items() if not c.subscribers]
            for stale in idle[: max(0, len(idle) - self._max_maintained)]:
                del self._maintained[stale]
            return chain

    def _sole_handle(self) -> SourceHandle:
        if len(self._handles) == 1:
            return next(iter(self._handles.values()))
        raise ServeError(
            f"server has {len(self._handles)} attached sources; pass source="
        )

    def _check_ownership(self, handle: SourceHandle) -> None:
        if handle._server is not self:
            raise ServeError(
                f"source {handle.name!r} is attached to a different server"
            )

    def _resolve_source(
        self,
        source: "SourceHandle | SourceVersion | Instance | None",
        version: int | None,
    ) -> "tuple[SourceHandle | None, SourceVersion | Instance]":
        if source is None:
            source = self._sole_handle()
        if isinstance(source, SourceVersion):
            if version is not None and version != source.index:
                raise ServeError(
                    f"version={version} conflicts with the snapshot's "
                    f"version {source.index}"
                )
            self._check_ownership(source.handle)
            return source.handle, source
        if isinstance(source, SourceHandle):
            self._check_ownership(source)
            return source, source.snapshot(version)
        if isinstance(source, Instance):
            if version is not None:
                raise ServeError("version= needs an attached source, not an instance")
            return None, source
        raise ServeError(
            f"source must be a SourceHandle, SourceVersion or Instance, "
            f"not {type(source).__name__}"
        )

    def _route_raw(self, instance: Instance, backend: str) -> Instance:
        """Pin a one-shot (unversioned) instance to the requested backend.

        Columnar twins of raw instances are cached (weakly, keyed by the
        caller's instance) so repeated one-shot publishes intern the data
        once; attached handles remain the supported hot path.
        """
        if backend == "row":
            return instance.without_encoding()
        if backend == "columnar" and not instance.is_encoded:
            twin = self._raw_twins.get(instance)
            if twin is None:
                from repro.relational.columnar import encoded_twin

                twin = encoded_twin(instance)
                self._raw_twins[instance] = twin
            return twin
        return instance

    def _render_full(
        self,
        plan: PublishingPlan,
        instance: Instance,
        output: str,
        indent: int | None,
        write,
        max_nodes: int | None,
        validate: RegisteredView | None = None,
    ):
        """A from-scratch publish on the fastest driver for the output form.

        The serialised forms run on the bytes-native driver
        (:meth:`~repro.engine.plan.PublishingPlan.publish_bytes`): no tree is
        materialised, character data comes from interned fragments, and
        rendered subtree spans are cached per configuration -- so repeated
        and incrementally maintained publishes are mostly buffer reuse.
        ``output="events"`` remains the bounded-memory streaming path.

        ``validate`` (a :class:`RegisteredView` with a registered DTD) gates
        the result through the streaming validator first: event outputs get
        a single-pass validating pass-through, every other form runs one
        memoised ``publish_events`` validation before rendering untouched --
        so validated output stays byte-identical to unvalidated output.
        """
        if validate is not None:
            if output == "events":
                if not validate._is_validated(plan, instance, max_nodes):
                    return validate._validated_events(plan, instance, max_nodes)
            else:
                validate._ensure_validated(plan, instance, max_nodes)
        if output == "tree":
            return plan.publish(instance, max_nodes)
        if output == "events":
            return plan.publish_events(instance, max_nodes)
        if output in ("bytes", "xml"):
            return plan.publish_bytes(
                instance, indent=indent, write=write, max_nodes=max_nodes
            )
        return plan.publish_bytes(instance, indent=None, max_nodes=max_nodes)

    def _render_tree(self, tree: TreeNode, output: str):
        """An (incrementally) maintained tree as a tree or event stream
        (serialised outputs render through :meth:`_render_full`)."""
        if output == "tree":
            return tree
        return tree_to_events(tree)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ViewServer(views={sorted(self._views)}, "
            f"sources={sorted(self._handles)}, "
            f"subscriptions={len(self._subscriptions)})"
        )
