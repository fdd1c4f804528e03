"""Delta-driven maintenance of compiled query plans.

Given a :class:`~repro.query.plan.QueryPlan` and an instance
:class:`~repro.relational.delta.Delta`, this module computes the exact change
in the plan's answer set without re-enumerating the unchanged answers, by the
same per-occurrence device the semi-naive Datalog evaluator of PR 2 uses:

* for every occurrence of a changed relation in the plan, a **delta variant**
  is derived in which that one scan reads the changed tuples through the plan
  ``overrides`` channel while every other scan reads the instance;
* **insertions** run the variants against the *updated* instance -- every
  genuinely new answer uses at least one inserted tuple at some occurrence,
  and monotonicity keeps the union of variant answers inside the new answer
  set, so ``added = variants(new) - prev_answers`` is exact;
* **deletions** run the variants against the *old* instance, which
  over-approximates the removals (a candidate may have an alternative
  derivation); the candidates are then re-derived against the updated
  instance, DRed-style.

Plans containing an anti-join (safe FO negation) are not monotone, so they
fall back to recomputation -- the fallback is flagged by
:meth:`QueryPlan.delta_strategy` and in :meth:`QueryPlan.explain`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.logic.terms import Variable
from repro.query.plan import (
    AntiJoinNode,
    ExtendNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    QueryPlan,
    RenameNode,
    ScanNode,
    SelectNode,
    UnionNode,
)
from repro.relational.domain import DataValue
from repro.relational.instance import Instance

#: Base name of the override relation a delta variant's distinguished scan
#: reads; underscores are appended until it collides with no scanned relation.
DELTA_SCAN_NAME = "__delta__"


@dataclass(frozen=True)
class QueryDelta:
    """The exact change in a plan's answers under an instance delta.

    ``strategy`` records how the change was computed: ``"none"`` (the delta
    does not touch the plan's relations), ``"delta"`` (insert-only,
    per-occurrence delta plans), ``"delta+rederive"`` (deletions
    over-approximated and re-derived) or ``"recompute"`` (non-monotone
    fallback).
    """

    added: frozenset[tuple[DataValue, ...]]
    removed: frozenset[tuple[DataValue, ...]]
    strategy: str

    def is_empty(self) -> bool:
        """True when the answers did not change."""
        return not self.added and not self.removed

    def apply(
        self, answers: frozenset[tuple[DataValue, ...]]
    ) -> frozenset[tuple[DataValue, ...]]:
        """The maintained answer set: ``(answers - removed) | added``."""
        return frozenset((answers - self.removed) | self.added)


_NO_CHANGE = QueryDelta(frozenset(), frozenset(), "none")


def replace_scan(node: PlanNode, target: ScanNode, replacement: ScanNode) -> PlanNode:
    """Rebuild the plan tree with one scan occurrence swapped out.

    Nodes off the spine from the root to ``target`` are shared with the
    original plan; spine nodes are reconstructed through their public
    constructors, which recompute the derived join keys and accessors.
    """
    if node is target:
        return replacement
    kids = node.children()
    if not kids:
        return node
    rebuilt = tuple(replace_scan(kid, target, replacement) for kid in kids)
    if all(new is old for new, old in zip(rebuilt, kids)):
        return node
    return _rebuild_node(node, rebuilt)


def _rebuild_node(node: PlanNode, kids: tuple[PlanNode, ...]) -> PlanNode:
    if isinstance(node, JoinNode):
        return JoinNode(kids[0], kids[1])
    if isinstance(node, AntiJoinNode):
        return AntiJoinNode(kids[0], kids[1])
    if isinstance(node, SelectNode):
        return SelectNode(kids[0], node.comparisons)
    if isinstance(node, ExtendNode):
        return ExtendNode(
            kids[0], node.variable, constant=node.constant, source=node.source
        )
    if isinstance(node, RenameNode):
        return RenameNode(kids[0], node.variables)
    if isinstance(node, ProjectNode):
        return ProjectNode(kids[0], node.variables)
    if isinstance(node, UnionNode):
        return UnionNode(kids)
    raise TypeError(f"cannot rebuild plan node {type(node).__name__}")  # pragma: no cover


class RegisterWitness:
    """Projects the tuples one watched scan contributes to changed derivations.

    Built from a delta variant: executing :attr:`plan` with the delta
    override (and the watched relations overridden by a candidate tuple
    pool) yields the bindings of the watched scan's variables in every
    derivation using a changed tuple; :meth:`tuples` rebuilds the full
    scanned tuples from those answers (re-inserting pinned constants), i.e.
    exactly the pool tuples that can participate in an answer change.
    """

    __slots__ = ("plan", "_spec")

    def __init__(self, plan: QueryPlan, scan: ScanNode) -> None:
        self.plan = plan
        positions = {variable: i for i, variable in enumerate(plan.head)}
        spec: list[tuple[bool, object]] = []
        for term in scan.terms:
            if isinstance(term, Variable):
                spec.append((True, positions[term]))
            else:
                spec.append((False, term.value))
        self._spec = tuple(spec)

    def tuples(self, answers, intern) -> set[tuple]:
        """The full watched-scan tuples occurring in changed derivations.

        ``answers`` are :attr:`plan`'s answers, in whatever representation
        it ran (domain values, or dictionary ids on the columnar kernel);
        ``intern`` brings the scan's pinned constants into that same
        representation, so the rebuilt tuples compare directly against the
        pool they were drawn from.
        """
        spec = [
            (is_variable, payload if is_variable else intern(payload))
            for is_variable, payload in self._spec
        ]
        return {
            tuple(row[payload] if is_variable else payload for is_variable, payload in spec)
            for row in answers
        }


def _witness_specs(
    variant: QueryPlan, watch: frozenset[str]
) -> tuple[RegisterWitness, ...] | None:
    """Witness projections for every watched scan of one delta variant.

    Returns ``()`` when the variant reads no watched relation (its answers
    change uniformly, independent of the watched content), or ``None`` when
    a watched scan's variables are not all bound at the pre-projection root
    (an inner projection -- e.g. an FO existential -- discarded them), in
    which case callers must fall back to per-candidate evaluation.
    """
    root = variant.root
    base = root.child if isinstance(root, ProjectNode) else root
    scans = [
        node
        for node in variant.walk()
        if isinstance(node, ScanNode) and node.relation in watch
    ]
    if not scans:
        return ()
    bound = set(base.variables)
    witnesses = []
    for scan in scans:
        if not set(scan.variables) <= bound:
            return None
        plan = QueryPlan(
            ProjectNode(base, scan.variables), scan.variables, variant.requirements
        )
        witnesses.append(RegisterWitness(plan, scan))
    return tuple(witnesses)


#: Sentinel: witness plans not derived yet for a watch set (vs a failed ``None``).
_WITNESSES_UNBUILT = object()


class DeltaPlan:
    """Per-:class:`QueryPlan` incremental machinery, built once and cached.

    Holds the scanned-relation index, the monotonicity verdict and (for
    monotone plans) one derived :class:`QueryPlan` per occurrence of each
    scanned relation, with that occurrence redirected to the delta override.
    """

    __slots__ = ("plan", "relations", "monotone", "delta_name", "variants", "_witnesses")

    def __init__(self, plan: QueryPlan) -> None:
        self.plan = plan
        scans: dict[str, list[ScanNode]] = {}
        monotone = True
        for node in plan.walk():
            if isinstance(node, AntiJoinNode):
                monotone = False
            if isinstance(node, ScanNode):
                scans.setdefault(node.relation, []).append(node)
        self.relations = frozenset(scans)
        self.monotone = monotone
        name = DELTA_SCAN_NAME
        while name in self.relations:
            name += "_"
        self.delta_name = name
        self._witnesses: dict[frozenset[str], dict | None] = {}
        self.variants: dict[str, tuple[QueryPlan, ...]] = {}
        if monotone:
            for relation, occurrences in scans.items():
                self.variants[relation] = tuple(
                    QueryPlan(
                        replace_scan(
                            plan.root, scan, ScanNode(name, scan.terms, scan.forced)
                        ),
                        plan.head,
                        plan.requirements,
                    )
                    for scan in occurrences
                )

    def register_witnesses(
        self, watch: frozenset[str]
    ) -> dict[str, tuple[tuple[QueryPlan, tuple[RegisterWitness, ...]], ...]] | None:
        """Per changed-relation variant, the watched-scan witness projections.

        ``watch`` is the set of relation names to witness (the publishing
        engine watches the two register names its overlay shadows).  Returns
        a mapping from each scanned relation to ``(variant, witnesses)``
        pairs -- ``witnesses`` being ``()`` for variants independent of the
        watched relations -- or ``None`` when some variant cannot be
        witnessed (see :func:`_witness_specs`).  Cached per watch set.
        """
        cached = self._witnesses.get(watch, _WITNESSES_UNBUILT)
        if cached is _WITNESSES_UNBUILT:
            cached = self._build_witnesses(watch)
            self._witnesses[watch] = cached
        return cached

    def _build_witnesses(self, watch: frozenset[str]) -> dict | None:
        built: dict[str, tuple] = {}
        for relation, variants in self.variants.items():
            entries = []
            for variant in variants:
                specs = _witness_specs(variant, watch)
                if specs is None:
                    return None
                entries.append((variant, specs))
            built[relation] = tuple(entries)
        return built

    def execute_delta(
        self,
        instance: Instance,
        delta,
        *,
        prev_answers: frozenset[tuple[DataValue, ...]] | None = None,
        new_instance: Instance | None = None,
    ) -> QueryDelta:
        """See :meth:`QueryPlan.execute_delta`."""
        delta = delta.normalized(instance)
        touched = delta.touched_relations() & self.relations
        if not touched:
            return _NO_CHANGE
        plan = self.plan
        if new_instance is None:
            new_instance = instance.apply_delta(delta)
        if prev_answers is None:
            prev_answers = plan.execute(instance)
        if not self.monotone:
            new_answers = plan.execute(new_instance)
            return QueryDelta(
                new_answers - prev_answers, prev_answers - new_answers, "recompute"
            )
        name = self.delta_name
        added_rows: set[tuple[DataValue, ...]] = set()
        for relation in touched:
            inserted = delta.inserted_into(relation)
            if not inserted:
                continue
            for variant in self.variants[relation]:
                added_rows |= variant.execute(new_instance, {name: inserted})
        added = frozenset(added_rows) - prev_answers

        candidates: set[tuple[DataValue, ...]] = set()
        for relation in touched:
            deleted = delta.deleted_from(relation)
            if not deleted:
                continue
            for variant in self.variants[relation]:
                candidates |= variant.execute(instance, {name: deleted})
        candidates &= prev_answers
        if not candidates:
            return QueryDelta(added, frozenset(), "delta")
        # DRed-style rederivation: a candidate survives when it is still
        # derivable from the updated instance through another derivation.
        new_answers = plan.execute(new_instance)
        removed = frozenset(row for row in candidates if row not in new_answers)
        return QueryDelta(added, removed, "delta+rederive")
