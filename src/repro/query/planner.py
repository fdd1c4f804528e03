"""The planner: compile CQ / UCQ / safe FO queries into :class:`QueryPlan` s.

The planner covers exactly the *range-restricted* (safe) queries: every head
variable and every variable used in a comparison must be bound by a relation
atom or forced through a chain of equalities to a constant or an atom-bound
variable, and every negated sub-formula's free variables must be bound by the
positive part it is conjoined with.  For those queries the plan computes the
same answers as the naive evaluators of :mod:`repro.logic.cq` and
:mod:`repro.logic.fo` at join-size cost instead of ``domain ** arity``.

Genuinely unsafe queries -- the ones whose answers really do depend on the
active domain, such as ``ans(x) :- x != 'a'`` -- are rejected by returning
``None``; callers fall back to the naive active-domain evaluators, which stay
in the tree as the executable specification (and as the oracle for the
differential tests).

Plans are cached on the query object itself (queries are immutable), so the
engine's memoized expansions, the Datalog fixpoint rounds and the analysis
loops all plan once and execute many times.

The planner is backend-agnostic: the plan trees it produces are executed
either by the row backend (each node's ``rows`` method) or, on instances
carrying a dictionary encoding, by the vectorized columnar kernel of
:mod:`repro.query.vectorized`, which compiles the same tree once per plan
(:meth:`QueryPlan.vector_kernel`).  Nothing here changes per backend -- the
backend seam lives entirely in :meth:`QueryPlan.execute`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.logic.cq import (
    Comparison,
    ConjunctiveQuery,
    RelationAtom,
    UnionOfConjunctiveQueries,
)
from repro.logic.fo import (
    And,
    Eq,
    Exists,
    FalseFormula,
    Formula,
    FormulaQuery,
    Not,
    Or,
    Rel,
    TrueFormula,
)
from repro.logic.terms import Constant, Term, Variable
from repro.query.plan import (
    AntiJoinNode,
    EmptyNode,
    ExtendNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    QueryPlan,
    RenameNode,
    RowsNode,
    ScanNode,
    SelectNode,
    UnionNode,
    UnitNode,
)
from repro.relational.domain import DataValue

#: Cache attribute stored on query objects ("planned once, executed many").
_CACHE_ATTR = "_repro_query_plan"


class _Unplannable:
    """Cache sentinel for a query that has no plan (compared by identity)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<unplannable>"


_UNPLANNABLE = _Unplannable()


def plan_query(query) -> QueryPlan | None:
    """Plan a query, caching the result on the query object.

    Returns ``None`` when the query is not range-restricted (callers should
    fall back to the query's naive active-domain evaluator).
    """
    cached = getattr(query, _CACHE_ATTR, None)
    if cached is None:
        cached = _build_plan(query)
        if cached is None:
            cached = _UNPLANNABLE
        try:
            setattr(query, _CACHE_ATTR, cached)
        except AttributeError:  # slotted or frozen query types: just re-plan
            pass
    return None if cached is _UNPLANNABLE else cached


def _build_plan(query) -> QueryPlan | None:
    if isinstance(query, ConjunctiveQuery):
        return plan_cq(query)
    if isinstance(query, UnionOfConjunctiveQueries):
        return plan_ucq(query)
    if isinstance(query, FormulaQuery):
        if query.formula.uses_fixpoint():
            return None
        return plan_formula_query(query)
    return None


# ---------------------------------------------------------------------------
# Conjunctive queries.
# ---------------------------------------------------------------------------


def plan_cq(query: ConjunctiveQuery) -> QueryPlan | None:
    """Compile a CQ into scans, hash joins, selections and extensions."""
    head = query.head
    atoms = query.atoms
    comparisons = query.comparisons
    requirements = _requirements(atoms)

    # Equality classes drive both constant pushdown and variable binding.
    classes = query.equality_classes()
    var_constant: dict[Variable, DataValue] = {}
    var_members: dict[Variable, frozenset] = {}
    for members in classes.values():
        constants = {m.value for m in members if isinstance(m, Constant)}
        if len(constants) > 1:
            # Contradictory equalities: the answer is empty on every instance.
            return QueryPlan(EmptyNode(head), head, requirements)
        constant = next(iter(constants)) if constants else None
        member_set = frozenset(members)
        for member in members:
            if isinstance(member, Variable):
                if constant is not None:
                    var_constant[member] = constant
                var_members[member] = member_set

    atom_variables: set[Variable] = set()
    for atom in atoms:
        atom_variables.update(atom.variables())

    # Safety: head and comparison variables must be atom-bound or forced.
    needed: list[Variable] = []
    seen: set[Variable] = set()
    for variable in tuple(head) + tuple(
        v for comparison in comparisons for v in comparison.variables()
    ):
        if variable not in seen:
            seen.add(variable)
            needed.append(variable)
    for variable in needed:
        if variable in atom_variables or variable in var_constant:
            continue
        members = var_members.get(variable, frozenset({variable}))
        if not any(isinstance(m, Variable) and m in atom_variables for m in members):
            return None  # genuinely unsafe: fall back to active-domain semantics

    # Greedy join order over the atoms, most selective first.
    node, pending = _join_atoms(atoms, var_constant, comparisons)

    # Bind the remaining needed variables via equality propagation.
    for variable in sorted((v for v in needed), key=lambda v: v.name):
        if variable in node.variables:
            continue
        constant = var_constant.get(variable)
        if constant is not None:
            node = ExtendNode(node, variable, constant=constant)
        else:
            source = next(
                m
                for m in sorted(
                    (m for m in var_members[variable] if isinstance(m, Variable)),
                    key=lambda v: v.name,
                )
                if m in node.variables
            )
            node = ExtendNode(node, variable, source=source)
        node, pending = _attach_ready(node, pending)
    if pending:
        return None  # defensive: every comparison variable should be bound now
    return QueryPlan(ProjectNode(node, head), head, requirements)


def _requirements(atoms: Sequence[RelationAtom]) -> tuple[tuple[str, int], ...]:
    seen: dict[tuple[str, int], None] = {}
    for atom in atoms:
        seen[(atom.relation, atom.arity)] = None
    return tuple(seen)


def _join_atoms(
    atoms: Sequence[RelationAtom],
    forced: Mapping[Variable, DataValue],
    comparisons: Sequence[Comparison],
) -> tuple[PlanNode, list[Comparison]]:
    """Greedily join the atoms; returns the plan and the still-pending comparisons.

    Selectivity heuristic (no per-instance statistics at plan time): prefer
    atoms with more pinned positions (constants or equality-forced variables),
    then atoms sharing more variables with what is already joined, breaking
    ties towards fewer fresh variables and declaration order.
    """
    if not atoms:
        return _attach_ready(UnitNode(), list(comparisons))

    def scan(atom: RelationAtom) -> ScanNode:
        atom_forced = {
            term: forced[term]
            for term in atom.terms
            if isinstance(term, Variable) and term in forced
        }
        return ScanNode(atom.relation, atom.terms, atom_forced)

    pending = list(comparisons)

    def attach(node: PlanNode) -> PlanNode:
        nonlocal pending
        node, pending = _attach_ready(node, pending)
        return node

    node = _greedy_join([scan(atom) for atom in atoms], after_step=attach)
    return node, pending


def _pinned_positions(node: PlanNode) -> int:
    """How many scan positions are pinned to a constant (selectivity proxy)."""
    return len(node._expected) if isinstance(node, ScanNode) else 0


def _greedy_join(parts: Sequence[PlanNode], after_step=None) -> PlanNode:
    """Left-deep greedy join over sub-plans, most selective first.

    The plan-time heuristic (no per-instance statistics): start from the part
    with the most pinned positions, then repeatedly join the part sharing the
    most variables with what is already joined, breaking ties towards more
    pins, fewer fresh variables and declaration order.  ``after_step`` (used
    to attach ready comparisons early) rewraps the plan after every step.
    """
    remaining = list(range(len(parts)))
    first = max(
        remaining, key=lambda i: (_pinned_positions(parts[i]), -len(parts[i].variables), -i)
    )
    remaining.remove(first)
    node = parts[first]
    if after_step is not None:
        node = after_step(node)
    while remaining:
        bound = set(node.variables)
        best = max(
            remaining,
            key=lambda i: (
                len(set(parts[i].variables) & bound),
                _pinned_positions(parts[i]),
                -len(set(parts[i].variables) - bound),
                -i,
            ),
        )
        remaining.remove(best)
        node = JoinNode(node, parts[best])
        if after_step is not None:
            node = after_step(node)
    return node


def _attach_ready(
    node: PlanNode,
    pending: list[Comparison],
) -> tuple[PlanNode, list[Comparison]]:
    """Attach every pending comparison whose variables are bound by ``node``."""
    bound = set(node.variables)
    ready = [c for c in pending if set(c.variables()) <= bound]
    if ready:
        node = SelectNode(node, ready)
        pending = [c for c in pending if c not in ready]
    return node, pending


def plan_ucq(query: UnionOfConjunctiveQueries) -> QueryPlan | None:
    """Compile a UCQ as the union of its disjunct plans."""
    head = query.head
    parts: list[PlanNode] = []
    for disjunct in query.disjuncts:
        plan = plan_query(disjunct)
        if plan is None:
            return None
        parts.append(RenameNode(plan.root, head))
    return QueryPlan(UnionNode(parts), head)


# ---------------------------------------------------------------------------
# First-order formulas (the safe / range-restricted fragment).
# ---------------------------------------------------------------------------


def plan_formula_query(query: FormulaQuery) -> QueryPlan | None:
    """Compile a safe FO query; ``None`` when the formula escapes the fragment."""
    node = plan_formula(query.formula)
    if node is None:
        return None
    if not set(query.head) <= set(node.variables):
        # A head variable not free in the formula ranges over the active
        # domain under the naive semantics: genuinely unsafe.
        return None
    return QueryPlan(ProjectNode(node, query.head), query.head)


def plan_formula(formula: Formula) -> PlanNode | None:
    """Plan one sub-formula; output columns are exactly its free variables."""
    if isinstance(formula, TrueFormula):
        return UnitNode()
    if isinstance(formula, FalseFormula):
        return EmptyNode(())
    if isinstance(formula, Rel):
        return ScanNode(formula.relation, formula.terms)
    if isinstance(formula, Eq):
        return _plan_eq(formula)
    if isinstance(formula, And):
        return _plan_and(formula)
    if isinstance(formula, Or):
        return _plan_or(formula)
    if isinstance(formula, Exists):
        inner = plan_formula(formula.operand)
        if inner is None:
            return None
        keep = tuple(v for v in inner.variables if v not in formula.variables)
        return ProjectNode(inner, keep)
    # Not (outside a conjunction), Forall, Fixpoint: not range-restricted here.
    return None


def _plan_eq(formula: Eq) -> PlanNode | None:
    left, right = formula.left, formula.right
    if isinstance(left, Constant) and isinstance(right, Constant):
        return UnitNode() if left.value == right.value else EmptyNode(())
    if isinstance(left, Variable) and isinstance(right, Constant):
        return RowsNode((left,), ((right.value,),))
    if isinstance(left, Constant) and isinstance(right, Variable):
        return RowsNode((right,), ((left.value,),))
    return None  # x = y alone ranges over the domain diagonal


def _plan_or(formula: Or) -> PlanNode | None:
    free = tuple(sorted(formula.free_variables(), key=lambda v: v.name))
    if not formula.operands:
        return EmptyNode(free)  # an empty disjunction is false
    parts: list[PlanNode] = []
    for operand in formula.operands:
        node = plan_formula(operand)
        if node is None or set(node.variables) != set(free):
            # A disjunct not covering every free variable would have to be
            # cylindrified over the active domain: fall back.
            return None
        parts.append(ProjectNode(node, free))
    return UnionNode(parts)


def _plan_and(formula: And) -> PlanNode | None:
    free = tuple(sorted(formula.free_variables(), key=lambda v: v.name))

    positives: list[Formula] = []
    equalities: list[tuple[Term, Term, bool]] = []  # (left, right, negated)
    negatives: list[Formula] = []
    stack = list(formula.operands)
    while stack:
        operand = stack.pop(0)
        if isinstance(operand, TrueFormula):
            continue
        if isinstance(operand, FalseFormula):
            return EmptyNode(free)
        if isinstance(operand, And):
            stack = list(operand.operands) + stack
            continue
        if isinstance(operand, Eq):
            equalities.append((operand.left, operand.right, False))
            continue
        if isinstance(operand, Not):
            inner = operand.operand
            if isinstance(inner, Eq):
                equalities.append((inner.left, inner.right, True))
            else:
                negatives.append(inner)
            continue
        positives.append(operand)

    # Constants forced by ``x = 'c'`` conjuncts are pushed into direct scans.
    forced: dict[Variable, DataValue] = {}
    for left, right, negated in equalities:
        if negated:
            continue
        if isinstance(left, Variable) and isinstance(right, Constant):
            variable, value = left, right.value
        elif isinstance(right, Variable) and isinstance(left, Constant):
            variable, value = right, left.value
        else:
            continue
        if variable in forced and forced[variable] != value:
            return EmptyNode(free)
        forced[variable] = value

    parts: list[PlanNode] = []
    for operand in positives:
        if isinstance(operand, Rel):
            atom_forced = {
                term: forced[term]
                for term in operand.terms
                if isinstance(term, Variable) and term in forced
            }
            parts.append(ScanNode(operand.relation, operand.terms, atom_forced))
        else:
            node = plan_formula(operand)
            if node is None:
                return None
            parts.append(node)

    negative_nodes: list[PlanNode] = []
    for operand in negatives:
        node = plan_formula(operand)
        if node is None:
            return None
        negative_nodes.append(node)

    # Greedy join of the positive parts, most pinned / most connected first.
    node: PlanNode = _greedy_join(parts) if parts else UnitNode()

    # Apply equalities (selects / extensions) and negations (anti-joins) as
    # soon as their variables are bound; loop until nothing else applies.
    pending_eq = list(equalities)
    pending_neg = list(negative_nodes)
    progress = True
    while progress and (pending_eq or pending_neg):
        progress = False
        still_eq: list[tuple[Term, Term, bool]] = []
        for left, right, negated in pending_eq:
            bound = set(node.variables)
            left_ok = isinstance(left, Constant) or left in bound
            right_ok = isinstance(right, Constant) or right in bound
            if left_ok and right_ok:
                node = SelectNode(node, (Comparison(left, right, negated),))
                progress = True
            elif not negated and left_ok and isinstance(right, Variable):
                node = (
                    ExtendNode(node, right, constant=left.value)
                    if isinstance(left, Constant)
                    else ExtendNode(node, right, source=left)
                )
                progress = True
            elif not negated and right_ok and isinstance(left, Variable):
                node = (
                    ExtendNode(node, left, constant=right.value)
                    if isinstance(right, Constant)
                    else ExtendNode(node, left, source=right)
                )
                progress = True
            else:
                still_eq.append((left, right, negated))
        pending_eq = still_eq
        still_neg: list[PlanNode] = []
        for negative in pending_neg:
            if set(negative.variables) <= set(node.variables):
                node = AntiJoinNode(node, negative)
                progress = True
            else:
                still_neg.append(negative)
        pending_neg = still_neg
    if pending_eq or pending_neg:
        return None
    if set(node.variables) != set(free):
        return None
    return node
