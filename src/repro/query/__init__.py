"""repro.query -- the set-at-a-time query planner shared across layers.

One :class:`QueryPlan` API serves every consumer of relational queries:

* the engine's per-rule evaluators (:mod:`repro.engine.plan`) pre-plan each
  rule query at compile time;
* :meth:`ConjunctiveQuery.evaluate` and :meth:`FormulaQuery.evaluate` plan
  range-restricted queries transparently and fall back to the naive
  active-domain evaluators only for genuinely unsafe formulas;
* the semi-naive Datalog evaluator (:mod:`repro.datalog.evaluation`) feeds
  per-round deltas into plans through the ``overrides`` channel;
* the static analyses reuse plans when re-evaluating rule queries in loops;
* incremental view maintenance
  (:meth:`~repro.engine.plan.PublishingPlan.republish`) turns instance
  deltas into exact answer changes via :meth:`QueryPlan.execute_delta`
  (:mod:`repro.query.delta`).

Entry points: :func:`plan_query` (plan or ``None`` for unsafe queries),
:meth:`QueryPlan.execute` / :meth:`QueryPlan.explain`, and
:meth:`QueryPlan.execute_delta` for delta-driven maintenance.

Two execution backends serve one plan language: the row backend (each
operator's ``rows`` method) and the columnar kernel of
:mod:`repro.query.vectorized`, which engages whenever the instance carries a
dictionary encoding (:func:`repro.relational.columnar.ensure_encoded`);
:meth:`QueryPlan.execute_encoded` keeps answers in integer space for
callers -- the publishing engine, the Datalog fixpoint -- that decode only
at the output boundary.
"""

from repro.query.delta import DeltaPlan, QueryDelta
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
from repro.query.planner import (
    plan_cq,
    plan_formula,
    plan_formula_query,
    plan_query,
    plan_ucq,
)
from repro.query.vectorized import VectorKernel, vectorize

__all__ = [
    "AntiJoinNode",
    "DeltaPlan",
    "EmptyNode",
    "ExtendNode",
    "JoinNode",
    "PlanNode",
    "ProjectNode",
    "QueryDelta",
    "QueryPlan",
    "RenameNode",
    "RowsNode",
    "ScanNode",
    "SelectNode",
    "UnionNode",
    "UnitNode",
    "VectorKernel",
    "plan_cq",
    "plan_formula",
    "plan_formula_query",
    "plan_query",
    "plan_ucq",
    "vectorize",
]
