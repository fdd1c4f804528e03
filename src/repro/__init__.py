"""repro -- a reproduction of "Expressiveness and Complexity of XML Publishing Transducers".

The package is organised by subsystem:

* :mod:`repro.relational` -- relational substrate (schemas, instances, algebra);
* :mod:`repro.logic` -- the query logics CQ, FO and IFP;
* :mod:`repro.query` -- the set-at-a-time query planner every layer
  evaluates relational queries through;
* :mod:`repro.datalog` -- Datalog / LinDatalog / LinDatalog(FO);
* :mod:`repro.xmltree` -- Sigma-trees, serialisation, DTDs and extended DTDs;
* :mod:`repro.core` -- publishing transducers ``PT(L, S, O)`` (the paper's
  primary contribution): rules, runtime, classification, relational view;
* :mod:`repro.engine` -- the compiled, streaming, batch-first publishing API
  (the primary evaluation surface: builder DSL, plans, event streams, and
  delta-driven republish with edit scripts);
* :mod:`repro.serve` -- the unified serving layer: a :class:`ViewServer`
  holding named views (from any front-end) over versioned sources, with
  snapshots, parameter bindings, subscriptions (incremental view
  maintenance, one edit script per commit) and aggregated stats;
* :mod:`repro.analysis` -- the Section 5 decision problems and Table II;
* :mod:`repro.transductions` -- logical transductions (Theorem 4);
* :mod:`repro.languages` -- the ten publishing-language front-ends (Table I);
* :mod:`repro.workloads` -- the registrar example and benchmark workloads;
* :mod:`repro.expressiveness` -- Table III and the separation witnesses.

The most common entry points are re-exported here for convenience.
"""

from repro.core import PublishingTransducer, classify, publish
from repro.engine import (
    CacheStats,
    Engine,
    PublishingPlan,
    RepublishResult,
    TransducerBuilder,
    compile_plan,
)
from repro.query import QueryPlan, plan_query
from repro.relational import Delta, Instance, RelationalSchema
from repro.serve import (
    ServerStats,
    SourceHandle,
    SourceVersion,
    Subscription,
    ViewServer,
)
from repro.xmltree import EditScript, diff_trees

__version__ = "1.4.0"

__all__ = [
    "CacheStats",
    "Delta",
    "EditScript",
    "Engine",
    "Instance",
    "PublishingPlan",
    "PublishingTransducer",
    "QueryPlan",
    "RelationalSchema",
    "RepublishResult",
    "ServerStats",
    "SourceHandle",
    "SourceVersion",
    "Subscription",
    "TransducerBuilder",
    "ViewServer",
    "classify",
    "compile_plan",
    "diff_trees",
    "plan_query",
    "publish",
    "__version__",
]
