"""``repro.incremental`` -- end-to-end delta-driven view maintenance.

A publishing transducer defines a *virtual* XML view over a relational
source; production middleware cannot afford to recompute the whole tree and
discard every memoised expansion each time the source changes.  This
subsystem makes all four layers update-aware and ties them together:

* **relational** -- :class:`~repro.relational.delta.Delta` (inserted /
  deleted tuples per relation) and
  :meth:`~repro.relational.instance.Instance.apply_delta`, which versions an
  instance while reusing every untouched relation object and its warm hash
  indexes by identity;
* **query** -- :meth:`~repro.query.plan.QueryPlan.execute_delta`
  (:mod:`repro.query.delta`): the exact change in a plan's answers via the
  PR 2 per-occurrence semi-naive device, with a recomputation fallback for
  negation, flagged in ``explain()``;
* **engine** -- :meth:`~repro.engine.plan.PublishingPlan.republish`:
  fine-grained memo invalidation (only expansions whose rule queries read a
  changed relation are re-checked; ``cache_stats`` counts ``invalidated`` /
  ``retained`` / ``changed``) plus structural sharing of unchanged output
  subtrees;
* **xmltree** -- :class:`~repro.xmltree.diff.EditScript` /
  :func:`~repro.xmltree.diff.diff_trees`: ship insert / delete /
  replace-subtree events instead of full documents.

The serving surface over this pipeline is :class:`repro.serve.ViewServer`:
attach a source, subscribe to a view, and every
:meth:`~repro.serve.server.SourceHandle.commit` delivers one edit script.
:class:`IncrementalPublisher` (the original two-method facade) is kept as a
deprecated shim over exactly that arrangement.  The full republish remains
the executable specification and the differential oracle -- incremental
output is always equal, tree- and byte-wise, to publishing the updated
instance from scratch.

    >>> from repro.serve import ViewServer
    >>> server = ViewServer()                                 # doctest: +SKIP
    >>> server.register_view("view", tau)                     # doctest: +SKIP
    >>> handle = server.attach(instance)                      # doctest: +SKIP
    >>> subscription = server.subscribe("view")               # doctest: +SKIP
    >>> handle.commit(Delta.insert("prereq", ("cs500", "cs240")))
    ...                                                       # doctest: +SKIP
    >>> print(subscription.pop().edits.describe())            # doctest: +SKIP
"""

from repro.engine.plan import RepublishResult
from repro.incremental.publisher import IncrementalPublisher
from repro.query.delta import QueryDelta
from repro.relational.delta import Delta
from repro.xmltree.diff import (
    DeleteSubtree,
    EditScript,
    InsertSubtree,
    ReplaceSubtree,
    diff_trees,
)

__all__ = [
    "DeleteSubtree",
    "Delta",
    "EditScript",
    "IncrementalPublisher",
    "InsertSubtree",
    "QueryDelta",
    "ReplaceSubtree",
    "RepublishResult",
    "diff_trees",
]
