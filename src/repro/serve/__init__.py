"""``repro.serve`` -- the unified serving layer: one API over the whole stack.

A :class:`ViewServer` holds *named, long-lived views* (compiled once, from
any front-end of the code base) over *versioned sources* (MVCC-style
snapshot chains advanced by :class:`~repro.relational.delta.Delta` commits),
and exposes exactly three verbs:

* :meth:`~repro.serve.server.ViewServer.publish` -- evaluate a view, with
  ``output=tree|events|bytes|compact``, ``backend=auto|row|columnar`` and
  ``maintenance=auto|full|incremental`` routed in one call;
* :meth:`~repro.serve.server.ViewServer.subscribe` -- one
  :class:`~repro.xmltree.diff.EditScript` per source commit, maintained
  incrementally;
* :meth:`~repro.serve.server.ViewServer.stats` /
  :meth:`~repro.serve.server.ViewServer.explain` -- the aggregated
  observability that previously had to be collected from three objects.

    >>> from repro.serve import ViewServer
    >>> from repro.workloads import tau1_prerequisite_hierarchy
    >>> server = ViewServer()                                   # doctest: +SKIP
    >>> server.register_view("hierarchy", tau1_prerequisite_hierarchy)
    ...                                                         # doctest: +SKIP
    >>> handle = server.attach(instance)                        # doctest: +SKIP
    >>> xml = server.publish("hierarchy", output="bytes")       # doctest: +SKIP

For callers holding a compiled plan rather than a server,
:func:`~repro.serve.oneshot.publish_stream` publishes a stream of instances
and :func:`~repro.serve.oneshot.publish_document` streams one publish into
XML text.
"""

from repro.serve.oneshot import (
    compact_tree,
    publish_document,
    publish_stream,
    serialize_events,
    serialize_tree,
)
from repro.serve.server import (
    BACKENDS,
    MAINTENANCE,
    OUTPUTS,
    TYPECHECK_MODES,
    PruneResult,
    RegisteredView,
    ServeError,
    SourceHandle,
    SourceVersion,
    Subscription,
    SubscriptionEvent,
    ViewRejected,
    ViewServer,
)
from repro.serve.stats import (
    ClusterStats,
    ExplainReport,
    RuleExplain,
    ServerStats,
    ShardStats,
    SourceStats,
    ViewStats,
    merge_cluster_stats,
)

__all__ = [
    "BACKENDS",
    "MAINTENANCE",
    "OUTPUTS",
    "ClusterStats",
    "ExplainReport",
    "PruneResult",
    "RegisteredView",
    "RuleExplain",
    "ServeError",
    "ServerStats",
    "ShardStats",
    "SourceHandle",
    "SourceStats",
    "SourceVersion",
    "Subscription",
    "SubscriptionEvent",
    "TYPECHECK_MODES",
    "ViewRejected",
    "ViewServer",
    "ViewStats",
    "compact_tree",
    "merge_cluster_stats",
    "publish_document",
    "publish_stream",
    "serialize_events",
    "serialize_tree",
]
