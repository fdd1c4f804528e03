"""Multi-core publishing: a stdlib process pool over the compiled stack.

Two parallel surfaces, one pool (:class:`WorkerPool`):

* ``ViewServer(pool=...)`` (:mod:`repro.serve.server`) runs batches of
  ``publish()`` calls for different views/versions concurrently
  (:meth:`~repro.serve.server.ViewServer.publish_batch`);
* ``NetServer(pool=...)`` (:mod:`repro.serve.net.app`) shards per-commit
  subscriber delivery by ``(view, source, binding)`` group.

Everything degrades to the serial path when the pool is absent, broken, or
a task is not shippable (:class:`NotShippable`); output bytes never change.
"""

from repro.parallel.pool import (
    NotShippable,
    PoolBroken,
    WorkerCrashed,
    WorkerPool,
    WorkerTaskError,
)

__all__ = [
    "NotShippable",
    "PoolBroken",
    "WorkerCrashed",
    "WorkerPool",
    "WorkerTaskError",
]
