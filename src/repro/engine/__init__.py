"""``repro.engine`` -- the compiled, streaming, batch-first publishing API.

This subsystem is the primary public surface for *evaluating* publishing
transducers.  It separates specification from evaluation, in the spirit of
streaming tree transducers:

* :class:`~repro.engine.builder.TransducerBuilder` -- a fluent DSL replacing
  hand-assembly of :class:`~repro.core.transducer.PublishingTransducer`;
* :class:`~repro.engine.plan.Engine` / :func:`~repro.engine.plan.compile_plan`
  -- compile a transducer once into a :class:`~repro.engine.plan.PublishingPlan`;
* :meth:`~repro.engine.plan.PublishingPlan.publish`,
  :meth:`~repro.engine.plan.PublishingPlan.publish_events`,
  :meth:`~repro.engine.plan.PublishingPlan.publish_bytes`,
  :meth:`~repro.engine.plan.PublishingPlan.publish_full`,
  :meth:`~repro.engine.plan.PublishingPlan.republish` -- the core drivers:
  materialised, streaming, serialised, interpreter-compatible and
  delta-incremental evaluation over one compiled plan, with memoised
  ``(state, tag, register)`` expansions and explicit cache statistics;
* :func:`~repro.engine.walk.walk` -- the one expansion walker behind every
  driver, feeding a tree, bytes, event or annotated sink and sharing one
  clean-subtree cache across them.

The engine is the *kernel* of the stack; the recommended serving surface on
top of it is :class:`repro.serve.ViewServer`, which routes output format,
execution backend and maintenance strategy in a single ``publish`` call,
and the classic :func:`repro.core.runtime.publish` entry points remain thin
wrappers over this engine.
"""

from repro.engine.builder import (
    BuilderError,
    RuleBuilder,
    StateScope,
    TransducerBuilder,
    transducer,
)
from repro.engine.plan import (
    CacheStats,
    Engine,
    PublishingPlan,
    RepublishResult,
    compile_plan,
)

__all__ = [
    "BuilderError",
    "CacheStats",
    "Engine",
    "PublishingPlan",
    "RepublishResult",
    "RuleBuilder",
    "StateScope",
    "TransducerBuilder",
    "compile_plan",
    "transducer",
]
