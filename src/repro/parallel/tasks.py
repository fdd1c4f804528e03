"""Worker-side task handlers of the :mod:`repro.parallel` pool.

Each handler is a named, module-level function so a worker started with any
``multiprocessing`` start method resolves it by import, never by pickling
code.  The first argument is always the worker's *registry* -- the token ->
object store filled by install messages (compiled plans, source instances,
their shared :class:`~repro.relational.columnar.DictionaryEncoder` decode
tables ride along inside the instance pickle).  Everything a handler
returns is plain picklable data; the parent never receives live caches,
only their rendered products plus the piggybacked cache-counter deltas
(:func:`repro.parallel.pool._cache_stats_delta`).
"""

from __future__ import annotations

from repro.parallel.pool import _registry_get

HANDLERS: dict = {}


def task(name: str):
    """Register a handler under ``name`` (the ``submit()`` routing key)."""

    def decorate(fn):
        HANDLERS[name] = fn
        return fn

    return decorate


@task("ping")
def _ping(registry, value=None):
    """Liveness probe; echoes ``value`` (tests and pool warm-up)."""
    return value


@task("publish_bytes")
def _publish_bytes(registry, plan_token, instance_token, indent=2, max_nodes=None):
    """One full serialised publish: the unit of a multi-view storm.

    The worker's plan copy keeps its own per-instance memo and rendered-span
    caches across tasks, so sharding a view to a stable worker
    (``submit(key=...)``) gives the same steady-state cache behaviour the
    serial server enjoys.
    """
    plan = _registry_get(registry, plan_token)
    instance = _registry_get(registry, instance_token)
    return plan.publish_bytes(instance, indent=indent, max_nodes=max_nodes)


@task("encode_events")
def _encode_events(registry, events):
    """Wire-encode one subscriber group's pending commit events.

    ``events`` is a list of ``(view, source, version, edits)`` tuples with
    the :class:`~repro.xmltree.diff.EditScript` pickled as-is; the worker
    produces the exact canonical-JSON WebSocket text frame the serial
    fan-out loop would (:func:`canonical_json` and the frame builder are
    deterministic), so pooled delivery is byte-identical on the wire.
    """
    from repro.relational.wire import canonical_json
    from repro.serve.net import protocol

    frames = []
    for view, source, version, edits in events:
        payload = canonical_json(
            {
                "type": "edits",
                "view": view,
                "source": source,
                "version": version,
                "empty": edits.is_empty(),
                "edits": edits.to_wire(),
            }
        )
        frames.append(protocol.ws_text_frame(payload))
    return frames
