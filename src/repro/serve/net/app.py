"""``NetServer``: the asyncio HTTP/WebSocket front door over ViewServers.

One process serves any number of *namespaces* (tenants), each backed by its
own :class:`~repro.serve.server.ViewServer`, over a small REST surface plus
streaming WebSocket subscriptions::

    GET   /healthz
    GET   /v1/ns/{ns}/views                      list registered views
    POST  /v1/ns/{ns}/views                      register a catalog view
    GET   /v1/ns/{ns}/views/{v}/publish          the document (ETag / 304)
    GET   /v1/ns/{ns}/views/{v}/explain          per-rule plan report
    WS    /v1/ns/{ns}/views/{v}/subscribe        one EditScript per commit
    GET   /v1/ns/{ns}/sources                    list attached sources
    POST  /v1/ns/{ns}/sources                    attach (optionally durable)
    POST  /v1/ns/{ns}/sources/{s}/commit         commit a wire Delta
    POST  /v1/ns/{ns}/sources/{s}/prune          prune + compact the WAL
    GET   /v1/ns/{ns}/stats                      ViewServer + net counters

Design notes:

* **ETags are MVCC versions.**  A publish response carries a strong ETag
  derived from the source's version number and the request's routing axes;
  ``If-None-Match`` short-circuits to ``304 Not Modified`` *before any
  evaluation* -- an unchanged publish costs a dictionary lookup, not a query.
  Clients that do not revalidate still hit an ETag-keyed LRU of encoded
  response bodies, so a cache-warm ``200`` is a buffer handoff too.
* **Fan-out is one republish + one encode per commit.**  All WebSocket
  subscribers of a (view, source, binding) share one
  :meth:`ViewServer.subscribe` chain, and each pushed
  :class:`~repro.xmltree.diff.EditScript` is wire-encoded and framed
  **once**; every additional subscriber costs exactly one socket write.
  Slow consumers whose kernel buffers back up past
  :attr:`NetServer.max_buffered_bytes` are evicted, mirroring the
  ``Subscription.dropped`` overflow contract.
* **Durability is opt-out.**  With a ``wal_dir``, attached sources are
  write-ahead logged (:mod:`repro.serve.net.wal`) and :meth:`NetServer.start`
  replays any logs it finds, so a restarted server resumes every source at
  its pre-crash version with byte-identical documents.
* **Views travel as code, not pickles.**  ``POST /views`` instantiates
  entries of the server's *catalog* (name -> front-end or factory); views are
  re-registered after a restart by the client, exactly like stored
  procedures.  Nothing executable is ever read from the wire.

The server is single-loop asyncio: evaluation and subscriber encoding run
inline on the event loop (the engine is CPU-bound and the GIL would
serialize it anyway).  The multi-core story is the shard cluster
(:mod:`repro.serve.net.shard`): whole namespaces are sharded across server
processes, and the WAL hands a namespace from one process to another.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.relational.errors import RelationalError
from repro.relational.wire import (
    WireError,
    canonical_json,
    delta_from_wire,
    instance_from_wire,
    instance_to_wire,
)
from repro.serve.net import protocol
from repro.serve.net.protocol import (
    OP_CLOSE,
    OP_PING,
    ProtocolError,
    Request,
    json_response,
    render_response,
)
from repro.serve.net.wal import DeltaLog, WalError, attach_durable, recover_source
from repro.serve.server import (
    ServeError,
    SourceHandle,
    Subscription,
    ViewRejected,
    ViewServer,
)
from repro.typecheck import OutputValidationError
from repro.xmltree.dtd import dtd_from_wire

#: Routing axes a publish request may pin (mirrors ViewServer.publish).
_PUBLISH_OUTPUTS = ("bytes", "compact")


class _HttpError(Exception):
    """An error with a definite HTTP status, raised inside handlers."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _int_query(text: str, axis: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _HttpError(400, f"malformed {axis} {text!r}") from None


def default_catalog() -> dict[str, Callable]:
    """The built-in view catalog: the paper's registrar views, by name."""
    from repro.workloads.registrar import (
        tau1_prerequisite_hierarchy,
        tau2_prerequisite_closure,
        tau3_courses_without_db_prereq,
    )

    return {
        "tau1": tau1_prerequisite_hierarchy,
        "tau2": tau2_prerequisite_closure,
        "tau3": tau3_courses_without_db_prereq,
    }


class _Broadcast:
    """One shared subscription chain plus its WebSocket writers."""

    __slots__ = ("namespace", "view", "source", "subscription", "writers")

    def __init__(
        self, namespace: str, view: str, source: str, subscription: Subscription
    ) -> None:
        self.namespace = namespace
        self.view = view
        self.source = source
        self.subscription = subscription
        self.writers: list[asyncio.StreamWriter] = []


class _Connections:
    """The live client connections of an asyncio stream server.

    :meth:`accept` is the server's client callback.  It runs ``handler`` on
    the connection in a task that is tracked from the moment it is created,
    so :meth:`close` also reaches connections that have not run yet.  A
    connection's socket is closed, and waited on, when its task ends.
    """

    def __init__(self, handler: Callable) -> None:
        self._handler = handler
        self._live: dict[asyncio.Task, asyncio.StreamWriter] = {}

    def accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        task = asyncio.get_running_loop().create_task(self._serve(reader, writer))
        self._live[task] = writer

    async def _serve(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            await self._handler(reader, writer)
        finally:
            try:
                await _close_writers([writer])
            finally:
                self._live.pop(asyncio.current_task(), None)

    async def close(self) -> None:
        """Cancel every connection and wait until its socket is released."""
        current = asyncio.current_task()
        pending = [task for task in self._live if task is not current]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        # A task cancelled before it first ran never reached its own close.
        await _close_writers([self._live.pop(task) for task in pending if task in self._live])


async def _close_writers(writers: list[asyncio.StreamWriter]) -> None:
    """Close stream writers and wait until their sockets are released."""
    for writer in writers:
        writer.close()
    for writer in writers:
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - racy close
            pass


class NetServer:
    """Serve ViewServers over HTTP/1.1 and WebSockets (see module docstring)."""

    #: Eviction threshold for slow subscribers (bytes buffered in our send
    #: queue before the kernel accepts them).
    max_buffered_bytes = 8 * 1024 * 1024

    #: Longest a slow subscriber may stall one fan-out's drain before being
    #: evicted.  The buffer threshold above catches consumers that back up
    #: within one burst; this catches the ones that pin the transport's
    #: high-water mark across commits without ever reading.
    drain_timeout = 5.0

    #: Retained entries in the ETag-keyed response-body cache.
    max_cached_responses = 128

    def __init__(
        self,
        server: ViewServer | None = None,
        *,
        catalog: Mapping[str, Callable] | None = None,
        wal_dir: str | Path | None = None,
        snapshot_every: int = 256,
        fsync: bool = False,
    ) -> None:
        self._namespaces: dict[str, ViewServer] = {"default": server or ViewServer()}
        self._catalog = dict(catalog) if catalog is not None else default_catalog()
        self._wal_dir = Path(wal_dir) if wal_dir is not None else None
        self._snapshot_every = snapshot_every
        self._fsync = fsync
        self._groups: dict[tuple, _Broadcast] = {}
        #: Encoded publish bodies keyed by ETag (LRU, newest last).  The ETag
        #: already pins every axis that can change the bytes -- source version,
        #: binding, output form, backend, indent -- so a hit skips evaluation
        #: *and* encoding; stale versions age out as new ETags displace them.
        self._response_cache: dict[str, bytes] = {}
        self._asyncio_server: asyncio.base_events.Server | None = None
        self._connections = _Connections(self._handle_connection)
        self.address: tuple[str, int] | None = None
        self.counters = {
            "requests": 0,
            "commits": 0,
            "publishes": 0,
            "not_modified": 0,
            "response_cache_hits": 0,
            "ws_connections": 0,
            "ws_active": 0,
            "deliveries": 0,
            "evicted": 0,
            "recovered_sources": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Recover any write-ahead logs, then start accepting connections."""
        if self._wal_dir is not None:
            self._recover_all()
        self._asyncio_server = await asyncio.start_server(
            self._connections.accept, host, port, limit=protocol.STREAM_LIMIT
        )
        sockname = self._asyncio_server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def stop(self) -> None:
        """Stop accepting, drop every subscriber, close WAL segments."""
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None
        for group in list(self._groups.values()):
            for writer in list(group.writers):
                self._drop_writer(group, writer)
            group.subscription.close()
        self._groups.clear()
        await self._connections.close()
        for vs in self._namespaces.values():
            vs.close()

    def namespace(self, name: str, create: bool = False) -> ViewServer:
        """The namespace's ViewServer (created on demand for writes)."""
        vs = self._namespaces.get(name)
        if vs is None:
            if not create:
                raise _HttpError(404, f"unknown namespace {name!r}")
            vs = self._namespaces[name] = ViewServer()
        return vs

    def drop_namespace(self, name: str) -> ViewServer:
        """Detach a namespace: drop its subscribers, close its WAL segments.

        The handoff half of shard rebalancing (:mod:`repro.serve.net.shard`):
        after the drop this server no longer owns the namespace, its log
        directories are closed for another process to recover, and its
        WebSocket subscribers are disconnected (they reconnect through the
        front door, which routes them to the new owner).  Returns the
        detached :class:`ViewServer`.
        """
        vs = self._namespaces.pop(name, None)
        if vs is None:
            raise _HttpError(404, f"unknown namespace {name!r}")
        for key, group in list(self._groups.items()):
            if group.namespace == name:
                for writer in list(group.writers):
                    self._drop_writer(group, writer)
                group.subscription.close()
                del self._groups[key]
        vs.close()
        # ETags embed the namespace, so entries for other namespaces would
        # survive -- but a drop is rare and a cold cache is merely slow.
        self._response_cache.clear()
        return vs

    def _recover_all(self) -> None:
        """Replay every per-source log under ``wal_dir`` (layout: ns/source)."""
        if not self._wal_dir.is_dir():
            return
        for ns_dir in sorted(path for path in self._wal_dir.iterdir() if path.is_dir()):
            vs = self.namespace(ns_dir.name, create=True)
            for source_dir in sorted(path for path in ns_dir.iterdir() if path.is_dir()):
                log = DeltaLog(
                    source_dir, fsync=self._fsync, segment_records=self._snapshot_every
                )
                if log.recover() is None:
                    continue
                recover_source(
                    vs, log, name=source_dir.name, snapshot_every=self._snapshot_every
                )
                self.counters["recovered_sources"] += 1

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await protocol.read_request(reader)
                except ProtocolError as error:
                    writer.write(json_response(400, {"error": str(error)}))
                    await writer.drain()
                    break
                if request is None:
                    break
                self.counters["requests"] += 1
                if request.wants_upgrade:
                    await self._serve_websocket(request, reader, writer)
                    return  # the socket is a WebSocket until it dies
                try:
                    response = await self._dispatch(request)
                except _HttpError as error:
                    response = json_response(error.status, {"error": str(error)})
                except OutputValidationError as error:
                    # the published document broke the view's registered DTD:
                    # a server-side data problem, not a malformed request
                    response = json_response(
                        422,
                        {
                            "error": str(error),
                            "view": error.view,
                            "violation": error.violation.as_dict(),
                        },
                    )
                except (
                    ServeError,
                    WireError,
                    ProtocolError,
                    RelationalError,
                ) as error:
                    # a delta/instance that decodes but violates the schema
                    # (e.g. wrong arity) is the client's mistake, not ours
                    response = json_response(400, {"error": str(error)})
                except WalError as error:
                    response = json_response(409, {"error": str(error)})
                except Exception as error:  # pragma: no cover - last resort
                    response = json_response(
                        500, {"error": f"{type(error).__name__}: {error}"}
                    )
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:  # server shutdown
            pass

    # -- routing -------------------------------------------------------------

    async def _dispatch(self, request: Request) -> bytes:
        parts = [part for part in request.path.split("/") if part]
        if parts == ["healthz"]:
            if request.method != "GET":
                raise _HttpError(405, "healthz is GET-only")
            return json_response(
                200, {"ok": True, "namespaces": sorted(self._namespaces)}
            )
        if len(parts) >= 3 and parts[0] == "v1" and parts[1] == "ns":
            return await self._dispatch_namespace(request, parts[2], parts[3:])
        extra = await self._dispatch_extra(request, parts)
        if extra is not None:
            return extra
        raise _HttpError(404, f"no route for {request.method} {request.path}")

    async def _dispatch_extra(self, request: Request, parts: list[str]) -> bytes | None:
        """Subclass hook for additional routes (e.g. shard admin); None = 404."""
        return None

    async def _dispatch_namespace(
        self, request: Request, ns: str, rest: list[str]
    ) -> bytes:
        creates = request.method == "POST"
        vs = self.namespace(ns, create=creates)
        if rest == ["stats"] and request.method == "GET":
            return self._stats(ns, vs)
        if rest == ["views"]:
            if request.method == "GET":
                return self._list_views(vs)
            if request.method == "POST":
                return self._register_view(vs, request)
        if len(rest) == 3 and rest[0] == "views" and request.method == "GET":
            if rest[2] == "publish":
                return self._publish(ns, vs, rest[1], request)
            if rest[2] == "explain":
                return self._explain(vs, rest[1], request)
            if rest[2] == "subscribe":
                raise _HttpError(426, "subscribe requires a WebSocket upgrade")
        if rest == ["sources"]:
            if request.method == "GET":
                return self._list_sources(vs)
            if request.method == "POST":
                return self._attach(ns, vs, request)
        if len(rest) == 2 and rest[0] == "sources" and request.method == "GET":
            return self._source_info(vs, rest[1])
        if len(rest) == 3 and rest[0] == "sources" and request.method == "POST":
            if rest[2] == "commit":
                return await self._commit(ns, vs, rest[1], request)
            if rest[2] == "prune":
                return self._prune(vs, rest[1], request)
        raise _HttpError(404, f"no route for {request.method} {request.path}")

    # -- views ---------------------------------------------------------------

    def _list_views(self, vs: ViewServer) -> bytes:
        return json_response(
            200,
            [
                {
                    "name": view.name,
                    "language": view.language,
                    "params": list(view.params),
                    "publishes": view.publishes,
                }
                for view in vs.views
            ],
        )

    def _register_view(self, vs: ViewServer, request: Request) -> bytes:
        body = request.json() or {}
        name = body.get("name")
        key = body.get("view", name)
        if not isinstance(name, str) or not name:
            raise _HttpError(400, "register needs a view 'name'")
        if key not in self._catalog:
            raise _HttpError(
                404, f"unknown catalog view {key!r}; available: {sorted(self._catalog)}"
            )
        params = body.get("params", ())
        if not isinstance(params, (list, tuple)) or not all(
            isinstance(p, str) for p in params
        ):
            raise _HttpError(400, "'params' must be a list of parameter names")
        output_dtd = None
        if body.get("output_dtd") is not None:
            # The DTD travels as pure data (tag -> content-model expression
            # trees); nothing executable crosses the wire, so the catalog
            # discipline -- clients name code, they never ship it -- holds.
            try:
                output_dtd = dtd_from_wire(body["output_dtd"])
            except (ValueError, TypeError) as error:
                raise _HttpError(400, f"malformed output_dtd: {error}") from None
        typecheck = body.get("typecheck", "static")
        if not isinstance(typecheck, str):
            raise _HttpError(400, "'typecheck' must be a string mode")
        try:
            view = vs.register_view(
                name,
                self._catalog[key],
                params=params,
                output_dtd=output_dtd,
                typecheck=typecheck,
            )
        except ViewRejected as rejected:
            # 422: the request was well-formed, the *view* failed its output
            # typecheck.  Ship the whole verdict -- including the witness
            # source instance -- so the client can replay the refutation.
            payload: dict[str, Any] = {
                "error": str(rejected),
                "typecheck": rejected.result.as_dict(),
            }
            if rejected.result.witness is not None:
                payload["witness"] = instance_to_wire(rejected.result.witness)
            return json_response(422, payload)
        registered = {
            "name": view.name,
            "language": view.language,
            "params": list(view.params),
        }
        if output_dtd is not None:
            result = view.typecheck_result() if not params else None
            registered["typecheck"] = {
                "mode": view.typecheck_mode,
                "verdict": result.verdict.value if result is not None else None,
            }
        return json_response(201, registered)

    def _view_params(self, request: Request) -> dict[str, Any] | None:
        text = request.query.get("params")
        if not text:
            return None
        try:
            params = json.loads(text)
        except json.JSONDecodeError as error:
            raise _HttpError(400, f"malformed params JSON: {error}") from None
        if not isinstance(params, dict):
            raise _HttpError(400, "params must be a JSON object")
        return params

    def _publish(self, ns: str, vs: ViewServer, view_name: str, request: Request) -> bytes:
        view = vs.view(view_name)
        source_name = request.query.get("source")
        handle = vs.source(source_name) if source_name else self._sole_source(vs)
        version = request.query.get("version")
        try:
            snapshot = handle.snapshot(int(version) if version is not None else None)
        except ValueError:
            raise _HttpError(400, f"malformed version {version!r}") from None
        output = request.query.get("output", "bytes")
        if output not in _PUBLISH_OUTPUTS:
            raise _HttpError(
                400, f"output must be one of {_PUBLISH_OUTPUTS} over HTTP"
            )
        backend = request.query.get("backend", "auto")
        maintenance = request.query.get("maintenance", "auto")
        indent_text = request.query.get("indent", "2")
        indent = None if indent_text in ("none", "") else _int_query(indent_text, "indent")
        params = self._view_params(request)

        etag = self._etag(
            ns, view_name, handle.name, snapshot.index,
            (view.binding_key(params), output, backend, indent),
        )
        headers = {
            "ETag": etag,
            "X-Source-Version": str(snapshot.index),
            "Cache-Control": "private, must-revalidate",
        }
        candidates = request.headers.get("if-none-match", "")
        if candidates and (
            candidates.strip() == "*"
            or etag in (tag.strip() for tag in candidates.split(","))
        ):
            self.counters["not_modified"] += 1
            return render_response(304, b"", headers)
        body = self._response_cache.pop(etag, None)
        if body is not None:
            self._response_cache[etag] = body  # LRU touch: newest last
            self.counters["response_cache_hits"] += 1
            return render_response(200, body, headers, content_type="application/xml")
        document = vs.publish(
            view,
            source=snapshot,
            params=params,
            output=output,
            backend=backend,
            maintenance=maintenance,
            indent=indent,
        )
        self.counters["publishes"] += 1
        body = document.encode("utf-8")
        self._response_cache[etag] = body
        while len(self._response_cache) > self.max_cached_responses:
            self._response_cache.pop(next(iter(self._response_cache)))
        return render_response(200, body, headers, content_type="application/xml")

    def _explain(self, vs: ViewServer, view_name: str, request: Request) -> bytes:
        vs.view(view_name)  # reject unknown names before touching explain
        report = vs.explain(view_name, params=self._view_params(request))
        return json_response(200, report.as_dict())

    # -- sources -------------------------------------------------------------

    def _sole_source(self, vs: ViewServer) -> SourceHandle:
        handles = vs.handles
        if len(handles) == 1:
            return handles[0]
        raise _HttpError(
            400, f"namespace has {len(handles)} sources; pass ?source=<name>"
        )

    def _list_sources(self, vs: ViewServer) -> bytes:
        return json_response(
            200,
            [
                {
                    "name": handle.name,
                    "version": handle.version,
                    "commits": handle.commits,
                    "durable": handle._wal is not None,
                }
                for handle in vs.handles
            ],
        )

    def _source_info(self, vs: ViewServer, name: str) -> bytes:
        handle = vs.source(name)
        versions = handle.history()
        return json_response(
            200,
            {
                "name": handle.name,
                "version": handle.version,
                "commits": handle.commits,
                "durable": handle._wal is not None,
                "retained": [version.index for version in versions],
            },
        )

    def _attach(self, ns: str, vs: ViewServer, request: Request) -> bytes:
        body = request.json() or {}
        name = body.get("name")
        if name is not None and (not isinstance(name, str) or not name):
            raise _HttpError(400, "source 'name' must be a non-empty string")
        instance = instance_from_wire(body.get("instance"))
        encoded = bool(body.get("encoded", False))
        durable = bool(body.get("durable", self._wal_dir is not None))
        if durable:
            if self._wal_dir is None:
                raise _HttpError(400, "server has no wal_dir; attach with durable=false")
            if name is None:
                name = f"source{len(vs.handles)}"
            log = DeltaLog(
                self._wal_dir / ns / name,
                fsync=self._fsync,
                segment_records=self._snapshot_every,
            )
            handle = attach_durable(
                vs, instance, log, name=name, encoded=encoded,
                snapshot_every=self._snapshot_every,
            )
        else:
            handle = vs.attach(instance, name=name, encoded=encoded)
        return json_response(
            201, {"name": handle.name, "version": handle.version, "durable": durable}
        )

    async def _commit(
        self, ns: str, vs: ViewServer, name: str, request: Request
    ) -> bytes:
        handle = vs.source(name)
        delta = delta_from_wire(request.json())
        version = handle.commit(delta)
        self.counters["commits"] += 1
        delivered = await self._fan_out(ns, handle)
        return json_response(
            200,
            {
                "source": handle.name,
                "version": version.index,
                "changes": version.delta.change_count(),
                "delivered": delivered,
            },
        )

    def _prune(self, vs: ViewServer, name: str, request: Request) -> bytes:
        handle = vs.source(name)
        body = request.json() or {}
        keep_last = body.get("keep_last", 1)
        if not isinstance(keep_last, int) or keep_last < 1:
            raise _HttpError(400, "'keep_last' must be a positive integer")
        pruned = handle.prune(keep_last=keep_last)
        compacted: list = []
        if handle._wal is not None and pruned.count:
            compacted = [path.name for path in handle._wal.compact()]
        return json_response(
            200,
            {
                "count": pruned.count,
                "indices": list(pruned.indices),
                "compacted": compacted,
            },
        )

    # -- stats ---------------------------------------------------------------

    def _stats(self, ns: str, vs: ViewServer) -> bytes:
        return json_response(
            200,
            {
                "namespace": ns,
                "net": dict(self.counters),
                "groups": [
                    {
                        "view": group.view,
                        "source": group.source,
                        "subscribers": len(group.writers),
                        "version": group.subscription.version,
                    }
                    for group in self._groups.values()
                    if group.namespace == ns
                ],
                "server": vs.stats().as_dict(),
            },
        )

    @staticmethod
    def _etag(ns: str, view: str, source: str, version: int, extras: tuple) -> str:
        digest = hashlib.sha1(
            repr((ns, view, source, extras)).encode("utf-8")
        ).hexdigest()[:16]
        return f'"v{version}-{digest}"'

    # -- websocket subscriptions ---------------------------------------------

    async def _serve_websocket(
        self, request: Request, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            group, init = self._open_subscription(request)
        except _HttpError as error:
            writer.write(json_response(error.status, {"error": str(error)}))
            await writer.drain()
            writer.close()
            return
        except OutputValidationError as error:
            writer.write(
                json_response(
                    422,
                    {
                        "error": str(error),
                        "view": error.view,
                        "violation": error.violation.as_dict(),
                    },
                )
            )
            await writer.drain()
            writer.close()
            return
        except (ServeError, WireError, ProtocolError, RelationalError) as error:
            writer.write(json_response(400, {"error": str(error)}))
            await writer.drain()
            writer.close()
            return
        except Exception as error:
            # opening a subscription runs a full publish; anything it raises
            # (node budgets included) must answer over HTTP, not kill the
            # connection callback before the upgrade completes
            writer.write(
                json_response(500, {"error": f"{type(error).__name__}: {error}"})
            )
            await writer.drain()
            writer.close()
            return
        writer.write(protocol.ws_handshake_response(request))
        writer.write(protocol.ws_text_frame(canonical_json(init)))
        await writer.drain()
        group.writers.append(writer)
        self.counters["ws_connections"] += 1
        self.counters["ws_active"] += 1
        try:
            while True:
                opcode, payload = await protocol.read_ws_message(reader)
                if opcode == OP_CLOSE:
                    break
                if opcode == OP_PING:
                    writer.write(protocol.ws_frame(payload, protocol.OP_PONG))
                    await writer.drain()
                # Data frames from subscribers are ignored: the channel is push-only.
        except (
            ProtocolError,
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            self._drop_writer(group, writer)

    def _open_subscription(self, request: Request) -> tuple[_Broadcast, dict]:
        parts = [part for part in request.path.split("/") if part]
        if (
            len(parts) != 6
            or parts[:2] != ["v1", "ns"]
            or parts[3] != "views"
            or parts[5] != "subscribe"
        ):
            raise _HttpError(404, f"no WebSocket route for {request.path}")
        ns, view_name = parts[2], parts[4]
        vs = self.namespace(ns)
        view = vs.view(view_name)
        source_name = request.query.get("source")
        handle = vs.source(source_name) if source_name else self._sole_source(vs)
        params = self._view_params(request)
        binding = view.binding_key(params)
        key = (ns, view_name, handle.name, binding)
        group = self._groups.get(key)
        if group is None:
            subscription = vs.subscribe(view, handle, params=params)
            group = self._groups[key] = _Broadcast(
                ns, view_name, handle.name, subscription
            )
        from repro.xmltree.diff import tree_to_wire

        init = {
            "type": "init",
            "view": view_name,
            "source": handle.name,
            "version": group.subscription.version,
            "document": tree_to_wire(group.subscription.tree),
        }
        return group, init

    def _drop_writer(self, group: _Broadcast, writer: asyncio.StreamWriter) -> None:
        try:
            group.writers.remove(writer)
            self.counters["ws_active"] -= 1
        except ValueError:
            pass
        writer.close()

    async def _fan_out(self, ns: str, handle: SourceHandle) -> int:
        """Push pending subscription events to every group on ``handle``.

        Each event is wire-encoded and framed exactly once, inline on the
        event loop, and the per-writer cost is one buffered socket write.
        Writers whose buffers exceed :attr:`max_buffered_bytes` (a consumer
        that stopped reading) are evicted rather than allowed to pin
        arbitrary memory.
        """
        delivered = 0
        touched: dict[asyncio.StreamWriter, _Broadcast] = {}
        for group in self._groups.values():
            if group.namespace != ns or group.subscription.handle is not handle:
                continue
            for event in group.subscription.drain():
                frame = protocol.ws_text_frame(
                    canonical_json(
                        {
                            "type": "edits",
                            "view": group.view,
                            "source": group.source,
                            "version": event.version,
                            "empty": event.edits.is_empty(),
                            "edits": event.edits.to_wire(),
                        }
                    )
                )
                for writer in list(group.writers):
                    if writer.transport.is_closing():
                        self._drop_writer(group, writer)
                        continue
                    if writer.transport.get_write_buffer_size() > self.max_buffered_bytes:
                        self.counters["evicted"] += 1
                        self._drop_writer(group, writer)
                        continue
                    writer.write(frame)
                    touched[writer] = group
                    delivered += 1
        self.counters["deliveries"] += delivered
        for writer, group in touched.items():
            try:
                await asyncio.wait_for(writer.drain(), self.drain_timeout)
            except asyncio.TimeoutError:
                # the consumer pinned the transport's high-water mark for a
                # whole drain window without reading anything: evict it
                # rather than let it stall every future commit
                self.counters["evicted"] += 1
                self._drop_writer(group, writer)
            except (ConnectionError, OSError):
                pass  # the reader task will reap the dead socket
        return delivered


# ---------------------------------------------------------------------------
# A thread harness for synchronous callers (tests, examples, benchmarks).
# ---------------------------------------------------------------------------


class NetServerThread:
    """Run a :class:`NetServer` on a dedicated event-loop thread.

    The synchronous mirror of ``async with``: :meth:`start` blocks until the
    port is bound and returns ``(host, port)``; :meth:`stop` shuts the server
    down and joins the thread.  Usable as a context manager.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        server_factory: Callable[..., NetServer] | None = None,
        **kwargs: Any,
    ) -> None:
        self._host = host
        self._port = port
        self._factory = server_factory or NetServer
        self._kwargs = kwargs
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._failure: BaseException | None = None
        self.server: NetServer | None = None
        self.address: tuple[str, int] | None = None

    def start(self) -> tuple[str, int]:
        self._thread = threading.Thread(target=self._run, daemon=True, name="repro-net")
        self._thread.start()
        self._started.wait()
        if self._failure is not None:
            raise self._failure
        return self.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self.server = self._factory(**self._kwargs)

        async def _boot() -> None:
            # _failure must be recorded before _started is set, or start()
            # can observe the event before the exception reaches _run's
            # handler and report a failed boot as success
            try:
                self.address = await self.server.start(self._host, self._port)
            except BaseException as error:
                self._failure = error
                raise
            finally:
                self._started.set()

        try:
            loop.run_until_complete(_boot())
            loop.run_forever()
        except BaseException as error:  # pragma: no cover - boot failures
            self._failure = error
            self._started.set()
        finally:
            loop.close()

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return

        async def _halt() -> None:
            await self.server.stop()
            loop.stop()

        asyncio.run_coroutine_threadsafe(_halt(), loop)
        thread.join(timeout=10)
        self._loop = self._thread = None

    def __enter__(self) -> "NetServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
