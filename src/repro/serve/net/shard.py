"""``repro.serve.shard``: a sharded multi-process serving cluster.

One front-door :class:`ShardRouter` owns the client-facing socket and routes
every namespace to the shard worker process that owns it; each worker is a
:class:`ShardWorkerServer` -- a full :class:`~repro.serve.net.app.NetServer`
(its own event loop, ViewServer cores, WAL directory) plus the admin routes
that namespace handoff needs.  Clients keep speaking the unchanged HTTP/WS
protocol to one address: REST calls are proxied over pooled keep-alive
upstream connections, WebSocket subscriptions are tunneled byte-for-byte, so
one client socket can watch views living on any shard.

Routing is crc32 sticky sharding: ``shard_for(namespace, shards)`` pins a
namespace to a worker (the crc32 of its ``repr``), and an
explicit router-table entry overrides it after a rebalance.  What crosses
the process boundary is data only -- wire-encoded instances and deltas on
the client path, catalog *references* on the control path (each worker
instantiates its own catalog from an importable ``module:attr`` string;
nothing executable is ever read from the wire, the same rule as ``POST
/views``).

**Handoff is WAL replay.**  Every worker writes its own WAL subtree
(``<wal_root>/shard-<i>/<ns>/<source>``).  A rebalance freezes the
namespace at the router, asks the old owner to *release* it (close logs,
drop subscribers, report the per-source log directories), asks the new
owner to *adopt* it (``recover_source`` replay, then re-home the log into
its own subtree), flips the routing table and replays the namespace's
recorded view registrations -- publishes are byte-identical before and
after the migration on both backends, because replay is the same code path
that crash recovery already proves exact.  A worker restart is the
degenerate case: the respawned process replays its own subtree and the
router just re-registers views and refreshes the address.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing as mp
import shutil
import tempfile
import threading
from importlib import import_module
from pathlib import Path
from typing import Any, Mapping
from zlib import crc32

from repro.relational.wire import canonical_json
from repro.serve.net import protocol
from repro.serve.net.app import NetServer, _close_writers, _Connections, _HttpError
from repro.serve.net.protocol import ProtocolError, Request, json_response, render_response
from repro.serve.net.wal import DeltaLog, recover_source, rehome_source
from repro.serve.stats import merge_cluster_stats

#: The default control-plane catalog reference shipped to workers.
DEFAULT_CATALOG_REF = "repro.serve.net.app:default_catalog"


class ShardError(RuntimeError):
    """Raised when the cluster harness cannot start or drive its workers."""


def shard_for(namespace: str, shards: int) -> int:
    """The default owner of ``namespace`` -- crc32 sticky sharding."""
    return crc32(repr(namespace).encode("utf-8", "backslashreplace")) % max(1, shards)


def resolve_catalog(ref: str) -> dict:
    """Resolve ``"pkg.module:attr"`` into a view catalog dict.

    ``attr`` may be the catalog itself or a zero-argument factory; only the
    *reference* crosses the process boundary, each worker imports and
    instantiates locally.
    """
    module_name, _, attr = ref.partition(":")
    try:
        obj = getattr(import_module(module_name), attr or "default_catalog")
    except (ImportError, AttributeError) as error:
        raise ShardError(f"bad catalog reference {ref!r}: {error}") from error
    catalog = obj() if callable(obj) else obj
    return dict(catalog)


# ---------------------------------------------------------------------------
# The shard worker: a NetServer plus handoff admin routes.
# ---------------------------------------------------------------------------


class ShardWorkerServer(NetServer):
    """One shard's server core: the public API plus ``/v1/admin`` routes.

    The admin surface is what the router's control plane speaks:

    * ``GET  /v1/admin/stats`` -- shard index, owned namespaces, counters;
    * ``POST /v1/admin/ns/{ns}/release`` -- drop the namespace, close its
      logs, report each durable source's log directory for the adopter;
    * ``POST /v1/admin/ns/{ns}/adopt`` -- replay the reported directories
      and re-home them into this worker's own WAL subtree.
    """

    def __init__(self, *args: Any, shard: int = 0, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.shard = shard

    async def _dispatch_extra(self, request: Request, parts: list[str]) -> bytes | None:
        if parts == ["v1", "admin", "stats"] and request.method == "GET":
            return json_response(
                200,
                {
                    "shard": self.shard,
                    "address": list(self.address) if self.address else None,
                    "namespaces": sorted(self._namespaces),
                    "net": dict(self.counters),
                },
            )
        if len(parts) == 5 and parts[:3] == ["v1", "admin", "ns"] and request.method == "POST":
            ns, action = parts[3], parts[4]
            if action == "release":
                return self._release(ns)
            if action == "adopt":
                return self._adopt(ns, request)
        return None

    def _release(self, ns: str) -> bytes:
        """Give up a namespace: report its logs, then drop every trace."""
        vs = self._namespaces.get(ns)
        if vs is None:
            raise _HttpError(404, f"unknown namespace {ns!r}")
        sources = []
        for handle in vs.handles:
            if handle._wal is None:
                raise _HttpError(
                    409, f"source {handle.name!r} is not durable; a handoff would lose it"
                )
            sources.append(
                {
                    "name": handle.name,
                    "version": handle.version,
                    "wal_dir": str(handle._wal.log.directory),
                }
            )
        self.drop_namespace(ns)
        return json_response(200, {"namespace": ns, "sources": sources})

    def _adopt(self, ns: str, request: Request) -> bytes:
        """Replay released log directories and re-home them under this shard."""
        if self._wal_dir is None:
            raise _HttpError(409, "this worker has no wal_dir; it cannot adopt namespaces")
        body = request.json() or {}
        specs = body.get("sources", [])
        if not isinstance(specs, list):
            raise _HttpError(400, "'sources' must be a list of released source specs")
        remove = bool(body.get("remove", True))
        vs = self.namespace(ns, create=True)
        existing = {handle.name for handle in vs.handles}
        adopted = []
        for spec in specs:
            if not isinstance(spec, dict) or not spec.get("wal_dir"):
                raise _HttpError(400, "each source spec needs a 'wal_dir'")
            source_dir = Path(spec["wal_dir"])
            name = spec.get("name") or source_dir.name
            if name in existing:
                continue  # already owned: a restarted worker replayed its own subtree
            log = DeltaLog(source_dir, fsync=self._fsync, segment_records=self._snapshot_every)
            handle = recover_source(vs, log, name=name, snapshot_every=self._snapshot_every)
            target = self._wal_dir / ns / name
            if source_dir.resolve() != target.resolve():
                if target.exists():
                    # Residue of a past ownership of this namespace, fully
                    # superseded by the history just replayed.
                    shutil.rmtree(target)
                rehome_source(
                    handle, target, fsync=self._fsync, snapshot_every=self._snapshot_every
                )
                if remove:
                    shutil.rmtree(source_dir, ignore_errors=True)
            self.counters["recovered_sources"] += 1
            adopted.append({"name": name, "version": handle.version})
        return json_response(200, {"namespace": ns, "sources": adopted})


def _worker_main(
    conn,
    shard_index: int,
    wal_dir: str,
    catalog_ref: str,
    fsync: bool,
    snapshot_every: int,
) -> None:
    """Entry point of one shard worker process.

    Boots a :class:`ShardWorkerServer` on a fresh event loop, reports
    ``("ready", address)`` (or ``("error", message)``) over the pipe, then
    serves until the parent sends anything -- or closes the pipe -- which a
    watcher thread turns into a clean loop stop.
    """
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    server = ShardWorkerServer(
        shard=shard_index,
        catalog=resolve_catalog(catalog_ref),
        wal_dir=wal_dir,
        fsync=fsync,
        snapshot_every=snapshot_every,
    )
    try:
        address = loop.run_until_complete(server.start("127.0.0.1", 0))
    except BaseException as error:
        conn.send(("error", f"{type(error).__name__}: {error}"))
        conn.close()
        return
    conn.send(("ready", address))

    def _watch() -> None:
        try:
            conn.recv()
        except (EOFError, OSError):
            pass
        loop.call_soon_threadsafe(loop.stop)

    threading.Thread(target=_watch, daemon=True, name="shard-shutdown").start()
    try:
        loop.run_forever()
        loop.run_until_complete(server.stop())
    finally:
        loop.close()


# ---------------------------------------------------------------------------
# The front door.
# ---------------------------------------------------------------------------


class ShardRouter:
    """The cluster's single client-facing server (see module docstring).

    Owns the routing table (crc32 default + explicit rebalance entries), a
    pool of keep-alive upstream connections per shard, and the recorded view
    registrations per namespace (pure catalog data, replayed onto whichever
    worker owns the namespace after a handoff or restart).
    """

    def __init__(self, shards: list[tuple[str, int]]) -> None:
        if not shards:
            raise ShardError("a router needs at least one shard address")
        self._shards = [tuple(address) for address in shards]
        self._table: dict[str, int] = {}
        self._moving: dict[str, asyncio.Event] = {}
        #: ns -> {view name -> registration body}; what a new owner replays.
        self._registrations: dict[str, dict[str, dict]] = {}
        self._free: dict[int, list] = {index: [] for index in range(len(self._shards))}
        self._asyncio_server: asyncio.base_events.Server | None = None
        self._connections = _Connections(self._handle_connection)
        self.address: tuple[str, int] | None = None
        self.counters = {
            "requests": 0,
            "proxied": 0,
            "tunnels": 0,
            "rebalances": 0,
            "retries": 0,
        }

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def owner(self, namespace: str) -> int:
        """The shard currently owning ``namespace``."""
        return self._table.get(namespace, shard_for(namespace, len(self._shards)))

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        self._asyncio_server = await asyncio.start_server(
            self._connections.accept, host, port, limit=protocol.STREAM_LIMIT
        )
        sockname = self._asyncio_server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    async def stop(self) -> None:
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None
        await self._connections.close()
        pooled = [writer for pool in self._free.values() for _, writer in pool]
        for pool in self._free.values():
            pool.clear()
        await _close_writers(pooled)

    async def replace_shard(self, index: int, address: tuple[str, int]) -> None:
        """Point shard ``index`` at a restarted worker and restore its views.

        The new process already replayed its own WAL subtree on boot; what
        it cannot recover by itself are view registrations (views are code
        instantiated from the catalog, never persisted), so the router
        replays the recorded registrations of every namespace it owns.
        """
        self._shards[index] = tuple(address)
        stale = [writer for _, writer in self._free[index]]
        self._free[index] = []
        await _close_writers(stale)
        for ns, registrations in self._registrations.items():
            if self.owner(ns) != index:
                continue
            for body in registrations.values():
                try:
                    await self._upstream(
                        index,
                        "POST",
                        f"/v1/ns/{ns}/views",
                        {"Content-Type": "application/json"},
                        canonical_json(body).encode("utf-8"),
                    )
                except _HttpError:  # pragma: no cover - best effort
                    pass

    # -- upstream plumbing ---------------------------------------------------

    async def _acquire(self, shard: int):
        """A pooled (reader, writer) to ``shard``; ``fresh`` tags new sockets."""
        pool = self._free[shard]
        while pool:
            connection = pool.pop()
            if not connection[1].is_closing():
                return connection, False
            connection[1].close()
        host, port = self._shards[shard]
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=protocol.STREAM_LIMIT
            )
        except OSError:
            raise _HttpError(502, f"shard {shard} at {host}:{port} is unreachable") from None
        return (reader, writer), True

    async def _upstream(
        self,
        shard: int,
        method: str,
        target: str,
        headers: Mapping[str, str] | None,
        body: bytes,
    ) -> tuple[int, dict[str, str], bytes]:
        """One proxied exchange with ``shard``, retried once on a stale socket."""
        data = protocol.render_request(method, target, headers, body)
        for attempt in (1, 2):
            connection, fresh = await self._acquire(shard)
            reader, writer = connection
            try:
                writer.write(data)
                await writer.drain()
                response = await protocol.read_response(reader)
            except (ConnectionError, OSError, ProtocolError, asyncio.IncompleteReadError):
                writer.close()
                if fresh or attempt == 2:
                    raise _HttpError(502, f"shard {shard} is unreachable") from None
                self.counters["retries"] += 1
                continue
            status, response_headers, response_body = response
            if response_headers.get("connection", "").lower() == "close":
                writer.close()
            else:
                self._free[shard].append(connection)
            return status, response_headers, response_body
        raise AssertionError("unreachable")  # pragma: no cover

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
                    await self._tunnel(request, reader, writer)
                    return  # the socket is a tunnel until either side dies
                try:
                    response = await self._route(request)
                except _HttpError as error:
                    response = json_response(error.status, {"error": str(error)})
                except Exception as error:  # pragma: no cover - last resort
                    response = json_response(
                        502, {"error": f"{type(error).__name__}: {error}"}
                    )
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:  # router shutdown
            pass

    async def _route(self, request: Request) -> bytes:
        parts = [part for part in request.path.split("/") if part]
        if parts == ["healthz"]:
            if request.method != "GET":
                raise _HttpError(405, "healthz is GET-only")
            return json_response(
                200, {"ok": True, "router": True, "shards": len(self._shards)}
            )
        if len(parts) >= 2 and parts[:2] == ["v1", "cluster"]:
            if parts == ["v1", "cluster", "stats"] and request.method == "GET":
                return await self._cluster_stats()
            if parts == ["v1", "cluster", "rebalance"] and request.method == "POST":
                return await self._rebalance(request)
            raise _HttpError(404, f"no cluster route for {request.method} {request.path}")
        if len(parts) >= 3 and parts[:2] == ["v1", "ns"]:
            return await self._proxy_namespace(parts[2], request)
        raise _HttpError(404, f"no route for {request.method} {request.path}")

    async def _proxy_namespace(self, ns: str, request: Request) -> bytes:
        while True:
            moving = self._moving.get(ns)
            if moving is None:
                break
            await moving.wait()  # a migration is flipping this namespace
        shard = self.owner(ns)
        status, headers, body = await self._upstream(
            shard, request.method, request.target, request.headers, request.body
        )
        self.counters["proxied"] += 1
        if (
            status == 201
            and request.method == "POST"
            and request.path.rstrip("/").endswith(f"/ns/{ns}/views")
        ):
            # Remember the registration (pure catalog data) so a future
            # owner of this namespace can be given the same views.
            registration = request.json() or {}
            name = registration.get("name")
            if isinstance(name, str) and name:
                self._registrations.setdefault(ns, {})[name] = registration
        forward = {
            header: value for header, value in headers.items() if header != "connection"
        }
        return render_response(
            status,
            body,
            forward,
            content_type=headers.get("content-type", "application/json"),
        )

    async def _tunnel(
        self, request: Request, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Forward a WebSocket upgrade and pump bytes both ways until EOF."""
        parts = [part for part in request.path.split("/") if part]
        if len(parts) < 3 or parts[:2] != ["v1", "ns"]:
            writer.write(
                json_response(404, {"error": f"no WebSocket route for {request.path}"})
            )
            await writer.drain()
            return
        ns = parts[2]
        while True:
            moving = self._moving.get(ns)
            if moving is None:
                break
            await moving.wait()
        shard = self.owner(ns)
        host, port = self._shards[shard]
        try:
            upstream_reader, upstream_writer = await asyncio.open_connection(
                host, port, limit=protocol.STREAM_LIMIT
            )
        except OSError:
            writer.write(json_response(502, {"error": f"shard {shard} is unreachable"}))
            await writer.drain()
            return
        upstream_writer.write(
            protocol.render_request(
                "GET", request.target, request.headers, request.body,
                strip_connection=False,
            )
        )
        await upstream_writer.drain()
        self.counters["tunnels"] += 1

        async def pump(source: asyncio.StreamReader, sink: asyncio.StreamWriter) -> None:
            try:
                while True:
                    chunk = await source.read(65536)
                    if not chunk:
                        break
                    sink.write(chunk)
                    await sink.drain()
            except (ConnectionError, OSError):
                pass
            finally:
                sink.close()

        await asyncio.gather(
            pump(reader, upstream_writer),
            pump(upstream_reader, writer),
            return_exceptions=True,
        )

    # -- cluster control -----------------------------------------------------

    async def _cluster_stats(self) -> bytes:
        payloads = []
        for shard in range(len(self._shards)):
            try:
                status, _, body = await self._upstream(
                    shard, "GET", "/v1/admin/stats", None, b""
                )
            except _HttpError:
                continue  # an unreachable shard is simply absent from the report
            if status == 200:
                payloads.append(json.loads(body))
        known = set(self._table) | set(self._registrations)
        for payload in payloads:
            known.update(payload.get("namespaces") or ())
        table = {ns: self.owner(ns) for ns in sorted(known)}
        merged = merge_cluster_stats(payloads, table, dict(self.counters))
        return json_response(200, merged.as_dict())

    async def _rebalance(self, request: Request) -> bytes:
        body = request.json() or {}
        ns = body.get("namespace")
        if not isinstance(ns, str) or not ns:
            raise _HttpError(400, "rebalance needs a 'namespace'")
        target = body.get("shard")
        if not isinstance(target, int) or isinstance(target, bool) or not (
            0 <= target < len(self._shards)
        ):
            raise _HttpError(
                400, f"'shard' must be an integer in [0, {len(self._shards)})"
            )
        current = self.owner(ns)
        if current == target:
            return json_response(
                200, {"namespace": ns, "shard": target, "moved": False, "sources": []}
            )
        if ns in self._moving:
            raise _HttpError(409, f"namespace {ns!r} is already migrating")
        moving = asyncio.Event()
        self._moving[ns] = moving
        try:
            status, _, released = await self._upstream(
                current, "POST", f"/v1/admin/ns/{ns}/release", None, b""
            )
            if status == 404:
                sources: list = []  # never materialized on its old owner: just flip
            elif status != 200:
                raise _HttpError(
                    409 if status == 409 else 502,
                    f"shard {current} refused to release {ns!r}: "
                    f"{released.decode('utf-8', 'replace')}",
                )
            else:
                sources = json.loads(released).get("sources", [])
            payload = canonical_json({"sources": sources}).encode("utf-8")
            status, _, adopted = await self._upstream(
                target,
                "POST",
                f"/v1/admin/ns/{ns}/adopt",
                {"Content-Type": "application/json"},
                payload,
            )
            if status != 200:
                # Do not orphan the namespace: hand its logs back to the
                # old owner before reporting the failure.
                try:
                    await self._upstream(
                        current,
                        "POST",
                        f"/v1/admin/ns/{ns}/adopt",
                        {"Content-Type": "application/json"},
                        payload,
                    )
                except _HttpError:  # pragma: no cover - best effort
                    pass
                raise _HttpError(
                    502,
                    f"shard {target} failed to adopt {ns!r}: "
                    f"{adopted.decode('utf-8', 'replace')}",
                )
            self._table[ns] = target
            for registration in self._registrations.get(ns, {}).values():
                await self._upstream(
                    target,
                    "POST",
                    f"/v1/ns/{ns}/views",
                    {"Content-Type": "application/json"},
                    canonical_json(registration).encode("utf-8"),
                )
            self.counters["rebalances"] += 1
            return json_response(
                200,
                {
                    "namespace": ns,
                    "shard": target,
                    "moved": True,
                    "sources": json.loads(adopted).get("sources", []),
                },
            )
        finally:
            del self._moving[ns]
            moving.set()


# ---------------------------------------------------------------------------
# The synchronous cluster harness.
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """One spawned shard worker process and its control pipe."""

    __slots__ = ("index", "process", "conn", "address")

    def __init__(self, index: int, process, conn, address: tuple[str, int]) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.address = address


class ShardCluster:
    """Spawn N shard workers plus the front-door router; a context manager.

    The synchronous mirror of the whole topology, for tests, benchmarks and
    examples: :meth:`start` blocks until every worker reports ready and the
    router is bound, and returns the router's ``(host, port)`` -- point a
    plain :class:`~repro.serve.net.client.NetClient` at it and the cluster
    is indistinguishable from one server.  Without an explicit ``wal_root``
    a temporary directory is created and removed on :meth:`stop`.
    """

    def __init__(
        self,
        shards: int = 2,
        *,
        wal_root: str | Path | None = None,
        catalog_ref: str = DEFAULT_CATALOG_REF,
        fsync: bool = False,
        snapshot_every: int = 256,
        host: str = "127.0.0.1",
        port: int = 0,
        start_method: str | None = None,
    ) -> None:
        if shards < 1:
            raise ShardError("a cluster needs at least one shard")
        self.shard_count = shards
        self._host = host
        self._port = port
        self._catalog_ref = catalog_ref
        self._fsync = fsync
        self._snapshot_every = snapshot_every
        self._wal_root = Path(wal_root) if wal_root is not None else None
        self._own_wal_root = wal_root is None
        self._start_method = start_method
        self._workers: list[_WorkerHandle] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self.router: ShardRouter | None = None
        self.address: tuple[str, int] | None = None

    @property
    def wal_root(self) -> Path | None:
        return self._wal_root

    def start(self) -> tuple[str, int]:
        if self._workers:
            raise ShardError("the cluster is already running")
        if self._wal_root is None:
            self._wal_root = Path(tempfile.mkdtemp(prefix="repro-shard-"))
        method = self._start_method
        if method is None:
            method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        self._context = mp.get_context(method)
        for index in range(self.shard_count):
            self._spawn(index)
        self.router = ShardRouter([worker.address for worker in self._workers])

        started = threading.Event()
        failures: list[BaseException] = []

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop

            async def _boot() -> None:
                try:
                    self.address = await self.router.start(self._host, self._port)
                finally:
                    started.set()

            try:
                loop.run_until_complete(_boot())
                loop.run_forever()
            except BaseException as error:  # pragma: no cover - boot failures
                failures.append(error)
                started.set()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_run, daemon=True, name="repro-shard-router"
        )
        self._thread.start()
        started.wait()
        if failures:
            self.stop()
            raise failures[0]
        return self.address

    def _spawn(self, index: int) -> None:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        wal_dir = self._wal_root / f"shard-{index}"
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_conn,
                index,
                str(wal_dir),
                self._catalog_ref,
                self._fsync,
                self._snapshot_every,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(30):
            process.terminate()
            raise ShardError(f"shard worker {index} did not report within 30s")
        try:
            kind, payload = parent_conn.recv()
        except EOFError:
            raise ShardError(f"shard worker {index} died during startup") from None
        if kind != "ready":
            process.join(timeout=5)
            raise ShardError(f"shard worker {index} failed to start: {payload}")
        handle = _WorkerHandle(index, process, parent_conn, tuple(payload))
        if index < len(self._workers):
            self._workers[index] = handle
        else:
            self._workers.append(handle)

    def restart_worker(self, index: int, *, kill: bool = False) -> tuple[str, int]:
        """Stop worker ``index`` and respawn it over the same WAL subtree.

        ``kill=True`` terminates the process without a clean shutdown (the
        crash-recovery path); the respawned worker replays its own logs and
        the router re-registers its views and refreshes the address.
        """
        if not self._workers or self._loop is None:
            raise ShardError("the cluster is not running")
        worker = self._workers[index]
        if kill:
            worker.process.terminate()
        else:
            try:
                worker.conn.send("stop")
            except (BrokenPipeError, OSError):  # pragma: no cover - already dead
                pass
        worker.process.join(timeout=10)
        if worker.process.is_alive():  # pragma: no cover - stuck worker
            worker.process.terminate()
            worker.process.join(timeout=10)
        worker.conn.close()
        self._spawn(index)
        address = self._workers[index].address
        future = asyncio.run_coroutine_threadsafe(
            self.router.replace_shard(index, address), self._loop
        )
        future.result(timeout=30)
        return address

    def client(self, namespace: str = "default", **kwargs: Any):
        """A :class:`NetClient` speaking to the cluster's front door."""
        from repro.serve.net.client import NetClient

        if self.address is None:
            raise ShardError("the cluster is not running")
        return NetClient(*self.address, namespace=namespace, **kwargs)

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and self.router is not None:
            router = self.router

            async def _halt() -> None:
                await router.stop()
                loop.stop()

            try:
                asyncio.run_coroutine_threadsafe(_halt(), loop)
                thread.join(timeout=10)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        self._loop = self._thread = None
        for worker in self._workers:
            try:
                worker.conn.send("stop")
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=10)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=5)
            worker.conn.close()
        self._workers = []
        if self._own_wal_root and self._wal_root is not None:
            shutil.rmtree(self._wal_root, ignore_errors=True)
            self._wal_root = None

    def __enter__(self) -> "ShardCluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
