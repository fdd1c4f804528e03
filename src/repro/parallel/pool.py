"""A process worker pool for the publishing stack (stdlib only).

The paper's transducers are confluent: every ``(state, tag, register)``
expansion is a pure function of its own triple over an immutable MVCC
snapshot.  That makes two levels of the stack embarrassingly parallel --
independent ``publish()`` calls of a
:class:`~repro.serve.server.ViewServer`, and per-``(view, source, binding)``
subscriber groups of the network tier -- provided the compiled artefacts
can cross a process boundary.  They can: plans pickle without their caches
(:meth:`PublishingPlan.__getstate__`), instances and
:class:`~repro.relational.columnar.DictionaryEncoder` decode tables are
plain data, and encoded registers are int-only.

Design:

* **explicit workers, explicit shipping.**  Each worker is one forked (or
  spawned) process holding a *registry* of installed objects.  The parent
  pickles a plan or instance **once** (:meth:`WorkerPool.install`) and
  ships the payload lazily to each worker the first time a task routed
  there needs it -- "shipped once per worker", never once per task.
* **sharded dispatch.**  :meth:`WorkerPool.submit` takes an optional
  ``key``; equal keys always land on the same worker (`crc32` of the key's
  ``repr``), which gives subscriber groups a stable owner and publish
  storms cache affinity (same view -> same worker-side memo).  Keyless
  tasks round-robin over live workers.
* **graceful degradation.**  A dead worker fails its in-flight futures
  with :class:`WorkerCrashed`; later submits re-route to surviving
  workers (re-shipping whatever the task needs).  When nothing survives,
  :class:`PoolBroken` is raised and callers fall back to the serial path
  -- the contract every call site of ``repro.parallel`` honours.
* **merged observability.**  Every task reply piggybacks the delta of the
  worker's plan cache counters since its previous reply; the pool sums
  them (:meth:`WorkerPool.stats`), so ``ViewServer.stats()`` reports the
  whole fleet's cache behaviour, not just the parent process.
"""

from __future__ import annotations

import itertools
import os
import pickle
import threading
import traceback
from concurrent.futures import Future
from zlib import crc32


class NotShippable(RuntimeError):
    """The object cannot be pickled across the process boundary.

    Raised by :meth:`WorkerPool.install`; call sites catch it and run the
    task serially in the parent.
    """


class PoolBroken(RuntimeError):
    """No live worker is left to take tasks."""


class WorkerCrashed(RuntimeError):
    """The worker owning this task died before replying."""


class WorkerTaskError(RuntimeError):
    """The task raised in the worker; carries the worker-side traceback."""

    def __init__(self, message: str, worker_traceback: str) -> None:
        super().__init__(message)
        self.worker_traceback = worker_traceback


class _InstallFailed:
    """Registry marker: the payload for this token failed to unpickle."""

    __slots__ = ("reason",)

    def __init__(self, reason: str) -> None:
        self.reason = reason


def _registry_get(registry: dict, token: int):
    found = registry.get(token)
    if found is None:
        raise KeyError(f"token {token} was never installed in this worker")
    if isinstance(found, _InstallFailed):
        raise RuntimeError(f"install of token {token} failed: {found.reason}")
    return found


def _cache_stats_delta(registry: dict, last: dict) -> dict:
    """The per-plan cache-counter movement since the previous task reply."""
    delta: dict[str, int] = {}
    for token, obj in registry.items():
        stats = getattr(obj, "cache_stats", None)
        if stats is None or not hasattr(stats, "as_dict"):
            continue
        current = stats.as_dict()
        previous = last.get(token, {})
        for field, value in current.items():
            if isinstance(value, float):
                continue  # derived ratios: summing them is meaningless
            moved = value - previous.get(field, 0)
            if moved:
                delta[field] = delta.get(field, 0) + moved
        last[token] = current
    return delta


def _worker_main(conn) -> None:
    """The worker loop: installs objects, runs named task handlers.

    Handlers live in :mod:`repro.parallel.tasks` (imported here so a
    ``spawn``-started worker resolves them by module path, never by
    pickling code objects).  Replies are ``("ok", task_id, result,
    stats_delta)`` or ``("err", task_id, message, traceback)``.
    """
    from repro.parallel.tasks import HANDLERS

    registry: dict = {}
    last_stats: dict = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "exit":
            break
        if kind == "install":
            _, token, payload = message
            try:
                registry[token] = pickle.loads(payload)
            except Exception as exc:  # noqa: BLE001 - reported to the parent
                registry[token] = _InstallFailed(repr(exc))
            continue
        _, task_id, name, args, kwargs = message
        try:
            handler = HANDLERS[name]
            result = handler(registry, *args, **kwargs)
            reply = ("ok", task_id, result, _cache_stats_delta(registry, last_stats))
        except Exception as exc:  # noqa: BLE001 - shipped back as the outcome
            # Ship the exception object itself when it pickles, so the
            # parent re-raises the real type (node-budget errors must look
            # identical to a serial publish); fall back to its repr.
            try:
                pickle.dumps(exc)
                reply = ("err", task_id, exc, traceback.format_exc())
            except Exception:
                reply = ("err", task_id, repr(exc), traceback.format_exc())
        try:
            conn.send(reply)
        except Exception as exc:  # result not picklable: still answer
            try:
                conn.send(("err", task_id, f"reply not shippable: {exc!r}", ""))
            except Exception:
                break
    try:
        conn.close()
    except OSError:
        pass


class _Worker:
    """Parent-side record of one worker process."""

    __slots__ = ("index", "process", "conn", "send_lock", "installed", "alive", "tasks")

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.installed: set[int] = set()
        self.alive = True
        self.tasks = 0


class WorkerPool:
    """A pool of worker processes with sticky sharding and lazy shipping.

    ``workers`` defaults to the process's effective CPU count.  The pool
    starts lazily on first use; ``close()`` (or use as a context manager)
    shuts the fleet down.  All public methods are thread-safe: the serving
    layer calls into one pool from many request threads.
    """

    def __init__(self, workers: int | None = None, start_method: str | None = None):
        if workers is None:
            try:
                workers = len(os.sched_getaffinity(0))
            except (AttributeError, OSError):
                workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._size = workers
        self._start_method = start_method
        self._workers: list[_Worker] = []
        self._started = False
        self._closed = False
        self._lock = threading.Lock()
        self._pending: dict[int, tuple[Future, _Worker]] = {}
        self._task_ids = itertools.count(1)
        self._token_ids = itertools.count(1)
        self._round_robin = itertools.count()
        # token -> (object, payload).  The object reference keeps id()s
        # stable for the identity-keyed lookup below.
        self._installed: dict[int, tuple[object, bytes]] = {}
        self._tokens_by_id: dict[int, int] = {}
        self._counters = {
            "tasks_dispatched": 0,
            "installs_shipped": 0,
            "failures": 0,
        }
        self._worker_cache: dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------------

    @property
    def size(self) -> int:
        """How many workers the pool runs."""
        return self._size

    def _start(self) -> None:
        import multiprocessing as mp

        method = self._start_method
        if method is None:
            method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        context = mp.get_context(method)
        for index in range(self._size):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main, args=(child_conn,), daemon=True
            )
            process.start()
            child_conn.close()
            worker = _Worker(index, process, parent_conn)
            self._workers.append(worker)
            reader = threading.Thread(
                target=self._read_replies, args=(worker,), daemon=True
            )
            reader.start()
        self._started = True

    def close(self) -> None:
        """Shut every worker down and fail whatever is still pending."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
        for worker in workers:
            if worker.alive:
                try:
                    with worker.send_lock:
                        worker.conn.send(("exit",))
                except (OSError, ValueError):
                    pass
        for worker in workers:
            worker.process.join(timeout=5)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5)
            self._mark_dead(worker)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- shipping ------------------------------------------------------------

    def install(self, obj) -> int:
        """Register ``obj`` for worker use; returns its token.

        The object is pickled once, here -- a failure raises
        :class:`NotShippable` *before* any worker is involved, which is the
        serial-fallback signal.  The payload ships to each worker lazily on
        first use.  Idempotent per object (identity-keyed), and the pool
        keeps the object alive so the identity key stays valid.
        """
        with self._lock:
            token = self._tokens_by_id.get(id(obj))
            if token is not None and self._installed[token][0] is obj:
                return token
        try:
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise NotShippable(f"cannot ship {type(obj).__name__}: {exc!r}") from exc
        with self._lock:
            token = self._tokens_by_id.get(id(obj))
            if token is not None and self._installed[token][0] is obj:
                return token
            token = next(self._token_ids)
            self._installed[token] = (obj, payload)
            self._tokens_by_id[id(obj)] = token
        return token

    def _ship(self, worker: _Worker, tokens) -> None:
        """Send any not-yet-shipped payloads to ``worker`` (FIFO-ordered
        ahead of the task that needs them, so no acknowledgement round
        trip is required)."""
        for token in tokens:
            if token in worker.installed:
                continue
            with self._lock:
                entry = self._installed.get(token)
            if entry is None:
                raise KeyError(f"unknown install token {token}")
            try:
                with worker.send_lock:
                    worker.conn.send(("install", token, entry[1]))
            except (OSError, ValueError) as exc:
                # The reader thread marks a dead worker asynchronously, so a
                # crash can surface here first, as a broken pipe.
                self._mark_dead(worker)
                raise WorkerCrashed(
                    f"worker {worker.index} is gone: {exc!r}"
                ) from exc
            worker.installed.add(token)
            with self._lock:
                self._counters["installs_shipped"] += 1

    # -- dispatch ------------------------------------------------------------

    def submit(self, name: str, *args, key=None, tokens=(), **kwargs) -> Future:
        """Run handler ``name`` (see :mod:`repro.parallel.tasks`) remotely.

        ``tokens`` lists the installed objects the task dereferences; they
        are shipped to the chosen worker first if it has never seen them.
        ``key`` pins the task to a shard (stable across calls); without it
        the task round-robins.  Returns a standard
        :class:`concurrent.futures.Future`.
        """
        if self._closed:
            raise PoolBroken("the pool is closed")
        with self._lock:
            if not self._started:
                self._start()
        worker = self._worker_for(key)
        self._ship(worker, tokens)
        task_id = next(self._task_ids)
        future: Future = Future()
        with self._lock:
            self._pending[task_id] = (future, worker)
            self._counters["tasks_dispatched"] += 1
        worker.tasks += 1
        try:
            with worker.send_lock:
                worker.conn.send(("task", task_id, name, args, kwargs))
        except (OSError, ValueError) as exc:
            with self._lock:
                self._pending.pop(task_id, None)
            self._mark_dead(worker)
            raise WorkerCrashed(f"worker {worker.index} is gone: {exc!r}") from exc
        return future

    def _worker_for(self, key) -> _Worker:
        live = [worker for worker in self._workers if worker.alive]
        if not live:
            raise PoolBroken("every worker has died")
        if key is None:
            return live[next(self._round_robin) % len(live)]
        shard = crc32(repr(key).encode("utf-8", "backslashreplace"))
        # Shard over the *configured* size so the mapping is stable while
        # all workers live; fall through to the live list after a crash.
        preferred = self._workers[shard % self._size]
        if preferred.alive:
            return preferred
        return live[shard % len(live)]

    # -- replies -------------------------------------------------------------

    def _read_replies(self, worker: _Worker) -> None:
        while True:
            try:
                reply = worker.conn.recv()
            except (EOFError, OSError):
                break
            kind, task_id, payload, extra = reply
            with self._lock:
                entry = self._pending.pop(task_id, None)
                if kind == "ok" and isinstance(extra, dict):
                    for field, moved in extra.items():
                        self._worker_cache[field] = (
                            self._worker_cache.get(field, 0) + moved
                        )
                if kind == "err":
                    self._counters["failures"] += 1
            if entry is None:
                continue
            future = entry[0]
            if kind == "ok":
                future.set_result(payload)
            elif isinstance(payload, BaseException):
                future.set_exception(payload)
            else:
                future.set_exception(WorkerTaskError(payload, extra))
        self._mark_dead(worker)

    def _mark_dead(self, worker: _Worker) -> None:
        orphaned: list[Future] = []
        with self._lock:
            first_death = worker.alive
            worker.alive = False
            worker.installed.clear()
            for task_id, (future, owner) in list(self._pending.items()):
                if owner is worker:
                    del self._pending[task_id]
                    orphaned.append(future)
            if first_death and not self._closed:
                self._counters["failures"] += 1
        for future in orphaned:
            if not future.done():
                future.set_exception(
                    WorkerCrashed(f"worker {worker.index} died mid-task")
                )

    # -- observability -------------------------------------------------------

    @property
    def broken(self) -> bool:
        """Whether no worker is left to take tasks."""
        if not self._started:
            return self._closed
        return not any(worker.alive for worker in self._workers)

    def stats(self) -> dict:
        """Aggregate pool counters plus the merged per-worker cache stats."""
        with self._lock:
            return {
                "workers": self._size,
                "alive": sum(1 for worker in self._workers if worker.alive)
                if self._started
                else self._size,
                "started": self._started,
                "tasks_per_worker": [worker.tasks for worker in self._workers],
                "worker_cache": dict(self._worker_cache),
                **self._counters,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("live" if self._started else "cold")
        return f"WorkerPool(workers={self._size}, {state})"
