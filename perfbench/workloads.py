"""The traffic mixes: seeded inputs, closed-loop clients and the oracle.

Every workload generates its instances, deltas and op order from the seed;
the server only receives those generated inputs over the wire.  Clients
run closed loops -- each one sends its next request only after the
previous one completed -- over blocking :class:`NetClient`s with one
keep-alive connection each, plus at most one WebSocket subscriber, so the
load generator never holds more than two threads or two connections.
"""

from __future__ import annotations

import http.client
import json
import queue
import random
import threading
import time
from collections import defaultdict, deque
from urllib.parse import urlencode

from catalog import bench_catalog, tau1_output_dtd
from harness import OpLog, digest
from repro.relational.delta import Delta
from repro.relational.instance import Instance
from repro.relational.wire import instance_from_wire, instance_to_wire
from repro.serve.net.client import NetClient
from repro.serve.net.shard import shard_for
from repro.serve.server import ViewServer
from repro.workloads.blowup import chain_of_diamonds_instance
from repro.workloads.registrar import REGISTRAR_SCHEMA, generate_registrar_instance
from repro.xmltree.diff import EditScript, tree_from_wire

#: Client-side timeout of every request; a timeout is a failed op.
TIMEOUT = 30.0
CLIENT_ERRORS = (OSError, http.client.HTTPException, ValueError, KeyError)


def view_registration(view: str) -> tuple[str, dict]:
    """(catalog key, register_view options) of a view a workload may use.

    ``tau1v`` is tau1 checked against its output DTD by the streaming
    validator on every publish (``typecheck="runtime"``).
    """
    if view == "tau1v":
        return "tau1", {"output_dtd": tau1_output_dtd(), "typecheck": "runtime"}
    return view, {}


def publish_path(doc: tuple) -> str:
    ns, view, source, output, indent = doc
    query = urlencode(
        {"source": source, "output": output, "indent": "none" if indent is None else indent}
    )
    return f"/v1/ns/{ns}/views/{view}/publish?{query}"


class SourceFeed:
    """Single-tuple changes for one source whose values never repeat.

    Each delta inserts a fresh tuple and, once ``lag`` inserts have been
    acknowledged, deletes the oldest of them -- so the source size stays
    flat and no version's value recurs.
    """

    def __init__(self, relation: str, tag: str, lag: int = 16) -> None:
        self.relation = relation
        self.tag = tag
        self.lag = lag
        self.counter = 0
        self.live: deque = deque()

    def fresh(self, index: int) -> tuple:
        if self.relation == "course":
            return (f"{self.tag}{index:05d}", f"Fresh {index}", "CS")
        return (f"{self.tag}u{index}", f"{self.tag}v{index}")

    def next_delta(self) -> tuple[Delta, tuple]:
        index = self.counter
        self.counter += 1
        old = self.live.popleft() if len(self.live) >= self.lag else None
        row = self.fresh(index)
        deleted = {self.relation: [old]} if old is not None else None
        return Delta({self.relation: [row]}, deleted), row

    def acked(self, row: tuple) -> None:
        self.live.append(row)


class Client:
    """One closed-loop client: a NetClient (one connection) and its op log."""

    def __init__(self, address: tuple) -> None:
        self.net = NetClient(*address, timeout=TIMEOUT)
        self.log = OpLog()
        self.etags: dict[tuple, tuple[str, int]] = {}

    def publish(self, doc: tuple, revalidate: bool = False) -> int | None:
        """One publish; returns the served version, or None on failure."""
        remembered = self.etags.get(doc) if revalidate else None
        headers = {"If-None-Match": remembered[0]} if remembered else None
        self.log.attempted += 1
        start = time.perf_counter()
        try:
            status, head, body = self.net.request("GET", publish_path(doc), headers=headers)
            elapsed = time.perf_counter() - start
            version = int(head["x-source-version"])
        except CLIENT_ERRORS as error:
            self.log.fail("publish", f"publish {doc}: {error!r}")
            return None
        if status == 200:
            etag = head.get("etag")
            self.log.serve(doc, version, body, etag)
            self.log.body_bytes += len(body)
            self.etags[doc] = (etag, version)
        elif not (
            status == 304
            and remembered is not None
            and head.get("etag") == remembered[0]
            and version == remembered[1]
        ):
            self.log.fail("publish", f"publish {doc}: HTTP {status} {body[:200]!r}")
            return None
        self.log.record("publish", elapsed)
        return version

    def commit(self, ns: str, source: str, feed: SourceFeed) -> tuple[int, float] | None:
        """One commit; returns (acknowledged version, send time) or None."""
        delta, row = feed.next_delta()
        self.log.attempted += 1
        start = time.perf_counter()
        try:
            status, _, body = self.net.request(
                "POST", f"/v1/ns/{ns}/sources/{source}/commit", body=delta.to_wire()
            )
            elapsed = time.perf_counter() - start
            version = json.loads(body)["version"] if status == 200 else None
        except CLIENT_ERRORS as error:
            self.log.fail("commit", f"commit {ns}/{source}: {error!r}")
            return None
        if version is None:
            self.log.fail("commit", f"commit {ns}/{source}: HTTP {status} {body[:200]!r}")
            return None
        acked = self.log.acked.setdefault((ns, source), {})
        if version in acked:
            self.log.fail(None, f"{ns}/{source}: version {version} acknowledged twice")
        acked[version] = delta
        self.log.record("commit", elapsed)
        feed.acked(row)
        return version, start

    def prune(self, ns: str, source: str, keep_last: int) -> None:
        try:
            status, _, body = self.net.request(
                "POST", f"/v1/ns/{ns}/sources/{source}/prune", body={"keep_last": keep_last}
            )
        except CLIENT_ERRORS as error:
            self.log.fail(None, f"prune {ns}/{source}: {error!r}")
            return
        if status != 200:
            self.log.fail(None, f"prune {ns}/{source}: HTTP {status} {body[:200]!r}")

    def close(self) -> None:
        self.net.close()


class Workload:
    """A traffic mix: namespaces (views + sources), documents and a load loop."""

    name = ""
    why = ""
    kind = "net"
    fsync = False
    clients = 1
    subscribers = 0
    #: percentile reported as each latency's ``*_tail_ms`` (fixed per workload)
    tails = {"publish": 99, "commit": 90, "edit_delivery": 99}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        #: ns -> {"views": [view names], "sources": {name: (wire, encoded)}}
        self.spec: dict[str, dict] = {}
        self.docs: list[tuple] = []
        self.feeds: dict[tuple, SourceFeed] = {}
        #: client-side check failures found before the oracle runs
        self.errors: list[str] = []

    # -- inputs ----------------------------------------------------------------

    def add_source(self, ns: str, name: str, instance, encoded: bool, relation: str) -> None:
        self.spec[ns]["sources"][name] = (instance_to_wire(instance), encoded)
        self.feeds[(ns, name)] = SourceFeed(relation, f"n{len(self.feeds)}_")

    def server_config(self, wal_dir, trace) -> dict:
        return {
            "kind": self.kind,
            "wal_dir": str(wal_dir) if wal_dir is not None else None,
            "fsync": self.fsync,
            "shards": 2,
            "trace": str(trace) if trace is not None else None,
        }

    def uses_wal(self) -> bool:
        return self.kind == "cluster" or self.fsync

    # -- phases ----------------------------------------------------------------

    def setup(self, address: tuple, log: OpLog) -> None:
        """Register views, attach sources, publish every document once."""
        client = Client(address)
        try:
            for ns, spec in self.spec.items():
                client.net.namespace = ns
                for view in spec["views"]:
                    key, options = view_registration(view)
                    client.net.register_view(view, key, **options)
                for name, (wire, encoded) in spec["sources"].items():
                    body = {"instance": wire, "encoded": encoded, "name": name}
                    if self.fsync:
                        body["durable"] = True
                    status, _, data = client.net.request("POST", f"/v1/ns/{ns}/sources", body=body)
                    if status != 201:
                        client.log.fail(None, f"attach {ns}/{name}: HTTP {status} {data[:200]!r}")
            for doc in self.docs:
                client.publish(doc)
        finally:
            client.close()
        # set-up publishes are checked by the oracle but are not timed ops
        client.log.latency = {kind: [] for kind in client.log.latency}
        client.log.ends = {kind: [] for kind in client.log.ends}
        client.log.attempted = 0
        log.merge(client.log)

    def drive(self, address: tuple, seconds: float, tick) -> tuple[OpLog, float]:
        """Run the closed loop for ``seconds``; returns the merged log and
        the measured window length.  The main thread calls ``tick()``
        after each of its ops (the runner samples server CPU there)."""
        raise NotImplementedError

    def after(self, server, launch) -> dict:
        """Post-window checks that need the live server (default: none)."""
        return {}

    def teardown(self) -> None:
        """Release client-side state a discarded setup left open."""

    def replayed_trees(self) -> dict:
        """(ns, view, source) -> {version: tree rebuilt from pushed edits}."""
        return {}

    # -- the oracle ------------------------------------------------------------

    def check(self, log: OpLog, extra_trees=None) -> list[str]:
        """Recompute every served (document, version) in-process.

        One ViewServer per namespace is built from the same inputs, the
        acknowledged deltas are committed in version order, and each served
        digest is compared with the oracle's bytes.  ``extra_trees`` maps
        (ns, view, source) to {version: replayed tree} for edit-script checks.
        """
        failures = list(self.errors)
        catalog = bench_catalog()
        servers: dict[str, ViewServer] = {}
        for ns, spec in self.spec.items():
            vs = servers[ns] = ViewServer()
            for view in spec["views"]:
                key, options = view_registration(view)
                vs.register_view(view, catalog[key], **options)
            for name, (wire, encoded) in spec["sources"].items():
                vs.attach(instance_from_wire(wire), name=name, encoded=encoded)
        needed: dict[tuple, dict[int, list]] = defaultdict(lambda: defaultdict(list))
        for (doc, version), seen in log.served.items():
            needed[(doc[0], doc[2])][version].append((doc, seen))
        trees = extra_trees or {}
        for (ns, view, source), by_version in trees.items():
            for version in by_version:
                needed[(ns, source)].setdefault(version, [])
        for (ns, source), by_version in needed.items():
            vs = servers[ns]
            handle = vs.source(source)
            acked = log.acked.get((ns, source), {})
            subscriptions = {
                view: vs.subscribe(view, handle)
                for (tree_ns, view, tree_source) in trees
                if (tree_ns, tree_source) == (ns, source)
            }
            for version in sorted(by_version):
                while handle.version < version:
                    delta = acked.get(handle.version + 1)
                    if delta is None:
                        break
                    handle.commit(delta)
                    for subscription in subscriptions.values():
                        subscription.drain()
                if handle.version != version:
                    failures.append(
                        f"{ns}/{source} v{version} was served but v{handle.version + 1} "
                        "was never acknowledged"
                    )
                    break
                for doc, seen in by_version[version]:
                    body = vs.publish(
                        doc[1], source=handle, output=doc[3], indent=doc[4],
                        maintenance="incremental",
                    ).encode("utf-8")
                    if digest(body) != seen:
                        failures.append(f"{doc} v{version}: bytes differ from the oracle")
                for view, subscription in subscriptions.items():
                    replayed = trees[(ns, view, source)].get(version)
                    if replayed is not None and replayed != subscription.tree:
                        failures.append(
                            f"{ns}/{view}/{source} v{version}: replayed edits differ "
                            "from the oracle tree"
                        )
        return failures


def _registrar(size: int, shape: int, rng: random.Random):
    """A registrar instance of fixed shape ``shape``, relabelled by ``rng``.

    The prerequisite graph -- which sets how much work every view does --
    depends only on ``shape``; the seed permutes course numbers and titles.
    Runs with different seeds then get different inputs of equal cost, so
    the spread across seeds measures the system, not the generator.
    """
    base = generate_registrar_instance(size, seed=shape)
    labels = list(range(size))
    rng.shuffle(labels)
    rename = {f"cs{index:04d}": f"cs{label:04d}" for index, label in enumerate(labels)}
    courses = [
        (rename[cno], f"Course {rng.randrange(10**6):06d}", dept)
        for cno, _, dept in sorted(base.tuples("course"))
    ]
    prereqs = [(rename[a], rename[b]) for a, b in base.tuples("prereq")]
    return Instance(REGISTRAR_SCHEMA, {"course": courses, "prereq": prereqs})


# ---------------------------------------------------------------------------
# read_hot / routed_read
# ---------------------------------------------------------------------------


class ReadHot(Workload):
    name = "read_hot"
    why = (
        "read-mostly Zipf publishes over 192 documents, 1.5x the response cache, 2%"
        " commits: net tier, ETag/304 path, response cache and memoised documents "
        "set the median"
    )
    clients = 2
    tails = {"publish": 99, "commit": 90, "edit_delivery": 99}
    NAMESPACES = 16
    COURSES = 150
    FORMS = (("bytes", 2), ("bytes", None), ("compact", None))
    #: client 0 commits on every 25th of its ops: ~2% of all ops, on a
    #: fixed schedule so every run commits equally often
    COMMIT_EVERY = 25
    REVALIDATE_FRACTION = 0.3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        kinds = [
            (view, source, output, indent)
            for source in ("row", "col")
            for view in ("tau1", "tau3")
            for output, indent in self.FORMS
        ]
        namespaces = _balanced_namespaces(self.NAMESPACES)
        for index, ns in enumerate(namespaces):
            self.spec[ns] = {"views": ["tau1", "tau3"], "sources": {}}
            for offset, (source, encoded) in enumerate((("row", False), ("col", True))):
                instance = _registrar(self.COURSES, 2 * index + offset, self.rng)
                self.add_source(ns, source, instance, encoded, "course")
        # Popularity rank r is kind r % 12 of namespace r // 12: every seed
        # sees the same mix of views, backends and forms at each rank.
        for rank in range(len(namespaces) * len(kinds)):
            view, source, output, indent = kinds[rank % len(kinds)]
            self.docs.append((namespaces[rank // len(kinds)], view, source, output, indent))
        total, self.cum_weights = 0.0, []
        for rank in range(len(self.docs)):
            total += 1.0 / (rank + 1)
            self.cum_weights.append(total)

    def drive(self, address, seconds, tick):
        start = time.perf_counter()
        deadline = start + seconds
        clients = [Client(address) for _ in range(self.clients)]

        def loop(index: int) -> None:
            client = clients[index]
            rng = random.Random(self.seed * 1009 + index)
            op = 0
            while time.perf_counter() < deadline:
                op += 1
                doc = rng.choices(self.docs, cum_weights=self.cum_weights)[0]
                if index == 0 and op % self.COMMIT_EVERY == 0:
                    ns, _, source, _, _ = doc
                    if client.commit(ns, source, self.feeds[(ns, source)]) is not None:
                        # the writer reads its write back, so the cold
                        # re-evaluation never stalls the other client's commits
                        for view in ("tau1", "tau3"):
                            client.publish((ns, view, source, "bytes", 2))
                else:
                    client.publish(doc, revalidate=rng.random() < self.REVALIDATE_FRACTION)
                if index == 0:
                    tick()

        # client 0 runs on the main thread: two clients, two threads
        threads = [
            threading.Thread(target=loop, args=(index,), name=f"client-{index}")
            for index in range(1, self.clients)
        ]
        for thread in threads:
            thread.start()
        loop(0)
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        log = OpLog()
        for client in clients:
            client.close()
            log.merge(client.log)
        return log, elapsed


class RoutedRead(ReadHot):
    name = "routed_read"
    why = (
        "read_hot's mix and seed served through a 2-shard ShardCluster: adds the "
        "router hop (request re-render, upstream keep-alive, response copy)"
    )
    kind = "cluster"


def _balanced_namespaces(count: int) -> list[str]:
    """Tenant names split evenly across 2 shards by the crc32 routing."""
    by_shard: dict[int, list[str]] = {0: [], 1: []}
    index = 0
    while min(len(names) for names in by_shard.values()) < count // 2:
        name = f"tenant{index:03d}"
        by_shard[shard_for(name, 2)].append(name)
        index += 1
    return [ns for pair in zip(by_shard[0], by_shard[1]) for ns in pair][:count]


# ---------------------------------------------------------------------------
# eval_cold
# ---------------------------------------------------------------------------


class EvalCold(Workload):
    name = "eval_cold"
    why = (
        "commit then publish every view at the new version: each publish is a cold "
        "CQ, FO, closure or blow-up evaluation, one with runtime DTD validation; "
        "query, engine and emit dominate"
    )
    #: ~250 publishes per run: p95 keeps >= 10 samples beyond it and sits
    #: inside the slowest view's cluster (p90 falls between two clusters)
    tails = {"publish": 95, "commit": 90, "edit_delivery": 90}
    NS = "cold"
    BIG, SMALL, DIAMONDS = 300, 50, 13
    PRUNE_EVERY = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        ns = self.NS
        self.spec[ns] = {"views": ["tau1", "tau3", "tau1v", "tau2", "diamonds"], "sources": {}}
        self.rounds = {}
        for backend, encoded in (("row", False), ("col", True)):
            self.add_source(
                ns, f"big_{backend}", _registrar(self.BIG, 1, self.rng), encoded, "course"
            )
            self.add_source(
                ns, f"small_{backend}", _registrar(self.SMALL, 2, self.rng), encoded, "course"
            )
            self.add_source(
                ns, f"graph_{backend}", chain_of_diamonds_instance(self.DIAMONDS), encoded, "R"
            )
            self.rounds[backend] = [
                (f"big_{backend}", [(v, "bytes", 2) for v in ("tau1", "tau3", "tau1v")]),
                (f"small_{backend}", [("tau2", "bytes", 2)]),
                (f"graph_{backend}", [("diamonds", "compact", None)]),
            ]
            for source, views in self.rounds[backend]:
                for view, output, indent in views:
                    self.docs.append((ns, view, source, output, indent))

    def drive(self, address, seconds, tick):
        client = Client(address)
        start = time.perf_counter()
        deadline = start + seconds
        round_index = 0
        while time.perf_counter() < deadline:
            backend = ("row", "col")[round_index % 2]
            for source, views in self.rounds[backend]:
                if client.commit(self.NS, source, self.feeds[(self.NS, source)]) is None:
                    continue
                for view, output, indent in views:
                    client.publish((self.NS, view, source, output, indent))
                    tick()
            round_index += 1
            if round_index % self.PRUNE_EVERY == 0:
                for source in self.spec[self.NS]["sources"]:
                    client.prune(self.NS, source, keep_last=2)
        elapsed = time.perf_counter() - start
        client.close()
        return client.log, elapsed


# ---------------------------------------------------------------------------
# write_stream
# ---------------------------------------------------------------------------


class WriteFeed(SourceFeed):
    """Single-tuple course/prereq inserts and deletes for write_stream."""

    def __init__(self, targets: list[str], rng: random.Random) -> None:
        super().__init__("course", "w")
        self.targets = targets
        self.rng = rng
        self.courses: deque = deque()

    def next_delta(self) -> tuple[Delta, tuple]:
        index = self.counter
        self.counter += 1
        if len(self.live) >= self.lag and index % 2:
            relation, row = self.live.popleft()
            return Delta(deleted={relation: [row]}), None
        if index % 4 == 0 or not self.courses:
            row = ("course", (f"w{index:06d}", f"Stream {index}", "CS"))
        else:
            row = ("prereq", (self.rng.choice(self.targets), self.rng.choice(self.courses)))
        return Delta({row[0]: [row[1]]}), row

    def acked(self, row) -> None:
        if row is None:
            return
        self.live.append(row)
        if row[0] == "course":
            self.courses.append(row[1][0])
            if len(self.courses) > self.lag:
                self.courses.popleft()


class WriteStream(Workload):
    name = "write_stream"
    why = (
        "fsync'd single-tuple commits with a live WS subscriber, periodic publish, "
        "prune and checkpoints: WAL, delta apply, incremental republish and edit "
        "encoding"
    )
    fsync = True
    subscribers = 1
    #: 700-1300 commits per run: p99 would keep fewer than 10 samples beyond it
    tails = {"publish": 90, "commit": 90, "edit_delivery": 90}
    NS, SOURCE, VIEW = "ingest", "db", "tau1"
    COURSES = 300
    PUBLISH_EVERY = 4
    PRUNE_EVERY = 64

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.spec[self.NS] = {"views": [self.VIEW], "sources": {}}
        instance = _registrar(self.COURSES, 1, self.rng)
        self.spec[self.NS]["sources"][self.SOURCE] = (instance_to_wire(instance), False)
        targets = sorted(row[0] for row in instance.tuples("course") if row[2] == "CS")
        self.feed = self.feeds[(self.NS, self.SOURCE)] = WriteFeed(targets, self.rng)
        self.doc = (self.NS, self.VIEW, self.SOURCE, "bytes", 2)
        self.docs.append(self.doc)
        self.subscription = None
        self.init = None
        self.frames: list[dict] = []
        self.last_acked = 0

    def setup(self, address, log):
        super().setup(address, log)
        self.subscription = NetClient(*address, namespace=self.NS, timeout=TIMEOUT).subscribe(
            self.VIEW, source=self.SOURCE
        )
        self.init = self.subscription.recv()

    def teardown(self) -> None:
        if self.subscription is not None:
            self.subscription.close()
            self.subscription = None

    def drive(self, address, seconds, tick):
        client = Client(address)
        arrivals: queue.Queue = queue.Queue()
        subscription = self.subscription

        def receive() -> None:
            while True:
                try:
                    message = subscription.recv()
                except (OSError, ValueError):
                    arrivals.put(None)
                    return
                arrivals.put((time.perf_counter(), message))

        reader = threading.Thread(target=receive, name="ws-subscriber")
        reader.start()
        start = time.perf_counter()
        deadline = start + seconds
        round_index = 0
        expected = self.init["version"] + 1
        while time.perf_counter() < deadline:
            acked = client.commit(self.NS, self.SOURCE, self.feed)
            if acked is None:
                continue
            version, sent = acked
            self.last_acked = version
            while expected <= version:
                try:
                    arrival = arrivals.get(timeout=TIMEOUT)
                except queue.Empty:
                    arrival = None
                if arrival is None:
                    client.log.fail("edit_delivery", f"edit for v{expected} never arrived")
                    expected = version + 1
                    break
                received, message = arrival
                if message.get("type") != "edits" or message.get("version") != expected:
                    client.log.fail(
                        "edit_delivery",
                        f"expected edits for v{expected}, got {message.get('version')}",
                    )
                else:
                    self.frames.append(message)
                    if expected == version:
                        client.log.record("edit_delivery", received - sent)
                expected += 1
            round_index += 1
            if round_index % self.PUBLISH_EVERY == 0:
                client.publish(self.doc)
            tick()
            if round_index % self.PRUNE_EVERY == 0:
                client.prune(self.NS, self.SOURCE, keep_last=4)
        elapsed = time.perf_counter() - start
        self.teardown()
        reader.join(TIMEOUT)
        client.close()
        return client.log, elapsed

    def replayed_trees(self) -> dict:
        """The subscriber's document at sampled versions, rebuilt from edits."""
        tree = tree_from_wire(self.init["document"])
        sampled = {}
        for position, message in enumerate(self.frames):
            try:
                tree = EditScript.from_wire(message["edits"]).apply(tree)
            except (ValueError, IndexError, KeyError, TypeError) as error:
                self.errors.append(f"edits for v{message['version']} do not apply: {error}")
                break
            if position % 16 == 15 or position == len(self.frames) - 1:
                sampled[message["version"]] = tree
        return {(self.NS, self.VIEW, self.SOURCE): sampled}

    def after(self, server, launch) -> dict:
        """SIGKILL the server, restart it on the same WAL, time the recovery.

        The recovered head must be the last acknowledged version; its bytes
        join the log, so the oracle checks them like any other publish.
        """
        server.kill()
        start = time.perf_counter()
        recovered = launch()
        client = Client(recovered.address)
        try:
            client.net.namespace = self.NS
            client.net.register_view(self.VIEW)
            version = client.publish(self.doc)
            recovery = time.perf_counter() - start
            info = client.net.source(self.SOURCE)
        finally:
            client.close()
            recovered.stop()
        failures = []
        if version != self.last_acked:
            failures.append(f"recovered v{version}, last acknowledged v{self.last_acked}")
        if self.last_acked not in info.get("retained", []):
            failures.append(f"acknowledged v{self.last_acked} missing after recovery")
        return {"recovery_s": recovery, "failures": failures, "log": client.log}


WORKLOADS = {cls.name: cls for cls in (ReadHot, EvalCold, WriteStream, RoutedRead)}
