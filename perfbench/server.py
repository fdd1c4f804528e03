"""Run the system under test in its own process.

    python3 perfbench/server.py '<json config>'

Config keys: ``kind`` (``"net"`` for one ``NetServer``, ``"cluster"`` for a
``ShardCluster`` whose router runs in this process), ``wal_dir``, ``fsync``,
``shards`` and ``trace`` (a path prefix, or null).  With ``trace`` set the
timing wrappers of :mod:`tracing` are installed before any server object
exists, and every server process writes its spans to ``<trace>.<pid>`` when
it shuts down.

Once serving, the process prints one JSON line ``{"address": [host, port],
"pids": [...]}`` naming every server process, then serves until a line
arrives on stdin or stdin closes.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _announce(address, pids: list[int]) -> None:
    print(json.dumps({"address": list(address), "pids": pids}), flush=True)


def _serve_net(config: dict) -> None:
    from catalog import bench_catalog
    from repro.serve.net.app import NetServer

    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    server = NetServer(
        catalog=bench_catalog(), wal_dir=config.get("wal_dir"), fsync=config.get("fsync", False)
    )
    address = loop.run_until_complete(server.start("127.0.0.1", 0))
    _announce(address, [os.getpid()])

    def watch() -> None:
        sys.stdin.readline()
        loop.call_soon_threadsafe(loop.stop)

    threading.Thread(target=watch, daemon=True, name="stop-watch").start()
    try:
        loop.run_forever()
        loop.run_until_complete(server.stop())
    finally:
        loop.close()


def _serve_cluster(config: dict) -> None:
    from repro.serve.net.shard import ShardCluster

    cluster = ShardCluster(
        shards=config["shards"],
        wal_root=config["wal_dir"],
        catalog_ref="catalog:bench_catalog",
        fsync=config.get("fsync", False),
        start_method="fork",
    )
    address = cluster.start()
    try:
        _announce(address, [os.getpid()] + [worker.process.pid for worker in cluster._workers])
        sys.stdin.readline()
    finally:
        cluster.stop()


def main() -> int:
    config = json.loads(sys.argv[1])
    recorder = None
    if config.get("trace"):
        import tracing

        recorder = tracing.install()
        if config["kind"] == "cluster":
            # shard workers are forked from this process: each dumps its own
            # spans once its server has stopped
            from repro.serve.net.app import NetServer

            launcher = os.getpid()
            stop = NetServer.stop

            async def stop_and_dump(self):
                await stop(self)
                if os.getpid() != launcher:
                    recorder.dump(f"{config['trace']}.{os.getpid()}")

            NetServer.stop = stop_and_dump

    if config["kind"] == "cluster":
        _serve_cluster(config)
    else:
        _serve_net(config)
    if recorder is not None:
        recorder.dump(f"{config['trace']}.{os.getpid()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
