"""Unified observability for the serving layer.

Before the server existed, understanding a running view meant touring three
objects: ``PublishingPlan.cache_stats`` (expansion memo and republish
invalidation counters), per-relation ``index_stats()`` (hash-index cache
behaviour, row and columnar), and per-rule ``QueryPlan`` introspection
(``last_backend``, ``delta_strategy()``, join order).  This module folds that
tour into two value objects:

* :func:`collect_stats` -> :class:`ServerStats` -- one aggregate across every
  registered view, attached source and subscription of a
  :class:`~repro.serve.server.ViewServer`;
* :func:`explain_view` -> :class:`ExplainReport` -- the per-rule story of one
  view binding, including the republish strategy line.

Both are plain frozen dataclasses with ``as_dict()`` (for JSON benchmarks)
and ``describe()`` (for humans).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Mapping

from repro.relational.domain import DataValue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.server import RegisteredView, ViewServer


def _typecheck_stats(view: "RegisteredView") -> dict | None:
    """The typecheck section of a view's stats (``None`` without a DTD)."""
    if view.output_dtd is None:
        return None
    return {
        "mode": view.typecheck_mode,
        "verdicts": {
            ", ".join(f"{name}={value!r}" for name, value in key): result.verdict.value
            for key, result in view._verdicts.items()
        },
        "validated": view.validated,
        "violations": view.violations,
    }


def _sum_index_stats(stats_dicts) -> dict[str, int]:
    total = {"cached": 0, "built": 0, "evicted": 0, "capacity": 0}
    for stats in stats_dicts:
        for key in total:
            total[key] += stats.get(key, 0)
    return total


# ---------------------------------------------------------------------------
# Server-wide aggregation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViewStats:
    """Counters of one registered view, aggregated over its bindings."""

    name: str
    language: str | None
    params: tuple[str, ...]
    bindings: int
    publishes: int
    last_backend: str | None
    cache: dict
    #: Output-typechecking state (``mode``, per-binding ``verdicts``, the
    #: ``validated`` / ``violations`` counters), or ``None`` when the view
    #: was registered without an ``output_dtd``.
    typecheck: dict | None = None


@dataclass(frozen=True)
class SourceStats:
    """Counters of one attached source handle."""

    name: str
    version: int
    commits: int
    encoded: bool
    subscriptions: int
    total_tuples: int
    row_indexes: dict
    columnar_indexes: dict


@dataclass(frozen=True)
class ServerStats:
    """The one-call aggregate over a whole :class:`ViewServer`."""

    views: tuple[ViewStats, ...]
    sources: tuple[SourceStats, ...]
    subscriptions: int
    deliveries: int
    maintained_views: int

    def as_dict(self) -> dict:
        """The whole aggregate as plain dicts (JSON-friendly)."""
        return asdict(self)

    def describe(self) -> str:
        """A compact human-readable rendering, one line per view and source."""
        lines = [
            f"ViewServer: {len(self.views)} view(s), {len(self.sources)} "
            f"source(s), {self.subscriptions} subscription(s) "
            f"({self.deliveries} deliveries), "
            f"{self.maintained_views} maintained chain(s)"
        ]
        for view in self.views:
            cache = view.cache
            lines.append(
                f"  view {view.name!r} [{view.language or 'unknown'}]: "
                f"{view.bindings} binding(s), {view.publishes} publish(es), "
                f"backend={view.last_backend or 'none yet'}, "
                f"memo hit rate {cache.get('hit_rate', 0.0):.1%} "
                f"({cache.get('invalidated', 0)} invalidated / "
                f"{cache.get('retained', 0)} retained / "
                f"{cache.get('changed', 0)} changed across republishes, "
                f"rendered spans {cache.get('rendered_hits', 0)} reused / "
                f"{cache.get('rendered_misses', 0)} rendered)"
            )
            if view.typecheck is not None:
                verdicts = ", ".join(
                    f"{binding or 'default'}: {verdict}"
                    for binding, verdict in sorted(view.typecheck["verdicts"].items())
                ) or "no binding compiled yet"
                lines.append(
                    f"    typecheck [{view.typecheck['mode']}]: {verdicts}; "
                    f"{view.typecheck['validated']} document(s) validated, "
                    f"{view.typecheck['violations']} violation(s)"
                )
        for source in self.sources:
            lines.append(
                f"  source {source.name!r}: version {source.version} "
                f"({source.commits} commit(s)), {source.total_tuples} tuple(s), "
                f"{'columnar' if source.encoded else 'row'} lineage, "
                f"{source.subscriptions} subscription(s), "
                f"indexes row {source.row_indexes['built']} built / "
                f"{source.row_indexes['evicted']} evicted, "
                f"columnar {source.columnar_indexes['built']} built"
            )
        return "\n".join(lines)


def collect_stats(server: "ViewServer") -> ServerStats:
    """Aggregate every observability counter of ``server`` into one value."""
    from repro.relational.columnar import cached_columnar

    views = []
    for view in server.views:
        cache = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "instances": 0,
            "invalidated": 0,
            "retained": 0,
            "changed": 0,
            "rendered_hits": 0,
            "rendered_misses": 0,
        }
        for plan in view.plans:
            for key, value in plan.cache_stats.as_dict().items():
                if key != "hit_rate":
                    cache[key] += value
        total = cache["hits"] + cache["misses"]
        cache["hit_rate"] = cache["hits"] / total if total else 0.0
        views.append(
            ViewStats(
                name=view.name,
                language=view.language,
                params=view.params,
                bindings=len(view.plans),
                publishes=view.publishes,
                last_backend=view.last_backend,
                cache=cache,
                typecheck=_typecheck_stats(view),
            )
        )
    sources = []
    for handle in server.handles:
        instance = handle.instance
        relations = list(instance.values())
        columnar_forms = [
            form
            for form in (cached_columnar(rel) for rel in relations)
            if form is not None  # empty relations still carry index counters
        ]
        sources.append(
            SourceStats(
                name=handle.name,
                version=handle.version,
                commits=handle.commits,
                encoded=instance.is_encoded,
                subscriptions=len(handle._subscriptions),
                total_tuples=instance.total_size(),
                row_indexes=_sum_index_stats(r.index_stats() for r in relations),
                columnar_indexes=_sum_index_stats(
                    form.index_stats() for form in columnar_forms
                ),
            )
        )
    return ServerStats(
        views=tuple(views),
        sources=tuple(sources),
        subscriptions=len(server.subscriptions),
        deliveries=server._deliveries,
        maintained_views=len(server._maintained),
    )


# ---------------------------------------------------------------------------
# Cluster-wide aggregation (the sharded topology's front door).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardStats:
    """One shard worker's slice of the cluster: what it owns and has served."""

    shard: int
    address: tuple[str, int] | None
    namespaces: tuple[str, ...]
    #: The worker's ``NetServer.counters`` snapshot.
    net: dict


@dataclass(frozen=True)
class ClusterStats:
    """The router's one-call aggregate over every shard worker.

    ``totals`` sums each numeric counter of every shard's ``net`` section,
    so aggregate commit/publish/delivery throughput reads off one dict;
    ``table`` is the routing table (namespace -> owning shard) including
    explicit entries created by rebalances.
    """

    shards: tuple[ShardStats, ...]
    table: dict
    router: dict
    totals: dict

    def as_dict(self) -> dict:
        """The whole aggregate as plain dicts (JSON-friendly)."""
        return asdict(self)

    def describe(self) -> str:
        """A compact human-readable rendering, one line per shard."""
        lines = [
            f"Cluster: {len(self.shards)} shard(s), "
            f"{len(self.table)} routed namespace(s); totals: "
            f"{self.totals.get('commits', 0)} commit(s), "
            f"{self.totals.get('publishes', 0)} publish(es), "
            f"{self.totals.get('deliveries', 0)} delivery(ies), "
            f"{self.totals.get('evicted', 0)} evicted"
        ]
        lines.append(
            f"  router: {self.router.get('requests', 0)} request(s) proxied, "
            f"{self.router.get('tunnels', 0)} WS tunnel(s), "
            f"{self.router.get('rebalances', 0)} rebalance(s), "
            f"{self.router.get('retries', 0)} retry(ies)"
        )
        for shard in self.shards:
            owned = ", ".join(shard.namespaces) or "(none)"
            where = f"{shard.address[0]}:{shard.address[1]}" if shard.address else "?"
            lines.append(
                f"  shard {shard.shard} @ {where}: owns {owned}; "
                f"{shard.net.get('commits', 0)} commit(s), "
                f"{shard.net.get('publishes', 0)} publish(es), "
                f"{shard.net.get('ws_active', 0)} live socket(s)"
            )
        return "\n".join(lines)


def merge_cluster_stats(
    shard_payloads: list[dict],
    table: Mapping[str, int],
    router: Mapping[str, int] | None = None,
) -> ClusterStats:
    """Fold per-worker admin stats payloads into one :class:`ClusterStats`.

    Each payload is a worker's ``/v1/admin/stats`` body: ``shard`` index,
    ``address`` pair, owned ``namespaces`` and its ``net`` counters dict.
    Numeric counters are summed into ``totals``.
    """
    shards = []
    totals: dict[str, int] = {}
    for payload in shard_payloads:
        net = dict(payload.get("net") or {})
        for key, value in net.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[key] = totals.get(key, 0) + value
        address = payload.get("address")
        shards.append(
            ShardStats(
                shard=int(payload.get("shard", len(shards))),
                address=tuple(address) if address else None,
                namespaces=tuple(payload.get("namespaces") or ()),
                net=net,
            )
        )
    shards.sort(key=lambda s: s.shard)
    return ClusterStats(
        shards=tuple(shards),
        table=dict(table),
        router=dict(router or {}),
        totals=totals,
    )


# ---------------------------------------------------------------------------
# Per-view explain.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuleExplain:
    """One compiled rule item: where it scans, how it executes and maintains."""

    state: str
    tag: str
    item: int
    join_order: tuple[str, ...]
    delta_strategy: str
    last_backend: str | None
    executions: int
    vectorized: bool


@dataclass(frozen=True)
class ExplainReport:
    """The per-rule execution and maintenance story of one view binding."""

    view: str
    language: str | None
    binding: tuple[tuple[str, DataValue], ...]
    rules: tuple[RuleExplain, ...]
    cache: dict
    maintenance: str
    #: The binding's :meth:`TypecheckResult.as_dict` plus the view's
    #: ``mode``/``validated``/``violations`` counters, or ``None`` when the
    #: view carries no ``output_dtd``.
    typecheck: dict | None = None

    def as_dict(self) -> dict:
        """The report as plain dicts (JSON-friendly)."""
        return asdict(self)

    def describe(self) -> str:
        """The report as an ``explain()``-style text block."""
        binding = (
            ", ".join(f"{name}={value!r}" for name, value in self.binding) or "none"
        )
        lines = [
            f"view {self.view!r} [{self.language or 'unknown'}] binding: {binding}",
            f"  {self.maintenance}",
            f"  expansion cache: {self.cache.get('hits', 0)} hits / "
            f"{self.cache.get('misses', 0)} misses "
            f"(hit rate {self.cache.get('hit_rate', 0.0):.1%})",
            f"  render cache: {self.cache.get('rendered_hits', 0)} spans reused / "
            f"{self.cache.get('rendered_misses', 0)} rendered",
        ]
        if self.typecheck is not None:
            result = self.typecheck.get("result")
            verdict = result["verdict"] if result else "not checked"
            lines.append(
                f"  typecheck [{self.typecheck['mode']}]: {verdict}; "
                f"{self.typecheck['validated']} document(s) validated, "
                f"{self.typecheck['violations']} violation(s)"
            )
        for rule in self.rules:
            order = " >< ".join(rule.join_order) or "(no scans)"
            backend = rule.last_backend or "none yet"
            lines.append(
                f"  ({rule.state}, {rule.tag})[{rule.item}]: {order}; "
                f"backend={backend} ({rule.executions} execution(s), "
                f"{'vectorizable' if rule.vectorized else 'row-only'}); "
                f"delta: {rule.delta_strategy}"
            )
        return "\n".join(lines)


def explain_view(
    view: "RegisteredView",
    params: Mapping[str, DataValue] | None = None,
) -> ExplainReport:
    """Build the :class:`ExplainReport` for one binding of ``view``."""
    plan = view.plan_for(params)
    rules = []
    semi_naive = recompute = unplanned = 0
    for state, tag, item, query_plan in plan.rule_plans():
        if query_plan is None:
            unplanned += 1
            rules.append(
                RuleExplain(
                    state=state,
                    tag=tag,
                    item=item,
                    join_order=(),
                    delta_strategy="naive evaluator (unplanned query)",
                    last_backend=None,
                    executions=0,
                    vectorized=False,
                )
            )
            continue
        stats = query_plan.stats()
        if stats["delta_strategy"].startswith("per-occurrence"):
            semi_naive += 1
        else:
            recompute += 1
        rules.append(
            RuleExplain(
                state=state,
                tag=tag,
                item=item,
                join_order=tuple(stats["join_order"]),
                delta_strategy=stats["delta_strategy"],
                last_backend=stats["last_backend"],
                executions=stats["executions"],
                vectorized=stats["vectorized"],
            )
        )
    cache = plan.cache_stats.as_dict()
    maintenance = (
        f"republish: {cache.get('invalidated', 0)} invalidated / "
        f"{cache.get('retained', 0)} retained / {cache.get('changed', 0)} changed; "
        f"rules: {semi_naive} semi-naive, "
        f"{recompute} recompute-fallback, {unplanned} unplanned"
    )
    typecheck = None
    if view.output_dtd is not None:
        result = view.typecheck_result(params)
        typecheck = {
            "mode": view.typecheck_mode,
            "result": result.as_dict() if result is not None else None,
            "validated": view.validated,
            "violations": view.violations,
        }
    return ExplainReport(
        view=view.name,
        language=view.language,
        binding=view.binding_key(params),
        rules=tuple(rules),
        cache=cache,
        maintenance=maintenance,
        typecheck=typecheck,
    )
