"""Relations and database instances.

An *instance* ``I`` of a relational schema ``R`` assigns a finite relation to
every relation name of ``R``.  Instances are immutable value objects: all
"mutating" operations return new instances, which keeps transducer evaluation,
query composition and the various proof constructions free of aliasing bugs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from repro.relational.domain import DataValue, sort_tuples
from repro.relational.errors import ArityError, SchemaError, UnknownRelationError
from repro.relational.schema import RelationSchema, RelationalSchema
from repro.relational.tuples import check_arity


class Relation:
    """A finite relation: a set of equal-width tuples over the domain."""

    __slots__ = ("_name", "_arity", "_tuples", "_indexes", "_index_counters", "_columnar")

    #: Cap on distinct key-column index sets cached per relation.  The cache
    #: used to be unbounded, which let long-lived relations probed with many
    #: column combinations (e.g. by generated queries) grow without limit.
    max_hash_indexes = 8

    def __init__(
        self,
        name: str,
        arity: int,
        tuples: Iterable[Sequence[DataValue]] = (),
    ) -> None:
        self._name = name
        self._arity = arity
        rows = frozenset(check_arity(name, arity, row) for row in tuples)
        self._tuples = rows
        self._indexes: dict[tuple[int, ...], dict] | None = None
        self._index_counters: list[int] | None = None  # [built, evicted]
        self._columnar = None

    @classmethod
    def _from_frozenset(
        cls, name: str, arity: int, rows: frozenset[tuple[DataValue, ...]]
    ) -> "Relation":
        """Trusted constructor for rows already checked by another Relation."""
        relation = cls.__new__(cls)
        relation._name = name
        relation._arity = arity
        relation._tuples = rows
        relation._indexes = None
        relation._index_counters = None
        relation._columnar = None
        return relation

    @classmethod
    def from_trusted_rows(
        cls, name: str, arity: int, rows: Iterable[tuple[DataValue, ...]]
    ) -> "Relation":
        """Trusted constructor for already-normalised tuples of known width.

        Internal producers -- the relational algebra, plan operators, the
        engine's register overlays -- always build equal-width plain tuples,
        so re-running :func:`~repro.relational.tuples.check_arity` on every
        intermediate result only burns time on the hot path.  ``rows`` must
        be tuples of exactly ``arity`` values; user-facing input goes through
        the checked :class:`Relation` constructor instead.
        """
        return cls._from_frozenset(name, arity, frozenset(rows))

    # -- basic accessors ---------------------------------------------------

    @property
    def name(self) -> str:
        """The relation name."""
        return self._name

    @property
    def arity(self) -> int:
        """The number of columns."""
        return self._arity

    @property
    def tuples(self) -> frozenset[tuple[DataValue, ...]]:
        """The set of tuples in the relation."""
        return self._tuples

    def sorted_tuples(self) -> list[tuple[DataValue, ...]]:
        """Return the tuples sorted by the implicit order on ``D``."""
        return sort_tuples(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[tuple[DataValue, ...]]:
        return iter(self._tuples)

    def __contains__(self, row: object) -> bool:
        return tuple(row) in self._tuples if isinstance(row, (tuple, list)) else False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self._name == other._name
            and self._arity == other._arity
            and self._tuples == other._tuples
        )

    def __hash__(self) -> int:
        return hash((self._name, self._arity, self._tuples))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self._name!r}, arity={self._arity}, size={len(self._tuples)})"

    # -- algebraic helpers ---------------------------------------------------

    def is_empty(self) -> bool:
        """True when the relation has no tuples."""
        return not self._tuples

    def with_tuples(self, tuples: Iterable[Sequence[DataValue]]) -> "Relation":
        """Return a copy with the given tuples added."""
        return Relation(self._name, self._arity, set(self._tuples) | {tuple(t) for t in tuples})

    def union(self, other: "Relation") -> "Relation":
        """Set union (requires matching arity).

        Fast paths: when one side is empty or a subset of the other, the
        existing relation object (with its tuple set and lazy indexes) is
        reused instead of re-hashing the full tuple set.
        """
        if other.arity != self._arity:
            raise ArityError(self._name, self._arity, other.arity)
        if not other._tuples or other._tuples <= self._tuples:
            return self
        if not self._tuples and other._name == self._name:
            return other
        if not self._tuples:
            return Relation._from_frozenset(self._name, self._arity, other._tuples)
        return Relation._from_frozenset(
            self._name, self._arity, self._tuples | other._tuples
        )

    def added(self, tuples: Iterable[Sequence[DataValue]]) -> "Relation":
        """Return a copy with the given tuples added.

        Fast path: when every tuple is already present (including the empty
        update) this relation object is returned unchanged, keeping its
        cached hash indexes warm.
        """
        extra = (
            frozenset(check_arity(self._name, self._arity, row) for row in tuples)
            - self._tuples
        )
        if not extra:
            return self
        return Relation._from_frozenset(self._name, self._arity, self._tuples | extra)

    def removed(self, tuples: Iterable[Sequence[DataValue]]) -> "Relation":
        """Return a copy with the given tuples removed.

        Wrong-arity tuples raise :class:`ArityError` (they could never be
        present, so silently ignoring them would hide caller bugs), matching
        :meth:`added`.  Fast path: when no tuple is actually present
        (including the empty update) this relation object is returned
        unchanged.
        """
        victims = (
            frozenset(check_arity(self._name, self._arity, row) for row in tuples)
            & self._tuples
        )
        if not victims:
            return self
        return Relation._from_frozenset(self._name, self._arity, self._tuples - victims)

    def diff(
        self, other: "Relation"
    ) -> tuple[frozenset[tuple[DataValue, ...]], frozenset[tuple[DataValue, ...]]]:
        """The ``(added, removed)`` tuple sets turning ``self`` into ``other``.

        Fast path: identical relation objects (or shared tuple sets, as
        produced by the identity-reusing instance operations) short-circuit
        to empty change sets without comparing tuples.
        """
        if other.arity != self._arity:
            raise ArityError(self._name, self._arity, other.arity)
        if other is self or other._tuples is self._tuples:
            return (frozenset(), frozenset())
        return (other._tuples - self._tuples, self._tuples - other._tuples)

    def active_domain(self) -> frozenset[DataValue]:
        """The set of data values appearing in the relation."""
        return frozenset(value for row in self._tuples for value in row)

    def hash_index(
        self, positions: tuple[int, ...]
    ) -> dict[tuple[DataValue, ...], list[tuple[DataValue, ...]]]:
        """A hash index on the given column positions, built lazily and cached.

        Maps each key (the projection of a row onto ``positions``) to the list
        of full rows carrying it.  Relations are immutable, so the index is
        built at most once per column combination and shared by every instance
        holding this relation object -- including the engine's register
        overlays, which reuse the source relations by identity.  At most
        :attr:`max_hash_indexes` distinct position sets are cached, evicted
        least-recently-used, so relations probed with many column
        combinations stay bounded in memory (see :meth:`index_stats`).
        """
        if self._indexes is None:
            self._indexes = {}
            self._index_counters = [0, 0]
        indexes = self._indexes
        index = indexes.get(positions)
        if index is not None:
            # Reinsert so eviction is least-recently-used, not first-built.
            del indexes[positions]
            indexes[positions] = index
            return index
        index = {}
        for row in self._tuples:
            index.setdefault(tuple(row[p] for p in positions), []).append(row)
        counters = self._index_counters
        counters[0] += 1
        indexes[positions] = index
        cap = self.max_hash_indexes
        while len(indexes) > cap:
            del indexes[next(iter(indexes))]
            counters[1] += 1
        return index

    def clear_indexes(self) -> None:
        """Drop every cached hash index (and any cached columnar form)."""
        self._indexes = None
        self._index_counters = None
        self._columnar = None

    def index_stats(self) -> dict[str, int]:
        """Counters of the hash-index cache (for benchmarks and tuning)."""
        counters = self._index_counters
        if counters is None:
            return {
                "cached": 0,
                "built": 0,
                "evicted": 0,
                "capacity": self.max_hash_indexes,
            }
        return {
            "cached": len(self._indexes),
            "built": counters[0],
            "evicted": counters[1],
            "capacity": self.max_hash_indexes,
        }


class Instance(Mapping[str, Relation]):
    """An immutable database instance of a relational schema."""

    def __init__(
        self,
        schema: RelationalSchema,
        relations: Mapping[str, Iterable[Sequence[DataValue]]] | None = None,
    ) -> None:
        self._schema = schema
        data: dict[str, Relation] = {}
        provided = dict(relations or {})
        for name in provided:
            if name not in schema:
                raise UnknownRelationError(name, schema.names())
        for name in schema:
            rows = provided.get(name, ())
            data[name] = Relation(name, schema.arity(name), rows)
        self._relations = data
        self._active_domain: frozenset[DataValue] | None = None
        # Dictionary encoding (repro.relational.columnar), attached by
        # ensure_encoded() and propagated through the versioning operations
        # so a whole instance lineage shares one append-only encoder.
        self._encoding = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_dict(
        cls,
        relations: Mapping[str, Iterable[Sequence[DataValue]]],
        schema: RelationalSchema | None = None,
    ) -> "Instance":
        """Build an instance (and infer a schema when none is given).

        When ``schema`` is omitted the arity of each relation is inferred from
        its first tuple; empty relations are not allowed in that case because
        their arity would be ambiguous.
        """
        if schema is None:
            inferred = RelationalSchema()
            for name, rows in relations.items():
                rows = [tuple(r) for r in rows]
                if not rows:
                    raise SchemaError(
                        f"cannot infer the arity of empty relation {name!r}; pass a schema"
                    )
                inferred.add(RelationSchema(name, len(rows[0])))
            schema = inferred
        return cls(schema, relations)

    def updated(self, name: str, tuples: Iterable[Sequence[DataValue]]) -> "Instance":
        """Return a copy in which relation ``name`` is replaced by ``tuples``.

        Untouched :class:`Relation` objects are reused by identity, so their
        cached hash indexes stay warm across the copy.
        """
        if name not in self._schema:
            raise UnknownRelationError(name, self._schema.names())
        relations = dict(self._relations)
        relations[name] = Relation(name, self._schema.arity(name), tuples)
        return self._rebuilt(self._schema, relations, self._encoding)

    def extended(
        self,
        extra: Mapping[str, Iterable[Sequence[DataValue]]],
        extra_schema: Iterable[RelationSchema] | None = None,
    ) -> "Instance":
        """Return an instance over an extended schema with extra relations.

        This is how the publishing-transducer runtime makes the parent
        register visible to rule queries: the register is added under the
        reserved names ``Reg`` / ``Reg_<tag>`` without touching the source.
        Existing :class:`Relation` objects are shared with this instance by
        identity; only the extra relations are wrapped and checked.
        """
        if extra_schema is None:
            extra_schema = []
            for name, rows in extra.items():
                rows = [tuple(r) for r in rows]
                arity = len(rows[0]) if rows else 0
                extra_schema.append(RelationSchema(name, arity))
        schema = self._schema.extended(extra_schema)
        relations = dict(self._relations)
        for name, rows in extra.items():
            relations[name] = Relation(name, schema.arity(name), rows)
        for name in schema:
            if name not in relations:
                relations[name] = Relation(name, schema.arity(name))
        return self._rebuilt(schema, relations, self._encoding)

    @classmethod
    def _rebuilt(
        cls,
        schema: RelationalSchema,
        relations: dict[str, "Relation"],
        encoding=None,
    ) -> "Instance":
        """Trusted constructor reusing already-validated relation objects.

        ``encoding`` carries the source version's dictionary encoder forward:
        untouched relations keep their cached columnar form (it lives on the
        relation object), replaced relations are re-encoded lazily on first
        columnar execution, and no value is ever re-interned.
        """
        clone = cls.__new__(cls)
        clone._schema = schema
        clone._relations = relations
        clone._active_domain = None
        clone._encoding = encoding
        return clone

    def overlaid(
        self,
        extra: Mapping[str, Relation],
        schema: RelationalSchema | None = None,
        active_domain: frozenset[DataValue] | None = None,
    ) -> "Instance":
        """Return an extended instance *sharing* this instance's relation objects.

        Unlike :meth:`extended`, which re-checks and re-wraps every relation,
        this trusted fast path reuses the existing :class:`Relation` objects
        and only installs the pre-built ``extra`` relations on top.  The
        compiled publishing engine overlays the two register relations with
        it only for rule queries it cannot run through a query plan.

        ``schema`` must already describe the overlay (callers cache it);
        ``active_domain``, when given, seeds the active-domain cache so FO/IFP
        evaluation does not rescan the source relations.
        """
        if schema is None:
            schema = self._schema.extended(
                RelationSchema(rel.name, rel.arity) for rel in extra.values()
            )
        clone = Instance.__new__(Instance)
        clone._schema = schema
        clone._relations = {**self._relations, **extra}
        clone._active_domain = active_domain
        # Overlays deliberately do not inherit the dictionary encoding: the
        # engine feeds registers to planned queries through the plans'
        # override channel instead, and the overlay path is reserved for
        # naive (active-domain) evaluation over raw values.
        clone._encoding = None
        return clone

    @property
    def is_encoded(self) -> bool:
        """Whether this instance carries a dictionary encoding.

        Attached by :func:`repro.relational.columnar.ensure_encoded`; query
        plans and the publishing engine run on the columnar backend exactly
        when this is true.
        """
        return self._encoding is not None

    def without_encoding(self) -> "Instance":
        """A value-equal twin of this instance on the row backend.

        Every :class:`Relation` object is shared by identity (so warm hash
        indexes -- and any columnar forms cached on the relations -- stay
        warm); only the encoding attachment is dropped.  Returns ``self``
        when no encoding is attached.  This is how the serving layer pins a
        request to ``backend="row"`` on a source whose canonical lineage is
        encoded, without forking the data.
        """
        if self._encoding is None:
            return self
        return self._rebuilt(self._schema, dict(self._relations), None)

    def apply_delta(self, delta) -> "Instance":
        """Return the instance this :class:`~repro.relational.delta.Delta` yields.

        For every touched relation the result holds ``(R - deleted) |
        inserted``; every untouched :class:`Relation` object is reused by
        identity, so its cached hash indexes stay warm across the version.
        When the delta changes nothing effectively, ``self`` is returned
        unchanged -- versioning is free for no-op updates.
        """
        relations: dict[str, Relation] | None = None
        for name in delta.touched_relations():
            if name not in self._schema:
                raise UnknownRelationError(name, self._schema.names())
            current = self._relations[name]
            replaced = current.removed(delta.deleted_from(name)).added(
                delta.inserted_into(name)
            )
            if replaced is not current:
                if relations is None:
                    relations = dict(self._relations)
                relations[name] = replaced
        if relations is None:
            return self
        return self._rebuilt(self._schema, relations, self._encoding)

    def diff(self, other: "Instance"):
        """The normalized :class:`~repro.relational.delta.Delta` from ``self`` to ``other``.

        ``self.apply_delta(self.diff(other)) == other`` holds for instances
        over the same schema; relation objects shared by identity between the
        two instances are skipped without comparing tuples.
        """
        from repro.relational.delta import Delta

        inserted: dict[str, frozenset] = {}
        deleted: dict[str, frozenset] = {}
        for name in set(self._relations) | set(other._relations):
            mine = self._relations.get(name)
            theirs = other._relations.get(name)
            if mine is None:
                if theirs.tuples:
                    inserted[name] = theirs.tuples
                continue
            if theirs is None:
                if mine.tuples:
                    deleted[name] = mine.tuples
                continue
            added, removed = mine.diff(theirs)
            if added:
                inserted[name] = added
            if removed:
                deleted[name] = removed
        return Delta(inserted, deleted)

    def union(self, other: "Instance") -> "Instance":
        """Relation-wise union of two instances over compatible schemas."""
        schema = self._schema.extended(other.schema[name] for name in other.schema)
        data: dict[str, set[tuple[DataValue, ...]]] = {}
        for name in schema:
            rows: set[tuple[DataValue, ...]] = set()
            if name in self._relations:
                rows |= self._relations[name].tuples
            if name in other:
                rows |= other[name].tuples
            data[name] = rows
        return Instance(schema, data)

    # -- Mapping interface ----------------------------------------------------

    def __getitem__(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name, tuple(self._relations)) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    # -- accessors --------------------------------------------------------------

    @property
    def schema(self) -> RelationalSchema:
        """The relational schema of this instance."""
        return self._schema

    def tuples(self, name: str) -> frozenset[tuple[DataValue, ...]]:
        """The tuples of relation ``name`` (empty if the relation is empty)."""
        return self[name].tuples

    def active_domain(self) -> frozenset[DataValue]:
        """The set of all data values occurring anywhere in the instance.

        Cached after the first call: instances are immutable, and FO/IFP
        query evaluation asks for the active domain once per query.
        """
        if self._active_domain is None:
            values: set[DataValue] = set()
            for relation in self._relations.values():
                values |= relation.active_domain()
            self._active_domain = frozenset(values)
        return self._active_domain

    def total_size(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(relation) for relation in self._relations.values())

    def is_empty(self) -> bool:
        """True when every relation is empty."""
        return all(relation.is_empty() for relation in self._relations.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._relations == other._relations

    def __hash__(self) -> int:
        return hash(frozenset(self._relations.items()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{name}:{len(rel)}" for name, rel in self._relations.items())
        return f"Instance({parts})"
