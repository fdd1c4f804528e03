"""Dictionary encoding and columnar relation storage.

The publishing transducers of the paper evaluate a relational query at every
node expansion, so query execution dominates every layer built on top of the
relational substrate.  The row representation -- frozensets of tuples of
heterogeneous :data:`~repro.relational.domain.DataValue` s -- pays for Python
object hashing and tuple construction on every probe and every emitted row.
This module provides the cheaper representation beneath the unchanged plan
language:

* :class:`DictionaryEncoder` -- a per-database dictionary interning every
  domain value into a dense integer id, with a stable decode table.  Ids are
  append-only, so an encoder shared across instance *versions* (as produced
  by :meth:`~repro.relational.instance.Instance.apply_delta`) keeps every
  previously encoded row valid: incremental maintenance never re-interns the
  world, it only interns the delta.
* :class:`ColumnarRelation` -- one list-of-int column per attribute plus
  lazily built integer hash indexes, cached on the source
  :class:`~repro.relational.instance.Relation` object so that relation
  sharing by identity (the instance versioning fast paths) shares the
  columnar form too.
* :func:`ensure_encoded` / :func:`encoding_of` -- attach an encoder to an
  :class:`~repro.relational.instance.Instance`; the vectorized query kernel
  of :mod:`repro.query.vectorized` engages exactly when the instance carries
  one.

Equality semantics: interning uses a plain dict, so values that compare equal
under ``==`` (the equality every query language and frozenset in this
reproduction already uses) share one id, and decoding returns the first-seen
representative -- the same representative-collapsing behaviour a frozenset of
raw tuples exhibits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from xml.sax.saxutils import escape

from repro.relational.domain import (
    DataValue,
    order_key,
    relation_to_text,
    value_to_text,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.instance import Instance, Relation

#: Default cap on distinct key-column index sets cached per columnar relation
#: (mirrors :attr:`Relation.max_hash_indexes` on the row side).
DEFAULT_MAX_INDEXES = 8

#: Sentinel distinguishing "uniqueness not probed yet" from a cached ``None``.
_UNIQUE_UNKNOWN = object()


class ColumnarRelation:
    """A relation stored column-wise over dense integer ids.

    ``columns[j][i]`` is the encoded value of attribute ``j`` in row ``i``.
    Row order is the iteration order of the source relation's tuple set,
    fixed once at encode time; the lazily built hash indexes map a key (a
    single id for one key column, a tuple of ids otherwise) to the list of
    row positions carrying it.
    """

    __slots__ = (
        "name",
        "arity",
        "columns",
        "num_rows",
        "_indexes",
        "_unique",
        "_indexes_built",
        "_indexes_evicted",
        "max_indexes",
    )

    def __init__(
        self,
        name: str,
        arity: int,
        columns: Sequence[list[int]],
        num_rows: int,
        max_indexes: int = DEFAULT_MAX_INDEXES,
    ) -> None:
        self.name = name
        self.arity = arity
        self.columns = tuple(columns)
        self.num_rows = num_rows
        self._indexes: dict[tuple[int, ...], dict] = {}
        self._unique: dict[tuple[int, ...], dict | None] = {}
        self._indexes_built = 0
        self._indexes_evicted = 0
        self.max_indexes = max_indexes

    def index(self, positions: tuple[int, ...]) -> dict:
        """A hash index on the given column positions, built lazily and cached.

        Single-position indexes are keyed by the bare id (the common case:
        one join column probed with plain int hashing); multi-position
        indexes by the tuple of ids.  At most :attr:`max_indexes` distinct
        position sets are cached, evicted least-recently-used.
        """
        index = self._indexes.get(positions)
        if index is not None:
            # Reinsert so eviction is least-recently-used.
            del self._indexes[positions]
            self._indexes[positions] = index
            return index
        index = {}
        if len(positions) == 1:
            column = self.columns[positions[0]]
            for row_id, key in enumerate(column):
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row_id]
                else:
                    bucket.append(row_id)
        else:
            key_columns = [self.columns[p] for p in positions]
            for row_id, key in enumerate(zip(*key_columns)):
                bucket = index.get(key)
                if bucket is None:
                    index[key] = [row_id]
                else:
                    bucket.append(row_id)
        self._indexes_built += 1
        self._indexes[positions] = index
        while len(self._indexes) >= self.max_indexes + 1:
            oldest = next(iter(self._indexes))
            del self._indexes[oldest]
            # The flattened unique twin derives from the evicted index and
            # is comparably sized: evict it too, or the cap bounds only
            # half the memory.
            self._unique.pop(oldest, None)
            self._indexes_evicted += 1
        return index

    def unique_index(self, positions: tuple[int, ...]) -> dict | None:
        """A ``key -> row_id`` index when ``positions`` is a key, else ``None``.

        Joins probing a unique key (e.g. courses by course number) use this
        flattened form for C-level bulk probing (``map(index.get, keys)``)
        instead of walking one-element bucket lists.  Derived from
        :meth:`index` once and cached alongside it.
        """
        found = self._unique.get(positions, _UNIQUE_UNKNOWN)
        if found is not _UNIQUE_UNKNOWN:
            return found
        index = self.index(positions)
        flattened: dict | None = {}
        for key, bucket in index.items():
            if len(bucket) > 1:
                flattened = None
                break
            flattened[key] = bucket[0]
        self._unique[positions] = flattened
        while len(self._unique) > self.max_indexes:
            self._unique.pop(next(iter(self._unique)))
        return flattened

    def clear_indexes(self) -> None:
        """Drop every cached index (the columns themselves are kept)."""
        self._indexes.clear()
        self._unique.clear()

    def index_stats(self) -> dict[str, int]:
        """Counters of the index cache (for benchmarks and tuning)."""
        return {
            "cached": len(self._indexes),
            "built": self._indexes_built,
            "evicted": self._indexes_evicted,
            "capacity": self.max_indexes,
        }

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnarRelation({self.name!r}, arity={self.arity}, "
            f"rows={self.num_rows})"
        )


class DictionaryEncoder:
    """A per-database value dictionary: ``DataValue`` <-> dense integer id.

    Ids are assigned on first sight and never change; :attr:`values` is the
    stable decode table (``values[id]`` is the first-seen representative of
    the id's equality class).  One encoder is meant to be shared by a whole
    lineage of instance versions -- :meth:`Instance.apply_delta` propagates
    it -- so that registers, memo keys and query answers encoded under one
    version stay valid under the next.
    """

    __slots__ = (
        "_ids",
        "values",
        "_row_cache",
        "_fragment_cache",
        "_value_fragments",
        "_order_keys",
    )

    #: Cap on the memoised decoded-row cache (cleared wholesale when full).
    max_cached_rows = 1_000_000

    #: Cap on the escaped text-fragment cache (cleared wholesale when full).
    max_cached_fragments = 1_000_000

    def __init__(self) -> None:
        self._ids: dict[DataValue, int] = {}
        self.values: list[DataValue] = []
        self._row_cache: dict[tuple[int, ...], tuple[DataValue, ...]] = {}
        self._fragment_cache: dict[frozenset[tuple[int, ...]], str] = {}
        self._value_fragments: dict[int, str] = {}
        self._order_keys: dict[int, tuple] = {}

    # -- encoding ------------------------------------------------------------

    def intern(self, value: DataValue) -> int:
        """The id of ``value``, assigning a fresh one on first sight."""
        ids = self._ids
        found = ids.get(value)
        if found is None:
            found = len(self.values)
            ids[value] = found
            self.values.append(value)
        return found

    def intern_row(self, row: Sequence[DataValue]) -> tuple[int, ...]:
        """Encode one tuple of values."""
        ids = self._ids
        values = self.values
        out = []
        for value in row:
            found = ids.get(value)
            if found is None:
                found = len(values)
                ids[value] = found
                values.append(value)
            out.append(found)
        return tuple(out)

    def encode_rows(
        self, rows: Iterable[Sequence[DataValue]]
    ) -> frozenset[tuple[int, ...]]:
        """Encode a set of tuples (e.g. a delta's change set or an override)."""
        intern_row = self.intern_row
        return frozenset(intern_row(row) for row in rows)

    # -- decoding ------------------------------------------------------------

    def decode_row(self, row: tuple[int, ...]) -> tuple[DataValue, ...]:
        """Decode one encoded tuple back to domain values.

        Decoded rows are memoised per encoder: answer sets repeat across
        executions (the engine's memoised expansions, benchmark loops, the
        Datalog fixpoint), so the common decode is one dict lookup instead
        of a tuple rebuild.  The memo is cleared wholesale if it ever
        reaches :attr:`max_cached_rows`.
        """
        cache = self._row_cache
        decoded = cache.get(row)
        if decoded is None:
            decoded = tuple(map(self.values.__getitem__, row))
            if len(cache) >= self.max_cached_rows:
                cache.clear()
            cache[row] = decoded
        return decoded

    def decode_rows(
        self, rows: Iterable[tuple[int, ...]]
    ) -> frozenset[tuple[DataValue, ...]]:
        """Decode a set of encoded tuples (memoised per row)."""
        cache = self._row_cache
        lookup = self.values.__getitem__
        out = []
        append = out.append
        fresh = []
        for row in rows:
            decoded = cache.get(row)
            if decoded is None:
                decoded = tuple(map(lookup, row))
                fresh.append((row, decoded))
            append(decoded)
        if fresh:
            if len(cache) + len(fresh) >= self.max_cached_rows:
                cache.clear()
            cache.update(fresh)
        return frozenset(out)

    # -- rendered fragments and order keys -----------------------------------

    def escaped_value(self, vid: int) -> str:
        """The XML-escaped text form of one interned value, memoised per id.

        Ids never change, so the fragment computed once (``escape`` over
        :func:`~repro.relational.domain.value_to_text`) stays valid for the
        whole lineage of instance versions sharing this encoder.
        """
        fragments = self._value_fragments
        found = fragments.get(vid)
        if found is None:
            found = escape(value_to_text(self.values[vid]))
            fragments[vid] = found
        return found

    def escaped_text(self, rows: frozenset[tuple[int, ...]]) -> str:
        """The XML-escaped character data of an encoded register.

        Matches ``escape(relation_to_text(decoded_register))`` byte for byte:
        the row separators (``"; "`` / ``", "``) contain nothing the escaper
        rewrites, so escaping per value and joining is identical to joining
        and escaping.  Registers repeat heavily across publishes (they are
        the engine's memo keys), so the result is interned per register.
        """
        cache = self._fragment_cache
        found = cache.get(rows)
        if found is None:
            if len(rows) == 1:
                row = next(iter(rows))
                if len(row) == 1:
                    found = self.escaped_value(row[0])
                else:
                    found = escape(relation_to_text(self.decode_rows(rows)))
            else:
                found = escape(relation_to_text(self.decode_rows(rows)))
            if len(cache) >= self.max_cached_fragments:
                cache.clear()
            cache[rows] = found
        return found

    def order_key_of(self, vid: int) -> tuple:
        """The :func:`~repro.relational.domain.order_key` of an interned value.

        Memoised per id so encoded sibling-order sorts never rebuild the
        type-rank tuples of values they have sorted before.
        """
        keys = self._order_keys
        found = keys.get(vid)
        if found is None:
            found = order_key(self.values[vid])
            keys[vid] = found
        return found

    def row_order_key(self, row: tuple[int, ...]) -> tuple:
        """Sort key for one encoded row under the implicit document order."""
        return tuple(map(self.order_key_of, row))

    # -- columnar views ------------------------------------------------------

    def columns_for(self, relation: "Relation") -> ColumnarRelation:
        """The columnar form of ``relation`` under this encoder.

        Built once per (relation object, encoder) and cached on the relation,
        so every instance version sharing the relation object by identity --
        the :meth:`Instance.apply_delta` / :meth:`Instance.updated` fast
        paths -- shares the columns and their warm indexes too.
        """
        cached = relation._columnar
        if cached is not None and cached[0] is self:
            return cached[1]
        arity = relation.arity
        columns: list[list[int]] = [[] for _ in range(arity)]
        appends = [column.append for column in columns]
        ids = self._ids
        values = self.values
        num_rows = 0
        for row in relation._tuples:
            num_rows += 1
            for value, append in zip(row, appends):
                found = ids.get(value)
                if found is None:
                    found = len(values)
                    ids[value] = found
                    values.append(value)
                append(found)
        columnar = ColumnarRelation(relation.name, arity, columns, num_rows)
        relation._columnar = (self, columnar)
        return columnar

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.values)

    def stats(self) -> dict[str, int]:
        """Size of the dictionary and its derived caches."""
        return {
            "distinct_values": len(self.values),
            "cached_fragments": len(self._fragment_cache),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DictionaryEncoder(distinct_values={len(self.values)})"


# ---------------------------------------------------------------------------
# Attaching encoders to instances.
# ---------------------------------------------------------------------------


def encoding_of(instance: "Instance") -> DictionaryEncoder | None:
    """The encoder carried by ``instance``, or ``None`` (row backend)."""
    return instance._encoding


def ensure_encoded(
    instance: "Instance", encoder: DictionaryEncoder | None = None
) -> DictionaryEncoder:
    """Attach a dictionary encoding to ``instance`` (idempotent).

    Every relation is interned eagerly so the first query execution does not
    pay the encode cost; subsequent versions produced by
    :meth:`~repro.relational.instance.Instance.apply_delta` (and
    :meth:`updated` / :meth:`extended`) inherit the encoder and encode only
    the relations the update actually replaced, lazily.  Returns the
    encoder, which callers can share across independently built instances
    over the same domain.
    """
    existing = instance._encoding
    if existing is not None:
        if encoder is not None and encoder is not existing:
            # Ids from unrelated dictionaries are incomparable; silently
            # keeping the old encoder would make cross-instance encoded
            # comparisons wrong.
            raise ValueError(
                "instance is already encoded with a different encoder"
            )
        return existing
    if encoder is None:
        encoder = DictionaryEncoder()
    for relation in instance.values():
        encoder.columns_for(relation)
    instance._encoding = encoder
    return encoder


def encoded_twin(
    instance: "Instance", encoder: DictionaryEncoder | None = None
) -> "Instance":
    """A value-equal twin of ``instance`` on the columnar backend.

    Unlike :func:`ensure_encoded` -- which attaches the encoding to the
    instance *in place* -- this leaves ``instance`` untouched on the row
    backend and returns a rebuilt instance sharing every
    :class:`~repro.relational.instance.Relation` object by identity (so the
    columnar forms cached on the relations are shared too).  Already-encoded
    instances are returned as-is.  This is how the serving layer pins a
    request to ``backend="columnar"`` on a source whose canonical lineage is
    row-oriented, without forking the data or flipping the source's mode.
    """
    if instance._encoding is not None:
        if encoder is not None and encoder is not instance._encoding:
            raise ValueError("instance is already encoded with a different encoder")
        return instance
    twin = type(instance)._rebuilt(instance.schema, dict(instance), None)
    ensure_encoded(twin, encoder)
    return twin


def cached_columnar(relation: "Relation") -> ColumnarRelation | None:
    """The columnar form cached on ``relation``, or ``None`` if never built.

    Purely observational (used by the serving layer's aggregated stats): it
    never triggers an encode, unlike :meth:`DictionaryEncoder.columns_for`.
    """
    cached = relation._columnar
    return cached[1] if cached is not None else None
