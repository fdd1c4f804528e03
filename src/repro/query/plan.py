"""Relational-algebra plan operators and the :class:`QueryPlan` wrapper.

A plan is a tree of set-at-a-time operators over :class:`~repro.relational.
instance.Instance` relations.  Every operator exposes an ordered tuple of
output ``variables`` (its columns) and a ``rows`` method producing the set of
valuations -- one tuple per row, positionally aligned with ``variables``.

The operator set is exactly what the planner of :mod:`repro.query.planner`
needs to cover safe (range-restricted) CQ/UCQ/FO queries:

* :class:`ScanNode` -- one relation atom, with constant and repeated-variable
  selections pushed into the scan (using the relation's lazy hash indexes);
* :class:`JoinNode` -- hash join on the shared variables;
* :class:`AntiJoinNode` -- safe negation as an anti-join (difference), never
  an active-domain complement;
* :class:`SelectNode` -- residual ``=`` / ``!=`` comparisons;
* :class:`ExtendNode` -- a new column bound to a constant or copied from an
  existing column (equality propagation);
* :class:`ProjectNode`, :class:`UnionNode`, :class:`UnitNode`,
  :class:`EmptyNode` -- the structural glue.

Plans evaluate against an instance plus an optional ``overrides`` mapping
(relation name to a set of tuples), which is how the semi-naive Datalog
evaluator feeds IDB states and per-round deltas into a plan compiled once.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.logic.cq import Comparison
from repro.logic.terms import Constant, Term, Variable
from repro.relational.domain import DataValue
from repro.relational.instance import Instance

#: Relation overrides: name -> rows, consulted before the instance.
Overrides = Mapping[str, Iterable[tuple[DataValue, ...]]]

_NO_OVERRIDES: dict[str, frozenset] = {}

#: Sentinel: the plan was probed for vectorization and is not supported.
_VECTOR_UNSUPPORTED = object()


class PlanNode:
    """Base class of plan operators."""

    __slots__ = ("variables",)

    variables: tuple[Variable, ...]

    def rows(self, instance: Instance, overrides: Overrides) -> Iterable[tuple[DataValue, ...]]:
        """The output rows, positionally aligned with :attr:`variables`."""
        raise NotImplementedError

    def children(self) -> tuple["PlanNode", ...]:
        """Direct sub-plans (empty for leaves)."""
        return ()

    def label(self) -> str:
        """One explain line describing this operator."""
        raise NotImplementedError


class UnitNode(PlanNode):
    """The nullary relation containing the single empty row (``true``)."""

    __slots__ = ()

    def __init__(self) -> None:
        self.variables = ()

    def rows(self, instance, overrides):
        return (( ),)

    def label(self) -> str:
        return "Unit"


class EmptyNode(PlanNode):
    """The empty relation over a fixed set of columns (``false``)."""

    __slots__ = ()

    def __init__(self, variables: Sequence[Variable] = ()) -> None:
        self.variables = tuple(variables)

    def rows(self, instance, overrides):
        return ()

    def label(self) -> str:
        return f"Empty [{_var_list(self.variables)}]"


class RowsNode(PlanNode):
    """A constant in-plan relation (e.g. a single equality-derived row)."""

    __slots__ = ("_rows",)

    def __init__(self, variables: Sequence[Variable], rows: Iterable[tuple[DataValue, ...]]) -> None:
        self.variables = tuple(variables)
        self._rows = tuple(rows)

    def rows(self, instance, overrides):
        return self._rows

    def label(self) -> str:
        return f"Rows [{_var_list(self.variables)}] ({len(self._rows)} row(s))"


class ScanNode(PlanNode):
    """A relation atom with constant / repeated-variable selections pushed down.

    ``forced`` maps variables of the atom to constants the planner derived
    from equality constraints; those positions are checked like literal
    constants and the variable's output value is the constant itself.  When
    the scan reads a real :class:`~repro.relational.instance.Relation` (not an
    override) and has constant positions, it probes the relation's lazy hash
    index instead of iterating every tuple.
    """

    __slots__ = ("relation", "terms", "forced", "_expected", "_capture", "_repeats", "_emit")

    def __init__(
        self,
        relation: str,
        terms: Sequence[Term],
        forced: Mapping[Variable, DataValue] | None = None,
    ) -> None:
        self.relation = relation
        self.terms = tuple(terms)
        forced = dict(forced or {})
        # Kept so the delta machinery can re-derive this scan over another
        # relation name (repro.query.delta) without replaying the planner.
        self.forced = forced
        seen: dict[Variable, int] = {}
        expected: list[tuple[int, DataValue]] = []   # positions pinned to a value
        repeats: list[tuple[int, int]] = []          # (position, earlier position)
        capture: dict[Variable, int] = {}            # first row position per free var
        order: list[Variable] = []
        for position, term in enumerate(self.terms):
            if isinstance(term, Constant):
                expected.append((position, term.value))
                continue
            if term in forced:
                expected.append((position, forced[term]))
                if term not in seen:
                    seen[term] = position
                    order.append(term)
                continue
            if term in seen:
                repeats.append((position, seen[term]))
            else:
                seen[term] = position
                capture[term] = position
                order.append(term)
        self.variables = tuple(order)
        self._expected = tuple(expected)
        self._repeats = tuple(repeats)
        self._capture = tuple(capture.items())
        # Per output variable: either ("row", position) or ("const", value).
        emit: list[tuple[str, object]] = []
        for variable in order:
            if variable in forced:
                emit.append(("const", forced[variable]))
            else:
                emit.append(("row", capture[variable]))
        self._emit = tuple(emit)

    def _source(self, instance: Instance, overrides: Overrides):
        """The row source and whether it supports hash-index probing."""
        if overrides and self.relation in overrides:
            return overrides[self.relation], None
        if self.relation in instance.schema:
            relation = instance[self.relation]
            if relation.arity != len(self.terms):
                return (), None
            return relation.tuples, relation
        return (), None

    def rows(self, instance, overrides):
        source, relation = self._source(instance, overrides)
        expected = self._expected
        if relation is not None and expected:
            positions = tuple(position for position, _ in expected)
            key = tuple(value for _, value in expected)
            source = relation.hash_index(positions).get(key, ())
            expected = ()
        width = len(self.terms)
        out: list[tuple[DataValue, ...]] = []
        append = out.append
        repeats = self._repeats
        emit = self._emit
        for row in source:
            if len(row) != width:
                continue
            ok = True
            for position, value in expected:
                if row[position] != value:
                    ok = False
                    break
            if not ok:
                continue
            for position, earlier in repeats:
                if row[position] != row[earlier]:
                    ok = False
                    break
            if not ok:
                continue
            append(tuple(spec[1] if spec[0] == "const" else row[spec[1]] for spec in emit))
        return out

    def index_probe(self, instance: Instance, overrides: Overrides, key: Sequence[Variable]):
        """A bucket-probe function keyed on ``key``, or ``None`` if unsupported.

        Backed by the relation's cached hash index on the pinned positions
        plus the key variables' positions, so a join probing this scan does
        not re-hash the relation on every execution -- the index is built once
        per relation object and shared across the engine's memoized
        expansions.  Override sources (Datalog deltas) are not indexed.
        """
        if overrides and self.relation in overrides:
            return None
        _, relation = self._source(instance, overrides)
        if relation is None:
            return None
        capture = dict(self._capture)
        if any(variable not in capture for variable in key):
            return None  # a key variable is pinned to a constant: rare, skip
        positions = tuple(position for position, _ in self._expected) + tuple(
            capture[variable] for variable in key
        )
        prefix = tuple(value for _, value in self._expected)
        index = relation.hash_index(positions)
        repeats = self._repeats
        emit = self._emit

        def probe(key_values: tuple[DataValue, ...]) -> list[tuple[DataValue, ...]]:
            bucket = index.get(prefix + key_values)
            if not bucket:
                return []
            out = []
            for row in bucket:
                ok = True
                for position, earlier in repeats:
                    if row[position] != row[earlier]:
                        ok = False
                        break
                if ok:
                    out.append(
                        tuple(spec[1] if spec[0] == "const" else row[spec[1]] for spec in emit)
                    )
            return out

        return probe

    def label(self) -> str:
        atom = f"{self.relation}({', '.join(str(t) for t in self.terms)})"
        if self._expected:
            pins = ", ".join(f"#{position}={value!r}" for position, value in self._expected)
            return f"IndexScan {atom} [{pins}]"
        return f"Scan {atom}"


class JoinNode(PlanNode):
    """Hash join on the variables shared between the two inputs."""

    __slots__ = ("left", "right", "shared", "_left_key", "_right_key", "_right_extra")

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        self.left = left
        self.right = right
        left_vars = left.variables
        right_vars = right.variables
        self.shared = tuple(v for v in left_vars if v in right_vars)
        self._left_key = tuple(left_vars.index(v) for v in self.shared)
        self._right_key = tuple(right_vars.index(v) for v in self.shared)
        extra = [i for i, v in enumerate(right_vars) if v not in left_vars]
        self._right_extra = tuple(extra)
        self.variables = left_vars + tuple(right_vars[i] for i in extra)

    def children(self):
        return (self.left, self.right)

    def rows(self, instance, overrides):
        left_key = self._left_key
        extra = self._right_extra
        out: list[tuple[DataValue, ...]] = []
        append = out.append
        if self.shared and isinstance(self.right, ScanNode):
            probe = self.right.index_probe(instance, overrides, self.shared)
            if probe is not None:
                for row in self.left.rows(instance, overrides):
                    for match in probe(tuple(row[i] for i in left_key)):
                        append(row + tuple(match[i] for i in extra))
                return out
        right_key = self._right_key
        index: dict[tuple, list[tuple]] = {}
        for row in self.right.rows(instance, overrides):
            key = tuple(row[i] for i in right_key)
            index.setdefault(key, []).append(tuple(row[i] for i in extra))
        for row in self.left.rows(instance, overrides):
            key = tuple(row[i] for i in left_key)
            for suffix in index.get(key, ()):
                append(row + suffix)
        return out

    def label(self) -> str:
        if self.shared:
            return f"HashJoin [{_var_list(self.shared)}]"
        return "CrossJoin"


class AntiJoinNode(PlanNode):
    """Rows of ``left`` with no matching row in ``right`` (safe negation).

    The match is on the right plan's full variable tuple, which the planner
    guarantees is a subset of the left plan's variables.
    """

    __slots__ = ("left", "right", "_left_key")

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        self.left = left
        self.right = right
        missing = [v for v in right.variables if v not in left.variables]
        if missing:
            raise ValueError(f"anti-join right variables {missing} not bound on the left")
        self._left_key = tuple(left.variables.index(v) for v in right.variables)
        self.variables = left.variables

    def children(self):
        return (self.left, self.right)

    def rows(self, instance, overrides):
        banned = set(map(tuple, self.right.rows(instance, overrides)))
        key = self._left_key
        return [row for row in self.left.rows(instance, overrides)
                if tuple(row[i] for i in key) not in banned]

    def label(self) -> str:
        return f"AntiJoin [{_var_list(self.right.variables)}]"


class SelectNode(PlanNode):
    """Residual ``=`` / ``!=`` comparisons over bound columns and constants."""

    __slots__ = ("child", "comparisons", "_checks")

    def __init__(self, child: PlanNode, comparisons: Sequence[Comparison]) -> None:
        self.child = child
        self.comparisons = tuple(comparisons)
        self.variables = child.variables
        positions = {v: i for i, v in enumerate(child.variables)}
        checks = []
        for comparison in self.comparisons:
            checks.append(
                (
                    _accessor(comparison.left, positions),
                    _accessor(comparison.right, positions),
                    comparison.negated,
                )
            )
        self._checks = tuple(checks)

    def children(self):
        return (self.child,)

    def rows(self, instance, overrides):
        checks = self._checks
        out = []
        append = out.append
        for row in self.child.rows(instance, overrides):
            ok = True
            for left, right, negated in checks:
                if (left(row) == right(row)) == negated:
                    ok = False
                    break
            if ok:
                append(row)
        return out

    def label(self) -> str:
        return f"Select [{', '.join(str(c) for c in self.comparisons)}]"


class ExtendNode(PlanNode):
    """Append a column bound to a constant or copied from an existing column."""

    __slots__ = ("child", "variable", "constant", "source", "_source_index")

    def __init__(
        self,
        child: PlanNode,
        variable: Variable,
        constant: DataValue | None = None,
        source: Variable | None = None,
    ) -> None:
        if (constant is None) == (source is None):
            raise ValueError("ExtendNode needs exactly one of constant / source")
        self.child = child
        self.variable = variable
        self.constant = constant
        self.source = source
        self.variables = child.variables + (variable,)
        self._source_index = child.variables.index(source) if source is not None else -1

    def children(self):
        return (self.child,)

    def rows(self, instance, overrides):
        if self.source is None:
            value = self.constant
            return [row + (value,) for row in self.child.rows(instance, overrides)]
        index = self._source_index
        return [row + (row[index],) for row in self.child.rows(instance, overrides)]

    def label(self) -> str:
        if self.source is None:
            return f"Extend {self.variable} := {self.constant!r}"
        return f"Extend {self.variable} := {self.source}"


class RenameNode(PlanNode):
    """Relabel the columns of a sub-plan (used to align UCQ disjunct heads)."""

    __slots__ = ("child",)

    def __init__(self, child: PlanNode, variables: Sequence[Variable]) -> None:
        variables = tuple(variables)
        if len(variables) != len(child.variables):
            raise ValueError("rename must preserve the column count")
        self.child = child
        self.variables = variables

    def children(self):
        return (self.child,)

    def rows(self, instance, overrides):
        return self.child.rows(instance, overrides)

    def label(self) -> str:
        return f"Rename [{_var_list(self.variables)}]"


class ProjectNode(PlanNode):
    """Projection onto an explicit (possibly repeating) variable tuple."""

    __slots__ = ("child", "_positions")

    def __init__(self, child: PlanNode, variables: Sequence[Variable]) -> None:
        self.child = child
        self.variables = tuple(variables)
        positions = {v: i for i, v in enumerate(child.variables)}
        self._positions = tuple(positions[v] for v in self.variables)

    def children(self):
        return (self.child,)

    def rows(self, instance, overrides):
        positions = self._positions
        return {tuple(row[i] for i in positions) for row in self.child.rows(instance, overrides)}

    def label(self) -> str:
        return f"Project [{_var_list(self.variables)}]"


class UnionNode(PlanNode):
    """Set union of sub-plans sharing one variable tuple."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[PlanNode]) -> None:
        parts = tuple(parts)
        if not parts:
            raise ValueError("a union needs at least one part")
        variables = parts[0].variables
        for part in parts[1:]:
            if part.variables != variables:
                raise ValueError("union parts must agree on their variable tuple")
        self.parts = parts
        self.variables = variables

    def children(self):
        return self.parts

    def rows(self, instance, overrides):
        out: set[tuple[DataValue, ...]] = set()
        for part in self.parts:
            out.update(map(tuple, part.rows(instance, overrides)))
        return out

    def label(self) -> str:
        return f"Union ({len(self.parts)} parts)"


class QueryPlan:
    """A compiled query: execute many times, explain once.

    ``requirements`` carries the strict CQ preconditions -- ``(relation,
    arity)`` pairs that must match the instance schema or the whole answer is
    empty (the naive CQ evaluator's behaviour for unknown relations and arity
    mismatches).  FO-derived plans leave it empty: there a bad atom only
    empties its own sub-table.

    Two execution backends share the one plan tree: the original
    **row** backend (each operator's ``rows`` method, tuple-at-a-time over
    raw domain values) and the **columnar** backend of
    :mod:`repro.query.vectorized` (dictionary-encoded integer columns,
    vectorized operators).  :meth:`execute` picks the columnar kernel
    whenever the instance carries an encoding
    (:func:`repro.relational.columnar.ensure_encoded`); ``last_backend``
    records which kernel the most recent execution used, and
    :meth:`explain` reports it.
    """

    __slots__ = (
        "root",
        "head",
        "requirements",
        "executions",
        "last_backend",
        "_delta",
        "_vector",
    )

    def __init__(
        self,
        root: PlanNode,
        head: Sequence[Variable],
        requirements: Sequence[tuple[str, int]] = (),
    ) -> None:
        self.root = root
        self.head = tuple(head)
        self.requirements = tuple(requirements)
        self.executions = 0
        self.last_backend: str | None = None
        self._delta = None  # lazily built repro.query.delta.DeltaPlan
        self._vector = None  # lazily built repro.query.vectorized.VectorKernel

    def _check_requirements(self, instance: Instance, overrides) -> bool:
        for name, arity in self.requirements:
            if name in overrides:
                continue
            if name not in instance.schema or instance.schema.arity(name) != arity:
                return False
        return True

    def vector_kernel(self):
        """The compiled columnar kernel, or ``None`` when unsupported.

        Built once per plan (like the delta machinery); the kernel itself is
        stateless, so one compiled kernel serves every encoded instance.
        """
        if self._vector is None:
            from repro.query.vectorized import vectorize

            self._vector = vectorize(self) or _VECTOR_UNSUPPORTED
        return None if self._vector is _VECTOR_UNSUPPORTED else self._vector

    def execute(
        self, instance: Instance, overrides: Overrides | None = None
    ) -> frozenset[tuple[DataValue, ...]]:
        """Run the plan and return the answer set over the head variables.

        On an encoded instance the columnar kernel runs (raw ``overrides``
        rows -- deltas, Datalog IDB states -- are interned on the fly) and
        the encoded answers are decoded at this boundary; callers that want
        to stay in integer space use :meth:`execute_encoded` instead.
        """
        self.executions += 1
        overrides = overrides or _NO_OVERRIDES
        encoder = instance._encoding
        kernel = self.vector_kernel() if encoder is not None else None
        self.last_backend = "columnar" if kernel is not None else "row"
        if not self._check_requirements(instance, overrides):
            return frozenset()
        if kernel is not None:
            if overrides:
                # Intern only the overrides the plan actually scans: a
                # caller may pass a whole state dict (the Datalog loop's
                # IDB states) of which this plan reads one relation.
                scanned = self.scan_relations()
                encoded_overrides = {
                    name: encoder.encode_rows(rows)
                    for name, rows in overrides.items()
                    if name in scanned
                }
            else:
                encoded_overrides = None
            rows = kernel.execute_raw(encoder, instance, encoded_overrides)
            return encoder.decode_rows(rows)
        return frozenset(map(tuple, self.root.rows(instance, overrides)))

    def execute_encoded(
        self, instance: Instance, overrides=None
    ) -> frozenset[tuple[int, ...]]:
        """Run the columnar kernel and return the *encoded* answer set.

        ``overrides`` maps relation names to sets of already-encoded tuples
        (the engine's register contents, the Datalog loop's IDB states).
        The instance must carry an encoding and the plan must vectorize;
        callers check :meth:`vector_kernel` first or catch ``ValueError``.
        Decoding is deferred to the caller -- typically to the point where
        XML text is actually emitted.
        """
        encoder = instance._encoding
        if encoder is None:
            raise ValueError("execute_encoded requires an encoded instance")
        kernel = self.vector_kernel()
        if kernel is None:
            raise ValueError("plan does not support the columnar backend")
        self.executions += 1
        self.last_backend = "columnar"
        overrides = overrides or _NO_OVERRIDES
        if not self._check_requirements(instance, overrides):
            return frozenset()
        return kernel.execute(encoder, instance, overrides)

    # -- incremental evaluation ----------------------------------------------

    def _delta_plan(self):
        """The per-plan delta machinery, built once on first use."""
        if self._delta is None:
            from repro.query.delta import DeltaPlan

            self._delta = DeltaPlan(self)
        return self._delta

    def scan_relations(self) -> frozenset[str]:
        """The relation names this plan reads (its scanned atoms)."""
        return self._delta_plan().relations

    def is_monotone(self) -> bool:
        """True when adding source tuples can only add answers (no anti-join)."""
        return self._delta_plan().monotone

    def delta_strategy(self) -> str:
        """How :meth:`execute_delta` maintains this plan's answers."""
        if self._delta_plan().monotone:
            return "per-occurrence delta plans (semi-naive)"
        return "recompute fallback (anti-join / negation)"

    def execute_delta(
        self,
        instance: Instance,
        delta,
        *,
        prev_answers: frozenset[tuple[DataValue, ...]] | None = None,
        new_instance: Instance | None = None,
    ):
        """The exact change in this plan's answers under ``delta``.

        Returns a :class:`~repro.query.delta.QueryDelta` whose ``added`` /
        ``removed`` sets satisfy ``execute(new) == (execute(old) - removed) |
        added``.  Monotone plans (CQ/UCQ and negation-free FO) reuse the PR 2
        semi-naive machinery: one derived plan per occurrence of a changed
        relation, with that occurrence reading only the changed tuples, so
        insert-only deltas never re-enumerate the unchanged answers.
        Deletions are over-approximated the same way and then re-derived;
        non-monotone plans (anti-joins) fall back to recomputation, as
        flagged by :meth:`delta_strategy` and :meth:`explain`.

        ``prev_answers`` (the plan's answers on ``instance``) and
        ``new_instance`` (``instance.apply_delta(delta)``) are computed when
        not supplied; callers maintaining views should pass both.
        """
        return self._delta_plan().execute_delta(
            instance, delta, prev_answers=prev_answers, new_instance=new_instance
        )

    # -- introspection -------------------------------------------------------

    def walk(self) -> Iterable[PlanNode]:
        """All operators, root first, depth first."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def join_order(self) -> tuple[str, ...]:
        """The scanned relations in join order (left-deep, left first)."""
        return tuple(
            node.relation for node in self.walk() if isinstance(node, ScanNode)
        )

    def stats(self) -> dict[str, object]:
        """A one-call observability snapshot of this plan.

        The per-plan half of the serving layer's aggregated
        :class:`~repro.serve.stats.ExplainReport`: execution count, the
        backend of the most recent execution, the join order, whether the
        columnar kernel supports the plan, and the incremental-maintenance
        strategy -- previously collected from four separate accessors.
        """
        return {
            "executions": self.executions,
            "last_backend": self.last_backend,
            "join_order": list(self.join_order()),
            "vectorized": self.vector_kernel() is not None,
            "delta_strategy": self.delta_strategy(),
        }

    def operator_counts(self) -> dict[str, int]:
        """How many operators of each kind the plan contains."""
        counts: dict[str, int] = {}
        for node in self.walk():
            name = type(node).__name__.removesuffix("Node")
            counts[name] = counts.get(name, 0) + 1
        return counts

    def explain(self) -> str:
        """A human-readable rendering of the operator tree and join order."""
        lines = [f"QueryPlan head=({_var_list(self.head)})"]
        order = self.join_order()
        if len(order) > 1:
            lines.append(f"  join order: {' >< '.join(order)}")
        lines.append(f"  delta: {self.delta_strategy()}")
        backend = self.last_backend or "none yet (row or columnar, per instance)"
        lines.append(f"  backend: {backend}")

        def render(node: PlanNode, depth: int) -> None:
            lines.append("  " * (depth + 1) + node.label())
            for child in node.children():
                render(child, depth + 1)

        render(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryPlan(head=({_var_list(self.head)}), ops={self.operator_counts()})"


def _var_list(variables: Sequence[Variable]) -> str:
    return ", ".join(v.name for v in variables)


class _ConstAccessor:
    """Accessor returning a fixed constant regardless of the row."""

    __slots__ = ("value",)

    def __init__(self, value: DataValue) -> None:
        self.value = value

    def __call__(self, row):
        return self.value


class _ColumnAccessor:
    """Accessor reading one bound column of the row."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __call__(self, row):
        return row[self.index]


def _accessor(term: Term, positions: Mapping[Variable, int]):
    """A row accessor for one comparison side (constant or bound column)."""
    if isinstance(term, Constant):
        return _ConstAccessor(term.value)
    return _ColumnAccessor(positions[term])
