"""Differential and byte-identity tests for the columnar execution kernel.

The dictionary-encoded, vectorized backend of :mod:`repro.query.vectorized`
must be observationally invisible: on every query and every instance it has
to produce exactly the answers of the row backend and of the naive
active-domain evaluators, and the publishing engine's encoded register
pipeline has to serialise byte-identical XML.  The tests here drive all
three comparisons over random CQ/UCQ/FO queries, random instances, the
registrar views tau1--tau3 and the Proposition 1 blow-up workloads, plus
delta maintenance (``execute_delta`` and ``republish``) on encoded
lineages.
"""

from __future__ import annotations

import random

import pytest

from repro.datalog import (
    evaluate_all_predicates,
    evaluate_program,
    evaluate_program_naive,
)
from repro.datalog.program import DatalogProgram, DatalogRule
from repro.engine.plan import compile_plan
from repro.logic.cq import (
    ConjunctiveQuery,
    RelationAtom,
    UnionOfConjunctiveQueries,
    equality,
    inequality,
)
from repro.logic.fo import And, Eq, Exists, FormulaQuery, Not, Or, Rel
from repro.logic.terms import Constant, Variable
from repro.query import plan_query
from repro.relational import (
    ColumnarRelation,
    Delta,
    DictionaryEncoder,
    Instance,
    Relation,
    encoding_of,
    ensure_encoded,
)
from repro.relational.schema import RelationalSchema
from repro.serve import ViewServer, publish_document, serialize_tree
from repro.workloads.blowup import (
    binary_counter_instance,
    binary_counter_transducer,
    chain_of_diamonds_instance,
    chain_of_diamonds_transducer,
)
from repro.workloads.random_instances import (
    layered_dag_instance,
    random_graph_instance,
    random_unary_binary_instance,
)
from repro.workloads.registrar import (
    example_registrar_instance,
    generate_registrar_instance,
    tau1_prerequisite_hierarchy,
    tau2_prerequisite_closure,
    tau3_courses_without_db_prereq,
)
from repro.xmltree.diff import trees_equal

V = [Variable(f"v{i}") for i in range(6)]
CONSTS = ["d0", "d1", "d2", "n1", "n2"]


def encoded_twin(instance: Instance) -> Instance:
    """A value-identical instance carrying a dictionary encoding."""
    twin = Instance(instance.schema, {name: instance[name].tuples for name in instance})
    ensure_encoded(twin)
    return twin


def paired_instances():
    """(plain, encoded) twins over a mixed bag of small instances."""
    plain = [
        random_unary_binary_instance(5, seed=seed, density=0.4) for seed in range(4)
    ]
    plain += [random_graph_instance(6, 10, seed=seed) for seed in range(2)]
    schema = RelationalSchema.from_arities({"P": 1, "E": 2})
    plain.append(Instance(schema, {}))
    plain.append(Instance(schema, {"P": [("d0",)]}))
    return [(instance, encoded_twin(instance)) for instance in plain]


def random_safe_cq(rng: random.Random) -> ConjunctiveQuery:
    """A random CQ whose head and comparison variables are atom-bound."""
    atoms = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            terms = [
                rng.choice(V[:4]) if rng.random() < 0.8 else Constant(rng.choice(CONSTS))
                for _ in range(2)
            ]
            atoms.append(RelationAtom("E", tuple(terms)))
        else:
            term = rng.choice(V[:4]) if rng.random() < 0.8 else Constant(rng.choice(CONSTS))
            atoms.append(RelationAtom("P", (term,)))
    bound = sorted({v for atom in atoms for v in atom.variables()}, key=lambda v: v.name)
    if not bound:
        bound = [V[0]]
        atoms.append(RelationAtom("P", (V[0],)))
    head = tuple(rng.choice(bound) for _ in range(rng.randint(1, 2)))
    comparisons = []
    for _ in range(rng.randint(0, 2)):
        left = rng.choice(bound)
        right = rng.choice(bound) if rng.random() < 0.5 else Constant(rng.choice(CONSTS))
        maker = equality if rng.random() < 0.6 else inequality
        comparisons.append(maker(left, right))
    return ConjunctiveQuery(head, tuple(atoms), tuple(comparisons))


class TestEncoderAndColumns:
    def test_intern_is_stable_and_dense(self):
        encoder = DictionaryEncoder()
        a = encoder.intern("x")
        b = encoder.intern("y")
        assert (a, b) == (0, 1)
        assert encoder.intern("x") == a
        assert encoder.decode_row((b, a)) == ("y", "x")
        assert len(encoder) == 2

    def test_columns_cached_on_relation_object(self):
        encoder = DictionaryEncoder()
        relation = Relation("E", 2, [("a", "b"), ("b", "c")])
        columnar = encoder.columns_for(relation)
        assert encoder.columns_for(relation) is columnar
        assert isinstance(columnar, ColumnarRelation)
        assert columnar.num_rows == 2
        decoded = {
            (encoder.values[columnar.columns[0][i]], encoder.values[columnar.columns[1][i]])
            for i in range(columnar.num_rows)
        }
        assert decoded == {("a", "b"), ("b", "c")}

    def test_columnar_index_and_unique_index(self):
        encoder = DictionaryEncoder()
        relation = Relation("E", 2, [("a", "b"), ("a", "c"), ("b", "c")])
        columnar = encoder.columns_for(relation)
        index = columnar.index((0,))
        a = encoder.intern("a")
        assert sorted(len(bucket) for bucket in index.values()) == [1, 2]
        assert len(index[a]) == 2
        assert columnar.unique_index((0,)) is None  # "a" occurs twice
        assert columnar.unique_index((0, 1)) is not None  # full row is a key
        stats = columnar.index_stats()
        assert stats["built"] >= 2 and stats["cached"] >= 2

    def test_encoding_propagates_through_versions(self):
        instance = example_registrar_instance()
        encoder = ensure_encoded(instance)
        assert encoding_of(instance) is encoder
        assert ensure_encoded(instance) is encoder  # idempotent
        updated = instance.apply_delta(Delta.insert("prereq", ("cs450", "cs101")))
        assert encoding_of(updated) is encoder
        # Untouched relations share their columnar form by identity.
        assert updated["course"] is instance["course"]
        reverted = updated.apply_delta(Delta.delete("prereq", ("cs450", "cs101")))
        assert encoding_of(reverted) is encoder
        assert encoding_of(instance.updated("prereq", [("a", "b")])) is encoder
        assert encoding_of(instance.extended({"Extra": [("x",)]})) is encoder

    def test_overlays_do_not_inherit_the_encoding(self):
        instance = example_registrar_instance()
        ensure_encoded(instance)
        overlay = instance.overlaid({"Reg": Relation("Reg", 1, [("cs101",)])})
        assert encoding_of(overlay) is None


class TestCqDifferential:
    def test_random_cqs_columnar_vs_row_vs_naive(self):
        rng = random.Random(7)
        pairs = paired_instances()
        checked = 0
        for _ in range(120):
            query = random_safe_cq(rng)
            plan = plan_query(query)
            assert plan is not None
            for plain, encoded in pairs:
                row = plan.execute(plain)
                assert plan.last_backend == "row"
                columnar = plan.execute(encoded)
                assert plan.last_backend == "columnar"
                naive = query.evaluate_naive(plain)
                assert row == columnar == naive, f"{query} diverges"
                checked += 1
        assert checked == 120 * len(pairs)

    def test_random_ucqs_columnar_vs_row(self):
        rng = random.Random(13)
        pairs = paired_instances()
        planned = 0
        for _ in range(40):
            disjuncts = []
            head_width = rng.randint(1, 2)
            for _ in range(rng.randint(2, 3)):
                cq = random_safe_cq(rng)
                disjuncts.append(cq.with_head(tuple(cq.head[:1]) * head_width))
            query = UnionOfConjunctiveQueries(tuple(disjuncts))
            plan = plan_query(query)
            if plan is None:
                continue
            planned += 1
            for plain, encoded in pairs:
                assert plan.execute(plain) == plan.execute(encoded), str(query)
        assert planned >= 20

    def test_repeated_variables_and_constants(self):
        x = V[0]
        pairs = paired_instances()
        queries = [
            ConjunctiveQuery((x,), (RelationAtom("E", (x, x)),)),
            ConjunctiveQuery((x,), (RelationAtom("E", (Constant("n1"), x)),)),
            ConjunctiveQuery(
                (x,), (RelationAtom("E", (x, x)),), (equality(x, Constant("n2")),)
            ),
            # A constant the encoder has never seen.
            ConjunctiveQuery((x,), (RelationAtom("E", (Constant("never-seen"), x)),)),
            ConjunctiveQuery(
                (x,), (RelationAtom("P", (x,)),), (inequality(x, Constant("never-seen")),)
            ),
        ]
        for query in queries:
            plan = plan_query(query)
            for plain, encoded in pairs:
                assert plan.execute(plain) == plan.execute(encoded), str(query)

    def test_overrides_reach_the_columnar_kernel(self):
        x, y = V[0], V[1]
        query = ConjunctiveQuery((x, y), (RelationAtom("E", (x, y)),))
        plan = plan_query(query)
        schema = RelationalSchema.from_arities({"E": 2})
        encoded = encoded_twin(Instance(schema, {"E": [("a", "b")]}))
        rows = plan.execute(encoded, {"E": {("fresh1", "fresh2")}})
        assert plan.last_backend == "columnar"
        assert rows == frozenset({("fresh1", "fresh2")})

    def test_explain_reports_the_backend(self):
        x, y = V[0], V[1]
        query = ConjunctiveQuery((x,), (RelationAtom("E", (x, y)),))
        plan = plan_query(query)
        assert "backend:" in plan.explain()
        plain = random_graph_instance(4, 6, seed=0)
        plan.execute(plain)
        assert "backend: row" in plan.explain()
        plan.execute(encoded_twin(plain))
        assert "backend: columnar" in plan.explain()


class TestFoDifferential:
    def _formulas(self):
        x, y, z = V[0], V[1], V[2]
        return [
            FormulaQuery((x,), Rel("P", (x,))),
            FormulaQuery((x,), Exists((y,), And((Rel("E", (x, y)), Rel("P", (y,)))))),
            FormulaQuery((x,), Or((Rel("P", (x,)), Exists((y,), Rel("E", (x, y)))))),
            FormulaQuery(
                (x,), And((Rel("P", (x,)), Not(Exists((y,), Rel("E", (x, y))))))
            ),
            FormulaQuery((x, y), And((Rel("E", (x, y)), Not(Rel("E", (y, x)))))),
            FormulaQuery(
                (x,), Exists((y,), And((Rel("E", (x, y)), Eq(y, Constant("n2")))))
            ),
            FormulaQuery((x, y), And((Rel("E", (x, y)), Not(Eq(x, y))))),
            FormulaQuery((x, z), And((Rel("P", (x,)), Eq(z, x)))),
        ]

    def test_safe_formulas_columnar_vs_row(self):
        pairs = paired_instances()
        for query in self._formulas():
            plan = plan_query(query)
            assert plan is not None
            for plain, encoded in pairs:
                row = plan.execute(plain)
                columnar = plan.execute(encoded)
                assert row == columnar == query.evaluate_naive(plain), str(query)

    def test_random_formulas_columnar_vs_row(self):
        from repro.logic.fo import FalseFormula, TrueFormula

        rng = random.Random(42)
        rels = [("P", 1), ("E", 2)]

        def rterm():
            return rng.choice(V[:4]) if rng.random() < 0.75 else Constant(rng.choice(CONSTS))

        def rand_formula(depth):
            roll = rng.random()
            if depth <= 0 or roll < 0.35:
                name, arity = rng.choice(rels)
                return Rel(name, tuple(rterm() for _ in range(arity)))
            if roll < 0.45:
                return Eq(rterm(), rterm())
            if roll < 0.6:
                return And(tuple(rand_formula(depth - 1) for _ in range(rng.randint(2, 3))))
            if roll < 0.72:
                return Or(tuple(rand_formula(depth - 1) for _ in range(2)))
            if roll < 0.84:
                return Exists((rng.choice(V[:4]),), rand_formula(depth - 1))
            if roll < 0.94:
                return Not(rand_formula(depth - 1))
            return rng.choice([TrueFormula(), FalseFormula()])

        pairs = paired_instances()
        planned = 0
        for _ in range(150):
            formula = rand_formula(3)
            free = sorted(formula.free_variables(), key=lambda v: v.name)
            query = FormulaQuery(tuple(free[:2]), formula)
            plan = plan_query(query)
            if plan is None:
                continue
            planned += 1
            for plain, encoded in pairs:
                assert plan.execute(plain) == plan.execute(encoded), str(query)
        assert planned >= 50


class TestDeltaMaintenance:
    def test_execute_delta_on_encoded_lineage(self):
        x, y, z = V[0], V[1], V[2]
        query = ConjunctiveQuery(
            (x, z), (RelationAtom("E", (x, y)), RelationAtom("E", (y, z)))
        )
        plan = plan_query(query)
        rng = random.Random(3)
        plain = random_graph_instance(6, 12, seed=5)
        encoded = encoded_twin(plain)
        for step in range(10):
            nodes = [f"n{i}" for i in range(6)]
            if rng.random() < 0.5:
                delta = Delta.insert("E", (rng.choice(nodes), rng.choice(nodes)))
            else:
                edges = sorted(encoded["E"])
                delta = (
                    Delta.delete("E", rng.choice(edges))
                    if edges
                    else Delta.insert("E", (nodes[0], nodes[1]))
                )
            prev = plan.execute(encoded)
            change = plan.execute_delta(encoded, delta)
            encoded = encoded.apply_delta(delta)
            assert encoding_of(encoded) is not None
            assert change.apply(prev) == plan.execute(encoded), f"step {step}"

    def test_datalog_fixpoint_columnar_vs_row_vs_naive(self):
        x, y, z = V[0], V[1], V[2]
        program = DatalogProgram(
            [
                DatalogRule(RelationAtom("tc", (x, y)), (RelationAtom("E", (x, y)),)),
                DatalogRule(
                    RelationAtom("tc", (x, y)),
                    (RelationAtom("tc", (x, z)), RelationAtom("E", (z, y))),
                ),
                DatalogRule(RelationAtom("ans", (x, y)), (RelationAtom("tc", (x, y)),)),
            ]
        )
        plain = layered_dag_instance(5, 4, seed=1)
        encoded = layered_dag_instance(5, 4, seed=1, encoded=True)
        assert encoding_of(encoded) is not None
        naive = evaluate_program_naive(program, plain)
        assert evaluate_program(program, plain) == naive
        assert evaluate_program(program, encoded) == naive
        assert evaluate_all_predicates(program, plain) == evaluate_all_predicates(
            program, encoded
        )


class TestPublishByteIdentity:
    def _registrar_instances(self):
        yield example_registrar_instance()
        yield generate_registrar_instance(30, max_prereqs=2, seed=3, cycle_fraction=0.1)

    @pytest.mark.parametrize(
        "make_tau",
        [
            tau1_prerequisite_hierarchy,
            tau2_prerequisite_closure,
            tau3_courses_without_db_prereq,
        ],
        ids=["tau1", "tau2", "tau3"],
    )
    def test_registrar_views_byte_identical(self, make_tau):
        tau = make_tau()
        for instance in self._registrar_instances():
            encoded = encoded_twin(instance)
            plain_plan = compile_plan(tau)
            encoded_plan = compile_plan(tau)
            assert publish_document(plain_plan, instance) == publish_document(
                encoded_plan, encoded
            )
            assert trees_equal(
                plain_plan.publish(instance), encoded_plan.publish(encoded)
            )
            # The interpreter-compatible result decodes its registers.
            full_plain = plain_plan.publish_full(instance)
            full_encoded = encoded_plan.publish_full(encoded)
            assert trees_equal(full_plain.tree, full_encoded.tree)
            def canonical(root):
                return sorted(
                    (n.state, n.tag, tuple(sorted(n.register))) for n in root.walk()
                )

            assert canonical(full_plain.extended_root) == canonical(
                full_encoded.extended_root
            )

    def test_blowup_workloads_byte_identical(self):
        cases = [
            (chain_of_diamonds_transducer(), chain_of_diamonds_instance(6), 100_000),
            (binary_counter_transducer(), binary_counter_instance(2), 100_000),
        ]
        for tau, instance, max_nodes in cases:
            encoded = encoded_twin(instance)
            plain_plan = compile_plan(tau, max_nodes=max_nodes)
            encoded_plan = compile_plan(tau, max_nodes=max_nodes)
            assert publish_document(plain_plan, instance) == publish_document(
                encoded_plan, encoded
            )

    def test_encoded_workload_constructors(self):
        assert encoding_of(generate_registrar_instance(10, seed=1, encoded=True))
        assert encoding_of(chain_of_diamonds_instance(3, encoded=True))
        assert encoding_of(binary_counter_instance(2, encoded=True))
        assert encoding_of(layered_dag_instance(3, 3, encoded=True))


class TestRepublishEncoded:
    def _random_delta(self, rng, instance):
        courses = sorted(row[0] for row in instance["course"])
        if rng.random() < 0.5:
            return Delta.insert("prereq", (rng.choice(courses), rng.choice(courses)))
        prereqs = sorted(instance["prereq"])
        if not prereqs:
            return Delta.insert("prereq", (courses[0], courses[-1]))
        return Delta.delete("prereq", rng.choice(prereqs))

    @pytest.mark.parametrize(
        "make_tau",
        [
            tau1_prerequisite_hierarchy,
            tau2_prerequisite_closure,
            tau3_courses_without_db_prereq,
        ],
        ids=["tau1", "tau2", "tau3"],
    )
    def test_republish_chain_matches_full_publish(self, make_tau):
        tau = make_tau()
        rng = random.Random(17)
        instance = generate_registrar_instance(18, max_prereqs=2, seed=6)
        encoded = encoded_twin(instance)
        plan = compile_plan(tau)
        oracle_plan = compile_plan(tau)
        result = None
        current = encoded
        for step in range(8):
            delta = self._random_delta(rng, current)
            result = plan.republish(result if result else current, delta)
            current = result.instance
            assert encoding_of(current) is encoding_of(encoded)
            oracle = oracle_plan.publish(
                Instance(current.schema, {n: current[n].tuples for n in current})
            )
            assert trees_equal(result.tree, oracle), f"{tau.name} step {step}"

    def test_republish_after_mid_lineage_ensure_encoded(self):
        """Encoding an instance between publish and republish must not
        migrate row-mode memo entries into the encoded pipeline."""
        tau = tau1_prerequisite_hierarchy()
        instance = example_registrar_instance()
        plan = compile_plan(tau)
        plan.publish(instance)  # row-mode state cached for this instance
        ensure_encoded(instance)  # representation changes mid-lineage
        delta = Delta.insert("prereq", ("cs450", "cs340"))
        result = plan.republish(instance, delta)
        oracle = compile_plan(tau).publish(
            Instance(
                result.instance.schema,
                {n: result.instance[n].tuples for n in result.instance},
            )
        )
        assert trees_equal(result.tree, oracle)

    def test_ensure_encoded_rejects_conflicting_encoder(self):
        instance = example_registrar_instance()
        encoder = ensure_encoded(instance)
        assert ensure_encoded(instance, encoder) is encoder
        with pytest.raises(ValueError):
            ensure_encoded(instance, DictionaryEncoder())

    def test_subscription_on_encoded_source(self):
        tau = tau1_prerequisite_hierarchy()
        server = ViewServer()
        server.register_view("view", tau)
        handle = server.attach(example_registrar_instance(), encoded=True)
        subscription = server.subscribe("view", handle)
        assert encoding_of(subscription.instance) is not None
        handle.commit(Delta.insert("prereq", ("cs450", "cs340")))
        handle.commit(Delta.delete("prereq", ("cs240", "cs101")))
        oracle = compile_plan(tau).publish(subscription.instance)
        assert trees_equal(oracle, subscription.tree)
        assert serialize_tree(oracle) == serialize_tree(subscription.tree)


class TestIndexHygiene:
    def test_hash_index_cap_and_stats(self):
        relation = Relation("R", 4, [(i, i + 1, i + 2, i + 3) for i in range(10)])
        seen = []
        cap = Relation.max_hash_indexes
        for i in range(cap + 3):
            positions = (i % 4, (i * 7 + 1) % 4, i % 3)
            relation.hash_index(positions)
            seen.append(positions)
        stats = relation.index_stats()
        assert stats["cached"] <= cap
        assert stats["built"] == len(set(seen))
        assert stats["evicted"] == stats["built"] - stats["cached"]
        assert stats["capacity"] == cap
        relation.clear_indexes()
        assert relation.index_stats()["cached"] == 0

    def test_hash_index_still_cached_and_correct(self):
        relation = Relation("E", 2, [("a", "b"), ("a", "c"), ("b", "c")])
        index = relation.hash_index((0,))
        assert relation.hash_index((0,)) is index
        assert sorted(index[("a",)]) == [("a", "b"), ("a", "c")]

    def test_columnar_index_cap(self):
        encoder = DictionaryEncoder()
        relation = Relation("R", 4, [(i, i + 1, i + 2, i + 3) for i in range(10)])
        columnar = encoder.columns_for(relation)
        for i in range(columnar.max_indexes + 3):
            columnar.index((i % 4, (i * 7 + 1) % 4, i % 3))
        stats = columnar.index_stats()
        assert stats["cached"] <= columnar.max_indexes

    def test_trusted_algebra_constructors_skip_revalidation(self):
        from repro.relational import algebra

        left = Relation("R", 2, [("a", "b"), ("b", "c")])
        right = Relation("S", 2, [("b", "c")])
        assert algebra.union(left, right).tuples == left.tuples
        assert algebra.rename(left, "T").tuples is left.tuples
        projected = algebra.projection(left, (1,))
        assert projected.tuples == frozenset({("b",), ("c",)})
