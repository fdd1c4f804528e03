"""Columnar kernel vs the row-at-a-time planner: the ISSUE-4 acceptance benchmark.

Three comparisons, each also a correctness check:

* ``registrar multi-join``: the four-atom registrar rule query through the
  same :class:`~repro.query.plan.QueryPlan`, executed by the PR 2/3 row
  backend vs the dictionary-encoded columnar kernel -- timed both through
  the decoding :meth:`~repro.query.plan.QueryPlan.execute` boundary and in
  pure integer space (:meth:`~repro.query.plan.QueryPlan.execute_encoded`,
  the representation the publishing engine keeps end-to-end).  Both
  backends must produce identical relations.
* ``datalog transitive closure``: the semi-naive fixpoint on a layered DAG,
  row-backend loop vs the integer-space loop over an encoded instance.
* ``publish byte-identity``: registrar tau1 and the Proposition 1(3)
  chain-of-diamonds view published with the encoding on and off must
  serialise to byte-identical XML (the engine's encoded register pipeline
  is an implementation detail, never a visible one).

The acceptance criterion asserts a >= 5x speedup of the integer-space
columnar pipeline on both query workloads.  As with the other benchmarks,
ratios are attached to the pytest-benchmark JSON via ``extra_info``; the
module is also runnable directly (``python benchmarks/bench_columnar.py
[--quick]``), printing the same numbers as JSON for the CI smoke step.
"""

from __future__ import annotations

import json
import sys
import time

from repro.datalog import evaluate_program
from repro.datalog.program import DatalogProgram, DatalogRule
from repro.engine.plan import compile_plan
from repro.logic.cq import ConjunctiveQuery, RelationAtom, equality
from repro.logic.terms import Constant, Variable
from repro.query import plan_query
from repro.relational.columnar import ensure_encoded
from repro.serve import publish_document
from repro.relational.instance import Instance
from repro.workloads.blowup import (
    chain_of_diamonds_instance,
    chain_of_diamonds_transducer,
)
from repro.workloads.random_instances import layered_dag_instance
from repro.workloads.registrar import (
    generate_registrar_instance,
    tau1_prerequisite_hierarchy,
)

#: The acceptance threshold for the columnar speedups.
MIN_SPEEDUP = 5.0


def registrar_multi_join_query() -> ConjunctiveQuery:
    """CS courses with their prerequisites-of-prerequisites (4 atoms, 3 joins).

    The same query as ``bench_query_eval`` (kept local: the benchmark
    modules are standalone scripts, not a package).
    """
    c1, t1, d1 = Variable("c1"), Variable("t1"), Variable("d1")
    c2, c3, t3, d3 = Variable("c2"), Variable("c3"), Variable("t3"), Variable("d3")
    return ConjunctiveQuery(
        (c1, t1, c3, t3),
        (
            RelationAtom("course", (c1, t1, d1)),
            RelationAtom("prereq", (c1, c2)),
            RelationAtom("prereq", (c2, c3)),
            RelationAtom("course", (c3, t3, d3)),
        ),
        (equality(d1, Constant("CS")),),
    )


def transitive_closure_program() -> DatalogProgram:
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    return DatalogProgram(
        [
            DatalogRule(RelationAtom("tc", (x, y)), (RelationAtom("E", (x, y)),)),
            DatalogRule(
                RelationAtom("tc", (x, y)),
                (RelationAtom("tc", (x, z)), RelationAtom("E", (z, y))),
            ),
            DatalogRule(RelationAtom("ans", (x, y)), (RelationAtom("tc", (x, y)),)),
        ]
    )


def _best(fn, repeats: int, batches: int = 5) -> float:
    """Best-of-``batches`` mean seconds per call (robust to CI noise)."""
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        times.append((time.perf_counter() - start) / repeats)
    return min(times)


def _encoded_twin(instance: Instance) -> Instance:
    """A value-identical instance carrying a dictionary encoding."""
    twin = Instance(instance.schema, {name: instance[name].tuples for name in instance})
    ensure_encoded(twin)
    return twin


def measure_registrar_multi_join(num_courses: int = 400, repeats: int = 40) -> dict:
    """Raw numbers for the registrar comparison (shared by test and script)."""
    query = registrar_multi_join_query()
    instance = generate_registrar_instance(num_courses, max_prereqs=3, seed=5)
    encoded = _encoded_twin(instance)
    plan = plan_query(query)
    assert plan is not None
    row_answers = plan.execute(instance)
    columnar_answers = plan.execute(encoded)
    assert columnar_answers == row_answers, "backends must produce identical relations"
    plan.execute_encoded(encoded)  # warm the kernel and the integer indexes
    row_seconds = _best(lambda: plan.execute(instance), repeats)
    columnar_seconds = _best(lambda: plan.execute(encoded), repeats)
    encoded_seconds = _best(lambda: plan.execute_encoded(encoded), repeats)
    return {
        "num_courses": num_courses,
        "answers": len(row_answers),
        "row_seconds": row_seconds,
        "columnar_seconds": columnar_seconds,
        "encoded_seconds": encoded_seconds,
        "row_over_columnar_ratio": row_seconds / columnar_seconds,
        "row_over_encoded_ratio": row_seconds / encoded_seconds,
        "join_order": list(plan.join_order()),
    }


def measure_datalog_transitive_closure(
    layers: int = 10, width: int = 8, repeats: int = 5
) -> dict:
    """Raw numbers for the Datalog comparison (shared by test and script)."""
    program = transitive_closure_program()
    instance = layered_dag_instance(layers, width, seed=2)
    encoded = _encoded_twin(instance)
    row_facts = evaluate_program(program, instance)
    encoded_facts = evaluate_program(program, encoded)
    assert encoded_facts == row_facts, "backends must produce identical relations"
    row_seconds = _best(lambda: evaluate_program(program, instance), repeats)
    encoded_seconds = _best(lambda: evaluate_program(program, encoded), repeats)
    return {
        "layers": layers,
        "width": width,
        "facts": len(row_facts),
        "row_seconds": row_seconds,
        "encoded_seconds": encoded_seconds,
        "row_over_encoded_ratio": row_seconds / encoded_seconds,
    }


def measure_publish_byte_identity(num_courses: int = 60, diamonds: int = 8) -> dict:
    """Publish timings plus the byte-identity check, encoding on vs off."""
    report = {}
    workloads = [
        (
            "registrar_tau1",
            tau1_prerequisite_hierarchy(),
            generate_registrar_instance(num_courses, max_prereqs=2, seed=7),
            None,
        ),
        (
            "chain_of_diamonds",
            chain_of_diamonds_transducer(),
            chain_of_diamonds_instance(diamonds),
            100_000,
        ),
    ]
    for name, transducer, instance, max_nodes in workloads:
        encoded = _encoded_twin(instance)
        row_plan = compile_plan(transducer, max_nodes=max_nodes or 200_000)
        columnar_plan = compile_plan(transducer, max_nodes=max_nodes or 200_000)
        row_xml = publish_document(row_plan, instance)
        columnar_xml = publish_document(columnar_plan, encoded)
        assert row_xml == columnar_xml, f"{name}: published XML must be byte-identical"
        row_seconds = _best(
            lambda: publish_document(
                compile_plan(transducer, max_nodes=max_nodes or 200_000), instance
            ),
            3,
            batches=3,
        )
        columnar_seconds = _best(
            lambda: publish_document(
                compile_plan(transducer, max_nodes=max_nodes or 200_000), encoded
            ),
            3,
            batches=3,
        )
        # The bytes-native driver (repro.engine.walk) on the encoded twin:
        # identical bytes, measured cold (fresh plan per run, like the rest).
        bytes_xml = compile_plan(
            transducer, max_nodes=max_nodes or 200_000
        ).publish_bytes(encoded)
        assert bytes_xml == row_xml, f"{name}: bytes path must be byte-identical"
        bytes_seconds = _best(
            lambda: compile_plan(
                transducer, max_nodes=max_nodes or 200_000
            ).publish_bytes(encoded),
            3,
            batches=3,
        )
        report[name] = {
            "xml_bytes": len(row_xml),
            "byte_identical": True,
            "row_seconds": row_seconds,
            "columnar_seconds": columnar_seconds,
            "row_over_columnar_ratio": row_seconds / columnar_seconds,
            "bytes_path_seconds": bytes_seconds,
            "row_over_bytes_path_ratio": row_seconds / bytes_seconds,
        }
    return report


def test_registrar_multi_join_columnar_vs_row(benchmark):
    """Acceptance: the integer-space columnar pipeline >= 5x over the row backend."""
    query = registrar_multi_join_query()
    instance = generate_registrar_instance(400, max_prereqs=3, seed=5)
    encoded = _encoded_twin(instance)
    plan = plan_query(query)
    expected = plan.execute(instance)
    assert plan.execute(encoded) == expected
    plan.execute_encoded(encoded)

    def columnar():
        return plan.execute_encoded(encoded)

    benchmark(columnar)
    row_seconds = _best(lambda: plan.execute(instance), 20, batches=3)
    columnar_seconds = _best(lambda: plan.execute(encoded), 20, batches=3)
    encoded_seconds = _best(columnar, 20, batches=3)
    benchmark.extra_info["row_seconds"] = row_seconds
    benchmark.extra_info["columnar_seconds"] = columnar_seconds
    benchmark.extra_info["encoded_seconds"] = encoded_seconds
    benchmark.extra_info["row_over_encoded_ratio"] = row_seconds / encoded_seconds
    assert row_seconds / encoded_seconds >= MIN_SPEEDUP


def test_datalog_transitive_closure_columnar_vs_row(benchmark):
    """Acceptance: the integer-space Datalog fixpoint >= 5x over the row loop."""
    program = transitive_closure_program()
    instance = layered_dag_instance(10, 8, seed=2)
    encoded = _encoded_twin(instance)
    expected = evaluate_program(program, instance)
    assert evaluate_program(program, encoded) == expected

    def columnar():
        return evaluate_program(program, encoded)

    benchmark(columnar)
    row_seconds = _best(lambda: evaluate_program(program, instance), 3, batches=3)
    encoded_seconds = _best(columnar, 3, batches=3)
    benchmark.extra_info["row_seconds"] = row_seconds
    benchmark.extra_info["encoded_seconds"] = encoded_seconds
    benchmark.extra_info["row_over_encoded_ratio"] = row_seconds / encoded_seconds
    assert row_seconds / encoded_seconds >= MIN_SPEEDUP


def test_publish_is_byte_identical_with_encoding():
    """The encoded register pipeline must never change a single output byte."""
    report = measure_publish_byte_identity(num_courses=30, diamonds=6)
    assert all(entry["byte_identical"] for entry in report.values())


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    registrar = measure_registrar_multi_join(
        150 if quick else 400, repeats=20 if quick else 40
    )
    datalog = measure_datalog_transitive_closure(
        *(8, 6) if quick else (10, 8), repeats=5
    )
    publish = measure_publish_byte_identity(
        num_courses=30 if quick else 60, diamonds=6 if quick else 8
    )
    report = {
        "benchmark": "bench_columnar",
        "mode": "quick" if quick else "full",
        "registrar_multi_join": registrar,
        "datalog_transitive_closure": datalog,
        "publish_byte_identity": publish,
    }
    print(json.dumps(report, indent=2))
    failures = []
    if registrar["row_over_encoded_ratio"] < MIN_SPEEDUP:
        failures.append(
            f"registrar multi-join: columnar only "
            f"{registrar['row_over_encoded_ratio']:.1f}x over row "
            f"(required: {MIN_SPEEDUP}x)"
        )
    if datalog["row_over_encoded_ratio"] < MIN_SPEEDUP:
        failures.append(
            f"datalog transitive closure: columnar only "
            f"{datalog['row_over_encoded_ratio']:.1f}x over row "
            f"(required: {MIN_SPEEDUP}x)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
