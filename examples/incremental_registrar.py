"""Incremental maintenance: a stream of enrollment-office updates.

The registrar database of Example 1.1 is published once as the recursive
prerequisite hierarchy of Figure 1(a); afterwards the enrollment office
streams in updates -- new courses, added and dropped prerequisites, a
curriculum purge that empties the ``prereq`` relation -- and a
:class:`~repro.serve.ViewServer` subscription maintains the view
commit-by-commit instead of republishing it from scratch.

Every commit delivers one :class:`~repro.xmltree.diff.EditScript`; each step
prints it with the engine's invalidated/retained memo counters, and the final
state is verified byte-for-byte against the full-publish oracle.

Run with::

    python examples/incremental_registrar.py
"""

from __future__ import annotations

import time

from repro.engine import compile_plan
from repro.relational import Delta
from repro.serve import ViewServer, serialize_tree
from repro.workloads.registrar import (
    example_registrar_instance,
    tau1_prerequisite_hierarchy,
)
from repro.xmltree.diff import trees_equal

#: The update stream: one (description, Delta) event per enrollment decision.
UPDATE_STREAM = [
    (
        "new course: cs500 Compilers",
        Delta.insert("course", ("cs500", "Compilers", "CS")),
    ),
    (
        "cs500 requires cs340 and cs450",
        Delta.insert("prereq", ("cs500", "cs340"), ("cs500", "cs450")),
    ),
    (
        "cs450 now also requires cs340",
        Delta.insert("prereq", ("cs450", "cs340")),
    ),
    (
        "cs240 no longer requires cs101",
        Delta.delete("prereq", ("cs240", "cs101")),
    ),
    (
        "math101 is retired",
        Delta.delete("course", ("math101", "Calculus", "Math")),
    ),
]


def main() -> None:
    tau = tau1_prerequisite_hierarchy()
    server = ViewServer()
    view = server.register_view("hierarchy", tau)
    handle = server.attach(example_registrar_instance())
    subscription = server.subscribe(view, handle)
    print(f"initial view: {subscription.tree.size()} nodes\n")

    for description, delta in UPDATE_STREAM:
        handle.commit(delta)
        step = subscription.pop().result
        print(f"-- {description}")
        print(f"   memo: {step.invalidated} invalidated, {step.retained} retained")
        edits = step.edits.describe() or "(no visible change)"
        for line in edits.splitlines():
            print(f"   {line[:100]}{'...' if len(line) > 100 else ''}")
        print()

    print("-- curriculum purge: drop every prerequisite")
    purge = Delta.delete("prereq", *handle.instance["prereq"].tuples)
    handle.commit(purge)
    step = subscription.pop().result
    print(f"   {len(step.edits)} edits; prereq relation is now empty\n")

    # The differential oracle: a cold full publish must agree byte-for-byte.
    oracle = compile_plan(tau).publish(subscription.instance)
    if not trees_equal(oracle, subscription.tree):
        raise SystemExit("incremental view diverged from the full publish")
    if serialize_tree(oracle) != serialize_tree(subscription.tree):
        raise SystemExit("incremental serialisation diverged from the full publish")
    print("verified: incremental view == full republish (tree- and byte-wise)")

    # And the point of it all: maintaining beats recomputing.
    final_delta = Delta.insert("prereq", ("cs500", "cs240"))
    start = time.perf_counter()
    handle.commit(final_delta)
    incremental = time.perf_counter() - start
    start = time.perf_counter()
    compile_plan(tau).publish(subscription.instance)
    full = time.perf_counter() - start
    print(
        f"last update: incremental {incremental * 1e3:.2f} ms "
        f"vs full republish {full * 1e3:.2f} ms ({full / incremental:.1f}x)"
    )
    print(f"cache stats: {view.plan_for(None).cache_stats.as_dict()}")


if __name__ == "__main__":
    main()
