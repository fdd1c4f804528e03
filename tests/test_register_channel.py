"""The engine's one register channel.

A rule query reads the register as one more relation of the instance.  The
publishing engine feeds it to every planned query through the plans'
override channel, on row and encoded instances alike:

* a transducer whose rule queries all have plans never builds a register
  overlay and never computes an active domain (tau1, tau3); only items
  without a plan still evaluate on an overlay (tau2), and the output is
  still the reference interpreter's;
* row and encoded lineages prove the same things in republish's delta
  checks: after the same single-tuple commits their cache counters agree,
  across all three check modes (witness, variants and recompute) and for a
  witnessed register scan with a pinned constant.
"""

from __future__ import annotations

import pytest

from repro.core.runtime import TransducerRuntime
from repro.engine.builder import TransducerBuilder
from repro.engine.plan import compile_plan
from repro.logic.cq import ConjunctiveQuery, RelationAtom
from repro.logic.terms import Constant, Variable
from repro.relational import Delta, Instance, ensure_encoded
from repro.serve import serialize_tree
from repro.workloads.blowup import (
    chain_of_diamonds_instance,
    chain_of_diamonds_transducer,
)
from repro.workloads.registrar import (
    generate_registrar_instance,
    tau1_prerequisite_hierarchy,
    tau2_prerequisite_closure,
    tau3_courses_without_db_prereq,
)
from repro.xmltree.diff import trees_equal


@pytest.fixture
def overlay_log(monkeypatch):
    """Records every register overlay built (by the relations it adds) and
    counts active domains computed, on any instance."""
    log = {"overlays": [], "active_domains": 0}
    overlaid = Instance.overlaid
    active_domain = Instance.active_domain

    def logged_overlaid(self, extra, *args, **kwargs):
        log["overlays"].append(frozenset(extra))
        return overlaid(self, extra, *args, **kwargs)

    def counted_active_domain(self):
        if self._active_domain is None:
            log["active_domains"] += 1
        return active_domain(self)

    monkeypatch.setattr(Instance, "overlaid", logged_overlaid)
    monkeypatch.setattr(Instance, "active_domain", counted_active_domain)
    return log


def _registrar_deltas(instance: Instance) -> list[Delta]:
    """Single-tuple commits on both relations every registrar view reads."""
    courses = sorted(row[0] for row in instance["course"])
    prereqs = sorted(instance["prereq"])
    return [
        Delta.insert("prereq", (courses[-1], courses[0])),
        Delta.delete("prereq", prereqs[0]),
        Delta.insert("course", ("CS900", "Databases", "CS")),
        Delta.insert("prereq", (courses[1], "CS900")),
        Delta.delete("prereq", prereqs[-1]),
    ]


def _publish_and_republish(tau, instance: Instance):
    plan = compile_plan(tau)
    plan.publish_bytes(instance)
    result = None
    for delta in _registrar_deltas(instance):
        result = plan.republish(result if result else instance, delta)
    return result


@pytest.mark.parametrize(
    "make_tau",
    [tau1_prerequisite_hierarchy, tau3_courses_without_db_prereq],
    ids=["tau1", "tau3"],
)
def test_planned_views_build_no_overlay_and_no_active_domain(make_tau, overlay_log):
    instance = generate_registrar_instance(40, seed=3)
    result = _publish_and_republish(make_tau(), instance)
    assert result.invalidated > 0
    assert overlay_log == {"overlays": [], "active_domains": 0}


def test_unplanned_items_still_evaluate_on_an_overlay(overlay_log):
    tau = tau2_prerequisite_closure()
    instance = generate_registrar_instance(16, seed=3)
    result = _publish_and_republish(tau, instance)
    # Only rule (q, l) has an item without a plan (the fixpoint test).
    assert overlay_log["overlays"]
    assert set(overlay_log["overlays"]) == {frozenset({"Reg", "Reg_l"})}
    reference = TransducerRuntime(tau, max_nodes=10**6).run(result.instance).tree
    assert trees_equal(result.tree, reference)


def _encoded_twin(instance: Instance) -> Instance:
    twin = Instance(instance.schema, {name: instance[name].tuples for name in instance})
    ensure_encoded(twin)
    return twin


def _diamond_deltas(instance: Instance) -> list[Delta]:
    edges = sorted(instance["R"])
    return [
        Delta.insert("R", ("a0", "a2")),
        Delta.delete("R", edges[0]),
        Delta.insert("R", ("b1_1", "b1_2")),
        Delta.delete("R", edges[-1]),
    ]


def _pinned_hierarchy():
    """A prerequisite hierarchy whose step scans the register with a pinned
    constant (``Reg_course(cp, "CS")``): its register witnesses must intern
    the constant to compare against encoded registers."""
    c, t, d, cp = Variable("c"), Variable("t"), Variable("d"), Variable("cp")
    courses = ConjunctiveQuery((c, d), (RelationAtom("course", (c, t, d)),))
    step = ConjunctiveQuery(
        (c, d),
        (
            RelationAtom("Reg_course", (cp, Constant("CS"))),
            RelationAtom("prereq", (cp, c)),
            RelationAtom("course", (c, t, d)),
        ),
    )
    builder = TransducerBuilder("pinned-hierarchy", root="db", start="q0")
    builder.start().emit("q", "course", courses)
    (
        builder.state("q")
        .on("course")
        .emit("q", "cno", ConjunctiveQuery((c,), (RelationAtom("Reg_course", (c, d)),)))
        .emit("q", "course", step)
    )
    builder.state("q").on("cno").emit_text(
        ConjunctiveQuery((c,), (RelationAtom("Reg_cno", (c,)),))
    )
    return builder.build()


def _recorded_modes(plan) -> dict:
    """Wrap ``plan``'s per-rule delta classification to record its modes."""
    seen: dict = {}
    classify = plan._pair_delta_info

    def recording(state, prior, delta, pair, triples):
        info = classify(state, prior, delta, pair, triples)
        seen.setdefault(pair, set()).add(info.mode)
        return info

    plan._pair_delta_info = recording
    return seen


@pytest.mark.parametrize(
    "make_tau, make_instance, make_deltas, modes",
    [
        (
            tau1_prerequisite_hierarchy,
            lambda: generate_registrar_instance(30, seed=4),
            _registrar_deltas,
            {("q", "prereq"): "witness"},
        ),
        (
            tau2_prerequisite_closure,
            lambda: generate_registrar_instance(14, seed=4),
            _registrar_deltas,
            {("q", "prereq"): "variants", ("q", "l"): "recompute"},
        ),
        (
            tau3_courses_without_db_prereq,
            lambda: generate_registrar_instance(30, seed=4),
            _registrar_deltas,
            {("q0", "db"): "recompute"},
        ),
        (
            chain_of_diamonds_transducer,
            lambda: chain_of_diamonds_instance(5),
            _diamond_deltas,
            {("q", "a"): "witness"},
        ),
        (
            _pinned_hierarchy,
            lambda: generate_registrar_instance(30, seed=4),
            _registrar_deltas,
            {("q", "course"): "witness"},
        ),
    ],
    ids=["tau1", "tau2", "tau3", "diamonds", "pinned"],
)
def test_row_and_encoded_lineages_prove_the_same(make_tau, make_instance, make_deltas, modes):
    tau = make_tau()
    row = make_instance()
    deltas = make_deltas(row)
    lineages = []
    for instance in (row, _encoded_twin(row)):
        plan = compile_plan(tau)
        lineages.append((plan, _recorded_modes(plan), instance))
        plan.publish_bytes(instance)
    results = [None, None]
    for step, delta in enumerate(deltas):
        for side, (plan, _, instance) in enumerate(lineages):
            previous = results[side]
            results[side] = plan.republish(previous if previous else instance, delta)
        (row_plan, _, _), (encoded_plan, _, _) = lineages
        assert row_plan.cache_stats == encoded_plan.cache_stats, f"step {step}"
        assert serialize_tree(results[0].tree) == serialize_tree(results[1].tree)
    for plan, seen, _ in lineages:
        for pair, mode in modes.items():
            assert mode in seen.get(pair, ()), (pair, seen)
