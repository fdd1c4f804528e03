"""Seeded interleavings of ViewServer operations, checked against a model.

Each seed drives a random sequence of operations over tau1-tau3 and two
sources -- one on the row backend, one attached ``encoded=True``:

* single-tuple commits (inserts and deletes, some of them no-ops);
* publishes of the latest or an older retained version, by number or
  through a held :class:`~repro.serve.SourceVersion`, on every output form,
  backend and maintenance mode;
* subscribe, drain (replaying each edit script), and close;
* prune, after which publishing a pruned version number must raise
  :class:`~repro.serve.ServeError`.

The model is plain data: the tuple sets of every version of every source.
Every document the server returns must equal the literal Section 3
interpreter (:class:`~repro.core.runtime.TransducerRuntime`) on the model's
instance, rendered by the reference serialiser.  The server keeps at most
two idle maintained chains, so chain eviction interleaves with
subscriptions too.
"""

from __future__ import annotations

import random

import pytest

from repro.core.runtime import TransducerRuntime
from repro.relational.delta import Delta
from repro.relational.instance import Instance
from repro.serve import BACKENDS, MAINTENANCE, ServeError, ViewServer
from repro.workloads.registrar import (
    REGISTRAR_SCHEMA,
    tau1_prerequisite_hierarchy,
    tau2_prerequisite_closure,
    tau3_courses_without_db_prereq,
)
from repro.xmltree.events import events_to_tree
from repro.xmltree.serialize import to_compact_xml, to_xml

VIEWS = {
    "tau1": tau1_prerequisite_hierarchy(),
    "tau2": tau2_prerequisite_closure("CS"),
    "tau3": tau3_courses_without_db_prereq(),
}
OUTPUTS = ("tree", "events", "bytes", "xml", "compact")
COURSES = tuple(f"cs{n}" for n in range(1, 9))
TITLES = ("Databases", "Graphs", "Logic")
DEPARTMENTS = ("CS", "CS", "Math")
OPS_PER_SEED = 40


def _random_course(rng: random.Random) -> tuple:
    return (rng.choice(COURSES), rng.choice(TITLES), rng.choice(DEPARTMENTS))


def _random_prereq(rng: random.Random) -> tuple:
    # Mostly downward edges (a DAG); now and then a back edge, so cycles
    # exercise the stop condition without blowing the documents up.
    first, second = rng.sample(COURSES, 2)
    if rng.random() < 0.9 and first < second:
        first, second = second, first
    return (first, second)


def _random_backend(rng: random.Random) -> str:
    # Half the calls share the "auto" chain keys, so publishes of older
    # versions meet chains that subscriptions have moved past them.
    return "auto" if rng.random() < 0.5 else rng.choice(BACKENDS)


def _initial_tuples(rng: random.Random) -> dict:
    courses = {_random_course(rng) for _ in range(5)}
    prereqs = {_random_prereq(rng) for _ in range(4)}
    return {"course": frozenset(courses), "prereq": frozenset(prereqs)}


class SourceModel:
    """One source as plain data: the tuple sets of every version."""

    def __init__(self, handle, tuples: dict) -> None:
        self.handle = handle
        self.versions = {handle.version: tuples}
        self.retained = [handle.version]
        self.snapshots: dict[int, object] = {}
        self._oracles: dict[tuple[int, str], object] = {}

    @property
    def latest(self) -> int:
        return self.retained[-1]

    def commit(self, relation: str, row: tuple, insert: bool) -> None:
        tuples = dict(self.versions[self.latest])
        tuples[relation] = (
            tuples[relation] | {row} if insert else tuples[relation] - {row}
        )
        version = self.latest + 1
        self.versions[version] = tuples
        self.retained.append(version)

    def oracle(self, version: int, view: str):
        """The interpreter's tree for ``view`` at ``version`` (memoised)."""
        key = (version, view)
        if key not in self._oracles:
            instance = Instance(REGISTRAR_SCHEMA, self.versions[version])
            self._oracles[key] = TransducerRuntime(VIEWS[view]).run(instance).tree
        return self._oracles[key]


def _check_output(result, output: str, tree) -> None:
    if output == "tree":
        assert result == tree
    elif output == "events":
        assert events_to_tree(result) == tree
    elif output == "compact":
        assert result == to_compact_xml(tree)
    else:
        assert result == to_xml(tree)


class Replay:
    """A subscriber's local copy of the document, advanced by edit scripts."""

    def __init__(self, subscription, view: str, model: SourceModel) -> None:
        self.subscription = subscription
        self.view = view
        self.model = model
        self.version = subscription.version
        self.tree = subscription.tree
        assert self.version == model.latest
        assert self.tree == model.oracle(self.version, view)

    def drain(self) -> None:
        for event in self.subscription.drain():
            assert event.version == self.version + 1
            self.tree = event.edits.apply(self.tree)
            self.version = event.version
            assert self.tree == self.model.oracle(self.version, self.view)
        assert self.version == self.model.latest
        assert self.tree == self.subscription.tree


def _run_seed(seed: int) -> None:
    rng = random.Random(seed)
    server = ViewServer(maintained_views=2)
    for name, transducer in VIEWS.items():
        server.register_view(name, transducer)
    models = []
    for name, encoded in (("rows", False), ("encoded", True)):
        tuples = _initial_tuples(rng)
        handle = server.attach(
            Instance(REGISTRAR_SCHEMA, tuples), name=name, encoded=encoded
        )
        models.append(SourceModel(handle, tuples))
    replays: list[Replay] = []

    def commit(model: SourceModel) -> None:
        insert = rng.random() < 0.6
        relation = rng.choice(("course", "prereq"))
        existing = sorted(model.versions[model.latest][relation])
        if insert or not existing or rng.random() < 0.1:
            row = _random_course(rng) if relation == "course" else _random_prereq(rng)
        else:
            row = rng.choice(existing)
        delta = Delta.insert(relation, row) if insert else Delta.delete(relation, row)
        version = model.handle.commit(delta)
        model.commit(relation, row, insert)
        assert version.index == model.handle.version == model.latest

    def publish(model: SourceModel) -> None:
        view = rng.choice(sorted(VIEWS))
        older = model.retained[:-1]
        version = rng.choice(older) if older and rng.random() < 0.5 else model.latest
        output = rng.choice(OUTPUTS)
        axes = dict(
            output=output,
            backend=_random_backend(rng),
            maintenance=rng.choice(MAINTENANCE),
        )
        if version in model.snapshots and rng.random() < 0.5:
            result = server.publish(view, source=model.snapshots[version], **axes)
        elif version == model.latest and rng.random() < 0.5:
            result = server.publish(view, source=model.handle, **axes)
        else:
            result = server.publish(view, source=model.handle, version=version, **axes)
        _check_output(result, output, model.oracle(version, view))

    def publish_pruned(model: SourceModel) -> None:
        pruned = sorted(set(model.versions) - set(model.retained))
        if not pruned:
            return
        version = rng.choice(pruned)
        with pytest.raises(ServeError):
            server.publish(rng.choice(sorted(VIEWS)), source=model.handle, version=version)
        # A version object handed out before the prune keeps its instance.
        if version in model.snapshots:
            view = rng.choice(sorted(VIEWS))
            result = server.publish(
                view, source=model.snapshots[version], output="bytes"
            )
            _check_output(result, "bytes", model.oracle(version, view))

    def hold_snapshot(model: SourceModel) -> None:
        version = rng.choice(model.retained)
        model.snapshots[version] = model.handle.snapshot(version)

    def subscribe(model: SourceModel) -> None:
        view = rng.choice(sorted(VIEWS))
        subscription = server.subscribe(view, model.handle, backend=_random_backend(rng))
        replays.append(Replay(subscription, view, model))

    def drain(model: SourceModel) -> None:
        for replay in replays:
            if replay.model is model:
                replay.drain()

    def close(model: SourceModel) -> None:
        mine = [replay for replay in replays if replay.model is model]
        if mine:
            replay = rng.choice(mine)
            replays.remove(replay)
            replay.drain()
            replay.subscription.close()

    def prune(model: SourceModel) -> None:
        keep = rng.randint(1, 4)
        dropped = model.handle.prune(keep_last=keep)
        expected = model.retained[:-keep]
        model.retained = model.retained[-keep:]
        assert dropped.indices == tuple(expected)
        assert [v.index for v in model.handle.history()] == model.retained

    operations = (
        (commit, 30),
        (publish, 30),
        (publish_pruned, 4),
        (hold_snapshot, 5),
        (subscribe, 8),
        (drain, 12),
        (close, 3),
        (prune, 6),
    )
    actions, weights = zip(*operations)
    for _ in range(OPS_PER_SEED):
        action = rng.choices(actions, weights)[0]
        action(rng.choice(models))
    for replay in replays:
        replay.drain()
    assert server.stats().subscriptions == len(replays)


@pytest.mark.parametrize("seed", range(16))
def test_interleaving_matches_model(seed):
    _run_seed(seed)
