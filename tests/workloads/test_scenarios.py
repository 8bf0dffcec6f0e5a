"""Tests for workload builders and the scenario driver."""

import random

import pytest

from repro import RequestKind
from repro.workloads import (
    NodePicker,
    build_caterpillar,
    build_path,
    build_random_tree,
    build_star,
    grow_only_mix,
    random_request,
)
from repro.service import ControllerSession, SessionConfig, drive_scenario
from repro.tree import paths


def test_builders_produce_requested_sizes():
    for builder in (build_path, build_star,
                    lambda n: build_caterpillar(n),
                    lambda n: build_random_tree(n, seed=1)):
        tree = builder(37)
        assert tree.size == 37
        tree.validate()
        assert tree.topology_changes == 0  # construction not counted


def test_path_shape():
    tree = build_path(10)
    depths = sorted(paths.depth(n) for n in tree.nodes())
    assert depths == list(range(10))


def test_star_shape():
    tree = build_star(10)
    assert tree.root.child_degree == 9
    assert all(n.is_leaf for n in tree.nodes() if not n.is_root)


def test_random_tree_deterministic_per_seed():
    t1 = build_random_tree(30, seed=5)
    t2 = build_random_tree(30, seed=5)
    assert ([n.parent.node_id for n in t1.nodes() if n.parent]
            == [n.parent.node_id for n in t2.nodes() if n.parent])


def test_node_picker_tracks_mutations():
    tree = build_random_tree(10, seed=1)
    picker = NodePicker(tree)
    rng = random.Random(2)
    added = tree.add_leaf(tree.root)
    assert any(picker.pick(rng) is added for _ in range(200))
    tree.remove_leaf(added)
    assert all(picker.pick(rng) is not added for _ in range(200))
    picker.detach()


def test_random_requests_are_always_feasible():
    tree = build_random_tree(20, seed=3)
    rng = random.Random(4)
    for _ in range(300):
        request = random_request(tree, rng)
        node = request.node
        assert node in tree
        if request.kind is RequestKind.REMOVE_LEAF:
            assert not node.children and not node.is_root
        elif request.kind is RequestKind.REMOVE_INTERNAL:
            assert node.children and not node.is_root
        elif request.kind is RequestKind.ADD_INTERNAL:
            assert request.child.parent is node


def test_grow_only_mix_never_removes():
    tree = build_random_tree(10, seed=5)
    rng = random.Random(6)
    kinds = {random_request(tree, rng, mix=grow_only_mix()).kind
             for _ in range(200)}
    assert kinds <= {RequestKind.ADD_LEAF, RequestKind.PLAIN}


def test_drive_scenario_records_outcomes():
    tree = build_random_tree(10, seed=7)
    session = ControllerSession(SessionConfig.of("trivial", m=50),
                                tree=tree)
    result = drive_scenario(session, steps=80, seed=8,
                            keep_outcomes=True)
    assert result.granted == 50
    assert result.rejected + result.cancelled == 30
    assert len(result.outcomes) == 80
    session.close()


def test_drive_scenario_stop_when():
    tree = build_random_tree(10, seed=9)
    session = ControllerSession(SessionConfig.of("trivial", m=5),
                                tree=tree)
    result = drive_scenario(
        session, steps=500, seed=10,
        stop_when=lambda: session.controller.rejected > 0)
    assert result.granted == 5
    assert result.rejected == 1  # stopped right after the first reject
    session.close()


def test_drive_scenario_detaches_picker():
    tree = build_random_tree(10, seed=11)
    session = ControllerSession(SessionConfig.of("trivial", m=10),
                                tree=tree)
    before = len(tree._listeners)
    drive_scenario(session, steps=20, seed=12)
    assert len(tree._listeners) == before
    session.close()


# ----------------------------------------------------------------------
# Batched driver (submit_many waves through the session layer).
# ----------------------------------------------------------------------
def test_drive_scenario_batched_settles_everything():
    tree = build_random_tree(120, seed=21)
    session = ControllerSession(
        SessionConfig.of("iterated", m=600, w=60, u=600,
                         max_in_flight=16), tree=tree)
    result = drive_scenario(session, steps=100, seed=22, batch_size=16)
    assert result.granted + result.rejected + result.cancelled \
        + result.pending == 100
    assert session.in_flight == 0 and session.undelivered == 0
    session.close()


def test_drive_scenario_batch_size_one_matches_sequential():
    """batch_size=1 must be bit-for-bit the hand-rolled
    generate-submit loop over a bare controller on a twin tree."""
    from repro.core.iterated import IteratedController
    from repro.workloads import NodePicker

    tree_manual = build_random_tree(100, seed=23)
    ctrl_manual = IteratedController(tree_manual, m=500, w=50, u=500)
    rng = random.Random(24)
    picker = NodePicker(tree_manual)
    manual = [0, 0]
    for _ in range(150):
        request = random_request(tree_manual, rng, picker=picker)
        outcome = ctrl_manual.handle(request)
        manual[0] += outcome.granted
        manual[1] += outcome.rejected
    picker.detach()

    tree_driver = build_random_tree(100, seed=23)
    session = ControllerSession(
        SessionConfig.of("iterated", m=500, w=50, u=500),
        tree=tree_driver)
    result = drive_scenario(session, steps=150, seed=24, batch_size=1)
    assert (result.granted, result.rejected) == tuple(manual)
    assert session.controller.counters.total == ctrl_manual.counters.total
    assert tree_driver.size == tree_manual.size
    session.close()


def test_drive_scenario_rejects_bad_batch_size():
    tree = build_random_tree(20, seed=25)
    session = ControllerSession(
        SessionConfig.of("iterated", m=100, w=10, u=100), tree=tree)
    with pytest.raises(ValueError):
        drive_scenario(session, steps=10, batch_size=0)
    session.close()
