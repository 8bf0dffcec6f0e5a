"""Tests for the AAPS bin-hierarchy reconstruction."""

import pytest

from repro.errors import TopologyError
from repro import DynamicTree, Request, RequestKind
from repro.baselines import AAPSController
from repro.tree import paths
from repro.workloads import (
    build_path,
    build_random_tree,
    grow_only_mix,
)
from tests.drivers import drive_handle


def test_grants_on_grow_only_workload():
    tree = build_random_tree(20, seed=1)
    controller = AAPSController(tree, m=500, w=100, u=2000)
    result = drive_handle(tree, controller.handle, steps=300, seed=2,
                          mix=grow_only_mix())
    assert result.granted == 300
    assert controller.granted == 300
    tree.validate()


def test_safety_and_liveness():
    for seed in range(4):
        tree = build_random_tree(10, seed=seed)
        controller = AAPSController(tree, m=50, w=12, u=500)
        drive_handle(tree, controller.handle, steps=200, seed=seed + 5,
                     mix=grow_only_mix())
        assert controller.granted <= 50
        if controller.rejecting:
            assert controller.granted >= 50 - 12


def test_permit_conservation():
    tree = build_random_tree(15, seed=3)
    controller = AAPSController(tree, m=400, w=80, u=1000)
    drive_handle(tree, controller.handle, steps=150, seed=4,
                 mix=grow_only_mix())
    assert controller.granted + controller.unused_permits() == 400


def test_rejects_unsupported_topology_changes():
    tree = DynamicTree()
    leaf = tree.add_leaf(tree.root)
    controller = AAPSController(tree, m=10, w=2, u=50)
    with pytest.raises(TopologyError):
        controller.handle(Request(RequestKind.REMOVE_LEAF, leaf))
    with pytest.raises(TopologyError):
        controller.handle(Request(RequestKind.ADD_INTERNAL, tree.root,
                                  child=leaf))


def test_bin_locality_amortizes_deep_requests():
    """Repeated requests at a deep node must not pay the full depth each
    time (the supervisor chain refills local bins)."""
    tree = build_path(200)
    deep = max(tree.nodes(), key=paths.depth)
    controller = AAPSController(tree, m=10_000, w=5000, u=400)
    costs = []
    for _ in range(20):
        before = controller.counters.package_moves
        controller.handle(Request(RequestKind.PLAIN, deep))
        costs.append(controller.counters.package_moves - before)
    # First request pays the climb; most later ones are (near) free.
    assert costs[0] > 0
    assert sum(costs[1:]) < costs[0] * 4
    assert costs.count(0) > 10
