"""The scenario catalogue: registration, stream shapes, determinism."""

import pytest

from repro.core.iterated import IteratedController
from repro.core.requests import RequestKind
from repro.metrics import audit_controller
from repro.errors import ConfigError
from repro.tree import paths
from repro.workloads import CATALOGUE, get_scenario, scenario_names
from repro.workloads.catalogue import _subtree_nodes
from repro.workloads.scenarios import request_spec


EXPECTED = {"hot_spot", "deep_burst", "grow_shrink", "near_exhaustion",
            "mixed_flood"}


def test_catalogue_registration():
    assert set(scenario_names()) == EXPECTED
    for name in EXPECTED:
        spec = get_scenario(name)
        assert spec.name == name
        assert spec.m > 0 and spec.w >= 1 and spec.u >= spec.n
    with pytest.raises(ConfigError):
        get_scenario("calm_tuesday")


def test_streams_are_pregenerated_and_leave_the_tree_alone():
    for spec in CATALOGUE.values():
        tree = spec.build_tree(seed=1)
        stream = spec.stream(tree, seed=1)
        assert len(stream) == spec.steps
        assert tree.size == spec.n
        assert tree.topology_changes == 0
        alive = set(tree.nodes())
        for request in stream:
            assert request.node in alive
            if request.child is not None:
                assert request.child in alive


def test_streams_are_seed_deterministic():
    spec = get_scenario("mixed_flood")
    tree_a = spec.build_tree(seed=4)
    tree_b = spec.build_tree(seed=4)
    specs_a = [request_spec(r) for r in spec.stream(tree_a, seed=4)]
    specs_b = [request_spec(r) for r in spec.stream(tree_b, seed=4)]
    assert specs_a == specs_b
    specs_c = [request_spec(r) for r in spec.stream(tree_a, seed=5)]
    assert specs_a != specs_c


def test_hot_spot_is_actually_skewed():
    spec = get_scenario("hot_spot")
    tree = spec.build_tree(seed=0)
    stream = spec.stream(tree, seed=0)
    hot_root = max((n for n in tree.nodes() if not n.is_root),
                   key=lambda n: (len(_subtree_nodes(n)), -n.node_id))
    hot = set(_subtree_nodes(hot_root))
    inside = sum(1 for r in stream if r.node in hot)
    assert inside >= 0.7 * len(stream)
    assert inside < len(stream)  # the 15% background traffic exists


def test_deep_burst_targets_the_deep_quarter():
    spec = get_scenario("deep_burst")
    tree = spec.build_tree(seed=0)
    stream = spec.stream(tree, seed=0)
    depths = sorted(paths.depth(n) for n in tree.nodes())
    threshold = depths[-max(len(depths) // 4, 1)]
    deep_hits = sum(1 for r in stream if paths.depth(r.node) >= threshold)
    # Bursts are 25 of every 40 steps, all aimed at the deep quarter.
    assert deep_hits >= 0.5 * len(stream)


def test_grow_shrink_waves():
    spec = get_scenario("grow_shrink")
    tree = spec.build_tree(seed=0)
    stream = spec.stream(tree, seed=0)
    half = spec.steps // 2
    adds = (RequestKind.ADD_LEAF, RequestKind.ADD_INTERNAL)
    removes = (RequestKind.REMOVE_LEAF, RequestKind.REMOVE_INTERNAL)
    first, second = stream[:half], stream[half:]
    assert sum(r.kind in adds for r in first) > 0.5 * half
    assert sum(r.kind in removes for r in first) == 0
    assert sum(r.kind in adds for r in second) == 0
    assert sum(r.kind in removes for r in second) > 0.4 * len(second)


def test_near_exhaustion_drives_through_the_budget():
    spec = get_scenario("near_exhaustion")
    assert spec.steps > spec.m  # the stream must outrun the budget
    tree = spec.build_tree(seed=0)
    controller = IteratedController(tree, m=spec.m, w=spec.w, u=spec.u)
    outcomes = [controller.handle(r) for r in spec.stream(tree, seed=0)]
    assert any(o.rejected for o in outcomes)
    assert controller.granted <= spec.m
    assert controller.granted >= spec.m - spec.w
    assert audit_controller(controller).passed


def test_scaled_specs_shrink_consistently():
    spec = get_scenario("mixed_flood")
    small = spec.scaled(0.25)
    assert small.n < spec.n and small.steps < spec.steps
    assert small.m < spec.m and small.w >= 1
    tree = small.build_tree(seed=0)
    assert len(small.stream(tree, seed=0)) == small.steps
    tiny = spec.scaled(0.0001)  # floors keep everything runnable
    assert tiny.n >= 8 and tiny.steps >= 16 and tiny.w >= 1
