"""Detach idempotence for every app that registers tree listeners.

``DynamicTree.remove_listener`` has discard semantics; every layered
``detach()``/``close()`` must therefore be safely callable twice, and a
detached app must actually be unregistered (no hooks fire on later
mutations).
"""

import pytest

from repro import AppSpec, make_app
from repro.apps.subtree_estimator import SuperWeights
from repro.service import APP_NAMES
from repro.workloads import build_random_tree


def _listener_count(tree):
    return len(tree._listeners)


@pytest.mark.parametrize("name", APP_NAMES)
def test_new_app_double_close_unregisters_everything(name):
    tree = build_random_tree(10, seed=1)
    baseline = _listener_count(tree)
    params = {"total": 1 << 16} if name == "majority_commit" else {}
    app = make_app(AppSpec(name, params=params), tree=tree)
    assert _listener_count(tree) > baseline  # controller and/or layers
    app.close()
    assert _listener_count(tree) == baseline
    app.close()   # idempotent
    app.detach()  # the legacy vocabulary aliases close()
    assert _listener_count(tree) == baseline
    # The tree is free for a fresh stack afterwards.
    app2 = make_app(AppSpec(name, params=params), tree=tree)
    app2.close()
    assert _listener_count(tree) == baseline


@pytest.mark.parametrize("factory", [
    lambda tree: __import__("repro.apps", fromlist=["x"])
    .AncestryLabeling(tree),
    lambda tree: __import__("repro.apps", fromlist=["x"])
    .RoutingLabeling(tree),
], ids=["ancestry_labels", "routing_labels"])
def test_label_layer_double_detach_is_a_noop(factory):
    """The listener-layer label structures the apps compose with must
    survive a second ``detach()`` (discard semantics)."""
    tree = build_random_tree(10, seed=2)
    baseline = _listener_count(tree)
    obj = factory(tree)
    obj.detach()
    assert _listener_count(tree) == baseline
    obj.detach()  # second detach: discard semantics, no raise
    assert _listener_count(tree) == baseline


def test_detached_super_weights_stop_counting():
    tree = build_random_tree(10, seed=3)
    app = make_app(AppSpec("subtree_estimator", params={"beta": 2.0}),
                   tree=tree)
    baseline = _listener_count(tree)
    weights = SuperWeights(app)
    assert _listener_count(tree) == baseline + 1
    weights.detach()
    weights.detach()  # discard semantics, no raise
    assert _listener_count(tree) == baseline
    before = {node: weights.of(node) for node in tree.nodes()}
    tree.add_leaf(tree.root)  # mutate after detach: no hook must fire
    assert {node: weights.of(node) for node in before} == before
    app.close()
