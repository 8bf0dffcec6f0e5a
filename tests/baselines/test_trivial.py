"""Tests for the trivial root-round-trip controller."""

from repro import DynamicTree, OutcomeStatus, Request, RequestKind
from repro.baselines import TrivialController
from repro.tree import paths
from repro.workloads import build_path, build_random_tree
from tests.drivers import drive_handle


def test_exact_m_semantics():
    tree = DynamicTree()
    controller = TrivialController(tree, m=10)
    outcomes = [controller.handle(Request(RequestKind.PLAIN, tree.root))
                for _ in range(15)]
    assert sum(1 for o in outcomes if o.granted) == 10
    assert sum(1 for o in outcomes if o.rejected) == 5


def test_cost_is_two_depth_per_request():
    tree = build_path(50)
    deep = max(tree.nodes(), key=paths.depth)
    controller = TrivialController(tree, m=100)
    controller.handle(Request(RequestKind.PLAIN, deep))
    assert controller.counters.package_moves == 2 * 49
    controller.handle(Request(RequestKind.PLAIN, deep))
    assert controller.counters.package_moves == 4 * 49  # no amortization


def test_supports_full_dynamic_model():
    tree = build_random_tree(20, seed=1)
    controller = TrivialController(tree, m=500)
    result = drive_handle(tree, controller.handle, steps=200, seed=2)
    assert result.granted == 200
    tree.validate()


def test_stale_request_cancelled():
    tree = DynamicTree()
    controller = TrivialController(tree, m=10)
    leaf = controller.handle(
        Request(RequestKind.ADD_LEAF, tree.root)).new_node
    controller.handle(Request(RequestKind.REMOVE_LEAF, leaf))
    outcome = controller.handle(Request(RequestKind.REMOVE_LEAF, leaf))
    assert outcome.status is OutcomeStatus.CANCELLED
