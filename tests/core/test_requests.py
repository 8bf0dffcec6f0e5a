"""Tests for request/outcome types, the meaningfulness rule and event
execution."""

import random

import pytest

from repro.errors import ControllerError
from repro import (
    CentralizedController,
    DynamicTree,
    Outcome,
    OutcomeStatus,
    Request,
    RequestKind,
)
from repro.baselines import TrivialController
from repro.core.requests import perform_event, still_meaningful
from repro.distributed import DistributedController
from repro.workloads import build_random_tree, random_request


def test_kind_flags():
    assert not RequestKind.PLAIN.is_topological
    assert RequestKind.ADD_LEAF.is_topological
    assert RequestKind.REMOVE_LEAF.is_removal
    assert not RequestKind.ADD_INTERNAL.is_removal


def test_add_internal_requires_child():
    tree = DynamicTree()
    with pytest.raises(ControllerError):
        Request(RequestKind.ADD_INTERNAL, tree.root)


def test_other_kinds_reject_child():
    tree = DynamicTree()
    leaf = tree.add_leaf(tree.root)
    with pytest.raises(ControllerError):
        Request(RequestKind.PLAIN, tree.root, child=leaf)


def test_request_ids_are_unique():
    tree = DynamicTree()
    a = Request(RequestKind.PLAIN, tree.root)
    b = Request(RequestKind.PLAIN, tree.root)
    assert a.request_id != b.request_id


def test_outcome_flags():
    tree = DynamicTree()
    request = Request(RequestKind.PLAIN, tree.root)
    assert Outcome(OutcomeStatus.GRANTED, request).granted
    assert Outcome(OutcomeStatus.REJECTED, request).rejected
    assert not Outcome(OutcomeStatus.PENDING, request).granted


def test_perform_event_each_kind():
    tree = DynamicTree()
    leaf = perform_event(tree, Request(RequestKind.ADD_LEAF, tree.root))
    assert leaf.parent is tree.root
    mid = perform_event(
        tree, Request(RequestKind.ADD_INTERNAL, tree.root, child=leaf))
    assert leaf.parent is mid
    assert perform_event(tree, Request(RequestKind.PLAIN, leaf)) is None
    perform_event(tree, Request(RequestKind.REMOVE_INTERNAL, mid))
    assert leaf.parent is tree.root
    perform_event(tree, Request(RequestKind.REMOVE_LEAF, leaf))
    assert tree.size == 1


def _meaningful(tree, kind, node, child=None):
    return still_meaningful(tree, Request(kind, node, child=child))


def test_still_meaningful_needs_a_live_node_of_the_tree():
    tree = DynamicTree()
    leaf = tree.add_leaf(tree.root)
    assert _meaningful(tree, RequestKind.PLAIN, leaf)
    assert _meaningful(tree, RequestKind.ADD_LEAF, leaf)
    tree.remove_leaf(leaf)
    assert not _meaningful(tree, RequestKind.PLAIN, leaf)
    assert not _meaningful(tree, RequestKind.ADD_LEAF, leaf)
    # Another tree's root is alive, but not in this tree.
    assert not _meaningful(tree, RequestKind.PLAIN, DynamicTree().root)


def test_still_meaningful_removals_follow_the_node_shape():
    tree = DynamicTree()
    root = tree.root
    mid = tree.add_leaf(root)
    leaf = tree.add_leaf(mid)
    assert _meaningful(tree, RequestKind.REMOVE_LEAF, leaf)
    assert not _meaningful(tree, RequestKind.REMOVE_INTERNAL, leaf)
    assert _meaningful(tree, RequestKind.REMOVE_INTERNAL, mid)
    assert not _meaningful(tree, RequestKind.REMOVE_LEAF, mid)
    # The root is never removed, with or without children.
    assert not _meaningful(tree, RequestKind.REMOVE_INTERNAL, root)
    assert not _meaningful(tree, RequestKind.REMOVE_LEAF, DynamicTree().root)
    # Losing its child turns an internal node into a leaf.
    tree.remove_leaf(leaf)
    assert _meaningful(tree, RequestKind.REMOVE_LEAF, mid)
    assert not _meaningful(tree, RequestKind.REMOVE_INTERNAL, mid)


def test_still_meaningful_split_needs_its_edge():
    tree = DynamicTree()
    child = tree.add_leaf(tree.root)
    split = Request(RequestKind.ADD_INTERNAL, tree.root, child=child)
    assert still_meaningful(tree, split)
    # Another split took the edge: the child hangs below a new node.
    between = tree.add_internal(tree.root, child)
    assert not still_meaningful(tree, split)
    # Removing that node restores the edge.
    tree.remove_internal(between)
    assert still_meaningful(tree, split)
    tree.remove_leaf(child)
    assert not still_meaningful(tree, split)


@pytest.mark.parametrize("engine", ["centralized", "trivial", "distributed"])
def test_engines_cancel_exactly_what_still_meaningful_refuses(engine):
    """A stream drawn up front goes stale as earlier grants reshape the
    tree; each engine cancels a request exactly when the shared rule
    refuses it at arrival (the centralized grant inlines the rule)."""
    tree = build_random_tree(30, seed=3)
    rng = random.Random(4)
    requests = [random_request(tree, rng) for _ in range(300)]
    if engine == "centralized":
        handle = CentralizedController(tree, m=10_000, w=100, u=600).handle
    elif engine == "trivial":
        handle = TrivialController(tree, m=10_000).handle
    else:
        controller = DistributedController(tree, m=10_000, w=100, u=600)

        def handle(request):
            outcomes = []
            controller.submit(request, callback=outcomes.append)
            controller.run()
            (outcome,) = outcomes
            return outcome
    refused = 0
    for request in requests:
        expected = still_meaningful(tree, request)
        refused += not expected
        cancelled = handle(request).status is OutcomeStatus.CANCELLED
        assert cancelled is not expected, request
    # The stream exercises both answers.
    assert 0 < refused < len(requests)
