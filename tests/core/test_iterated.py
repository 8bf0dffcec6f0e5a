"""Tests for the halving-iteration wrapper (Observation 3.4)."""

from repro import (
    DynamicTree,
    IteratedController,
    OutcomeStatus,
    Request,
    RequestKind,
)
from repro.workloads import build_random_tree
from tests.drivers import drive_handle


def plain(node):
    return Request(RequestKind.PLAIN, node)


def test_all_permits_eventually_granted_with_small_w():
    tree = DynamicTree()
    controller = IteratedController(tree, m=200, w=1, u=100)
    grants = 0
    while True:
        outcome = controller.handle(plain(tree.root))
        if outcome.rejected:
            break
        grants += 1
    assert grants >= 199  # (M, 1): at most one permit wasted
    assert controller.stages_run > 1  # halving actually iterated


def test_w_zero_grants_exactly_m():
    tree = DynamicTree()
    controller = IteratedController(tree, m=50, w=0, u=100)
    grants = 0
    for _ in range(80):
        outcome = controller.handle(plain(tree.root))
        if outcome.granted:
            grants += 1
    assert grants == 50  # W = 0 means *exactly* M permits
    assert controller.rejecting


def test_w_zero_on_dynamic_scenario():
    tree = build_random_tree(15, seed=1)
    controller = IteratedController(tree, m=60, w=0, u=400)
    result = drive_handle(tree, controller.handle, steps=400, seed=2)
    assert result.granted == 60
    assert result.rejected > 0


def test_liveness_across_stages():
    """After the final reject, granted >= M - W for the *outer* pair."""
    for seed in range(4):
        tree = build_random_tree(12, seed=seed)
        controller = IteratedController(tree, m=100, w=7, u=500)
        drive_handle(tree, controller.handle, steps=600, seed=seed + 9,
                     stop_when=lambda: controller.rejecting)
        if controller.rejecting:
            assert controller.granted >= 100 - 7


def test_safety_across_stages():
    tree = build_random_tree(12, seed=3)
    controller = IteratedController(tree, m=64, w=3, u=500)
    drive_handle(tree, controller.handle, steps=500, seed=5)
    assert controller.granted <= 64


def test_unused_permits_accounting():
    tree = build_random_tree(10, seed=4)
    controller = IteratedController(tree, m=300, w=5, u=400)
    drive_handle(tree, controller.handle, steps=120, seed=6)
    assert controller.granted + controller.unused_permits() == 300


def test_rejections_are_sticky():
    tree = DynamicTree()
    controller = IteratedController(tree, m=5, w=1, u=50)
    outcomes = [controller.handle(plain(tree.root)) for _ in range(20)]
    statuses = [o.status for o in outcomes]
    first_reject = statuses.index(OutcomeStatus.REJECTED)
    assert all(s is OutcomeStatus.REJECTED
               for s in statuses[first_reject:])


def test_small_budget_deep_request_does_not_livelock():
    """A stage that cannot cover a deep request must cut to the final
    stage instead of re-halving forever."""
    tree = DynamicTree()
    node = tree.root
    for _ in range(300):
        node = tree.add_leaf(node)
    controller = IteratedController(tree, m=3, w=1, u=700)
    outcome = controller.handle(plain(node))
    # Either granted (final stage found budget) or rejected; never hangs.
    assert outcome.status in (OutcomeStatus.GRANTED, OutcomeStatus.REJECTED)
