"""Tests for the distributed unknown-U controller (Appendix A)."""

import random

import pytest

from repro.errors import ControllerError
from repro import DynamicTree, OutcomeStatus, Request, RequestKind
from repro.distributed import DistributedAdaptiveController
from repro.workloads import NodePicker, build_random_tree, random_request


def drive(controller, tree, rounds, per_round, seed, mix=None):
    rng = random.Random(seed)
    outcomes = []
    for _ in range(rounds):
        picker = NodePicker(tree)
        requests = [random_request(tree, rng, mix=mix, picker=picker)
                    for _ in range(per_round)]
        picker.detach()
        outcomes += controller.process(requests)
    return outcomes


def test_epochs_roll_with_churn():
    tree = build_random_tree(10, seed=1)
    controller = DistributedAdaptiveController(tree, m=5000, w=50)
    drive(controller, tree, rounds=6, per_round=60, seed=2)
    assert controller.epochs_run > 1
    tree.validate()


def test_an_epoch_rollover_pays_the_termination_pair_and_one_broadcast():
    """N_{i+1} and Y_i ride the convergecast that confirms the change
    counter's termination (Observation 2.1): the epoch rollover adds
    one broadcast to the termination pair, 2|T| + (n - 1) in all."""
    tree = build_random_tree(20, seed=5)
    controller = DistributedAdaptiveController(tree, m=5000, w=50)
    counters = controller.counters
    while controller.epochs_run == 1:
        size, charged = tree.size, counters.broadcast_messages
        assert charged == 0
        outcome = controller.handle(Request(RequestKind.ADD_LEAF, tree.root))
        assert outcome.granted
    assert controller.epochs_run == 2
    assert counters.broadcast_messages - charged == 2 * size + (size - 1)


def test_safety():
    tree = build_random_tree(10, seed=3)
    controller = DistributedAdaptiveController(tree, m=80, w=10)
    outcomes = drive(controller, tree, rounds=6, per_round=60, seed=4)
    granted = sum(1 for o in outcomes if o.granted)
    assert granted <= 80
    assert granted == controller.granted


def test_liveness_with_epoch_slack():
    """At reject time granted >= M - W minus one wasted main permit per
    epoch boundary (the re-served boundary request)."""
    for seed in range(3):
        tree = build_random_tree(8, seed=seed)
        controller = DistributedAdaptiveController(tree, m=150, w=12)
        drive(controller, tree, rounds=10, per_round=60, seed=seed + 9)
        if controller.rejecting:
            slack = controller.epochs_run
            assert controller.granted >= 150 - 12 - slack


def test_rejections_sticky():
    tree = DynamicTree()
    controller = DistributedAdaptiveController(tree, m=5, w=1)
    requests = [Request(RequestKind.PLAIN, tree.root) for _ in range(15)]
    outcomes = controller.process(requests)
    statuses = [o.status for o in outcomes]
    first = statuses.index(OutcomeStatus.REJECTED)
    assert all(s is OutcomeStatus.REJECTED for s in statuses[first:])


def test_both_permits_needed_for_topological_changes():
    """The change counter terminates after U_i/4..U_i/2 changes, forcing
    epoch rollovers even while the main budget is plentiful."""
    tree = build_random_tree(6, seed=5)
    controller = DistributedAdaptiveController(tree, m=10_000, w=100)
    drive(controller, tree, rounds=5, per_round=40, seed=6,
          mix={RequestKind.ADD_LEAF: 1.0})
    assert controller.epochs_run >= 3
    assert tree.size > 100


def test_w_zero_rejected_by_constructor():
    tree = DynamicTree()
    with pytest.raises(ControllerError):
        DistributedAdaptiveController(tree, m=10, w=0)
