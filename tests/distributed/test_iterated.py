"""Tests for the distributed halving-iteration driver (Theorem 4.7)."""

import random

from repro import DynamicTree, OutcomeStatus, Request, RequestKind
from repro.distributed import DistributedIteratedController
from repro.workloads import NodePicker, build_random_tree, random_request


def batch(tree, seed, count, mix=None):
    rng = random.Random(seed)
    picker = NodePicker(tree)
    requests = [random_request(tree, rng, mix=mix, picker=picker)
                for _ in range(count)]
    picker.detach()
    return requests


def test_small_w_serves_almost_everything():
    tree = DynamicTree()
    controller = DistributedIteratedController(tree, m=120, w=1, u=200)
    requests = [Request(RequestKind.PLAIN, tree.root) for _ in range(150)]
    outcomes = controller.process(requests)
    granted = sum(1 for o in outcomes if o.granted)
    assert granted >= 119
    assert controller.stages_run > 1


def test_w_zero_exact_m():
    tree = DynamicTree()
    controller = DistributedIteratedController(tree, m=40, w=0, u=100)
    requests = [Request(RequestKind.PLAIN, tree.root) for _ in range(60)]
    outcomes = controller.process(requests)
    granted = sum(1 for o in outcomes if o.granted)
    rejected = sum(1 for o in outcomes if o.rejected)
    assert granted == 40
    assert rejected == 20


def test_dynamic_batches_across_stages():
    tree = build_random_tree(15, seed=1)
    controller = DistributedIteratedController(tree, m=200, w=3, u=1500)
    total_granted = 0
    for round_seed in range(6):
        # Requests must be generated against the *current* tree.
        requests = batch(tree, seed=round_seed, count=60)
        outcomes = controller.process(requests)
        total_granted += sum(1 for o in outcomes if o.granted)
        assert all(o.status is not OutcomeStatus.PENDING for o in outcomes)
    assert total_granted <= 200
    if controller.rejecting:
        assert total_granted >= 200 - 3
    tree.validate()


def test_a_stage_rollover_pays_the_termination_pair_and_one_broadcast():
    """L rides the convergecast that confirms a stage's termination
    (Observation 2.1): a stage rollover adds one broadcast to the
    termination pair, 2|T| + (n - 1) in all.  PLAIN requests keep n
    fixed; the first stage's phi = 5 static pools hold permits past
    its termination, so a second halving stage runs."""
    tree = build_random_tree(30, seed=4)
    n = tree.size
    controller = DistributedIteratedController(tree, m=600, w=1, u=30)
    counters = controller.counters
    rng = random.Random(2)
    nodes = list(tree.nodes())
    rollovers = 0
    for _ in range(700):
        stages, charged = controller.stages_run, counters.broadcast_messages
        controller.handle(Request(RequestKind.PLAIN, rng.choice(nodes)))
        rolled = controller.stages_run - stages
        assert counters.broadcast_messages - charged == (
            rolled * (2 * n + (n - 1)))
        rollovers += rolled
    assert rollovers >= 2
    assert controller.granted == 600


def test_process_returns_outcomes_by_input_position():
    """Rolled-over requests settle last, but each outcome comes back at
    its request's position (sessions pair tickets by position)."""
    tree = build_random_tree(60, seed=3)
    controller = DistributedIteratedController(tree, m=12, w=3, u=120)
    rng = random.Random(1)
    nodes = list(tree.nodes())
    requests = [Request(RequestKind.PLAIN, rng.choice(nodes))
                for _ in range(25)]
    completed = []
    outcomes = controller.process(requests, callback=completed.append)
    assert [o.request for o in outcomes] == requests
    assert all(o.request is r for o, r in zip(outcomes, requests))
    assert sorted(map(id, completed)) == sorted(map(id, outcomes))
    assert controller.stages_run > 1
