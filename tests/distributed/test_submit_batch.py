"""The distributed engine's batched request queue."""

import random

from repro.distributed.controller import DistributedController
from repro.core.requests import Request, RequestKind
from repro.tree import DynamicTree
from repro.workloads import build_random_tree


def make_requests(tree, count, seed):
    rng = random.Random(seed)
    nodes = list(tree.nodes())
    return [Request(RequestKind.PLAIN, nodes[rng.randrange(len(nodes))])
            for _ in range(count)]


def test_batch_resolves_in_submission_order():
    tree = build_random_tree(120, seed=4)
    controller = DistributedController(tree, m=400, w=100, u=400)
    requests = make_requests(tree, 60, seed=5)
    outcomes = controller.submit_batch(requests)
    assert [o.request.request_id for o in outcomes] \
        == [r.request_id for r in requests]
    assert all(o.granted for o in outcomes)
    assert controller.active_agents == 0


def test_batch_pipelines_in_simulated_time():
    """Concurrent agents must beat one-at-a-time round trips on the
    simulated clock (that's the point of the batched queue)."""
    tree_seq = build_random_tree(100, seed=6)
    seq = DistributedController(tree_seq, m=400, w=100, u=400)
    for request in make_requests(tree_seq, 50, seed=7):
        seq.submit_and_run(request)
    sequential_time = seq.scheduler.now

    tree_bat = build_random_tree(100, seed=6)
    bat = DistributedController(tree_bat, m=400, w=100, u=400)
    bat.submit_batch(make_requests(tree_bat, 50, seed=7))
    assert bat.granted == seq.granted == 50
    assert bat.scheduler.now < sequential_time


def test_batch_respects_safety_under_exhaustion():
    tree = build_random_tree(80, seed=8)
    controller = DistributedController(tree, m=30, w=10, u=300)
    outcomes = controller.submit_batch(make_requests(tree, 120, seed=9))
    granted = sum(1 for o in outcomes if o.granted)
    assert granted <= 30
    assert controller.rejecting
    assert len(outcomes) == 120
    assert controller.active_agents == 0


def test_batch_with_topological_requests():
    tree = build_random_tree(60, seed=10)
    controller = DistributedController(tree, m=300, w=60, u=400)
    rng = random.Random(11)
    nodes = list(tree.nodes())
    requests = [Request(RequestKind.ADD_LEAF,
                        nodes[rng.randrange(len(nodes))])
                for _ in range(40)]
    outcomes = controller.submit_batch(requests, stagger=0.25)
    granted = sum(1 for o in outcomes if o.granted)
    assert granted == 40
    assert tree.size == 100
    tree.validate()


def test_one_request_submitted_twice_gets_both_outcomes():
    """Outcomes map back by input position, not request id: at m=1 one
    of the two submissions of the same request is granted."""
    tree = DynamicTree()
    controller = DistributedController(tree, m=1, w=1, u=10)
    request = Request(RequestKind.PLAIN, tree.root)
    outcomes = controller.submit_batch([request, request])
    assert sorted(o.status.value for o in outcomes) \
        == ["granted", "rejected"]
