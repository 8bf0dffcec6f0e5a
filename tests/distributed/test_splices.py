"""Targeted tests of the graceful-change path splices (Section 4.2).

The subtle distributed cases: an internal node inserted under a node an
agent is waiting at, deletion of an agent's origin by its own request,
and deletions that relocate packages and queued agents.  Each test
constructs the interleaving explicitly via submission times.
"""

import random

from repro import OutcomeStatus, Request, RequestKind
from repro.distributed import DistributedController
from repro.sim.delays import UnitDelay
from repro.tree import paths
from repro.workloads import NodePicker, build_path, build_random_tree, random_request


def test_insert_below_waiting_agent_keeps_distances_consistent():
    """Agent B waits at v while agent I inserts a node between v and B's
    topmost locked node w; B's path and Distance must absorb the splice."""
    tree = build_path(8)
    nodes = sorted(tree.nodes(), key=paths.depth)
    v, w = nodes[3], nodes[4]
    deep = nodes[-1]
    controller = DistributedController(tree, m=100, w=50, u=50,
                                       delays=UnitDelay())
    outcomes = []
    # I: insert between v and w (arrives at v, locks v..root first).
    controller.submit(Request(RequestKind.ADD_INTERNAL, v, child=w),
                      delay=0.0, callback=outcomes.append)
    # B: a plain request from the deep end, launched so it queues at v.
    controller.submit(Request(RequestKind.PLAIN, deep),
                      delay=0.5, callback=outcomes.append)
    controller.run()
    assert [o.status for o in outcomes] == [OutcomeStatus.GRANTED] * 2
    assert controller.active_agents == 0
    for node, board in controller.boards.items():
        assert board.locked_by is None and not board.queue
    tree.validate()
    assert paths.depth(deep) == 8  # one deeper than built


def test_self_deletion_of_origin():
    tree = build_path(10)
    deep = max(tree.nodes(), key=paths.depth)
    controller = DistributedController(tree, m=100, w=50, u=50)
    outcome = controller.submit_and_run(
        Request(RequestKind.REMOVE_LEAF, deep))
    assert outcome.granted
    assert deep not in tree
    assert controller.active_agents == 0
    for node, board in controller.boards.items():
        assert board.locked_by is None


def test_deletion_relocates_packages_and_static_pool():
    tree = build_path(30)
    nodes = sorted(tree.nodes(), key=paths.depth)
    deep = nodes[-1]
    controller = DistributedController(tree, m=1000, w=500, u=60)
    controller.submit_and_run(Request(RequestKind.PLAIN, deep))
    static_before = controller.boards.get(deep).store.static_permits
    assert static_before > 0
    parent = deep.parent
    controller.submit_and_run(Request(RequestKind.REMOVE_LEAF, deep))
    assert (controller.boards.get(parent).store.static_permits
            == static_before - 1)
    assert controller.counters.relocation_messages >= 1


def test_fresh_waiter_rehomed_on_origin_deletion():
    """A plain request created at a node being deleted migrates to the
    parent and is eventually granted there."""
    tree = build_path(12)
    deep = max(tree.nodes(), key=paths.depth)
    parent = deep.parent
    controller = DistributedController(tree, m=100, w=50, u=50,
                                       delays=UnitDelay())
    outcomes = []
    # The deletion agent starts first and locks ``deep``.
    controller.submit(Request(RequestKind.REMOVE_LEAF, deep),
                      delay=0.0, callback=outcomes.append)
    # This plain request arrives at ``deep`` while it is locked, so it
    # queues there and is carried to the parent by the deletion.
    controller.submit(Request(RequestKind.PLAIN, deep),
                      delay=0.5, callback=outcomes.append)
    controller.run()
    statuses = sorted(o.status.value for o in outcomes)
    assert statuses == ["granted", "granted"]
    assert controller.active_agents == 0


def test_topological_waiter_cancelled_on_origin_deletion():
    """A second deletion request for the same node is cancelled when the
    node disappears under it."""
    tree = build_path(12)
    deep = max(tree.nodes(), key=paths.depth)
    controller = DistributedController(tree, m=100, w=50, u=50,
                                       delays=UnitDelay())
    outcomes = []
    controller.submit(Request(RequestKind.REMOVE_LEAF, deep),
                      delay=0.0, callback=outcomes.append)
    controller.submit(Request(RequestKind.REMOVE_LEAF, deep),
                      delay=0.5, callback=outcomes.append)
    controller.run()
    statuses = {o.status for o in outcomes}
    assert OutcomeStatus.GRANTED in statuses
    assert OutcomeStatus.CANCELLED in statuses
    assert controller.active_agents == 0


def test_mixed_concurrent_splice_storm():
    """Randomized stress focused on topological churn with overlap."""
    mix = {
        RequestKind.ADD_LEAF: 0.25,
        RequestKind.ADD_INTERNAL: 0.30,
        RequestKind.REMOVE_LEAF: 0.25,
        RequestKind.REMOVE_INTERNAL: 0.20,
    }
    for seed in range(5):
        tree = build_random_tree(30, seed=seed)
        controller = DistributedController(tree, m=800, w=200, u=2000)
        rng = random.Random(seed + 60)
        picker = NodePicker(tree)
        outcomes = []
        at = 0.0
        for _ in range(250):
            request = random_request(tree, rng, mix=mix, picker=picker)
            controller.submit(request, delay=at, callback=outcomes.append)
            at += 0.25
        controller.run()
        picker.detach()
        assert len(outcomes) == 250
        assert controller.active_agents == 0
        for node, board in controller.boards.items():
            assert board.locked_by is None and not board.queue
        tree.validate()
