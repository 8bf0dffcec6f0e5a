"""Tests for the whiteboard map used by the distributed controller."""

from repro import DynamicTree
from repro.core.packages import MobilePackage
from repro.core.requests import OutcomeStatus, Request, RequestKind
from repro.distributed.controller import DistributedController
from repro.distributed.whiteboard import Whiteboard, WhiteboardMap
from repro.workloads.scenarios import build_random_tree


def test_fresh_whiteboard_is_empty():
    board = Whiteboard()
    assert board.is_empty
    assert board.locked_by is None
    assert not board.queue


def test_map_is_lazy():
    tree = DynamicTree()
    boards = WhiteboardMap()
    assert boards.peek(tree.root) is None
    board = boards.get(tree.root)
    assert boards.peek(tree.root) is board


def test_total_parked_permits():
    tree = DynamicTree()
    child = tree.add_leaf(tree.root)
    boards = WhiteboardMap()
    boards.get(tree.root).store.mobile.append(MobilePackage(level=2, size=4))
    boards.get(child).store.static_permits = 3
    assert boards.total_parked_permits() == 7


def test_discard_and_clear():
    tree = DynamicTree()
    boards = WhiteboardMap()
    boards.get(tree.root).store.static_permits = 1
    taken = boards.discard(tree.root)
    assert taken is not None and taken.store.static_permits == 1
    assert boards.discard(tree.root) is None
    boards.get(tree.root)
    boards.clear()
    assert boards.peek(tree.root) is None


def test_the_slot_claim_passes_to_the_next_controller_on_detach():
    """One controller per tree pins its whiteboards into the node
    slots; a second one on the same tree keeps to dict lookups; detach
    unpins every board and gives the claim back."""
    tree = build_random_tree(40, seed=4)
    first = DistributedController(tree, m=200, w=20, u=200)
    second = DistributedController(tree, m=200, w=20, u=200)
    assert first.boards.holds_slots and not second.boards.holds_slots
    assert tree.store_slot_owner is first
    nodes = list(tree.nodes())
    for controller in (first, second):
        outcomes = controller.submit_batch(
            [Request(RequestKind.PLAIN, node) for node in nodes[::3]])
        assert all(o.status is OutcomeStatus.GRANTED for o in outcomes)
    pinned = [node for node in nodes if node._store_owner is first]
    assert pinned and all(node._store is first.boards.peek(node)
                          for node in pinned)
    assert all(node._store_owner is not second for node in nodes)
    first.detach()
    assert tree.store_slot_owner is None
    assert all(node._store_owner is None for node in nodes)
    # The detached controller's boards stay readable through its map.
    assert first.boards.peek(pinned[0]) is not None
    third = DistributedController(tree, m=200, w=20, u=200)
    assert third.boards.holds_slots and tree.store_slot_owner is third
    second.detach()
    third.detach()
    assert tree.store_slot_owner is None
