"""Per-node whiteboard state (Section 4.3.1).

The whiteboard at a node holds the node's package store, the lock
variable (``state`` in the paper: locked/unlocked, here the locking
agent or ``None``), and the FIFO queue of agents waiting for the lock.
Agents read and write a whiteboard only while visiting the node — the
simulator enforces this structurally because all whiteboard access goes
through the controller's arrival handlers.
"""

from collections import deque
from typing import Deque, Optional

from repro.core.packages import NodeStore, SlotMap


class Whiteboard:
    """State stored at one node by the distributed controller.

    A ``__slots__`` class: whiteboards are probed on every agent hop
    (lock check, filler check), so the per-instance ``__dict__`` is
    dropped alongside the rest of the message fast path's allocations.
    """

    __slots__ = ("store", "locked_by", "queue")

    def __init__(self, store: Optional[NodeStore] = None,
                 locked_by: Optional[object] = None,
                 queue: Optional[Deque[object]] = None) -> None:
        self.store = store if store is not None else NodeStore()
        self.locked_by = locked_by  # the Agent holding the lock
        self.queue: Deque[object] = queue if queue is not None else deque()

    @property
    def is_empty(self) -> bool:
        return (self.store.is_empty and self.locked_by is None
                and not self.queue)

    def __repr__(self) -> str:
        return (f"Whiteboard(store={self.store!r}, "
                f"locked_by={self.locked_by!r}, queue={self.queue!r})")


class WhiteboardMap(SlotMap[Whiteboard]):
    """Lazy node -> whiteboard map (nodes without state cost nothing).

    Built with the controller's tree, it claims the node slots the way
    the centralized engines' :class:`~repro.core.packages.StoreMap`
    does, so the arrival handlers read a board with two slot loads.
    """

    __slots__ = ()

    _new = Whiteboard

    def total_parked_permits(self) -> int:
        return sum(board.store.total_permits()
                   for _node, board in self._items.values())
