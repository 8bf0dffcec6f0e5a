"""Permit packages and per-node package storage (Section 3.1).

Two package kinds exist:

* **mobile** packages of level ``i`` holding exactly ``2^i * phi``
  permits — the unit of bulk permit transport;
* **static** permits — the per-node pool requests are granted from.
  All static packages at one node are merged into a single counter,
  which is exactly the representation the memory argument of
  Section 4.4.2 uses ("consider all static packages at v as one
  combined static package").

Reject packages carry no state beyond their presence (they represent
infinitely many rejects), so a node stores just a boolean.

For the name-assignment application (Section 5.2) every package can
optionally carry an explicit interval of permit serial numbers; see
``repro.apps.name_assignment`` — the core controller itself never looks
at intervals, mirroring the paper's separation.
"""

import itertools
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Generic, List, Optional, Tuple,
                    TypeVar, ValuesView)

_package_ids = itertools.count()

T = TypeVar("T")


@dataclass
class MobilePackage:
    """A mobile permit package.

    ``size`` always equals ``2^level * phi`` for the owning controller's
    ``phi``; the controller enforces this (property tests check it).
    ``interval`` is an optional ``(lo, hi)`` range of permit serial
    numbers, maintained only when the controller runs in interval mode
    for the name-assignment protocol.
    """

    level: int
    size: int
    package_id: int = field(default_factory=_package_ids.__next__)
    interval: Optional[Tuple[int, int]] = None

    def split_interval(self) -> Tuple[Optional[Tuple[int, int]],
                                      Optional[Tuple[int, int]]]:
        """Halve this package's interval (left half, right half)."""
        if self.interval is None:
            return None, None
        lo, hi = self.interval
        mid = lo + (hi - lo) // 2
        return (lo, mid), (mid + 1, hi)


@dataclass
class NodeStore:
    """Everything the controller keeps at one node.

    ``mobile`` holds the parked mobile packages in parking order (the
    kernel's filler lookup takes the first one of the level that fits);
    ``static_permits`` is the merged static pool; ``static_intervals``
    mirrors it with serial-number ranges when interval mode is on.
    """

    mobile: List[MobilePackage] = field(default_factory=list)
    static_permits: int = 0
    has_reject: bool = False
    static_intervals: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return (not self.mobile and self.static_permits == 0
                and not self.has_reject)

    def total_permits(self) -> int:
        """All permits parked at this node (mobile + static)."""
        return sum(p.size for p in self.mobile) + self.static_permits

    def take_static_serial(self) -> Optional[int]:
        """Pop one serial number from the static interval pool."""
        if not self.static_intervals:
            return None
        lo, hi = self.static_intervals[0]
        if lo == hi:
            self.static_intervals.pop(0)
        else:
            self.static_intervals[0] = (lo + 1, hi)
        return lo

    def merge_from(self, other: "NodeStore") -> None:
        """Absorb another node's store (graceful deletion hand-over)."""
        self.mobile.extend(other.mobile)
        self.static_permits += other.static_permits
        self.static_intervals.extend(other.static_intervals)
        self.has_reject = self.has_reject or other.has_reject
        other.mobile = []
        other.static_permits = 0
        other.static_intervals = []


class SlotMap(Generic[T]):
    """Lazy node -> per-node state map (nodes without state cost nothing,
    matching the memory claim; iteration only visits nodes that ever
    held state).  Subclasses name the state type in ``_new``.

    Entries are keyed by ``id(node)`` and hold the node (so the id
    stays unique): no entry operation calls ``TreeNode.__hash__``.

    Given a ``tree`` whose per-node slots nobody holds, the map claims
    them for ``owner``: every entry it creates is also pinned into the
    node's ``_store_owner`` / ``_store`` slots, so hot loops read
    ``node._store if node._store_owner is owner`` — two slot loads
    instead of a dict probe.  One map per tree holds the claim
    (``DynamicTree.store_slot_owner``), so a pinned slot is always
    authoritative for its owner, and a holder's slot miss means the
    node has no entry.  A map that finds the slots taken keeps to dict
    lookups.  :meth:`release_slots` gives the claim back.
    """

    __slots__ = ("_items", "_slot_owner", "_tree")

    _new: Callable[[], T]

    def __init__(self, tree: Optional[Any] = None,
                 owner: Optional[object] = None) -> None:
        self._items: Dict[int, Tuple[Any, T]] = {}
        self._slot_owner: Optional[object] = None
        self._tree: Optional[Any] = None
        if tree is not None and tree.store_slot_owner is None:
            tree.store_slot_owner = owner
            self._slot_owner = owner
            self._tree = tree

    @property
    def holds_slots(self) -> bool:
        """Whether this map pins its entries into the node slots."""
        return self._slot_owner is not None

    def get(self, node: Any) -> T:
        owner = self._slot_owner
        if owner is None:
            entry = self._items.get(id(node))
            if entry is not None:
                return entry[1]
            item = self._new()
            self._items[id(node)] = (node, item)
            return item
        if node._store_owner is owner:
            return node._store
        item = self._new()
        self._items[id(node)] = (node, item)
        node._store_owner = owner
        node._store = item
        return item

    def peek(self, node: Any) -> Optional[T]:
        """The entry if it exists, without creating one."""
        owner = self._slot_owner
        if owner is None:
            entry = self._items.get(id(node))
            return entry[1] if entry is not None else None
        return node._store if node._store_owner is owner else None

    def discard(self, node: Any) -> Optional[T]:
        """Remove and return a node's entry (used on deletion)."""
        owner = self._slot_owner
        if owner is None:
            entry = self._items.pop(id(node), None)
            return entry[1] if entry is not None else None
        if node._store_owner is not owner:
            return None
        node._store_owner = None
        node._store = None
        return self._items.pop(id(node))[1]

    def items(self) -> ValuesView[Tuple[Any, T]]:
        """The ``(node, entry)`` pairs, in creation order."""
        return self._items.values()

    def release_slots(self) -> None:
        """Unpin every slot this map holds and give the tree's claim
        back (called on controller detach)."""
        owner = self._slot_owner
        if owner is None:
            return
        for node, _item in self._items.values():
            if node._store_owner is owner:
                node._store_owner = None
                node._store = None
        tree = self._tree
        if tree is not None and tree.store_slot_owner is owner:
            tree.store_slot_owner = None
        self._slot_owner = self._tree = None

    def clear(self) -> None:
        self.release_slots()
        self._items.clear()


class StoreMap(SlotMap[NodeStore]):
    """Lazy node -> :class:`NodeStore` map (the centralized engines')."""

    __slots__ = ()

    _new = NodeStore

    def total_parked_permits(self) -> int:
        """Permits currently sitting in packages anywhere in the tree."""
        return sum(store.total_permits()
                   for _node, store in self._items.values())
