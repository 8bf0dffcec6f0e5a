"""The trivial controller (Section 1).

"If the only case a permit is moved is directly from the root to the
requesting node, the message complexity can reach Omega(nM), i.e.,
Omega(n) per request."  This baseline implements exactly that: every
request walks to the root (depth messages), receives one permit or a
reject, and walks back (depth messages).  It is a perfectly correct
(M, 0)-Controller — its only sin is cost, which bench E10 quantifies.
"""

from typing import Iterable, List, Optional

from repro.metrics.counters import MoveCounters
from repro.protocol import ControllerView
from repro.tree import paths
from repro.tree.dynamic_tree import DynamicTree
from repro.core.requests import (
    Outcome,
    OutcomeStatus,
    Request,
    RequestKind,
    perform_event,
)


class TrivialController:
    """Per-request root round-trip controller; exact (M, 0) semantics."""

    def __init__(self, tree: DynamicTree, m: int,
                 counters: Optional[MoveCounters] = None):
        self.tree = tree
        self.m = m
        self.storage = m
        self.granted = 0
        self.rejected = 0
        self.counters = counters if counters is not None else MoveCounters()

    def handle_batch(self, requests: Iterable[Request]) -> List[Outcome]:
        return [self.handle(request) for request in requests]

    def unused_permits(self) -> int:
        return self.storage

    def detach(self) -> None:
        """No tree listeners to unregister; kept for protocol parity."""

    def introspect(self) -> ControllerView:
        """The :class:`repro.protocol.ControllerProtocol` audit view.

        No packages ever park, so conservation is storage-only:
        ``granted + storage == M``.
        """
        return ControllerView(
            flavor="trivial", m=self.m, w=0,
            granted=self.granted, rejected=self.rejected,
            storage=self.storage, tree=self.tree,
        )

    def handle(self, request: Request) -> Outcome:
        node = request.node
        if node not in self.tree or not self._still_meaningful(request):
            return Outcome(OutcomeStatus.CANCELLED, request)
        # Round trip to the root, permit or reject riding back.
        self.counters.package_moves += 2 * paths.depth(node)
        if self.storage == 0:
            self.rejected += 1
            return Outcome(OutcomeStatus.REJECTED, request)
        self.storage -= 1
        self.granted += 1
        new_node = perform_event(self.tree, request)
        return Outcome(OutcomeStatus.GRANTED, request, new_node=new_node)

    def _still_meaningful(self, request: Request) -> bool:
        node = request.node
        kind = request.kind
        if kind is RequestKind.REMOVE_LEAF:
            return not node.is_root and not node.children
        if kind is RequestKind.REMOVE_INTERNAL:
            return not node.is_root and bool(node.children)
        if kind is RequestKind.ADD_INTERNAL:
            return (request.child is not None and request.child.alive
                    and request.child.parent is node)
        return True
