"""Reconstruction of the AAPS bin-hierarchy controller [4].

Afek, Awerbuch, Plotkin and Saks built the original (M,W)-Controller
for trees that may only *grow by leaf insertions*.  No public
implementation exists; this reconstruction follows the structural
description given in Section 1 of Korman-Kutten:

* every node has a *bin* per level; a node at depth ``d`` owns a
  level-``i`` bin iff ``2^i`` divides ``d`` (the root owns all levels);
* the level-``i`` bin's capacity is ``2^i * phi`` permits;
* the *supervisor* of a level-``i`` bin at depth ``d`` is the
  level-``i+1`` bin at the nearest ancestor whose depth is divisible by
  ``2^(i+1)`` (possibly the node itself); the top level's supervisor is
  the root's storage;
* a request takes a permit from its node's level-0 bin; an empty bin
  replenishes itself from its supervisor, recursively.

Because bin locations and sizes are functions of each node's *exact
depth*, the scheme breaks under internal insertions/deletions — the
very limitation Korman-Kutten lift.  This class therefore raises
:class:`TopologyError` for any request other than leaf insertion or a
plain event, which is the honest behaviour of the baseline under the
extended model (bench E4 uses it on grow-only workloads only).

Move complexity is charged per hop of permit-set movement, like the
centralized cost model, so the two controllers' numbers are directly
comparable.
"""

import math
from typing import Dict, Optional

from repro.errors import ControllerError, TopologyError
from repro.metrics.counters import MoveCounters
from repro.tree.dynamic_tree import DynamicTree
from repro.tree import paths
from repro.tree.node import TreeNode
from repro.core.requests import (
    Outcome,
    OutcomeStatus,
    Request,
    RequestKind,
)


class AAPSController:
    """Bin-hierarchy (M,W)-Controller for grow-only trees (known U)."""

    def __init__(self, tree: DynamicTree, m: int, w: int, u: int,
                 counters: Optional[MoveCounters] = None):
        if w < 1:
            raise ControllerError("AAPS reconstruction needs W >= 1")
        self.tree = tree
        self.m = m
        self.w = w
        self.u = u
        self.phi = max(w // (2 * u), 1)
        self.levels = (math.ceil(math.log2(u)) if u > 1 else 0) + 1
        self.storage = m
        self.granted = 0
        self.rejected = 0
        self.rejecting = False
        self.counters = counters if counters is not None else MoveCounters()
        # (node, level) -> permits currently in that bin.
        self._bins: Dict[object, int] = {}

    # ------------------------------------------------------------------
    def capacity(self, level: int) -> int:
        return (1 << level) * self.phi

    def handle(self, request: Request) -> Outcome:
        if request.kind not in (RequestKind.PLAIN, RequestKind.ADD_LEAF):
            raise TopologyError(
                "the AAPS controller supports only leaf insertions and "
                "plain events (grow-only dynamic model)"
            )
        node = request.node
        if node not in self.tree:
            return Outcome(OutcomeStatus.CANCELLED, request)
        if self.rejecting:
            self.rejected += 1
            return Outcome(OutcomeStatus.REJECTED, request)
        bin_key = (node, 0)
        if self._bins.get(bin_key, 0) == 0:
            self._replenish(node, 0)
        if self._bins.get(bin_key, 0) == 0 and self.unused_permits() > self.w:
            # The supervisor chain is dry but more than W permits sit in
            # off-chain bins: AAPS re-iterates — clear the hierarchy,
            # return the L unused permits to the root, and retry (the
            # halving-iteration step of their Section 6, which our
            # Observation 3.4 wrapper mirrors).
            self._sweep()
            self._replenish(node, 0)
        if self._bins.get(bin_key, 0) == 0:
            # Fewer than W permits remain anywhere: reject.
            self._broadcast_reject()
            self.rejected += 1
            return Outcome(OutcomeStatus.REJECTED, request)
        self._bins[bin_key] -= 1
        self.granted += 1
        if self.granted > self.m:
            raise ControllerError("AAPS safety violated")
        new_node = None
        if request.kind is RequestKind.ADD_LEAF:
            new_node = self.tree.add_leaf(node)
        return Outcome(OutcomeStatus.GRANTED, request, new_node=new_node)

    def unused_permits(self) -> int:
        return self.storage + sum(self._bins.values())

    # ------------------------------------------------------------------
    def _replenish(self, node: TreeNode, level: int) -> None:
        """Refill the level-``level`` bin at ``node`` from its supervisor."""
        bin_key = (node, level)
        want = self.capacity(level) - self._bins.get(bin_key, 0)
        if want <= 0:
            return
        if level + 1 >= self.levels:
            # Supervisor is the root's storage.
            take = min(want, self.storage)
            self.storage -= take
            self._bins[bin_key] = self._bins.get(bin_key, 0) + take
            self.counters.package_moves += paths.depth(node)
            return
        sup_node = self._supervisor_host(node, level + 1)
        sup_key = (sup_node, level + 1)
        if self._bins.get(sup_key, 0) < want:
            self._replenish(sup_node, level + 1)
        take = min(want, self._bins.get(sup_key, 0))
        if take > 0:
            self._bins[sup_key] -= take
            self._bins[bin_key] = self._bins.get(bin_key, 0) + take
            self.counters.package_moves += self._distance(node, sup_node)

    def _supervisor_host(self, node: TreeNode, level: int) -> TreeNode:
        """Nearest ancestor (inclusive) whose depth is a multiple of 2^level."""
        stride = 1 << level
        current = node
        depth = paths.depth(node)
        while depth % stride != 0:
            current = current.parent
            depth -= 1
        return current

    def _distance(self, node: TreeNode, ancestor: TreeNode) -> int:
        hops = 0
        current = node
        while current is not ancestor:
            current = current.parent
            hops += 1
        return hops

    def _sweep(self) -> None:
        """Collect every binned permit back into the root's storage.

        One upcast gathers the bins (n messages charged as resets).
        """
        self.storage += sum(self._bins.values())
        self._bins.clear()
        self.iterations = getattr(self, "iterations", 0) + 1
        self.counters.reset_moves += self.tree.size

    def _broadcast_reject(self) -> None:
        if not self.rejecting:
            self.rejecting = True
            self.counters.reject_moves += self.tree.size
