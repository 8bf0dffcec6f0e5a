"""Compact tree routing under controlled deletions — Corollary 5.6.

Observation 5.5 lists "any exact (stretch 1) routing scheme" among the
structures whose *correctness* survives deletions of degree-one nodes;
Corollary 5.6 pairs such a scheme with the size estimator so its *label
size* stays O(f(n)) as the tree shrinks.

This module implements the classic interval routing scheme on trees
(Santoro-Khatib style): every node stores its own DFS interval and the
interval of each child; routing toward a target label goes to the child
whose interval contains it, or to the parent when the target lies
outside the node's own interval.  Routing decisions are purely local to
the current node — the distributed reading.

Deletions keep the scheme correct (surviving intervals keep nesting);
relabeling is triggered when the size halves/doubles relative to the
last labeling, piggybacking on the estimate.  The label upkeep is
:class:`~repro.apps.ancestry_labels.IntervalLabeling` with slack 1
(tight intervals, so every addition relabels), the one
:class:`~repro.apps.ancestry_labels.AncestryLabeling` runs with a gap
budget; this module adds the routing steps over it.
"""

from typing import ClassVar, Dict, List, Optional, Tuple

from repro.errors import InvariantViolation
from repro.metrics.counters import MoveCounters
from repro.service.appspec import AppSpec
from repro.tree.dynamic_tree import DynamicTree
from repro.tree.node import TreeNode

from repro.apps.ancestry_labels import IntervalLabeling
from repro.apps.size_estimation import SizeEstimationApp

Interval = Tuple[int, int]


class RoutingLabelsApp(SizeEstimationApp):
    """Compact tree routing behind the app-session API.

    The Corollary 5.6 stack as one app: the size-estimation iterations
    guard the churn (inherited), and a :class:`RoutingLabeling`
    structure maintains the per-node interval routing tables on the
    same tree — correctness survives the controlled deletions, and the
    estimate-paced relabel keeps the label size O(log n).
    """

    name: ClassVar[str] = "routing_labels"

    def __init__(self, spec: AppSpec,
                 tree: Optional[DynamicTree] = None) -> None:
        self.labeling: Optional[RoutingLabeling] = None
        # Separate ledger for the label structure: routing relabels on
        # every addition (tight intervals leave no gaps), which is the
        # structure's linear term, not the controller's polylog one.
        self.label_counters = MoveCounters()
        super().__init__(spec, tree)
        self.labeling = RoutingLabeling(self.tree,
                                        counters=self.label_counters)

    # ------------------------------------------------------------------
    # Routing queries (delegated to the structure layer).
    # ------------------------------------------------------------------
    @property
    def labels(self) -> Dict[TreeNode, Interval]:
        assert self.labeling is not None
        return self.labeling.labels

    @property
    def relabels(self) -> int:
        assert self.labeling is not None
        return self.labeling.relabels

    def label_of(self, node: TreeNode) -> Interval:
        assert self.labeling is not None
        return self.labeling.label_of(node)

    def next_hop(self, node: TreeNode, target_label: Interval) -> TreeNode:
        assert self.labeling is not None
        return self.labeling.next_hop(node, target_label)

    def route(self, source: TreeNode, destination: TreeNode,
              hop_limit: Optional[int] = None) -> List[TreeNode]:
        assert self.labeling is not None
        return self.labeling.route(source, destination,
                                   hop_limit=hop_limit)

    def label_bits(self) -> int:
        assert self.labeling is not None
        return self.labeling.label_bits()

    def close(self) -> None:
        if self.labeling is not None:
            self.labeling.detach()
        super().close()


class RoutingLabeling(IntervalLabeling):
    """Exact (stretch-1) interval routing on a dynamic tree."""

    def __init__(self, tree: DynamicTree,
                 counters: Optional[MoveCounters] = None) -> None:
        super().__init__(tree, 1, counters)

    def next_hop(self, node: TreeNode, target_label: Interval) -> TreeNode:
        """One routing step from ``node`` toward ``target_label``.

        Uses only ``node``'s local table (its own interval and its
        children's); returns the neighbor to forward to.
        """
        low, high = self.labels[node]
        t_low, t_high = target_label
        if not (low <= t_low and t_high <= high):
            if node.parent is None:
                raise InvariantViolation(
                    f"target {target_label} outside the root's interval"
                )
            return node.parent
        for child in node.children:
            c_low, c_high = self.labels[child]
            if c_low <= t_low and t_high <= c_high:
                return child
        raise InvariantViolation(
            f"target {target_label} inside {node}'s interval but in no "
            "child's — target not in the tree?"
        )

    def route(self, source: TreeNode, destination: TreeNode,
              hop_limit: Optional[int] = None) -> List[TreeNode]:
        """Full path from ``source`` to ``destination`` (both inclusive).

        Each step costs one message; ``hop_limit`` guards tests against
        routing loops (exact schemes must never need it).
        """
        target = self.labels[destination]
        path = [source]
        current = source
        limit = hop_limit if hop_limit is not None else 4 * self.tree.size
        while self.labels[current] != target:
            if len(path) > limit:
                raise InvariantViolation("routing loop detected")
            current = self.next_hop(current, target)
            self.counters.package_moves += 1
            path.append(current)
        return path
