"""Dynamic ancestry labeling under controlled deletions — Corollary 5.7.

A static ancestry labeling scheme (Kannan-Naor-Rudich style interval
labels) stays *correct* under deletions of both leaves and internal
nodes: removing a node never breaks the nesting of the surviving
intervals.  What deletions do break is *size optimality* — after the
tree shrinks by a constant factor, labels are longer than the new
optimum.  Corollary 5.7 fixes that by pairing the static scheme with
the size-estimation protocol: when the estimate reveals the tree has
halved (or doubled) since the last labeling, relabel once, for an
amortized O(log^2 n) messages per change.

Labels are ``(low, high)`` interval pairs; ``u`` is an ancestor of
``v`` iff ``low(u) <= low(v)`` and ``high(v) <= high(u)``.  Insertions
are served from gap budgets pre-allocated inside the parent's interval
(the standard dynamization); exhausting a gap forces a relabel, which
the amortized accounting also covers.
"""

from typing import ClassVar, Dict, Iterable, List, Optional, Tuple

from repro.errors import ControllerError, InvariantViolation
from repro.metrics import waves
from repro.metrics.counters import MoveCounters
from repro.service.appspec import AppSpec
from repro.tree.dynamic_tree import DynamicTree, TreeListener
from repro.tree.node import TreeNode
from repro.tree.paths import is_ancestor

from repro.apps.size_estimation import SizeEstimationApp


class AncestryLabelsApp(SizeEstimationApp):
    """Controlled dynamic ancestry labels behind the app-session API.

    The Corollary 5.7 stack as one app: the size-estimation iterations
    guard every topological change (inherited — so deletions are
    *controlled* in the paper's sense and the amortized accounting
    applies), and an :class:`AncestryLabeling` structure listens on the
    same tree, relabeling when the size halves/doubles relative to the
    last labeling.  Parameters: ``slack`` (gap budget, default 4).
    """

    name: ClassVar[str] = "ancestry_labels"

    def __init__(self, spec: AppSpec,
                 tree: Optional[DynamicTree] = None) -> None:
        self.labeling: Optional[AncestryLabeling] = None
        # The label structure keeps its own ledger so the controller
        # layer's polylog cost and the relabel traversals stay
        # separately reportable (the bench fits them separately).
        self.label_counters = MoveCounters()
        super().__init__(spec, tree)
        self.labeling = AncestryLabeling(
            self.tree, slack=int(spec.param("slack", 4)),
            counters=self.label_counters)

    # ------------------------------------------------------------------
    # Label queries (delegated to the structure layer).
    # ------------------------------------------------------------------
    @property
    def labels(self) -> Dict[TreeNode, Tuple[int, int]]:
        assert self.labeling is not None
        return self.labeling.labels

    @property
    def relabels(self) -> int:
        assert self.labeling is not None
        return self.labeling.relabels

    def label_of(self, node: TreeNode) -> Tuple[int, int]:
        assert self.labeling is not None
        return self.labeling.label_of(node)

    def query_ancestry(self, ancestor: TreeNode, node: TreeNode) -> bool:
        assert self.labeling is not None
        return self.labeling.query_ancestry(ancestor, node)

    def label_bits(self) -> int:
        assert self.labeling is not None
        return self.labeling.label_bits()

    def check_correctness(
            self, sample_pairs: Iterable[Tuple[TreeNode, TreeNode]]) -> None:
        assert self.labeling is not None
        self.labeling.check_correctness(sample_pairs)

    def close(self) -> None:
        if self.labeling is not None:
            self.labeling.detach()
        super().close()


class AncestryLabeling(TreeListener):
    """Interval ancestry labels with estimate-driven relabeling.

    ``slack`` controls the gap budget: each node's interval is ``slack``
    times larger than its subtree strictly needs, so roughly
    ``log(slack)``-fold growth is absorbed before a relabel.
    """

    def __init__(self, tree: DynamicTree, slack: int = 4,
                 counters: Optional[MoveCounters] = None) -> None:
        if slack < 2:
            raise ControllerError("slack must be at least 2")
        self.tree = tree
        self.slack = slack
        self.counters = counters if counters is not None else MoveCounters()
        self.labels: Dict[TreeNode, Tuple[int, int]] = {}
        self.relabels = 0
        self.labeled_size = 0
        # Next free slot inside each node's interval for new children.
        self._cursor: Dict[TreeNode, int] = {}
        tree.add_listener(self)
        self._relabel()

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def label_of(self, node: TreeNode) -> Tuple[int, int]:
        return self.labels[node]

    def query_ancestry(self, ancestor: TreeNode, node: TreeNode) -> bool:
        """Is ``ancestor`` an ancestor of ``node``?  Pure label lookup."""
        a_low, a_high = self.labels[ancestor]
        n_low, n_high = self.labels[node]
        return a_low <= n_low and n_high <= a_high

    def label_bits(self) -> int:
        """Current label size in bits (two endpoints)."""
        top = max(high for _, high in self.labels.values())
        return 2 * max(top.bit_length(), 1)

    def check_correctness(self, sample_pairs:
                          Iterable[Tuple[TreeNode, TreeNode]]) -> None:
        """Verify the labels against true ancestry on given node pairs."""
        for u, v in sample_pairs:
            expected = is_ancestor(u, v)
            if self.query_ancestry(u, v) != expected:
                raise InvariantViolation(
                    f"ancestry({u}, {v}) mislabeled: expected {expected}"
                )

    # ------------------------------------------------------------------
    # Relabeling.
    # ------------------------------------------------------------------
    def _interval_need(self, node: TreeNode,
                       sizes: Dict[TreeNode, int]) -> int:
        return self.slack * sizes[node]

    def _relabel(self) -> None:
        """Assign fresh intervals: one DFS traversal (2(n-1) messages)."""
        self.relabels += 1
        self.labeled_size = self.tree.size
        self.counters.reset_moves += waves.dfs_traversal(self.tree.size)
        self.labels.clear()
        self._cursor.clear()
        sizes: Dict[TreeNode, int] = {}
        order = list(self.tree.nodes())
        for node in reversed(order):
            sizes[node] = 1 + sum(sizes[c] for c in node.children)
        self._assign(self.tree.root, 0, sizes)

    def _assign(self, node: TreeNode, low: int,
                sizes: Dict[TreeNode, int]) -> None:
        stack = [(node, low)]
        while stack:
            current, lo = stack.pop()
            hi = lo + self._interval_need(current, sizes) - 1
            self.labels[current] = (lo, hi)
            child_lo = lo + 1
            for child in current.children:
                stack.append((child, child_lo))
                child_lo += self._interval_need(child, sizes)
            self._cursor[current] = child_lo

    def _maybe_relabel(self) -> None:
        n = self.tree.size
        if n < self.labeled_size // 2 or n > 2 * self.labeled_size:
            self._relabel()

    def _place_new_node(self, node: TreeNode, parent: TreeNode) -> None:
        """Give a fresh leaf half of its parent's remaining gap budget.

        Halving lets ~log(gap) nested insertions succeed before a
        relabel is forced, keeping relabels rare on random growth.
        """
        parent_low, parent_high = self.labels[parent]
        cursor = self._cursor.get(parent, parent_low + 1)
        width = (parent_high - cursor) // 2
        if width < 1:
            self._relabel()
            return
        self.labels[node] = (cursor, cursor + width - 1)
        self._cursor[node] = cursor + 1
        self._cursor[parent] = cursor + width

    # ------------------------------------------------------------------
    # Topology events.
    # ------------------------------------------------------------------
    def on_add_leaf(self, node: TreeNode) -> None:
        self._place_new_node(node, node.parent)
        self._maybe_relabel()

    def on_add_internal(self, node: TreeNode, parent: TreeNode,
                        child: TreeNode) -> None:
        # An internal insertion must strictly nest between two existing
        # intervals; no gap is reserved there (Corollary 5.7 extends the
        # static scheme to *deletions* — additions of internal nodes pay
        # a full relabel, which the amortized accounting reports).
        self._relabel()

    def on_remove_internal(self, node: TreeNode, parent: TreeNode,
                           children: Optional[List[TreeNode]] = None
                           ) -> None:
        self.labels.pop(node, None)
        self._cursor.pop(node, None)
        self._maybe_relabel()

    on_remove_leaf = on_remove_internal

    def detach(self) -> None:
        self.tree.remove_listener(self)
