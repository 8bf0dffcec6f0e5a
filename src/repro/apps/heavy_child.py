"""Heavy-child decomposition on a dynamic tree — Theorem 5.4.

Each internal node ``v`` points at one child ``mu(v)`` (the *heavy*
child); all other children are *light*.  The decomposition quality
requirement: at any time, every node has O(log n) light ancestors.

Construction (Section 5.3): run the subtree estimator with
``beta = sqrt(3)``; every time a node's super-weight estimate changes it
notifies its parent (one message — at most doubling the protocol's
message count); each node points ``mu`` at the child with the largest
reported estimate.  The β²-sandwich then forces every light child ``u``
of ``v`` to satisfy ``SW(u) <= (3/4) SW(v)``, giving the logarithmic
light-depth.

The app's own tree hooks keep the ``mu`` pointers well formed; the
super-weights the bound speaks of are checked from outside through
:class:`repro.apps.subtree_estimator.SuperWeights`.
"""

import math
from typing import ClassVar, Dict, List, Optional

from repro.service.appspec import AppSpec
from repro.tree.dynamic_tree import DynamicTree, TreeListener
from repro.tree.node import TreeNode
from repro.apps.subtree_estimator import SubtreeEstimatorApp


class HeavyChildApp(SubtreeEstimatorApp, TreeListener):
    """Heavy-child decomposition behind the app-session API.

    Heavy-child decomposition (Theorem
    5.4): the subtree estimator runs underneath with
    ``beta = sqrt(3)`` (inherited, the Section 5.3 constant), every
    estimate change notifies the node's parent (one message), and each
    node points ``mu`` at the child with the largest reported
    estimate.  At iteration boundaries the estimates reset to fresh
    ``omega_0`` values and every ``mu`` pointer is refreshed at no
    charge of its own: the convergecast that counts ``N_i`` already
    hands every parent each child's subtree count.
    """

    name: ClassVar[str] = "heavy_child"
    _default_beta: ClassVar[float] = math.sqrt(3)

    def __init__(self, spec: AppSpec,
                 tree: Optional[DynamicTree] = None) -> None:
        self._mu: Dict[TreeNode, TreeNode] = {}
        super().__init__(spec, tree)
        self.tree.add_listener(self)

    # ------------------------------------------------------------------
    # Iteration hooks.
    # ------------------------------------------------------------------
    def _on_iteration_start(self, n_i: int) -> None:
        super()._on_iteration_start(n_i)
        self._rebuild_all()

    def _observe_permits(self, node: TreeNode, permits: int) -> None:
        # Flat override (no super() hop): this fires once per node a
        # package passes, the hottest app-layer callback there is.  The
        # first line is SubtreeEstimatorApp's accumulation verbatim.
        passed = self._passed
        passed[node] = passed.get(node, 0) + permits
        self._estimate_changed(node)

    # ------------------------------------------------------------------
    # Public queries (the Theorem 5.4 guarantee).
    # ------------------------------------------------------------------
    def heavy_child(self, node: TreeNode) -> Optional[TreeNode]:
        """``mu(node)``: the heavy child, or None for leaves."""
        return self._mu.get(node)

    def is_light(self, node: TreeNode) -> bool:
        """A non-root node is light iff its parent points elsewhere."""
        if node.parent is None:
            return False
        return self._mu.get(node.parent) is not node

    def light_ancestors(self, node: TreeNode) -> int:
        """Number of light ancestors of ``node`` — the O(log n) figure."""
        count = 0
        current: Optional[TreeNode] = node
        while current is not None:
            if self.is_light(current):
                count += 1
            current = current.parent
        return count

    def max_light_depth(self) -> int:
        """max over nodes of light_ancestors (scan; test/bench helper)."""
        return max(self.light_ancestors(n) for n in self.tree.nodes())

    # ------------------------------------------------------------------
    # Mu maintenance (Section 5.3).
    # ------------------------------------------------------------------
    def _estimate_changed(self, node: TreeNode) -> None:
        """``node``'s estimate changed: notify the parent (1 message)."""
        parent = node.parent
        if parent is None:
            return
        self.counters.package_moves += 1
        self._reconsider(parent, node)

    def _reconsider(self, parent: TreeNode, child: TreeNode) -> None:
        """Parent remembers only the largest child estimate."""
        current = self._mu.get(parent)
        if current is None or current.parent is not parent:
            self._recompute_mu(parent)
            return
        if child is current:
            return
        if self.estimate_of(child) > self.estimate_of(current):
            self._mu[parent] = child

    def _recompute_mu(self, node: TreeNode) -> None:
        if not node.children:
            self._mu.pop(node, None)
            return
        self._mu[node] = max(node.children, key=self.estimate_of)

    def _rebuild_all(self) -> None:
        for node in self.tree.nodes():
            self._recompute_mu(node)

    # ------------------------------------------------------------------
    # Topology events: mu well-formedness.
    # ------------------------------------------------------------------
    def on_add_leaf(self, node: TreeNode) -> None:
        parent = node.parent
        if parent is not None and parent not in self._mu:
            self._mu[parent] = node
        self._estimate_changed(node)

    def on_add_internal(self, node: TreeNode, parent: TreeNode,
                        child: TreeNode) -> None:
        # The new node adopts the child as its (only) heavy child; the
        # parent's pointer is refreshed if it pointed at the child.
        self._mu[node] = child
        if self._mu.get(parent) is child:
            self._mu[parent] = node
        self._estimate_changed(node)

    def on_remove_leaf(self, node: TreeNode, parent: TreeNode) -> None:
        self._mu.pop(node, None)
        if self._mu.get(parent) is node:
            self._recompute_mu(parent)

    def on_remove_internal(self, node: TreeNode, parent: TreeNode,
                           children: List[TreeNode]) -> None:
        self._mu.pop(node, None)
        if self._mu.get(parent) is node or self._mu.get(parent) is None:
            self._recompute_mu(parent)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Idempotent: the tree listener is removed with discard
        semantics, so a second close/detach is a no-op."""
        self.tree.remove_listener(self)
        super().close()
