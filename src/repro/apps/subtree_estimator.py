"""The subtree (super-weight) estimator — Lemma 5.3.

The *super-weight* ``SW(u)`` at time t during iteration i is the number
of descendants of ``u`` (including ``u``) that existed at any point
since iteration i began.  The estimator maintains at each node

    ``omega_tilde(v) = omega_0(v, i) + S(v)``

where ``omega_0`` is the exact descendant count at the iteration start
and ``S(v)`` counts the permits that passed down through ``v`` since —
every grant below ``v`` sent its permit through ``v`` exactly once, so
``S`` tracks subtree growth.  ``omega_0`` costs no message of its own:
the convergecast that counts ``N_i`` (the size-estimation count before
the first iteration, the termination convergecast of Observation 2.1
after) sums every node's children's reports, so each node learns its
exact subtree count on the way.

The estimator piggybacks on the size-estimation protocol's controller
via the ``permit_flow_observer`` hook; it adds **zero** extra messages
for monitoring (nodes watch traffic already passing through them), and
the parent-notification messages of the heavy-child layer are counted
there.
"""

from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.service.appspec import AppSpec
from repro.tree.dynamic_tree import DynamicTree, TreeListener
from repro.tree.node import TreeNode
from repro.apps.size_estimation import SizeEstimationApp


class SubtreeEstimatorApp(SizeEstimationApp, TreeListener):
    """β-approximate super-weights behind the app-session API.

    Subtree super-weight estimation (Lemma 5.3): the
    size-estimation iterations run underneath (inherited), and the app
    taps every iteration controller's ``permit_flow_observer`` hook —
    on the synchronous engine *and* on the distributed engine, whose
    agents report each downward package hop — so monitoring still
    costs zero extra messages.  Parameters: ``beta`` (default 2.0).
    """

    name: ClassVar[str] = "subtree_estimator"

    def __init__(self, spec: AppSpec,
                 tree: Optional[DynamicTree] = None) -> None:
        self._omega0: Dict[TreeNode, int] = {}
        self._passed: Dict[TreeNode, int] = {}
        # Ground truth for tests: descendants ever existing this
        # iteration, maintained exactly (analysis-only, costs nothing).
        self._true_sw: Dict[TreeNode, int] = {}
        super().__init__(spec, tree)
        self.tree.add_listener(self)

    # ------------------------------------------------------------------
    # Iteration hooks.
    # ------------------------------------------------------------------
    def _iteration_contract(self, n_i: int
                            ) -> Tuple[int, int, int, Dict[str, Any]]:
        m_i, w_i, u_i, options = super()._iteration_contract(n_i)
        options["permit_flow_observer"] = self._observe_permits
        return m_i, w_i, u_i, options

    def _on_iteration_start(self, n_i: int) -> None:
        super()._on_iteration_start(n_i)
        # Every node learned its exact subtree count while summing its
        # children's reports in the convergecast that counted N_i.
        self._omega0.clear()
        self._passed.clear()
        self._true_sw.clear()
        self._compute_subtree_sizes()

    def _compute_subtree_sizes(self) -> None:
        # Post-order accumulation without recursion (deep paths).
        order = list(self.tree.nodes())
        for node in reversed(order):
            total = 1 + sum(self._omega0.get(c, 0) for c in node.children)
            self._omega0[node] = total
            self._true_sw[node] = total

    # ------------------------------------------------------------------
    # Permit-flow monitoring.
    # ------------------------------------------------------------------
    def _observe_permits(self, node: TreeNode, permits: int) -> None:
        self._passed[node] = self._passed.get(node, 0) + permits

    # ------------------------------------------------------------------
    # Public queries (the Lemma 5.3 guarantee).
    # ------------------------------------------------------------------
    def estimate_of(self, node: TreeNode) -> int:
        """``omega_tilde(node)``: the node's super-weight estimate."""
        return self._omega0.get(node, 1) + self._passed.get(node, 0)

    def true_super_weight(self, node: TreeNode) -> int:
        """Exact SW (test oracle; not available to the protocol)."""
        return self._true_sw.get(node, 1)

    # ------------------------------------------------------------------
    # Ground-truth maintenance (test oracle only).
    # ------------------------------------------------------------------
    def _bump_ancestors(self, start: Optional[TreeNode]) -> None:
        current = start
        while current is not None:
            self._true_sw[current] = self._true_sw.get(current, 1) + 1
            current = current.parent

    def on_add_leaf(self, node: TreeNode) -> None:
        self._true_sw[node] = 1
        self._bump_ancestors(node.parent)

    def on_add_internal(self, node: TreeNode, parent: TreeNode,
                        child: TreeNode) -> None:
        # The new node inherits
        # only the child's counted history, going forward.
        self._true_sw[node] = 1 + self._true_sw.get(child, 1)
        self._bump_ancestors(parent)

    def on_remove_leaf(self, node: TreeNode, parent: TreeNode) -> None:
        self._true_sw.pop(node, None)

    def on_remove_internal(self, node: TreeNode, parent: TreeNode,
                           children: List[TreeNode]) -> None:
        self._true_sw.pop(node, None)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Idempotent: the tree listener is removed with discard
        semantics, so a second close/detach is a no-op."""
        self.tree.remove_listener(self)
        super().close()
