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

The exact ``SW`` itself is no node's knowledge, so the app keeps none:
:class:`SuperWeights` maintains it as a tree listener that tests and
the apps bench attach from outside, to check the estimates against.
"""

from typing import Any, ClassVar, Dict, List, Optional, Tuple

from repro.apps.base import AppSession
from repro.service.appspec import AppSpec
from repro.tree.dynamic_tree import DynamicTree, TreeListener
from repro.tree.node import TreeNode
from repro.apps.size_estimation import SizeEstimationApp


class SubtreeEstimatorApp(SizeEstimationApp):
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
        super().__init__(spec, tree)

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
        self._compute_subtree_sizes()

    def _compute_subtree_sizes(self) -> None:
        # Post-order accumulation without recursion (deep paths).
        order = list(self.tree.nodes())
        for node in reversed(order):
            total = 1 + sum(self._omega0.get(c, 0) for c in node.children)
            self._omega0[node] = total

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


class SuperWeights(TreeListener):
    """The exact super-weights ``SW(u)`` of an app's live iteration.

    No node can observe SW, so this is a ground truth for tests and
    benches, fed from outside the app: build it before serving, read
    :meth:`of`, and :meth:`detach` it when done.  It reads only the
    tree and ``app.iterations_run``.  A changed iteration count means
    a rollover happened, and every mutation since would have fired a
    hook here, so only the mutation whose hook is running can follow
    it.  The weights then restart from the live subtree sizes; if that
    mutation is a removal, the removed node is added back to each of
    its ancestors.
    """

    def __init__(self, app: AppSession) -> None:
        self._app = app
        self._weights: Dict[TreeNode, int] = {}
        self._iteration = -1
        self._rolled()
        app.tree.add_listener(self)

    def _rolled(self) -> bool:
        """Restart at a rollover; True if it did."""
        if self._app.iterations_run == self._iteration:
            return False
        self._iteration = self._app.iterations_run
        weights = self._weights
        weights.clear()
        for node in reversed(list(self._app.tree.nodes())):
            weights[node] = 1 + sum(weights[c] for c in node.children)
        return True

    def of(self, node: TreeNode) -> int:
        """Exact SW of ``node`` (1 for a node removed this iteration)."""
        self._rolled()
        return self._weights.get(node, 1)

    def _bump_ancestors(self, current: Optional[TreeNode]) -> None:
        weights = self._weights
        while current is not None:
            weights[current] += 1
            current = current.parent

    def on_add_leaf(self, node: TreeNode) -> None:
        if not self._rolled():
            self._weights[node] = 1
            self._bump_ancestors(node.parent)

    def on_add_internal(self, node: TreeNode, parent: TreeNode,
                        child: TreeNode) -> None:
        # The new node inherits only the child's counted history.
        if not self._rolled():
            self._weights[node] = 1 + self._weights[child]
            self._bump_ancestors(parent)

    def on_remove_internal(self, node: TreeNode, parent: TreeNode,
                           children: Optional[List[TreeNode]] = None
                           ) -> None:
        """Both removal hooks: ancestors keep counting the node."""
        if self._rolled():
            self._bump_ancestors(parent)
        self._weights.pop(node, None)

    on_remove_leaf = on_remove_internal

    def detach(self) -> None:
        """Stop counting (discard semantics: a second call is a no-op)."""
        self._app.tree.remove_listener(self)
