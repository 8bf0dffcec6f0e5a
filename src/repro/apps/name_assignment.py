"""The name-assignment protocol — Theorem 5.2.

Maintains a unique short identity ``id(v)`` at every node: at any time
all ids are distinct integers in ``[1, 4n]`` (so each is encoded with
``log n + O(1)`` bits).

Per iteration i (``N_i`` = size at iteration start):

1. a DFS traversal assigns the *temporary* ids ``3*N_i + DFS(v)``;
2. a second DFS traversal assigns the final ids ``DFS(v)`` — the detour
   through the temporary range keeps ids unique at every intermediate
   instant, because the ids inherited from iteration i-1 live in
   ``[1, 3*N_i]`` (proved by induction in Section 5.2);
3. a terminating ``(N_i/2, N_i/4)``-controller runs in *interval mode*:
   the root's permit pool is the serial range ``[N_i+1, 3N_i/2]``,
   every package carries an explicit sub-interval, splits halve it, and
   a newly inserted node takes its granted permit's serial as its id.

The iteration ends when the controller terminates; since at most
``N_i/2`` permits were granted, ``N_{i+1} >= N_i/2``, which keeps all
ids within ``[1, 4n]`` throughout.
"""

from dataclasses import replace
from typing import Any, ClassVar, Dict, Optional, Tuple

from repro.apps.base import AppSession
from repro.errors import ControllerError, InvariantViolation
from repro.metrics import waves
from repro.protocol import AppView
from repro.service.appspec import AppSpec
from repro.tree.dynamic_tree import DynamicTree
from repro.tree.node import TreeNode
from repro.core.requests import Outcome


class NameAssignmentApp(AppSession):
    """Unique ids in ``[1, 4n]`` behind the app-session API.

    Name assignment (Theorem
    5.2): per iteration, the two-stage DFS relabel detours through the
    temporary range, and an ``(N_i/2, N_i/4)``-terminating controller
    runs in *interval mode* — the engine (synchronous or distributed;
    both thread intervals through package splits) hands every granted
    addition the serial it takes as its id.
    """

    name: ClassVar[str] = "name_assignment"

    def __init__(self, spec: AppSpec,
                 tree: Optional[DynamicTree] = None) -> None:
        self.ids: Dict[TreeNode, int] = {}
        self._first_iteration = True
        super().__init__(spec, tree)

    # ------------------------------------------------------------------
    # Iteration hooks.
    # ------------------------------------------------------------------
    def _iteration_contract(self, n_i: int
                            ) -> Tuple[int, int, int, Dict[str, Any]]:
        m_i = max(n_i // 2, 1)
        w_i = max(n_i // 4, 1)
        u_i = max(2 * n_i, 2)
        return m_i, w_i, u_i, {"track_intervals": True,
                               "interval_base": n_i}

    def _on_iteration_start(self, n_i: int) -> None:
        super()._on_iteration_start(n_i)
        # Broadcast N_i.  Only N_1 needs a convergecast of its own: every
        # later N_i rode the convergecast that confirmed the previous
        # iteration's termination (Observation 2.1).
        self.counters.reset_moves += waves.broadcast(n_i)
        if self._first_iteration:
            self.counters.reset_moves += waves.convergecast(n_i)
            # The initial identities are assumed to be [1, n_0]
            # (Section 5.2); a DFS assignment realizes the assumption.
            self._first_iteration = False
            for index, node in enumerate(self.tree.nodes(), start=1):
                self.ids[node] = index
        else:
            self._two_stage_relabel(n_i)

    def _two_stage_relabel(self, n_i: int) -> None:
        """The two DFS traversals of Section 5.2 (same DFS order; one
        full traversal — 2(n-1) messages — each)."""
        self.counters.reset_moves += 2 * waves.dfs_traversal(n_i)
        order = list(self.tree.nodes())
        # Stage 1: move everyone into the temporary range (3N_i, 4N_i].
        for index, node in enumerate(order, start=1):
            self.ids[node] = 3 * n_i + index
        # Stage 2: settle into [1, N_i].
        for index, node in enumerate(order, start=1):
            self.ids[node] = index

    def _after_outcome(self, outcome: Outcome) -> None:
        # (Direct subclass of AppSession, whose hook is a no-op: not
        # chained — this runs once per settled request.)
        if not outcome.granted:
            return
        if outcome.new_node is not None:
            if outcome.serial is None:
                raise ControllerError(
                    "interval-mode controller returned no serial")
            self.ids[outcome.new_node] = outcome.serial
        if outcome.request.kind.is_removal:
            self.ids.pop(outcome.request.node, None)

    # ------------------------------------------------------------------
    # Public queries (the Theorem 5.2 guarantee).
    # ------------------------------------------------------------------
    def id_of(self, node: TreeNode) -> int:
        return self.ids[node]

    def check_invariants(self) -> None:
        """Ids unique and within [1, 4n] — the Theorem 5.2 guarantee."""
        seen = set()
        n = self.tree.size
        for node in self.tree.nodes():
            node_id = self.ids.get(node)
            if node_id is None:
                raise InvariantViolation(f"{node} has no id")
            if node_id in seen:
                raise InvariantViolation(f"duplicate id {node_id}")
            seen.add(node_id)
            if not 1 <= node_id <= 4 * n:
                raise InvariantViolation(
                    f"id {node_id} outside [1, {4 * n}] (n={n})")

    def app_view(self) -> AppView:
        return replace(
            super().app_view(),
            ids=tuple(self.ids[node] for node in self.tree.nodes()
                      if node in self.ids))
