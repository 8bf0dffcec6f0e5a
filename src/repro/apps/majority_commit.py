"""Majority commitment via size estimation (Section 1.3).

Bar-Yehuda and Kutten introduced asynchronous size estimation as the
engine of *majority commitment*: in a network of ``total`` processors,
many of which may be asleep or initially failed, commit a transaction
only once it is certain that a majority participates.  The awake nodes
form a growing spanning tree (wakeups join as leaves); Korman-Kutten's
estimator generalizes the protocol to trees that also shrink (nodes
leaving) and gain internal nodes.

This implementation layers directly on
:class:`~repro.apps.size_estimation.SizeEstimationApp`:

* the participant tree evolves through :meth:`join` / :meth:`leave`,
  each guarded by the estimator's controller;
* ``n_tilde/beta`` is a certified lower bound on the participant count,
  so :meth:`can_commit` returns True only when a true majority is
  guaranteed — at the price that the estimate-based trigger needs
  ``beta^2``-fold majority to fire;
* :meth:`commit_exact` runs one exact upcast (n - 1 messages) for the
  boundary case, mirroring the final counting round of the original
  protocol.
"""

from typing import ClassVar, Optional

from repro.errors import ControllerError
from repro.metrics import waves
from repro.service.appspec import AppSpec
from repro.service.envelopes import OutcomeRecord
from repro.tree.dynamic_tree import DynamicTree
from repro.tree.node import TreeNode
from repro.core.requests import Request, RequestKind
from repro.apps.size_estimation import SizeEstimationApp


class MajorityCommitApp(SizeEstimationApp):
    """Majority commitment behind the app-session API.

    Majority commitment (Section
    1.3): the size-estimation iterations run underneath (inherited),
    the participant tree evolves through :meth:`join` / :meth:`leave`
    (each a guarded request), and ``n_tilde / beta`` certifies the
    lower bound :meth:`can_commit` fires on.  Parameters: ``total``
    (the universe size, required) and ``beta`` (default 1.5).
    """

    name: ClassVar[str] = "majority_commit"
    _default_beta: ClassVar[float] = 1.5

    def __init__(self, spec: AppSpec,
                 tree: Optional[DynamicTree] = None) -> None:
        total = spec.param("total")
        if total is None or int(total) < 1:
            raise ControllerError(
                "majority_commit needs params={'total': <universe size>} "
                f"with total >= 1, got {total!r}")
        self.total = int(total)
        self.committed = False
        super().__init__(spec, tree)
        if self.tree.size > self.total:
            raise ControllerError("tree already exceeds the universe size")

    # ------------------------------------------------------------------
    # Participant churn (guarded by the estimator's controller).
    # ------------------------------------------------------------------
    def join(self, parent: TreeNode) -> Optional[TreeNode]:
        """A processor wakes up and joins below ``parent``."""
        if self.tree.size >= self.total:
            raise ControllerError("all processors are already awake")
        record = self.serve(Request(RequestKind.ADD_LEAF, parent))
        outcome = record.outcome
        assert outcome is not None
        return outcome.new_node if outcome.granted else None

    def leave(self, node: TreeNode) -> OutcomeRecord:
        """A processor leaves (leaf or internal — the generalization)."""
        kind = (RequestKind.REMOVE_LEAF if not node.children
                else RequestKind.REMOVE_INTERNAL)
        return self.serve(Request(kind, node))

    # ------------------------------------------------------------------
    # Commitment (the Section 1.3 decision rule).
    # ------------------------------------------------------------------
    def certified_participants(self) -> float:
        """A lower bound on the participant count from the estimate."""
        return self.estimate / self.beta

    def can_commit(self) -> bool:
        """True only when the estimate *certifies* a strict majority."""
        if self.committed:
            return True
        return self.certified_participants() > self.total / 2

    def commit_exact(self) -> bool:
        """Exact counting round (one upcast): decide at the boundary."""
        self.counters.reset_moves += waves.convergecast(self.tree.size)
        if self.tree.size > self.total / 2:
            self.committed = True
        return self.committed
