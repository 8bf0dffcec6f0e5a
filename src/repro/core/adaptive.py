"""Unknown-U (M,W)-Controller — Theorem 3.5.

When no bound on the number of nodes is known in advance, the controller
runs in *epochs* (the paper calls them iterations; we say epoch to avoid
clashing with the halving iterations of Observation 3.4 running inside):

* epoch i starts with ``N_i = |tree|`` nodes and assumes ``U_i = 2 N_i``;
* it runs a full known-U ``(M_i, W)``-controller (the halving wrapper);
* the epoch ends once ``Z_i`` — the number of topological changes during
  the epoch — reaches ``U_i / 4``; the data structure is cleared and the
  next epoch starts with ``M_{i+1} = M_i - Y_i`` (``Y_i`` = grants made
  during epoch i).

``U_i/4 <= Z_i`` at the cut guarantees ``U_i/4 <= n <= U_i`` throughout
the epoch, so the inner controller's assumption holds.  The second
variant of Theorem 3.5 ends an epoch only when the node count *doubles*
relative to the maximum seen before the epoch; both variants are
implemented (``variant="churn"`` / ``variant="maxsize"``).

If the inner controller issues a real reject, the overall budget is
spent: the liveness argument composes (each epoch conserves permits, and
the rejecting epoch's own liveness supplies the final ``>= M_k - W``
grants), so the composite is a genuine (M,W)-Controller.
"""

from typing import Iterable, List, Optional

from repro.errors import ControllerError
from repro.metrics import waves
from repro.metrics.counters import MoveCounters
from repro.protocol import BudgetSplit, ControllerView
from repro.tree.dynamic_tree import DynamicTree
from repro.core.iterated import IteratedController
from repro.core.requests import Outcome, OutcomeStatus, Request


class AdaptiveController:
    """(M,W)-Controller requiring no a-priori bound U.

    ``variant="churn"`` implements Theorem 3.5 part 1 (epoch ends after
    ``U_i/4`` topological changes); ``variant="maxsize"`` implements part
    2 (epoch ends when the simultaneous node count doubles).
    """

    def __init__(self, tree: DynamicTree, m: int, w: int,
                 counters: Optional[MoveCounters] = None,
                 variant: str = "churn"):
        if variant not in ("churn", "maxsize"):
            raise ControllerError(f"unknown variant {variant!r}")
        self.tree = tree
        self.m = m
        self.w = w
        self.variant = variant
        self.counters = counters if counters is not None else MoveCounters()
        self.epochs_run = 0
        self.rejected = 0
        self.rejecting = False
        self._granted_before_epoch = 0
        self._inner: Optional[IteratedController] = None
        self._epoch_u = 0
        self._epoch_changes_base = 0
        self._epoch_max_size = 0
        self._start_epoch(m)

    # ------------------------------------------------------------------
    @property
    def granted(self) -> int:
        inner = self._inner.granted if self._inner is not None else 0
        return self._granted_before_epoch + inner

    def handle(self, request: Request) -> Outcome:
        if self._inner is None:
            raise ControllerError("controller has been detached")
        outcome = self._inner.handle(request)
        if outcome.status is OutcomeStatus.REJECTED:
            self.rejected += 1
            self.rejecting = True
            return outcome
        self._epoch_max_size = max(self._epoch_max_size, self.tree.size)
        if not self.rejecting and self._epoch_over():
            self._rollover()
        return outcome

    def handle_batch(self, requests: Iterable[Request]) -> List[Outcome]:
        """Serve a batch in order; epoch rollovers happen mid-batch
        exactly where sequential :meth:`handle` calls would trigger
        them, so outcomes and counters are identical to the sequential
        run (property-tested)."""
        return [self.handle(request) for request in requests]

    # ------------------------------------------------------------------
    def _epoch_over(self) -> bool:
        if self.variant == "churn":
            changes = self.tree.topology_changes - self._epoch_changes_base
            return changes >= max(self._epoch_u // 4, 1)
        return self.tree.size >= 2 * max(self._epoch_start_max, 1)

    def _start_epoch(self, budget: int) -> None:
        self.epochs_run += 1
        n_i = self.tree.size
        self._epoch_u = 2 * n_i
        self._epoch_changes_base = self.tree.topology_changes
        self._epoch_start_max = self._epoch_max_size or n_i
        self._epoch_max_size = n_i
        self._inner = IteratedController(
            self.tree, m=budget, w=self.w, u=self._epoch_u,
            counters=self.counters,
        )

    def _rollover(self) -> None:
        """End the epoch: count Y_i, clear the structure, re-budget."""
        inner = self._inner
        leftover = inner.unused_permits()
        self._granted_before_epoch += inner.granted
        inner.detach()
        # Clearing the structure, and counting N_{i+1} and Y_i: two
        # per-node waves (no termination precedes a synchronous epoch's
        # end, so nothing carries the counts for free).
        self.counters.reset_moves += 2 * waves.node_wave(self.tree.size)
        self._start_epoch(leftover)

    def unused_permits(self) -> int:
        return self.m - self.granted

    def introspect(self) -> ControllerView:
        """The :class:`repro.protocol.ControllerProtocol` audit view."""
        budget: Optional[BudgetSplit] = None
        children = ()
        if self._inner is not None:
            budget = BudgetSplit(self._granted_before_epoch, self._inner.m)
            children = (("epoch", self._inner),)
        return ControllerView(
            flavor="adaptive", m=self.m, w=self.w,
            granted=self.granted, rejected=self.rejected,
            tree=self.tree, budget=budget, children=children,
        )

    def detach(self) -> None:
        if self._inner is not None:
            self._inner.detach()
            self._inner = None
