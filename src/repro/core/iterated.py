"""Halving iterations — Observation 3.4 (and the W = 0 recipe).

A single known-U controller achieves move complexity
``O(U (M/W) log^2 U)``; when ``M/W`` is large the paper iterates:

* stage i runs an ``(M_i, M_i/2)``-controller with ``M_1 = M``;
* when stage i exhausts (the root cannot cover a package), the number
  ``L`` of unused permits (root storage plus all parked packages) is
  counted, the data structure is cleared, and stage i+1 starts with
  ``M_{i+1} = L``;
* after ``O(log(M/(W+1)))`` stages the unused budget is within a
  constant factor of W and a final ``(L, W)``-controller (with real
  rejects) finishes the job.

``W = 0`` needs exactly M grants: the paper first runs an ``(M, 1)``-
controller; if its exhaustion leaves one permit unused, a trivial
``(1, 0)``-controller (each request walks to the root) grants it, after
which requests are rejected.

Permits are conserved across stages (``L = M - granted so far``), so
whenever the final stage rejects, its own liveness gives
``granted_final >= L - W`` and therefore ``granted_total >= M - W`` —
the (M,W) liveness condition — regardless of how early the wrapper cut
over to the final stage.  This lets us cut over defensively whenever a
stage exhausts without granting anything (which can happen when the
remaining budget is smaller than the package a deep request needs).
"""

from typing import Iterable, List, Optional

from repro.errors import ControllerError
from repro.metrics import waves
from repro.metrics.counters import MoveCounters
from repro.protocol import BudgetSplit, ControllerView
from repro.tree import paths
from repro.tree.dynamic_tree import DynamicTree
from repro.core.centralized import CentralizedController
from repro.core.requests import (
    Outcome,
    OutcomeStatus,
    Request,
    perform_event,
)


class IteratedController:
    """Full (M,W)-Controller for known U via halving stages.

    Exposes the same ``handle(request) -> Outcome`` interface as
    :class:`CentralizedController`.  With ``reject_on_exhaustion=False``
    the *final* stage reports ``PENDING`` instead of rejecting, which is
    what :class:`repro.core.terminating.TerminatingController` builds on.
    """

    def __init__(self, tree: DynamicTree, m: int, w: int, u: int,
                 counters: Optional[MoveCounters] = None,
                 reject_on_exhaustion: bool = True):
        if m < 0 or w < 0:
            raise ControllerError(f"invalid (M, W) = ({m}, {w})")
        self.tree = tree
        self.m = m
        self.w = w
        self.u = u
        self.counters = counters if counters is not None else MoveCounters()
        self.reject_on_exhaustion = reject_on_exhaustion
        self.rejected = 0
        self.stages_run = 0
        self._granted_before_stage = 0
        self._inner: Optional[CentralizedController] = None
        self._final = False
        # Trivial (1,0) sub-stage state for W = 0.
        self._trivial_storage = 0
        self._trivial_active = False
        self.rejecting = False
        self._detached = False
        self._spawn_stage(m)

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------
    @property
    def granted(self) -> int:
        inner_granted = self._inner.granted if self._inner is not None else 0
        return self._granted_before_stage + inner_granted

    @property
    def exhausted(self) -> bool:
        """True once the wrapper ran fully out of budget."""
        if self.rejecting:
            return True
        if self._trivial_active:
            return self._trivial_storage == 0
        return (self._final and self._inner is not None
                and self._inner.exhausted)

    def unused_permits(self) -> int:
        return self.m - self.granted

    def introspect(self) -> ControllerView:
        """The :class:`repro.protocol.ControllerProtocol` audit view.

        The budget split states the wrapper's conservation law: grants
        banked by finished stages plus the live stage's full budget
        (or the trivial stage's remaining storage) equal ``M``.
        """
        budget: Optional[BudgetSplit] = None
        children = ()
        if self._inner is not None:
            budget = BudgetSplit(self._granted_before_stage,
                                 self._inner.params.m)
            children = (("stage", self._inner),)
        elif self._trivial_active:
            budget = BudgetSplit(self._granted_before_stage,
                                 self._trivial_storage)
        return ControllerView(
            flavor="iterated", m=self.m, w=self.w,
            granted=self.granted, rejected=self.rejected,
            tree=self.tree, budget=budget, children=children,
        )

    # ------------------------------------------------------------------
    # Request handling.
    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Outcome:
        if self._detached:
            raise ControllerError("controller has been detached")
        if self._trivial_active:
            return self._handle_trivial(request)
        while True:
            outcome = self._inner.handle(request)
            if outcome.status is OutcomeStatus.REJECTED:
                self.rejected += 1
                self.rejecting = True
                return outcome
            if outcome.status is not OutcomeStatus.PENDING:
                return outcome
            # The stage exhausted while serving this request.
            if self._final:
                if self.w == 0:
                    self._enter_trivial_stage()
                    return self._handle_trivial(request)
                # Final stage with reject_on_exhaustion=False: bubble up.
                return outcome
            self._advance_stage()

    def handle_batch(self, requests: Iterable[Request]) -> List[Outcome]:
        """Serve a batch in order; stage rollovers happen mid-batch
        exactly where sequential :meth:`handle` calls would trigger
        them, so outcomes and counters are identical to the sequential
        run (property-tested)."""
        return [self.handle(request) for request in requests]

    # ------------------------------------------------------------------
    # Stage management.
    # ------------------------------------------------------------------
    def _spawn_stage(self, budget: int) -> None:
        self.stages_run += 1
        effective_w = max(self.w, 1)
        # Halve while the budget comfortably exceeds the waste allowance;
        # otherwise run the final (budget, W) stage.
        if budget > 2 * (effective_w + 1) and budget // 2 > effective_w:
            self._final = False
            self._inner = CentralizedController(
                self.tree, m=budget, w=budget // 2, u=self.u,
                counters=self.counters, reject_on_exhaustion=False,
            )
        else:
            self._final = True
            final_rejects = self.reject_on_exhaustion and self.w >= 1
            self._inner = CentralizedController(
                self.tree, m=budget, w=effective_w, u=self.u,
                counters=self.counters, reject_on_exhaustion=final_rejects,
            )

    def _advance_stage(self) -> None:
        """Clear stage i's data structure and start stage i+1 with L."""
        inner = self._inner
        leftover = inner.unused_permits()
        self._granted_before_stage += inner.granted
        # If the stage granted nothing, halving again would loop: cut to
        # the final stage (safe per the liveness argument above).
        granted_this_stage = inner.granted
        self._reset_inner()
        if granted_this_stage == 0:
            self._final_spawn(leftover)
        else:
            self._spawn_stage(leftover)

    def _final_spawn(self, budget: int) -> None:
        self.stages_run += 1
        self._final = True
        final_rejects = self.reject_on_exhaustion and self.w >= 1
        self._inner = CentralizedController(
            self.tree, m=budget, w=max(self.w, 1), u=self.u,
            counters=self.counters, reject_on_exhaustion=final_rejects,
        )

    def _reset_inner(self) -> None:
        """Clearing the data structure costs one per-node wave."""
        self.counters.reset_moves += waves.node_wave(self.tree.size)
        self._inner.detach()
        self._inner = None

    # ------------------------------------------------------------------
    # Trivial (1, 0) stage for W = 0 (Section 3.2.2 / Section 4.4).
    # ------------------------------------------------------------------
    def _enter_trivial_stage(self) -> None:
        leftover = self._inner.unused_permits()
        self._granted_before_stage += self._inner.granted
        self._reset_inner()
        self._trivial_storage = leftover
        self._trivial_active = True

    def _handle_trivial(self, request: Request) -> Outcome:
        node = request.node
        if node not in self.tree:
            return Outcome(OutcomeStatus.CANCELLED, request)
        if self.rejecting:
            self.rejected += 1
            return Outcome(OutcomeStatus.REJECTED, request)
        # The request walks to the root and back: 2 * depth moves.
        self.counters.package_moves += 2 * paths.depth(node)
        if self._trivial_storage > 0:
            self._trivial_storage -= 1
            self._granted_before_stage += 1
            new_node = perform_event(self.tree, request)
            return Outcome(OutcomeStatus.GRANTED, request, new_node=new_node)
        if self.reject_on_exhaustion:
            self.rejecting = True
            self.counters.reject_moves += waves.node_wave(self.tree.size)
            self.rejected += 1
            return Outcome(OutcomeStatus.REJECTED, request)
        return Outcome(OutcomeStatus.PENDING, request)

    # ------------------------------------------------------------------
    def detach(self) -> None:
        if self._inner is not None:
            self._inner.detach()
            self._inner = None
        self._detached = True
