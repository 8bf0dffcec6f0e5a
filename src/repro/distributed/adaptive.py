"""Distributed unknown-U controller — Appendix A (Theorem 4.9).

When no bound U is known, the distributed controller runs in epochs:

* epoch i assumes ``U_i = 2 N_i`` and runs a terminating
  ``(M_i, W)``-controller for the actual requests;
* **in parallel**, a second terminating ``(U_i/2, U_i/4)``-controller
  counts topological changes only: a topological change happens only
  after receiving a permit from *both* controllers, and the counting
  controller's termination is the epoch-end signal (it fires after
  between U_i/4 and U_i/2 changes — the paper's relaxation of the
  exact-U_i/4 cut of the centralized version);
* at the epoch boundary, the counting controller's termination
  convergecast (Observation 2.1) has already counted ``N_{i+1}`` and
  ``Y_i``; one broadcast carries them out and resets the data
  structure, and epoch i+1 starts with ``M_{i+1} = M_i − Y_i``.

The two controllers ignore each other's locks (they run on disjoint
whiteboard state); both must grant before the requesting entity
performs the change, exactly as Appendix A prescribes.
"""

from typing import Callable, Iterable, List, Optional

from repro.errors import ControllerError
from repro.metrics import waves
from repro.metrics.counters import MessageCounters
from repro.protocol import ControllerView
from repro.sim.delays import DelayModel, UniformDelay
from repro.sim.scheduler import Scheduler
from repro.tree.dynamic_tree import DynamicTree
from repro.core.requests import (
    Outcome,
    OutcomeStatus,
    Request,
    RequestKind,
    perform_event,
)
from repro.distributed.controller import DistributedController


class DistributedAdaptiveController:
    """Distributed (M,W)-Controller requiring no a-priori U.

    Drive it with :meth:`process` batches, like
    :class:`~repro.distributed.iterated.DistributedIteratedController`.
    """

    def __init__(self, tree: DynamicTree, m: int, w: int,
                 scheduler: Optional[Scheduler] = None,
                 delays: Optional[DelayModel] = None,
                 counters: Optional[MessageCounters] = None) -> None:
        if w < 1:
            raise ControllerError("the distributed adaptive wrapper "
                                  "needs W >= 1")
        self.tree = tree
        self.m = m
        self.w = w
        # Both per-epoch controllers share this scheduler.
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.delays = delays if delays is not None else UniformDelay(seed=0)
        self.counters = counters if counters is not None else MessageCounters()
        self.granted = 0
        self.rejected = 0
        self.epochs_run = 0
        self.rejecting = False
        self._main: Optional[DistributedController] = None
        self._change_counter: Optional[DistributedController] = None
        self._start_epoch(m)

    # ------------------------------------------------------------------
    def process(self, requests: Iterable[Request],
                callback: Optional[Callable[[Outcome], None]] = None
                ) -> List[Outcome]:
        """Serve a batch of requests to completion across epochs."""
        resolved: List[Outcome] = []
        for request in requests:
            outcome = self._serve(request)
            resolved.append(outcome)
            if callback is not None:
                callback(outcome)
        return resolved

    def handle(self, request: Request) -> Outcome:
        """Protocol form: one request served to completion."""
        return self.process([request])[0]

    def handle_batch(self, requests: Iterable[Request]) -> List[Outcome]:
        """Protocol alias for :meth:`process`."""
        return self.process(requests)

    def unused_permits(self) -> int:
        return self.m - self.granted

    def introspect(self) -> ControllerView:
        """The :class:`repro.protocol.ControllerProtocol` audit view.

        Both per-epoch engines are exposed: the main controller serving
        the actual requests and the parallel change-counting controller
        of Appendix A (each conserves its own budget and obeys the
        locking discipline, so both are audited).
        """
        children = tuple(
            (label, controller)
            for label, controller in (("main", self._main),
                                      ("change_counter",
                                       self._change_counter))
            if controller is not None
        )
        return ControllerView(
            flavor="distributed-adaptive", m=self.m, w=self.w,
            granted=self.granted, rejected=self.rejected,
            tree=self.tree, children=children,
        )

    # ------------------------------------------------------------------
    def _serve(self, request: Request) -> Outcome:
        while True:
            if self.rejecting:
                self.rejected += 1
                return Outcome(OutcomeStatus.REJECTED, request)
            main_outcome = self._main.submit_and_run(request)
            if main_outcome.status is OutcomeStatus.PENDING:
                # The global budget M_i = M - sum(Y) is spent (minus at
                # most W): the composite controller rejects from now on.
                self._enter_reject_mode()
                self.rejected += 1
                return Outcome(OutcomeStatus.REJECTED, request)
            if main_outcome.status is OutcomeStatus.CANCELLED:
                return main_outcome
            if not request.kind.is_topological:
                self.granted += 1
                return main_outcome
            # Topological: also needs a permit from the change counter.
            tick = Request(RequestKind.PLAIN, request.node)
            counter_outcome = self._change_counter.submit_and_run(tick)
            if counter_outcome.status is OutcomeStatus.PENDING:
                # Epoch boundary: between U_i/4 and U_i/2 changes
                # happened.  The main permit for this request is part of
                # Y_i accounting either way; re-serve in the new epoch.
                self._rollover()
                continue
            # Both permits in hand: the entity performs the change.
            self.granted += 1
            new_node = perform_event(self.tree, request)
            return Outcome(OutcomeStatus.GRANTED, request,
                           new_node=new_node)

    # ------------------------------------------------------------------
    def _start_epoch(self, budget: int) -> None:
        self.epochs_run += 1
        n_i = self.tree.size
        u_i = max(2 * n_i, 2)
        self._epoch_u = u_i
        self._main = DistributedController(
            self.tree, m=budget, w=self.w, u=u_i,
            scheduler=self.scheduler, delays=self.delays,
            counters=self.counters, terminate_on_exhaustion=True,
            apply_topology=False,
        )
        self._change_counter = DistributedController(
            self.tree, m=max(u_i // 2, 1), w=max(u_i // 4, 1), u=u_i,
            scheduler=self.scheduler, delays=self.delays,
            counters=self.counters, terminate_on_exhaustion=True,
            apply_topology=False,
        )

    def _rollover(self) -> None:
        leftover = self.m - self._total_main_granted()
        self._detach_epoch()
        # N_{i+1} and Y_i rode the convergecast that confirmed the
        # change counter's termination (Observation 2.1); one broadcast
        # carries them out and resets the structures.
        self.counters.broadcast_messages += waves.broadcast(self.tree.size)
        self._start_epoch(leftover)

    def _total_main_granted(self) -> int:
        base = getattr(self, "_granted_base", 0)
        current = self._main.granted if self._main is not None else 0
        return base + current

    def _detach_epoch(self) -> None:
        self._granted_base = self._total_main_granted()
        self._main.detach()
        self._change_counter.detach()
        self._main = None
        self._change_counter = None

    def _enter_reject_mode(self) -> None:
        self.rejecting = True
        self.counters.reject_messages += waves.node_wave(self.tree.size)
        self._detach_epoch()

    def detach(self) -> None:
        if self._main is not None:
            self._detach_epoch()
