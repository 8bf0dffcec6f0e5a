"""Distributed halving iterations (Theorem 4.7).

The distributed equivalent of Observation 3.4: run terminating
``(M_i, M_i/2)``-stages; when stage i terminates, the convergecast that
confirms the termination (Observation 2.1) also counts the unused
permits L (O(U) messages of O(log M) bits), one broadcast carries L out
and resets the data structure, and stage i+1 starts with
``M_{i+1} = L``.  After O(log(M/(W+1))) stages the final
``(L, W)``-stage runs with real rejects.  For W = 0 the final permits
are served by the trivial root-walk controller (2·depth messages per
request), as prescribed at the end of Section 4.4.1.

Stages are separated by quiescence: the terminating controller's
broadcast/upcast round (Observation 2.1) already guarantees that all
in-flight work of a stage completes before the next begins, so driving
the stage boundary from the harness is faithful to the protocol.
"""

from typing import Callable, Iterable, List, Optional, Tuple, cast

from repro.errors import ControllerError
from repro.metrics import waves
from repro.metrics.counters import MessageCounters
from repro.protocol import ControllerView
from repro.sim.delays import DelayModel, UniformDelay
from repro.sim.scheduler import Scheduler
from repro.tree import paths
from repro.tree.dynamic_tree import DynamicTree
from repro.core.requests import (
    Outcome,
    OutcomeStatus,
    Request,
    perform_event,
)
from repro.distributed.controller import DistributedController


class DistributedIteratedController:
    """Full distributed (M,W)-Controller via terminating stages.

    Use :meth:`process` to feed a batch of requests: it submits them to
    the current stage, runs the simulator to quiescence, rolls stages
    over while requests come back PENDING, and returns every request's
    final outcome by input position (``callback`` sees them in
    completion order).
    """

    def __init__(self, tree: DynamicTree, m: int, w: int, u: int,
                 scheduler: Optional[Scheduler] = None,
                 delays: Optional[DelayModel] = None,
                 counters: Optional[MessageCounters] = None) -> None:
        self.tree = tree
        self.m = m
        self.w = w
        self.u = u
        # Stage controllers share this scheduler.
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.delays = delays if delays is not None else UniformDelay(seed=0)
        self.counters = counters if counters is not None else MessageCounters()
        self.granted = 0
        self.rejected = 0
        self.stages_run = 0
        self.rejecting = False
        self._trivial_storage = 0
        self._trivial_active = False
        self._stage: Optional[DistributedController] = None
        self._spawn_stage(m)

    # ------------------------------------------------------------------
    def process(self, requests: Iterable[Request],
                callback: Optional[Callable[[Outcome], None]] = None
                ) -> List[Outcome]:
        """Serve a batch of requests to completion across stages."""
        batch = list(enumerate(requests))
        resolved: List[Optional[Outcome]] = [None] * len(batch)
        while batch:
            if self._trivial_active:
                for position, request in batch:
                    outcome = self._handle_trivial(request)
                    resolved[position] = outcome
                    if callback is not None:
                        callback(outcome)
                break
            stage = self._stage
            settled: List[Tuple[int, Outcome]] = []
            for position, request in batch:
                stage.submit(request, callback=lambda outcome, p=position:
                             settled.append((p, outcome)))
            stage.run()
            # PENDINGs resubmit to the next stage in settlement order.
            batch = []
            for position, outcome in settled:
                if outcome.status is OutcomeStatus.PENDING:
                    batch.append((position, outcome.request))
                    continue
                if outcome.status is OutcomeStatus.REJECTED:
                    self.rejected += 1
                    self.rejecting = True
                resolved[position] = outcome
                if callback is not None:
                    callback(outcome)
            if batch:
                self._rollover()
        return cast(List[Outcome], resolved)

    def handle(self, request: Request) -> Outcome:
        """Protocol form: one request served to completion."""
        return self.process([request])[0]

    def handle_batch(self, requests: Iterable[Request]) -> List[Outcome]:
        """Protocol alias for :meth:`process`."""
        return self.process(requests)

    def unused_permits(self) -> int:
        if self._trivial_active:
            return self._trivial_storage
        return self.m - self.granted - self._stage.granted

    def introspect(self) -> ControllerView:
        """The :class:`repro.protocol.ControllerProtocol` audit view.

        ``granted`` includes the live stage's grants (the wrapper banks
        them only at rollover), so safety/waste are checked against the
        true running total.
        """
        stage = self._stage
        children = (("stage", stage),) if stage is not None else ()
        live = stage.granted if stage is not None else 0
        return ControllerView(
            flavor="distributed-iterated", m=self.m, w=self.w,
            granted=self.granted + live, rejected=self.rejected,
            tree=self.tree, children=children,
        )

    # ------------------------------------------------------------------
    def _spawn_stage(self, budget: int) -> None:
        self.stages_run += 1
        effective_w = max(self.w, 1)
        halving = budget > 2 * (effective_w + 1) and budget // 2 > effective_w
        if halving:
            stage_w = budget // 2
            terminate = True
        else:
            stage_w = effective_w
            # The final stage rejects for real, unless W = 0 (then we
            # terminate once more and fall through to the trivial stage).
            terminate = self.w == 0
        self._halving_stage = halving
        self._stage = DistributedController(
            self.tree, m=budget, w=stage_w, u=self.u,
            scheduler=self.scheduler, delays=self.delays,
            counters=self.counters, terminate_on_exhaustion=terminate,
        )

    def _rollover(self) -> None:
        stage = self._stage
        if not stage.terminated:
            raise ControllerError("rollover without stage termination")
        self.granted += stage.granted
        leftover = self.m - self.granted
        stage.detach()
        # L rode the convergecast that confirmed the stage's
        # termination (Observation 2.1); one broadcast carries it out
        # and resets the data structure.
        self.counters.broadcast_messages += waves.broadcast(self.tree.size)
        if self._halving_stage:
            self._spawn_stage(leftover)
        elif self.w == 0:
            # (M,1) terminated; at most one permit remains: trivial stage.
            self._trivial_storage = leftover
            self._trivial_active = True
            self.stages_run += 1
        else:
            raise ControllerError("final rejecting stage cannot terminate")

    # ------------------------------------------------------------------
    def _handle_trivial(self, request: Request) -> Outcome:
        """The (L, 0) trivial stage: every request walks to the root."""
        node = request.node
        if node not in self.tree:
            return Outcome(OutcomeStatus.CANCELLED, request)
        if self.rejecting:
            self.rejected += 1
            return Outcome(OutcomeStatus.REJECTED, request)
        self.counters.agent_hops += 2 * paths.depth(node)
        if self._trivial_storage > 0:
            self._trivial_storage -= 1
            self.granted += 1
            new_node = perform_event(self.tree, request)
            return Outcome(OutcomeStatus.GRANTED, request, new_node=new_node)
        self.rejecting = True
        self.rejected += 1
        self.counters.reject_messages += waves.node_wave(self.tree.size)
        return Outcome(OutcomeStatus.REJECTED, request)

    def detach(self) -> None:
        if self._stage is not None:
            self._stage.detach()
            self._stage = None
