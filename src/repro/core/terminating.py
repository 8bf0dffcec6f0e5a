"""Terminating (M,W)-Controller — Observation 2.1.

A terminating controller never rejects.  Instead, once the budget cannot
cover further requests it *terminates*: a reject-signal broadcast is
replaced by queuing the would-be-rejected requests, and a broadcast +
upcast round confirms that every permitted event actually occurred before
the root outputs the termination signal.  Guarantees at termination time
``t``: between ``M - W`` and ``M`` permits were granted, no permit is
granted after ``t``, and all granted events have occurred.

This is the form all Section 5 applications consume: they run in
iterations, each iteration driven by one terminating controller; the
requests still pending at termination are resubmitted by the application
to the next iteration's controller.  The confirming convergecast also
counts the tree on its way up, so the next iteration's ``N_{i+1}``
reaches the root with it and an application pays only the broadcast
that starts the next iteration.
"""

import weakref
from typing import Callable, Iterable, List, Optional

from repro.errors import ControllerError
from repro.metrics import waves
from repro.metrics.counters import MoveCounters
from repro.protocol import ControllerView
from repro.tree.dynamic_tree import DynamicTree
from repro.core.centralized import CentralizedController
from repro.core.requests import Outcome, OutcomeStatus, Request


class TerminatingController:
    """Terminating wrapper around a known-U centralized controller.

    Parameters mirror :class:`CentralizedController`; the wrapped inner
    controller is created with ``reject_on_exhaustion=False`` so that
    exhaustion surfaces as ``PENDING`` instead of a reject wave.

    :attr:`handle` is the inner controller's own bound ``handle``, so
    serving a request costs no wrapper frame.  The inner controller
    terminates its owner through a private hook at exhaustion; from
    then on every request (one a static pool could still serve, one
    whose event lost its meaning) comes back ``PENDING`` and is queued
    on :attr:`pending`.
    """

    def __init__(self, tree: DynamicTree, m: int, w: int, u: int,
                 counters: Optional[MoveCounters] = None,
                 track_intervals: bool = False,
                 interval_base: int = 0,
                 permit_flow_observer=None):
        self.tree = tree
        self.counters = counters if counters is not None else MoveCounters()
        self.inner = CentralizedController(
            tree, m=m, w=w, u=u, counters=self.counters,
            reject_on_exhaustion=False,
            track_intervals=track_intervals,
            interval_base=interval_base,
            permit_flow_observer=permit_flow_observer,
        )
        self.terminated = False
        self.pending: List[Request] = []
        self.inner._terminate = _termination_hook(self)
        # Serve with the inner controller's own bound ``handle``: it
        # shadows the class's alias, so a request costs no frame here.
        self.handle = self.inner.handle

    @property
    def granted(self) -> int:
        return self.inner.granted

    def submit(self, request: Request) -> Outcome:
        """Serve a request, or queue it if the controller terminated:
        :attr:`handle`, checking that the inner controller never
        rejects."""
        outcome = self.inner.handle(request)
        if outcome.status is OutcomeStatus.REJECTED:
            raise ControllerError(
                "terminating controller's inner controller rejected; "
                "it must be configured with reject_on_exhaustion=False"
            )
        return outcome

    #: The class-level protocol alias of :meth:`submit`; every instance
    #: shadows it with its inner controller's ``handle`` (see above).
    handle = submit

    def handle_batch(self, requests: Iterable[Request]) -> List[Outcome]:
        """Serve a batch in order.  Requests past the termination point
        come back ``PENDING`` and are queued on :attr:`pending`, exactly
        as sequential :attr:`handle` calls would leave them — the
        application resubmits them to its next iteration's controller."""
        return self.inner.handle_batch(requests)

    def unused_permits(self) -> int:
        return self.inner.unused_permits()

    def introspect(self) -> ControllerView:
        """The :class:`repro.protocol.ControllerProtocol` audit view.

        ``waste_gate="termination"``: Observation 2.1's liveness bound
        (``granted >= M - W``) applies at termination time rather than
        on rejection (this wrapper never rejects).
        """
        inner = self.inner
        return ControllerView(
            flavor="terminating", m=inner.params.m, w=inner.params.w,
            granted=self.granted, rejected=0, params=inner.params,
            storage=inner.storage, stores=inner.stores, tree=self.tree,
            terminated=self.terminated, waste_gate="termination",
        )

    def _terminate(self) -> None:
        """Broadcast the termination signal and converge the
        acknowledgements.

        Centrally both phases are instantaneous; their cost is one
        message per node each (the additive linear term allowed by
        Observation 2.1).  The detached inner controller hands every
        later request to the termination hook.
        """
        self.terminated = True
        self.counters.reset_moves += waves.termination(self.tree.size)
        self.inner.detach()

    def detach(self) -> None:
        if not self.terminated:
            self.inner.detach()
        self.terminated = True


def _termination_hook(owner: TerminatingController
                      ) -> Callable[[Request], Outcome]:
    """The inner controller's hook at exhaustion and after it: the
    owner terminates (once) and queues the request, which comes back
    ``PENDING``.

    It holds the owner weakly: the owner owns the inner controller and
    the inner controller this hook, so a strong reference would close
    a cycle that only the cyclic collector frees.
    """
    ref = weakref.ref(owner)

    def terminate(request: Request) -> Outcome:
        controller = ref()
        if controller is not None:
            if not controller.terminated:
                controller._terminate()
            controller.pending.append(request)
        return Outcome(OutcomeStatus.PENDING, request)

    return terminate
