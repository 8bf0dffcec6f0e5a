"""The controller session: one object that owns the whole engine.

``ControllerSession`` wires a tree, a controller flavour, and (for the
event-driven engine) a scheduler + delay model + fault injector from a
single frozen :class:`~repro.service.config.SessionConfig`, then serves
requests through one ingestion-shaped API:

* :meth:`submit` — non-blocking; admission-checks the request and
  returns a :class:`~repro.service.envelopes.Ticket`;
* :meth:`submit_many` — a batch of tickets (staggered arrivals on the
  event-driven engine);
* :meth:`drain` — a streaming iterator that pumps the engine and yields
  :class:`~repro.service.envelopes.OutcomeRecord` objects in
  **settlement order**, for both the synchronous flavours (the session
  batches pending requests through ``handle_batch``) and the
  event-driven distributed engine (the session pumps the scheduler and
  yields as agent callbacks land);
* :meth:`settle_all` — ``list(drain())``.

Admission control: at most ``config.max_in_flight`` requests may be in
flight; beyond that, ``submit`` settles the ticket immediately with the
``BACKPRESSURE`` verdict without touching the controller — saturation
is answered at the session boundary, never confused with the paper's
permit *reject* (see :mod:`repro.service.envelopes`).

The session implements the controller protocol's ``introspect()`` by
delegation, so :func:`repro.metrics.invariants.audit_controller`
accepts a session wherever it accepts a controller (:meth:`audit` is
the shorthand).
"""

import threading
from collections import deque
from typing import Any, Deque, Dict, Iterable, Iterator, List, Optional, cast

from repro.core.kernel import KernelTrace
from repro.core.requests import Request
from repro.distributed.faults import FaultInjector
from repro.errors import ConfigError, ControllerError, ProtocolError
from repro.metrics.invariants import InvariantReport, audit_controller
from repro.protocol import ControllerProtocol, ControllerView
from repro.registry import make_controller
from repro.service.config import (
    SCHEDULED_FLAVORS,
    TRACED_FLAVORS,
    SessionConfig,
)
from repro.service.envelopes import OutcomeRecord, SessionVerdict, Ticket
from repro.service.outbox import Outbox
from repro.sim.delays import make_delay_model
from repro.sim.scheduler import Scheduler
from repro.tree.dynamic_tree import DynamicTree


class ControllerSession:
    """A live engine behind the session API (see module docstring).

    Parameters
    ----------
    config:
        The frozen wiring description.
    tree:
        The tree to control.  ``None`` builds a fresh single-root
        :class:`DynamicTree` owned by the session.
    """

    def __init__(self, config: SessionConfig,
                 tree: Optional[DynamicTree] = None) -> None:
        self.config = config
        self.tree = tree if tree is not None else DynamicTree()
        spec = config.controller
        if config.trace and spec.flavor not in TRACED_FLAVORS:
            raise ConfigError(
                f"flavor {spec.flavor!r} does not take a kernel trace; "
                f"traced flavours: {', '.join(TRACED_FLAVORS)}")

        kwargs: Dict[str, Any] = dict(spec.options)
        self.scheduler: Optional[Scheduler] = None
        if spec.flavor in SCHEDULED_FLAVORS:
            self.scheduler = Scheduler(config.schedule_policy,
                                       seed=config.seed)
            kwargs["scheduler"] = self.scheduler
            kwargs["delays"] = make_delay_model(config.delay_model,
                                                seed=config.seed)
        if spec.flavor == "distributed" and not config.fault_plan.is_noop:
            kwargs["faults"] = FaultInjector(config.fault_plan)
        self.trace: Optional[KernelTrace] = None
        if config.trace:
            self.trace = KernelTrace()
            kwargs["kernel_trace"] = self.trace
        self.controller: ControllerProtocol = make_controller(
            spec.flavor, self.tree, m=spec.m, w=spec.w, u=spec.u, **kwargs)
        self._event_driven = spec.event_driven
        # Bound-method caches for the per-request hot paths.
        self._handle = self.controller.handle
        self._handle_batch = self.controller.handle_batch

        # One reentrant lock serializes admission, pumping, and the
        # drain-side pops, so concurrent ``Ticket.result()`` /
        # ``drain()`` callers (the gateway's client threads) can never
        # double-handle a pending batch or double-settle a ticket.
        # Reentrant because the event-driven pump fires settlement
        # callbacks from inside ``scheduler.pump()``.  Single-caller
        # paths (``serve`` / ``serve_stream``) stay lock-free except
        # where they delegate to ``_pump``.
        self._lock = threading.RLock()
        self._outbox = Outbox(
            scheduler=self.scheduler if self._event_driven else None,
            trace=self.trace)
        self._pending: Deque[Ticket] = deque()
        self._closed = False
        #: Verdict tallies over every settled record (including
        #: backpressure, which the controller never sees).
        self.verdicts: Dict[str, int] = self._outbox.verdicts

    # ------------------------------------------------------------------
    # Clock and introspection.
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The session clock: simulated time on the event-driven
        engine, the submit/settle operation counter otherwise.

        The scheduled-but-synchronous wrappers (distributed_iterated /
        distributed_adaptive) also carry a scheduler, but they settle
        inside ``handle_batch`` — their ticks use the operation counter
        so submit and settle ticks stay on one scale.
        """
        return self._outbox.now

    @property
    def in_flight(self) -> int:
        """Requests admitted but not yet settled."""
        return self._outbox.open

    @property
    def backpressured(self) -> int:
        """Requests refused at the admission window so far."""
        return self.verdicts[SessionVerdict.BACKPRESSURE.value]

    @property
    def undelivered(self) -> int:
        """Settled records a future :meth:`drain` would still yield
        (settled but neither drained nor claimed via a ticket)."""
        return self._outbox.undelivered

    def introspect(self) -> ControllerView:
        """Delegates to the engine, so the protocol-based auditor
        accepts a session wherever it accepts a controller."""
        return self.controller.introspect()

    def audit(self, report: Optional[InvariantReport] = None
              ) -> InvariantReport:
        """Run the invariant auditor over the live engine."""
        return audit_controller(self.controller, report)

    def tally(self) -> Dict[str, int]:
        """Verdict counts over every settled record."""
        return dict(self.verdicts)

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------
    def submit(self, request: Request,
               delay: Optional[float] = None) -> Ticket:
        """Admit one request; non-blocking.

        Returns a ticket that settles when the session pumps the engine
        (:meth:`drain`, :meth:`settle_all`, or ``Ticket.result()``).
        If the admission window is full the ticket settles *immediately*
        with ``BACKPRESSURE`` and the controller never sees the request.
        ``delay`` is the arrival offset in simulated time (event-driven
        engine only).
        """
        with self._lock:
            if self._closed:
                raise ControllerError("session is closed")
            outbox = self._outbox
            ticket = outbox.ticket(request, self._pump)
            if outbox.open > self.config.max_in_flight:
                outbox.settle(ticket, None)
                return ticket
            self._dispatch(ticket, delay)
            return ticket

    def _dispatch(self, ticket: Ticket, delay: Optional[float]) -> None:
        """Hand an admitted request to the engine (no window check)."""
        if self._event_driven:
            settle = self._outbox.settle
            submit = getattr(self.controller, "submit")
            submit(ticket.request,
                   delay=delay if delay is not None else 0.0,
                   callback=lambda outcome, t=ticket: settle(t, outcome))
        else:
            self._pending.append(ticket)

    def submit_many(self, requests: Iterable[Request],
                    stagger: Optional[float] = None) -> List[Ticket]:
        """Admit a batch; arrivals spaced ``stagger`` apart on the
        event-driven engine (default: ``config.stagger``)."""
        step = self.config.stagger if stagger is None else stagger
        return [self.submit(request, delay=position * step)
                for position, request in enumerate(requests)]

    def serve(self, request: Request) -> OutcomeRecord:
        """Serve one request to completion, synchronously.

        The single-request convenience mirroring the protocol's
        ``handle``: on the synchronous flavours this is one
        ``controller.handle`` call wrapped in an envelope/record (any
        queued submissions are flushed first so settlement order stays
        submission order); on the event-driven engine the request is
        dispatched and the scheduler pumped until it settles.  Like
        :meth:`serve_stream`, a served request is never queued, so
        admission control does not apply and the record is returned
        directly (not re-yielded by :meth:`drain`).
        """
        if self._closed:
            raise ControllerError("session is closed")
        if self._event_driven:
            ticket = self._outbox.ticket(request, self._pump)
            self._dispatch(ticket, None)
            record = ticket.result()
            # Match submit_and_run: each serve runs to quiescence, so
            # consecutive serves never interleave with prior cleanup.
            self._quiesce()
            return record
        if self._pending:
            self._pump()
        return self._outbox.served(request, self._handle(request))

    def serve_stream(self, requests: Iterable[Request]
                     ) -> List[OutcomeRecord]:
        """Serve a lazily-resolved request stream to completion.

        The cooperative batched path for replay harnesses: on the
        synchronous flavours the iterable is handed to ``handle_batch``
        and consumed one element at a time, so a resolver such as
        :class:`repro.workloads.scenarios.TreeMirror` may bind each
        request only after the previous one was applied (the laziness
        guarantee holds for the centralized family, whose
        ``handle_batch`` walks its input incrementally).  On the
        event-driven engine — where requests race and late binding is
        meaningless — the stream is dispatched to the scheduler
        (arrivals spaced ``config.stagger`` apart) and pumped to
        quiescence.

        Admission control does not apply on either engine: the stream
        is served, not queued, so the session is never saturated by it
        (and no request of the stream is ever backpressured).  Records
        come back in stream order and are *not* also yielded by
        :meth:`drain`.
        """
        if self._closed:
            raise ControllerError("session is closed")
        if self._event_driven:
            # Served, not queued: admission does not apply, so the
            # stream dispatches past the window instead of going
            # through submit() (which would backpressure the tail).
            step = self.config.stagger
            tickets: List[Ticket] = []
            for position, request in enumerate(requests):
                ticket = self._outbox.ticket(request, self._pump)
                self._dispatch(ticket, position * step)
                tickets.append(ticket)
            records = [ticket.result() for ticket in tickets]
            self._quiesce()
            return records
        if self._pending:
            self._pump()  # keep settlement order = submission order
        # The stream goes straight to ``handle_batch`` — nothing is
        # collected up front (that is what keeps resolver laziness
        # intact) — and its records are built in one C loop.
        return self._outbox.served_batch(self._handle_batch(requests))

    # ------------------------------------------------------------------
    # Settlement.
    # ------------------------------------------------------------------
    def _pump(self) -> bool:
        """Advance the engine one unit; False when it is idle.

        Synchronous flavours: serve the whole pending queue as one
        ``handle_batch`` (amortizing exactly as a direct batch call
        would).  Event-driven engine: execute one scheduler batch of up
        to :data:`~repro.sim.scheduler.PUMP_BATCH` events (settlement
        callbacks fire from inside it).  A closed
        session refuses to pump — in-flight tickets of a closed
        session never settle, they raise here instead.

        Serialized under the session lock: concurrent pumpers (a
        ``drain()`` iterator racing ``Ticket.result()`` calls) each
        take the whole critical section, so a pending batch is handed
        to the engine exactly once and every ticket settles exactly
        once.
        """
        with self._lock:
            if self._closed:
                raise ControllerError("session is closed")
            if self._event_driven:
                assert self.scheduler is not None
                # A batch per pump amortizes this lock and the drain
                # loop's frames across many events.
                return self.scheduler.pump()
            if not self._pending:
                return False
            batch = list(self._pending)
            self._pending.clear()
            outcomes = self._handle_batch(
                [ticket.request for ticket in batch])
            settle = self._outbox.settle
            for ticket, outcome in zip(batch, outcomes):
                settle(ticket, outcome)
            return True

    def drain(self) -> Iterator[OutcomeRecord]:
        """Pump the engine, yielding records in settlement order.

        Terminates when nothing is in flight; a later ``submit`` may be
        followed by another ``drain()``.  Delivery is exactly-once: a
        record whose ticket was already taken via ``Ticket.result()``
        is skipped here (the reverse also holds — a drained record
        stays readable through its ticket, as a lookup).  Concurrent
        drains share one stream: each settled record is popped (and
        yielded) by exactly one of them, and a drain racing other
        pumpers re-checks the queue instead of mistaking their progress
        for a stuck engine.
        """
        pop = self._outbox.pop
        while True:
            with self._lock:
                record = pop()
                if record is None:
                    if self.in_flight == 0:
                        self._quiesce()
                        return
                    # Pump inside the lock: the in-flight check and the
                    # pump are atomic, so another thread settling the
                    # remainder between them cannot fake an idle engine.
                    if not self._pump():
                        raise ProtocolError(
                            f"{self.in_flight} requests in flight but "
                            "the engine is idle (agent lost?)")
                    continue
            # Session entries are settled tickets only.
            yield cast(OutcomeRecord, record)

    def settle_all(self) -> List[OutcomeRecord]:
        """Drain to quiescence and return the settled records."""
        return list(self.drain())

    def _quiesce(self) -> None:
        """Finish the event engine's post-settlement cleanup.

        Grants are delivered at grant time; the granting agent's
        return-and-unlock walk is still queued when the last request
        settles.  Draining runs that cleanup to quiescence so the
        engine's locks and counters end exactly where a direct
        ``submit_batch``/``run()`` would leave them.
        """
        if self.scheduler is not None:
            self.scheduler.run()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Settle nothing further: detach the engine from the tree.

        Idempotent.  In-flight requests are abandoned (their tickets
        never settle), so callers normally drain first.
        """
        with self._lock:
            if not self._closed:
                self._closed = True
                if not self._outbox.open:
                    self._quiesce()  # settled work still owed its cleanup
                self.controller.detach()

    def __enter__(self) -> "ControllerSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        spec = self.config.controller
        return (f"ControllerSession({spec.flavor!r}, m={spec.m}, "
                f"w={spec.w}, u={spec.u}, in_flight={self.in_flight}, "
                f"settled={sum(self.verdicts.values())})")
