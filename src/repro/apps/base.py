"""The application session: iteration-owning engine behind the app API.

Every Section 5 application runs the same outer loop (Observation 2.1):
derive an ``(M_i, W_i, U_i)`` contract from the tree size at iteration
start, guard all events with one *terminating* controller, and when
that controller exhausts its budget, tear it down, re-derive the
contract, and resubmit the still-pending requests to the next
iteration.  :class:`AppSession` is that loop, written once, on top of
the session layer:

* each iteration's controller lives inside a
  :class:`~repro.service.session.ControllerSession` built from the
  app's :class:`~repro.service.appspec.AppSpec` — so the same app runs
  synchronously (flavour ``terminating``) or event-driven (flavour
  ``distributed`` with ``terminate_on_exhaustion``, under any schedule
  policy, delay model, and fault plan);
* the public surface mirrors the session's: non-blocking
  :meth:`submit` returning a :class:`~repro.service.envelopes.Ticket`,
  batched :meth:`submit_many`, synchronous :meth:`serve`, and a
  streaming :meth:`drain` that yields
  :class:`~repro.service.envelopes.OutcomeRecord` objects in
  settlement order **interleaved with**
  :class:`~repro.service.envelopes.IterationRecord` boundary events,
  so rollovers are observable instead of inferred;
* admission control happens once, at the app boundary
  (``spec.max_in_flight``); the inner engine session runs wide open,
  so backpressure and rollover never interact;
* a rolled request keeps its ticket: PENDING outcomes are consumed by
  the resubmission queue, and the caller only ever observes the final
  granted/rejected/cancelled verdict.

Subclasses implement three hooks: :meth:`_iteration_contract` (the
per-iteration (M, W, U) plus controller options such as interval mode
or the permit-flow observer), :meth:`_on_iteration_start` (broadcasts,
estimate refreshes, relabels — chained via ``super()``), and
:meth:`_after_outcome` (id bookkeeping, tallies).  Every app is an
``AppSession`` built by :func:`repro.apps.make_app`; 2.0 removed the
legacy ``*Protocol`` classes.
"""

from collections import deque
from typing import (
    Any,
    Callable,
    ClassVar,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.requests import Outcome, OutcomeStatus, Request
from repro.errors import ControllerError, ProtocolError
from repro.metrics.counters import MessageCounters, MoveCounters
from repro.metrics.invariants import InvariantReport, audit_app
from repro.protocol import AppView, ControllerView
from repro.service.appspec import AppSpec
from repro.service.envelopes import (
    IterationRecord,
    OutcomeRecord,
    SessionVerdict,
    Ticket,
)
from repro.service.outbox import Outbox, StreamRecord
from repro.service.session import ControllerSession
from repro.tree.dynamic_tree import DynamicTree

#: One iteration's controller contract: (m, w, u, extra options).
IterationContract = Tuple[int, int, int, Dict[str, Any]]


class AppSession:
    """Base class for the Section 5 applications (see module docstring).

    Parameters
    ----------
    spec:
        The frozen :class:`AppSpec` (``spec.app`` must name this
        class's :attr:`name`; :func:`repro.apps.make_app` dispatches).
    tree:
        The tree to run on.  ``None`` builds a fresh single-root
        :class:`DynamicTree` owned by the app.
    """

    #: The registry name subclasses bind to.
    name: ClassVar[str] = ""

    def __init__(self, spec: AppSpec,
                 tree: Optional[DynamicTree] = None) -> None:
        if spec.app != self.name:
            raise ControllerError(
                f"spec names app {spec.app!r}, not {self.name!r}; "
                "construct apps through repro.apps.make_app")
        self.spec = spec
        self.tree = tree if tree is not None else DynamicTree()
        #: App-layer cost accounting (broadcasts, relabels, parent
        #: notifications), always in centralized *moves*.
        self.counters = MoveCounters()
        #: The engine's own counter object, shared across iterations.
        #: Synchronous iterations charge the app's MoveCounters
        #: directly (one ledger, exactly as the legacy classes kept
        #: it); event-driven iterations accumulate MessageCounters.
        self.engine_counters: Union[MoveCounters, MessageCounters]
        if spec.event_driven:
            self.engine_counters = MessageCounters()
        else:
            self.engine_counters = self.counters
        self.iterations_run = 0
        #: Permits granted by already-closed iterations (the rollover
        #: conservation ledger; the live iteration's tally is read off
        #: its controller).
        self.grants_banked = 0
        #: Fault-injection tallies banked from closed iterations (each
        #: iteration's session builds a fresh injector; see
        #: :attr:`fault_stats` for the full-run view).
        self._banked_fault_stats: Dict[str, int] = {}
        self.session: Optional[ControllerSession] = None
        self._outbox = Outbox()
        self._pending: Deque[Ticket] = deque()
        self._closed = False
        self.verdicts: Dict[str, int] = self._outbox.verdicts
        self._sync = not spec.event_driven
        #: Whether a subclass overrides the per-outcome hook (the base
        #: hook is a no-op, so the serve paths skip its call).
        self._hooked = (type(self)._after_outcome
                        is not AppSession._after_outcome)
        self._fast_handle: Callable[[Request], Any]
        self._start_iteration()

    # ------------------------------------------------------------------
    # Subclass hooks.
    # ------------------------------------------------------------------
    def _iteration_contract(self, n_i: int) -> IterationContract:
        """The (m, w, u, options) contract for an iteration starting at
        tree size ``n_i``.  Options may wire the shared counters'
        companions: interval mode, the permit-flow observer, ..."""
        raise NotImplementedError

    def _on_iteration_start(self, n_i: int) -> None:
        """Runs after the iteration's session exists: broadcast
        accounting, estimate refreshes, relabels.  Chain ``super()``."""

    def _after_outcome(self, outcome: Outcome) -> None:
        """Runs once per settled (non-PENDING) outcome, in settlement
        order: id bookkeeping, domain tallies.  Chain ``super()``."""

    # ------------------------------------------------------------------
    # Iteration lifecycle.
    # ------------------------------------------------------------------
    def _start_iteration(self) -> None:
        self.iterations_run += 1
        n_i = self.tree.size
        m, w, u, options = self._iteration_contract(n_i)
        options.setdefault("counters", self.engine_counters)
        config = self.spec.config_for(m, w, u, iteration=self.iterations_run,
                                      options=options)
        self.session = ControllerSession(config, tree=self.tree)
        # Bound-method cache for the synchronous serve hot path: the
        # session's serve() is this same handle plus record wrapping
        # the app redoes at its own layer anyway (the <= 5% apps-bench
        # overhead budget pays for exactly one wrapping).
        self._fast_handle = self.session.controller.handle
        self._on_iteration_start(n_i)
        outbox = self._outbox
        outbox.clock += 1
        outbox.push(IterationRecord(
            index=self.iterations_run, size=n_i, m=m, w=w, u=u,
            tick=outbox.now))

    def _roll_iteration(self) -> None:
        session = self.session
        assert session is not None
        self.grants_banked += self._live_granted()
        self._bank_fault_stats()
        session.close()
        self._start_iteration()

    def _bank_fault_stats(self) -> None:
        assert self.session is not None
        injector = getattr(self.session.controller, "faults", None)
        if injector is not None:
            banked = self._banked_fault_stats
            for key, value in injector.stats.items():
                banked[key] = banked.get(key, 0) + value

    def _live_granted(self) -> int:
        """The live iteration controller's grant tally."""
        assert self.session is not None
        return int(getattr(self.session.controller, "granted", 0))

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def granted_total(self) -> int:
        """Requests this app has granted, over all iterations."""
        return self.verdicts[SessionVerdict.GRANTED.value]

    @property
    def in_flight(self) -> int:
        """Requests admitted but not yet settled at the app boundary."""
        return self._outbox.open

    @property
    def fault_stats(self) -> Dict[str, int]:
        """Fault-injection tallies over the *whole* run: the banked
        totals of closed iterations plus the live injector's (each
        iteration wires a fresh :class:`FaultInjector`)."""
        totals = dict(self._banked_fault_stats)
        injector = (getattr(self.session.controller, "faults", None)
                    if self.session is not None else None)
        if injector is not None:
            for key, value in injector.stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def tally(self) -> Dict[str, int]:
        """Verdict counts over every settled app record."""
        return dict(self.verdicts)

    def introspect(self) -> ControllerView:
        """The live iteration's controller view (protocol delegation)."""
        assert self.session is not None
        return self.session.introspect()

    def app_view(self) -> AppView:
        """The app-level audit declaration (see
        :class:`repro.protocol.AppView`); subclasses extend it with
        their guarantee's state (estimate, ids, ...)."""
        assert self.session is not None
        return AppView(
            name=self.name, iterations=self.iterations_run,
            size=self.tree.size, grants_banked=self.grants_banked,
            granted_total=self.granted_total,
            controller=self.session.controller)

    def audit(self, report: Optional[InvariantReport] = None
              ) -> InvariantReport:
        """Run the invariant auditor over the app and its live engine."""
        return audit_app(self, report)

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> Ticket:
        """Admit one request; non-blocking.

        The ticket settles when the app pumps its engine
        (:meth:`drain`, :meth:`settle_all`, or ``Ticket.result()``)
        with the request's *final* verdict: PENDING outcomes are
        consumed by the iteration rollover and never surface.  Beyond
        ``spec.max_in_flight`` queued requests the ticket settles
        immediately as ``BACKPRESSURE`` and the engine never sees the
        request.
        """
        if self._closed:
            raise ControllerError("app session is closed")
        outbox = self._outbox
        ticket = outbox.ticket(request, self._pump)
        if outbox.open > self.spec.max_in_flight:
            outbox.settle(ticket, None)
            return ticket
        self._pending.append(ticket)
        return ticket

    def submit_many(self, requests: Iterable[Request]) -> List[Ticket]:
        """Admit a batch of requests (one ticket each)."""
        return [self.submit(request) for request in requests]

    def serve(self, request: Request) -> OutcomeRecord:
        """Serve one request to completion, synchronously.

        Mirrors the legacy ``submit(request) -> Outcome`` loop: the
        request is served by the live iteration's controller; a PENDING
        outcome rolls the iteration and retries (Observation 2.1's
        resubmission, serialized).  Queued :meth:`submit` tickets are
        flushed first so settlement order stays submission order.  The
        record is returned directly and not re-yielded by
        :meth:`drain`.
        """
        if self._closed:
            raise ControllerError("app session is closed")
        while self._pending:
            self._pump()
        envelope_id, submit_tick = self._outbox.stamp()
        while True:
            if self._sync:
                # Hot path: one controller call, one record (below).
                outcome = self._fast_handle(request)
            else:
                assert self.session is not None
                record = self.session.serve(request)
                assert record.outcome is not None
                outcome = record.outcome
            if outcome.status is not OutcomeStatus.PENDING:
                break
            granted_now = self._live_granted()
            self._roll_iteration()
            if granted_now == 0:
                self._require_progress()
        if self._hooked:
            self._after_outcome(outcome)
        return self._outbox.record(request, envelope_id, submit_tick,
                                   outcome)

    def serve_stream(self, requests: Iterable[Request]
                     ) -> List[OutcomeRecord]:
        """Serve a request stream to completion, in stream order.

        The batched ingestion path (the apps-bench <= 5% overhead
        budget is measured here): the stream is consumed one request at
        a time — so a :class:`~repro.workloads.scenarios.TreeMirror`
        resolver may bind each request only after the previous one was
        applied — with the iteration rolled at the first PENDING, bit
        for bit the sequential serve loop's semantics; what is batched
        is the bookkeeping: per-chunk outcome tallies and one C-loop
        record construction, like :meth:`ControllerSession.serve_stream`.
        On the event-driven engine — where requests race and late
        binding is meaningless — the stream is queued whole and
        settled through the normal pump (rollover on termination),
        returned in stream order.  Admission control does not apply on
        either engine: the stream is *served*, not submitted, so no
        request of it is ever backpressured (the
        :meth:`ControllerSession.serve_stream` rule).  Served records
        are not re-yielded by :meth:`drain`.
        """
        if self._closed:
            raise ControllerError("app session is closed")
        while self._pending:
            self._pump()
        if not self._sync:
            # Served, not submitted: enqueue past the admission window
            # (going through submit() would backpressure the tail).
            tickets = [self._outbox.ticket(request, self._pump)
                       for request in requests]
            self._pending.extend(tickets)
            return [ticket.result() for ticket in tickets]
        after = self._after_outcome if self._hooked else None
        outcomes: List[Outcome] = []
        append = outcomes.append
        fast = self._fast_handle
        pending = OutcomeStatus.PENDING  # hoisted: checked per request
        for request in requests:
            outcome = fast(request)
            while outcome.status is pending:
                granted_now = self._live_granted()
                self._roll_iteration()
                if granted_now == 0:
                    self._require_progress()
                fast = self._fast_handle
                outcome = fast(request)
            if after is not None:
                after(outcome)
            append(outcome)
        return self._outbox.served_batch(outcomes)

    # ------------------------------------------------------------------
    # Settlement.
    # ------------------------------------------------------------------
    def _pump(self) -> bool:
        """One round of progress: push the queued requests through the
        live iteration, roll on PENDING, requeue the survivors.

        Returns False when there is nothing to do.  Each round settles
        at least one request or raises (a fresh iteration that can
        grant nothing cannot make progress; see
        :meth:`_require_progress`), so pumping terminates.
        """
        if self._closed:
            raise ControllerError("app session is closed")
        if not self._pending:
            return False
        # Never outgrow the inner session's admission window (the app
        # enforces its own window; the engine session must not answer
        # backpressure): oversized queues drain in window-sized rounds.
        session = self.session
        assert session is not None
        pending = self._pending
        batch = [pending.popleft() for _ in
                 range(min(len(pending), session.config.max_in_flight))]
        # Pair by the inner session's envelope ids, not by request: one
        # Request object may be queued more than once.
        by_envelope = {
            inner.envelope_id: ticket for inner, ticket in zip(
                session.submit_many([ticket.request for ticket in batch]),
                batch)}
        still_pending: List[Ticket] = []
        settled = 0
        for record in session.drain():
            outcome = record.outcome
            assert outcome is not None  # inner window is wide open
            ticket = by_envelope.pop(record.envelope_id, None)
            if ticket is None:
                raise ProtocolError(
                    "engine settled a request the app never queued")
            if outcome.status is OutcomeStatus.PENDING:
                still_pending.append(ticket)
                continue
            self._after_outcome(outcome)
            self._outbox.settle(ticket, outcome)
            settled += 1
        if still_pending:
            granted_now = self._live_granted()
            self._roll_iteration()
            # Resubmissions go to the *front*: they were admitted
            # before anything still sitting in the queue.
            self._pending.extendleft(reversed(still_pending))
            if settled == 0 and granted_now == 0:
                self._require_progress()
        return True

    def _require_progress(self) -> None:
        """A whole iteration settled nothing and granted nothing: the
        contract cannot cover even one request, so resubmitting would
        loop forever.  Surface it instead."""
        raise ControllerError(
            f"app {self.name!r}: iteration {self.iterations_run - 1} "
            "closed without settling or granting anything; the "
            "iteration contract cannot make progress")

    def drain(self) -> Iterator[StreamRecord]:
        """Pump the engine, yielding outcome records in settlement
        order interleaved with :class:`IterationRecord` boundary
        events (in stream position: a boundary precedes every record
        settled by the iteration it opens; the ``index=1`` record is
        emitted at construction and leads the first drain).

        Delivery of outcome records is exactly-once across
        ``Ticket.result()`` and the drain stream, exactly like
        :meth:`ControllerSession.drain`; boundary events are yielded
        once, to whichever drain reaches them first.
        """
        pop = self._outbox.pop
        while True:
            record = pop()
            if record is not None:
                yield record
            elif self._pending:
                self._pump()
            else:
                return

    def settle_all(self) -> List[StreamRecord]:
        """Drain to quiescence; the full record-plus-boundary stream."""
        return list(self.drain())

    def outcomes(self) -> List[OutcomeRecord]:
        """``settle_all()`` filtered to outcome records only."""
        return [record for record in self.settle_all()
                if isinstance(record, OutcomeRecord)]

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Detach the live engine and become inert.  Idempotent; queued
        requests are abandoned (their tickets never settle), so callers
        normally drain first."""
        if self._closed:
            return
        self._closed = True
        if self.session is not None:
            self.session.close()

    def detach(self) -> None:
        """Alias of :meth:`close` (the legacy app vocabulary)."""
        self.close()

    def __enter__(self) -> "AppSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(app={self.name!r}, "
                f"flavor={self.spec.flavor!r}, "
                f"iterations={self.iterations_run}, "
                f"granted={self.granted_total}, "
                f"in_flight={self.in_flight})")
