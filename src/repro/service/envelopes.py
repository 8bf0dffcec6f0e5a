"""Typed request envelopes, outcome records, and tickets.

Every request submitted to a :class:`~repro.service.session.ControllerSession`
becomes a first-class, traceable object instead of a loop variable:

* :class:`RequestEnvelope` — the admitted request plus its session
  identity (monotone envelope id, submit tick), materialized on demand
  from a ticket or a record;
* :class:`OutcomeRecord` — the settled result: a :class:`SessionVerdict`,
  the raw controller :class:`~repro.core.requests.Outcome` (absent for
  ``BACKPRESSURE``, which never reached the controller), submit/settle
  ticks, the granted permit's interval serial when the engine tracks
  intervals, and a :class:`TraceHandle` into the kernel transition log
  when tracing is on;
* :class:`Ticket` — the non-blocking handle ``submit()`` returns, and
  the one object a request owns while in flight (see
  :mod:`repro.service.outbox`); :meth:`Ticket.result` pumps the
  session until this request settles;
* :class:`IterationRecord` — an application iteration boundary
  (:mod:`repro.apps`): the app-layer drain stream interleaves these
  with its outcome records so rollovers are observable events.

The verdict vocabulary deliberately distinguishes the paper's permit
*reject* (the controller said no: the waste budget is charged, the
liveness bound applies) from session *backpressure* (the engine never
saw the request: the admission window was full) and from gateway
*shed* (the request was refused even earlier, by the
:mod:`repro.gateway` throttle or circuit breaker).  Callers that retry
on ``BACKPRESSURE`` or ``SHED`` lose nothing; callers that retry on
``REJECTED`` are fighting the (M, W) contract itself.
"""

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Optional, Tuple

from repro.core.kernel import KernelTrace, TraceEvent
from repro.core.requests import Outcome, OutcomeStatus, Request
from repro.errors import ProtocolError


class SessionVerdict(Enum):
    """How a session request ended."""

    GRANTED = "granted"
    REJECTED = "rejected"
    CANCELLED = "cancelled"
    PENDING = "pending"
    #: The admission window was full; the controller never saw the
    #: request.  Distinct from REJECTED: no permit accounting happened,
    #: resubmitting later is always legal.
    BACKPRESSURE = "backpressure"
    #: The gateway refused the request before the session's admission
    #: window was even consulted: the token-bucket throttle was out of
    #: tokens, or the circuit breaker was open.  Like ``BACKPRESSURE``,
    #: no permit accounting happened and resubmitting later is always
    #: legal; unlike it, the refusal is load-*policy* (rate or health),
    #: not window occupancy (see :mod:`repro.gateway`).
    SHED = "shed"


_STATUS_TO_VERDICT = {
    OutcomeStatus.GRANTED: SessionVerdict.GRANTED,
    OutcomeStatus.REJECTED: SessionVerdict.REJECTED,
    OutcomeStatus.CANCELLED: SessionVerdict.CANCELLED,
    OutcomeStatus.PENDING: SessionVerdict.PENDING,
}


def verdict_of(outcome: Outcome) -> SessionVerdict:
    """Map a controller outcome status onto the session vocabulary."""
    return _STATUS_TO_VERDICT[outcome.status]


class RequestEnvelope:
    """An admitted request with its session identity.

    ``envelope_id`` is monotone per session (submission order);
    ``submit_tick`` is the session clock at admission — the simulated
    scheduler time for the event-driven engine, the operation counter
    for synchronous engines.

    A ``__slots__`` value class, built on demand by
    :attr:`Ticket.envelope` and :attr:`OutcomeRecord.envelope` (the
    ticket and the record carry the three fields themselves).  Treat
    instances as immutable.
    """

    __slots__ = ("envelope_id", "request", "submit_tick")

    def __init__(self, envelope_id: int, request: Request,
                 submit_tick: float) -> None:
        self.envelope_id = envelope_id
        self.request = request
        self.submit_tick = submit_tick

    def __eq__(self, other: object) -> bool:
        # Value semantics: records materialize their envelope on
        # demand, so envelopes compare by content, not identity.
        if not isinstance(other, RequestEnvelope):
            return NotImplemented
        return (self.envelope_id == other.envelope_id
                and self.request is other.request
                and self.submit_tick == other.submit_tick)

    def __hash__(self) -> int:
        return hash((self.envelope_id, id(self.request),
                     self.submit_tick))

    def __repr__(self) -> str:
        return (f"RequestEnvelope(envelope_id={self.envelope_id}, "
                f"request={self.request!r}, "
                f"submit_tick={self.submit_tick})")


@dataclass(frozen=True)
class IterationRecord:
    """An application iteration boundary, as a first-class stream event.

    The Section 5 applications run in iterations, each owning one
    terminating controller; when an iteration's budget is exhausted the
    app tears the engine session down, re-derives the contract from the
    fresh tree size, and resubmits the queued requests (Observation
    2.1).  :meth:`repro.apps.base.AppSession.drain` yields one
    ``IterationRecord`` at each boundary, interleaved with the
    :class:`OutcomeRecord` stream in event order, so consumers observe
    rollovers instead of inferring them from PENDING gaps.

    ``index`` is the 1-based iteration number (the first record, for
    ``index=1``, is emitted when the app is constructed); ``size`` is
    ``N_i``, the tree size the iteration's ``(m, w, u)`` contract was
    derived from; ``tick`` is the app clock at the boundary.
    """

    index: int
    size: int
    m: int
    w: int
    u: int
    tick: float


@dataclass(frozen=True)
class TraceHandle:
    """A cursor into the session's kernel transition log.

    ``upto`` is the log length at settlement: ``events()`` returns every
    kernel transition that had happened when this request settled.  The
    log is shared by all requests of the session (transitions interleave
    under the event-driven engine), so the handle is a prefix cursor,
    not a per-request slice.
    """

    trace: KernelTrace
    upto: int

    def events(self) -> Tuple[TraceEvent, ...]:
        return tuple(self.trace.events[:self.upto])


class OutcomeRecord(Tuple[Any, ...]):
    """A settled request: the envelope plus everything measured.

    Field layout (a 6-tuple): ``request``, ``envelope_id``,
    ``submit_tick``, ``outcome`` (the raw controller outcome — ``None``
    exactly when the request was refused at the admission window),
    ``settle_tick``, and ``trace_handle`` (the kernel-trace cursor at
    settlement; ``None`` unless the session was configured with
    ``trace=True``).

    Derived accessors: :attr:`envelope` (materialized on demand, value
    semantics), :attr:`verdict` (BACKPRESSURE when the controller never
    saw the request, the outcome's status otherwise), and
    :attr:`permit_interval` (the granted permit's interval serial when
    the engine runs with ``track_intervals=True``).

    The class subclasses ``tuple`` so the settlement hot loop can build
    whole batches of records in C (``map`` + ``zip`` +
    ``tuple.__new__``) — that is what keeps the session inside its
    <= 5% overhead budget.  Construct one as
    ``OutcomeRecord((request, envelope_id, submit_tick, outcome,
    settle_tick, trace_handle))``; instances are immutable and compare
    by value.
    """

    __slots__ = ()

    request = property(operator.itemgetter(0),
                       doc="The request this record settles.")
    envelope_id = property(operator.itemgetter(1),
                           doc="Monotone per-session submission id.")
    submit_tick = property(operator.itemgetter(2),
                           doc="Session clock at admission.")
    outcome = property(operator.itemgetter(3),
                       doc="Raw controller Outcome; None iff "
                           "backpressured.")
    settle_tick = property(operator.itemgetter(4),
                           doc="Session clock at settlement.")
    trace_handle = property(operator.itemgetter(5),
                            doc="Kernel-trace cursor, when tracing.")

    def __repr__(self) -> str:
        return (f"OutcomeRecord(envelope_id={self.envelope_id}, "
                f"verdict={self.verdict!r}, outcome={self.outcome!r}, "
                f"submit_tick={self.submit_tick}, "
                f"settle_tick={self.settle_tick})")

    @property
    def envelope(self) -> RequestEnvelope:
        return RequestEnvelope(self[1], self[0], self[2])

    @property
    def verdict(self) -> SessionVerdict:
        outcome = self[3]
        if outcome is None:
            return SessionVerdict.BACKPRESSURE
        return _STATUS_TO_VERDICT[outcome.status]

    @property
    def permit_interval(self) -> Optional[int]:
        outcome = self[3]
        return outcome.serial if outcome is not None else None

    @property
    def granted(self) -> bool:
        outcome = self[3]
        return (outcome is not None
                and outcome.status is OutcomeStatus.GRANTED)

    @property
    def backpressured(self) -> bool:
        return self[3] is None

    @property
    def latency(self) -> float:
        """Settle tick minus submit tick, in session clock units."""
        tick: float = self[4] - self[2]
        return tick


class Ticket:
    """Non-blocking handle for one submitted request.

    ``submit()`` returns immediately; the ticket settles when the
    session pumps its engine (``drain()`` / ``settle_all()`` /
    :meth:`result`).  Delivery is exactly-once across the two channels:
    a record taken via :meth:`result` is *claimed* and will not be
    yielded again by ``drain()``; a record already yielded by
    ``drain()`` can still be read back through :meth:`result`, which is
    an idempotent lookup.

    The ticket is the request's only per-request object while it is in
    flight: it carries the request and its session identity itself,
    and :attr:`envelope` is built on demand.  Tickets are issued and
    settled by the surface's :class:`~repro.service.outbox.Outbox`.
    """

    __slots__ = ("request", "envelope_id", "submit_tick", "claimed",
                 "_record", "_pump")

    def __init__(self, request: Request, envelope_id: int,
                 submit_tick: float, pump: Callable[[], bool]) -> None:
        self.request = request
        self.envelope_id = envelope_id
        self.submit_tick = submit_tick
        #: True once :meth:`result` delivered the record (``drain``
        #: then skips it).
        self.claimed = False
        self._record: Optional[OutcomeRecord] = None
        self._pump = pump

    @property
    def envelope(self) -> RequestEnvelope:
        return RequestEnvelope(self.envelope_id, self.request,
                               self.submit_tick)

    @property
    def done(self) -> bool:
        return self._record is not None

    def result(self) -> OutcomeRecord:
        """The settled record, pumping the session until it exists."""
        record = self._record
        while record is None:
            progressed = self._pump()
            # Re-read *after* the pump call returns: a concurrent
            # drain may have settled this ticket between our first
            # look and the pump reporting an idle engine, and raising
            # on that stale read would be a spurious ProtocolError.
            record = self._record
            if record is None and not progressed:
                raise ProtocolError(
                    f"request {self.request.request_id} "
                    f"(envelope {self.envelope_id}) never "
                    "settled and the engine is idle")
        self.claimed = True
        return record

    def __repr__(self) -> str:
        state = (self._record.verdict.value if self._record is not None
                 else "in-flight")
        return (f"Ticket(envelope={self.envelope_id}, "
                f"request={self.request.request_id}, {state})")
