"""Outcome records, tickets, and the session verdicts.

Every request submitted to a :class:`~repro.service.session.ControllerSession`
becomes a first-class, traceable object instead of a loop variable.
Its session identity is its envelope: a monotone envelope id and the
submit tick, carried by its ticket and its record.

* :class:`OutcomeRecord` — the settled result: a :class:`SessionVerdict`,
  the raw controller :class:`~repro.core.requests.Outcome` (absent for
  ``BACKPRESSURE``, which never reached the controller), submit/settle
  ticks, and the granted permit's interval serial when the engine
  tracks intervals;
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

from repro.core.requests import OutcomeStatus, Request
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


class OutcomeRecord(Tuple[Any, ...]):
    """A settled request: the envelope plus everything measured.

    Field layout (a 5-tuple): ``request``, ``envelope_id``,
    ``submit_tick``, ``outcome`` (the raw controller outcome — ``None``
    exactly when the request was refused at the admission window) and
    ``settle_tick``.

    Derived accessors: :attr:`verdict` (BACKPRESSURE when the
    controller never saw the request, the outcome's status otherwise)
    and :attr:`permit_interval` (the granted permit's interval serial
    when the engine runs with ``track_intervals=True``).

    The class subclasses ``tuple``, so a record is built in one C call
    with no Python ``__init__`` frame.  Construct one as
    ``OutcomeRecord((request, envelope_id, submit_tick, outcome,
    settle_tick))``; instances are immutable and compare by value.
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

    def __repr__(self) -> str:
        return (f"OutcomeRecord(envelope_id={self.envelope_id}, "
                f"verdict={self.verdict!r}, outcome={self.outcome!r}, "
                f"submit_tick={self.submit_tick}, "
                f"settle_tick={self.settle_tick})")

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
    flight: it carries the request and its session identity itself.
    Tickets are issued and settled by the surface's
    :class:`~repro.service.outbox.Outbox`.
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
