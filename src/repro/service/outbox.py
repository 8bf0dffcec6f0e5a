"""The settlement outbox: ticketed settlement, written once.

:class:`~repro.service.session.ControllerSession`,
:class:`~repro.apps.base.AppSession` and
:class:`~repro.fleet.router.FleetRouter` each hold one :class:`Outbox`
and keep only their own lock, pump, admission window and drain end
rule.  The outbox owns the envelope ids and the operation clock, builds
every :class:`~repro.service.envelopes.OutcomeRecord`, tallies the
verdicts, and queues settled tickets (and app iteration boundaries) in
settlement order.

Delivery is exactly-once: ``Ticket.result()`` claims its record and
:meth:`Outbox.pop`, the step every ``drain()`` loops over, skips
claimed records.  Claimed records are dead weight, so every push purges
the claimed head and compacts the queue once it doubles (amortized
O(1)): a ticket-only consumer holds O(unclaimed) records.
"""

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple, Union

from repro.core.requests import Outcome, Request
from repro.errors import ProtocolError
from repro.service.envelopes import (IterationRecord, OutcomeRecord,
                                     SessionVerdict, Ticket)
from repro.sim.scheduler import Scheduler

#: What a drain stream yields (iteration boundaries: apps only).
StreamRecord = Union[OutcomeRecord, IterationRecord]

_BACKPRESSURE = SessionVerdict.BACKPRESSURE.value
_COMPACT_FLOOR = 64


def _claimed(entry: Union[Ticket, IterationRecord]) -> bool:
    return isinstance(entry, Ticket) and entry.claimed


class Outbox:
    """Ids, ticks, records, tallies and the ready queue of one surface.

    With a ``scheduler``, ticks are its simulated time instead of the
    operation counter (the event-driven session).  Not locked: a
    threaded surface calls it under its own lock.

    Ticks: a submit takes one and a settlement one more; a ``serve``d
    request takes two and settles at its submit tick + 1.
    """

    __slots__ = ("verdicts", "open", "next_envelope", "clock",
                 "_scheduler", "_ready", "_compact_limit")

    def __init__(self, scheduler: Optional[Scheduler] = None) -> None:
        self.verdicts: Dict[str, int] = {v.value: 0 for v in SessionVerdict}
        #: Tickets issued and not yet settled.
        self.open = 0
        self.next_envelope = 0
        self.clock = 0
        self._scheduler = scheduler
        self._ready: Deque[Union[Ticket, IterationRecord]] = deque()
        self._compact_limit = _COMPACT_FLOOR

    @property
    def now(self) -> float:
        scheduler = self._scheduler
        return scheduler.now if scheduler is not None else float(self.clock)

    @property
    def undelivered(self) -> int:
        """Queued entries a future drain would still yield."""
        return sum(1 for entry in self._ready if not _claimed(entry))

    def stamp(self) -> Tuple[int, float]:
        """The next envelope id and its submit tick (one clock tick)."""
        envelope_id = self.next_envelope
        self.next_envelope = envelope_id + 1
        # ``now`` inlined, as in :meth:`record`.
        scheduler = self._scheduler
        tick = float(self.clock) if scheduler is None else scheduler.now
        self.clock += 1
        return envelope_id, tick

    def ticket(self, request: Request, pump: Callable[[], bool]) -> Ticket:
        """Issue a ticket whose ``result()`` calls ``pump`` (the
        surface's); it stays :attr:`open` until settled.

        The outbox never holds the pump itself: a surface -> outbox ->
        bound-method cycle would leave every surface to the cyclic GC.
        """
        envelope_id, tick = self.stamp()
        self.open += 1
        return Ticket(request, envelope_id, tick, pump)

    def record(self, request: Request, envelope_id: int,
               submit_tick: float, outcome: Optional[Outcome]
               ) -> OutcomeRecord:
        """One clock tick, then the tallied record, settled now and not
        queued (``outcome=None``: backpressure)."""
        self.clock += 1
        # OutcomeStatus values are a subset of SessionVerdict values
        # (``_value_``: the ``value`` property costs two frames).
        self.verdicts[_BACKPRESSURE if outcome is None
                      else outcome.status._value_] += 1
        # ``now`` inlined: this runs once per request on every surface.
        scheduler = self._scheduler
        return OutcomeRecord((
            request, envelope_id, submit_tick, outcome,
            float(self.clock) if scheduler is None else scheduler.now))

    def settle(self, ticket: Ticket, outcome: Optional[Outcome]) -> None:
        """Settle an open ticket and queue it for drain."""
        if outcome is not None and outcome.request is not ticket.request:
            raise ProtocolError(
                f"ticket {ticket.envelope_id} (request "
                f"{ticket.request.request_id}) settled with the outcome "
                f"of request {outcome.request.request_id}")
        ticket._record = self.record(ticket.request, ticket.envelope_id,
                                     ticket.submit_tick, outcome)
        self.open -= 1
        self.push(ticket)

    def served(self, request: Request, outcome: Outcome) -> OutcomeRecord:
        """The record of one request a synchronous surface served
        outside the queue: it settles one tick after its submit tick,
        and the clock moves on one more."""
        envelope_id = self.next_envelope
        self.next_envelope = envelope_id + 1
        record = self.record(request, envelope_id, float(self.clock),
                             outcome)
        self.clock += 1
        return record

    def push(self, entry: Union[Ticket, IterationRecord]) -> None:
        """Queue a settled ticket or a boundary event for drain."""
        ready = self._ready
        while ready and _claimed(ready[0]):
            ready.popleft()
        ready.append(entry)
        # An unclaimed head stops the purge: compact behind it.
        if len(ready) >= self._compact_limit:
            retained = [kept for kept in ready if not _claimed(kept)]
            ready.clear()
            ready.extend(retained)
            self._compact_limit = max(_COMPACT_FLOOR, 2 * len(retained))

    def pop(self) -> Optional[StreamRecord]:
        """The next unclaimed entry in settlement order, or None."""
        ready = self._ready
        while ready:
            entry = ready.popleft()
            if not isinstance(entry, Ticket):
                return entry
            if not entry.claimed:
                return entry._record
        return None
