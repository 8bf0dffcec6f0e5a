"""The discrete-event scheduler: one record queue, four pop orders.

The asynchronous model of Section 2.1 quantifies correctness over *all*
finite message-delay assignments.  In the simulator an event enters the
queue only after the event that caused it has run, so **any** pop order
over pending events is a legal asynchronous execution — the sampled
delay times are one particular adversary, not a constraint.  The
scheduler's *policy* exploits exactly this freedom: replaying the same
workload under another policy (or another seed) is another legal
interleaving, which is how one workload becomes thousands of distinct
executions.

Every pending event is one plain record ``(time, seq, fn, arg)``; the
global sequence counter is unique, so tuple comparison runs at C speed
and never reaches ``fn``/``arg``.  The policy picks the container and
the pop:

* ``fifo`` — a heap, minimum ``(time, seq)`` first: the default,
  chronological with insertion-order tie-breaks;
* ``adversary`` — a heap keyed ``(-time, -seq)``, so the maximum
  ``(time, seq)`` pops first: the maximal legal reordering;
* ``lifo`` — a list, newest record first: depth-biased, one causal
  chain driven to completion before its siblings move;
* ``random`` — a list, popped by a seeded swap-remove draw over every
  record (tombstones included): schedule exploration.

Under the non-FIFO policies ``now`` is clamped monotone (it never runs
backwards); the record stamps become advisory, exactly as the
arbitrary-delay model prescribes.

Two entry points feed the queue.  :meth:`Scheduler.schedule_call` is
the hot path: the caller passes a pre-bound callable and its single
argument (the distributed controller passes its phase-dispatch targets
and the hopping agent), so the only allocation per event is the record
tuple.  :meth:`Scheduler.schedule` returns a cancellable :class:`Event`
handle (the record carries ``None`` in the ``fn`` slot and the handle
in ``arg``); cancellation is a **tombstone** — the record stays queued
and the drain loop skips it, so a cancel is O(1) and ``pending()`` is
exact at every instant (queue length minus live tombstones).

The drain loop is chosen once per policy at construction.  FIFO runs
the tight heap loop (one pop, one unpack, one call per event, no
per-event policy branch); the other policies share one loop over a
per-policy ``take``.  Sessions pump through :meth:`Scheduler.pump`, one
:data:`PUMP_BATCH` batch per call, which amortizes the caller's lock
and generator frames across the batch.

A plain reference engine — an ``Event`` dataclass per event behind one
policy object per pop order — is kept as the test oracle in
``tests/sim/oracle.py``; the suites in ``tests/sim/`` assert that this
engine pops the identical sequence under every policy and seed.
"""

import random
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["Event", "PUMP_BATCH", "SCHEDULE_POLICIES", "Scheduler"]

#: The schedule policies, by name.
SCHEDULE_POLICIES: Tuple[str, ...] = ("fifo", "random", "lifo", "adversary")

#: Events executed per :meth:`Scheduler.pump` call: large enough to
#: amortize the caller's per-pump overhead (locks, generator frames)
#: across a batch, small enough that settlement streams stay live.
PUMP_BATCH = 1024

#: A queued event ``(time, seq, fn, arg)``; ``fn`` is ``None`` when
#: ``arg`` is the record's cancellable :class:`Event`.
Record = Tuple[float, int, Optional[Callable[[Any], None]], Any]


class Event:
    """Cancellable handle for an event queued via :meth:`Scheduler.schedule`.

    Cancellation is a tombstone: the queued record stays where it is
    and the drain loop skips it.  :meth:`cancel` is idempotent, and a
    cancel after the event ran is a no-op.
    """

    __slots__ = ("time", "fn", "cancelled", "_consumed", "_sched")

    def __init__(self, time: float, fn: Callable[[], None],
                 sched: "Scheduler") -> None:
        self.time = time
        self.fn = fn
        self.cancelled = False
        self._consumed = False
        self._sched = sched

    def cancel(self) -> None:
        """Tombstone the event; idempotent, late cancels are no-ops."""
        if self.cancelled or self._consumed:
            return
        self.cancelled = True
        self._sched._tombstones += 1

    def __repr__(self) -> str:
        state = ("cancelled" if self.cancelled
                 else "consumed" if self._consumed else "pending")
        return f"<Event t={self.time} {state}>"


def _push_reversed(queue: List[Record], record: Record) -> None:
    """The adversary's push: the heap's minimum is the maximum
    ``(time, seq)``."""
    time, seq, fn, arg = record
    heappush(queue, (-time, -seq, fn, arg))


def _over_budget(max_events: int) -> SimulationError:
    return SimulationError(
        f"event budget exceeded ({max_events} events); "
        "likely livelock in protocol code")


class Scheduler:
    """Deterministic discrete-event scheduler over a record queue.

    Parameters
    ----------
    policy:
        Which pending event runs next: one of :data:`SCHEDULE_POLICIES`
        (see the module docstring).  Defaults to ``"fifo"``.
    seed:
        Seeds the ``random`` policy's draw; the other policies are
        deterministic and ignore it.
    max_events:
        Safety budget: running more than this many events raises
        :class:`SimulationError`, which catches accidental livelocks in
        protocol code during tests.
    """

    __slots__ = ("_policy", "_now", "_tombstones", "executed",
                 "_max_events", "_seq", "_queue", "_push", "_drain",
                 "_take", "_peek", "_randrange", "_drawn", "_drawn_len")

    _push: Callable[[List[Record], Record], None]
    _drain: Callable[[int], int]
    _take: Callable[[], Record]
    _peek: Callable[[], Record]

    def __init__(self, policy: str = "fifo", seed: int = 0,
                 max_events: int = 50_000_000) -> None:
        if policy not in SCHEDULE_POLICIES:
            raise SimulationError(
                f"unknown schedule policy {policy!r}; "
                f"known: {', '.join(SCHEDULE_POLICIES)}")
        self._policy = policy
        self._now = 0.0
        self._tombstones = 0
        self.executed = 0
        self._max_events = max_events
        self._seq = 0
        self._queue: List[Record] = []
        # The random policy's draw, and its pre-draw: run(until) peeks
        # the next victim, which stays valid while no record is added.
        self._randrange = random.Random(seed).randrange
        self._drawn = 0
        self._drawn_len = -1
        if policy == "fifo":
            self._push = heappush
            self._drain = self._drain_fifo
            self._take = self._take_first
            self._peek = self._peek_first
        elif policy == "adversary":
            self._push = _push_reversed
            self._drain = self._drain_clamped
            self._take = self._take_latest
            self._peek = self._peek_latest
        elif policy == "lifo":
            self._push = list.append
            self._drain = self._drain_clamped
            self._take = self._queue.pop
            self._peek = self._peek_newest
        else:
            self._push = list.append
            self._drain = self._drain_clamped
            self._take = self._take_random
            self._peek = self._peek_random

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def policy(self) -> str:
        """The schedule policy's name."""
        return self._policy

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1)).

        Exact at every instant, including from a callback running
        inside a batch: queue length and tombstone count both update
        record by record.  The event being executed is not pending.
        """
        return len(self._queue) - self._tombstones

    # ------------------------------------------------------------------
    # Scheduling.
    # ------------------------------------------------------------------
    def schedule_call(self, delay: float, fn: Callable[[Any], None],
                      arg: Any) -> None:
        """Hot path: run ``fn(arg)`` ``delay`` time units from now.

        No handle is returned; the only allocation is the record tuple.
        Callers that may need to cancel use :meth:`schedule` instead.
        A NaN delay is rejected like a negative one: written as
        ``not delay >= 0``, the test costs nothing more.
        """
        if not delay >= 0:
            raise SimulationError(
                f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        self._push(self._queue, (self._now + delay, seq, fn, arg))

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` time units from now; the
        returned :class:`Event` may be cancelled."""
        if not delay >= 0:
            raise SimulationError(
                f"cannot schedule in the past (delay={delay})")
        time = self._now + delay
        event = Event(time, fn, self)
        seq = self._seq
        self._seq = seq + 1
        self._push(self._queue, (time, seq, None, event))
        return event

    def schedule_at(self, time: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at absolute simulated time ``time``."""
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self._now}")
        return self.schedule(time - self._now, fn)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def step_batch(self, budget: int = PUMP_BATCH) -> int:
        """Execute up to ``budget`` events; returns how many ran.

        Tombstones are skipped without consuming budget.  ``executed``
        is settled at the batch boundary, also when a callback raises,
        so the caller can keep draining the remainder.
        """
        return self._drain(budget)

    def step(self) -> bool:
        """Execute the next pending event; ``False`` when none is left."""
        return self._drain(1) == 1

    def pump(self) -> bool:
        """Session pump hook: run one batch; ``False`` when idle."""
        return self._drain(PUMP_BATCH) > 0

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or until the next event (per the
        policy) is stamped past ``until``."""
        queue = self._queue
        if until is None:
            drain = self._drain
            while queue:
                drain(1 << 30)
            return
        # The bounded walk peeks before every pop (an event past
        # ``until`` must stay queued); it serves tests and mid-flight
        # audits, not the hot pump.
        while queue:
            time, _seq, fn, arg = self._peek()
            if fn is None and arg.cancelled:
                self._take()
                self._tombstones -= 1
            elif time > until:
                return
            else:
                self._drain(1)

    def _drain_fifo(self, budget: int) -> int:
        """The FIFO drain: heap pops in ``(time, seq)`` order, hoisted
        locals, ``now`` set per event (stamps are monotone here)."""
        heap = self._queue
        pop = heappop
        max_events = self._max_events
        executed = self.executed
        ran = 0
        try:
            while ran < budget and heap:
                time, _seq, fn, arg = pop(heap)
                if fn is None:
                    if arg.cancelled:
                        self._tombstones -= 1
                        continue
                    arg._consumed = True
                    self._now = time
                    executed += 1
                    if executed > max_events:
                        raise _over_budget(max_events)
                    ran += 1
                    arg.fn()
                else:
                    self._now = time
                    executed += 1
                    if executed > max_events:
                        raise _over_budget(max_events)
                    ran += 1
                    fn(arg)
        finally:
            self.executed = executed
        return ran

    def _drain_clamped(self, budget: int) -> int:
        """The drain of the reordering policies: records come from the
        policy's ``take`` and ``now`` only moves forward."""
        queue = self._queue
        take = self._take
        max_events = self._max_events
        executed = self.executed
        ran = 0
        try:
            while ran < budget and queue:
                time, _seq, fn, arg = take()
                if fn is None:
                    if arg.cancelled:
                        self._tombstones -= 1
                        continue
                    arg._consumed = True
                if time > self._now:
                    self._now = time
                executed += 1
                if executed > max_events:
                    raise _over_budget(max_events)
                ran += 1
                if fn is None:
                    arg.fn()
                else:
                    fn(arg)
        finally:
            self.executed = executed
        return ran

    # ------------------------------------------------------------------
    # Per-policy pops and peeks (each returns a record with its real
    # stamp).
    # ------------------------------------------------------------------
    def _take_first(self) -> Record:
        return heappop(self._queue)

    def _peek_first(self) -> Record:
        return self._queue[0]

    def _take_latest(self) -> Record:
        time, seq, fn, arg = heappop(self._queue)
        return -time, -seq, fn, arg

    def _peek_latest(self) -> Record:
        time, seq, fn, arg = self._queue[0]
        return -time, -seq, fn, arg

    def _peek_newest(self) -> Record:
        return self._queue[-1]

    def _take_random(self) -> Record:
        """Swap-remove a uniformly drawn record (the pre-draw if one
        is still valid)."""
        queue = self._queue
        size = len(queue)
        if self._drawn_len == size:
            index = self._drawn
        else:
            index = self._randrange(size)
        self._drawn_len = -1
        record = queue[index]
        last = queue.pop()
        if index < size - 1:
            queue[index] = last
        return record

    def _peek_random(self) -> Record:
        """Pre-draw the next victim; it holds until a record is added
        (which changes the queue length) or :meth:`_take_random` uses
        it."""
        queue = self._queue
        size = len(queue)
        if self._drawn_len != size:
            self._drawn = self._randrange(size)
            self._drawn_len = size
        return queue[self._drawn]
