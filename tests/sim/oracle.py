"""The reference scheduler, kept as the test oracle.

This is the engine ``repro.sim`` shipped before the record queue became
its only scheduler: one ``Event`` dataclass per event, pushed into and
popped from a pluggable :class:`SchedulePolicy` object.  It is slow and
plain on purpose — every pop rule is a few obvious lines — which is
what an oracle should be.  The suites compare ``repro.sim.Scheduler``
against it under every policy and seed, down to the per-event pop
sequence, the RNG draws of the ``random`` policy, and the clock.

:class:`OracleScheduler` adds the one entry point the distributed
controller needs beyond the reference API, ``schedule_call``, and
:func:`oracle_sessions` wires it into every ``ControllerSession`` built
inside the ``with`` block.
"""

import contextlib
import functools
import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple
from unittest import mock

from repro.errors import SimulationError
from repro.service import session as session_module


# ----------------------------------------------------------------------
# Schedule policies: which pending event runs next.
# ----------------------------------------------------------------------
class SchedulePolicy:
    """Strategy owning the pending-event collection of a scheduler.

    Subclasses implement ``push``/``pop``/``peek``/``__len__``.
    ``pop``/``peek`` may return cancelled events; the scheduler skips
    them (cancellation bookkeeping lives in the scheduler).
    """

    name = "base"

    def push(self, event: "Event") -> None:
        raise NotImplementedError

    def pop(self) -> "Event":
        raise NotImplementedError

    def peek(self) -> "Optional[Event]":
        """The event :meth:`pop` would return next, without removing it."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class FifoPolicy(SchedulePolicy):
    """Minimum ``(time, seq)`` first — the deterministic baseline."""

    name = "fifo"

    def __init__(self) -> None:
        self._heap: "List[Event]" = []

    def push(self, event: "Event") -> None:
        heapq.heappush(self._heap, event)

    def pop(self) -> "Event":
        return heapq.heappop(self._heap)

    def peek(self) -> "Optional[Event]":
        return self._heap[0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)


class AdversaryPolicy(SchedulePolicy):
    """Maximum ``(time, seq)`` first — the deterministic delay adversary.

    Every pair of causally independent events is executed in the
    *opposite* of their FIFO order, the maximal legal reordering.
    """

    name = "adversary"

    def __init__(self) -> None:
        self._heap: "List[Tuple[float, int, Event]]" = []

    def push(self, event: "Event") -> None:
        heapq.heappush(self._heap, (-event.time, -event.seq, event))

    def pop(self) -> "Event":
        return heapq.heappop(self._heap)[2]

    def peek(self) -> "Optional[Event]":
        return self._heap[0][2] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)


class LifoPolicy(SchedulePolicy):
    """Most recently scheduled first — depth-biased exploration."""

    name = "lifo"

    def __init__(self) -> None:
        self._stack: "List[Event]" = []

    def push(self, event: "Event") -> None:
        self._stack.append(event)

    def pop(self) -> "Event":
        return self._stack.pop()

    def peek(self) -> "Optional[Event]":
        return self._stack[-1] if self._stack else None

    def __len__(self) -> int:
        return len(self._stack)


class RandomPolicy(SchedulePolicy):
    """Uniformly random pending event (seeded, swap-remove pops).

    ``peek`` pre-draws the next victim so that ``peek``/``pop`` agree;
    the draw is consumed by the following ``pop``.
    """

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._events: "List[Event]" = []
        self._next: Optional[int] = None

    def push(self, event: "Event") -> None:
        self._events.append(event)
        self._next = None

    def _draw(self) -> int:
        if self._next is None:
            self._next = self._rng.randrange(len(self._events))
        return self._next

    def pop(self) -> "Event":
        index = self._draw()
        self._next = None
        events = self._events
        event = events[index]
        last = events.pop()
        if index < len(events):
            events[index] = last
        return event

    def peek(self) -> "Optional[Event]":
        if not self._events:
            return None
        return self._events[self._draw()]

    def __len__(self) -> int:
        return len(self._events)


_POLICY_FACTORIES: Dict[str, Callable[[int], SchedulePolicy]] = {
    "fifo": lambda seed: FifoPolicy(),
    "random": lambda seed: RandomPolicy(seed),
    "lifo": lambda seed: LifoPolicy(),
    "adversary": lambda seed: AdversaryPolicy(),
}


def make_policy(name: str, seed: int = 0) -> SchedulePolicy:
    """Instantiate a policy by registry name (seed used where relevant)."""
    try:
        factory = _POLICY_FACTORIES[name]
    except KeyError:
        raise SimulationError(
            f"unknown schedule policy {name!r}; "
            f"known: {', '.join(_POLICY_FACTORIES)}"
        ) from None
    return factory(seed)


# ----------------------------------------------------------------------
# The reference scheduler.
# ----------------------------------------------------------------------
@dataclass(order=True)
class Event:
    """A scheduled callback.

    Events compare by ``(time, seq)`` so that FIFO pops them in
    deterministic chronological order.  ``fn`` is excluded from the
    comparison.
    """

    time: float
    seq: int
    fn: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    # Set once the scheduler has executed the event; a late cancel() is
    # then a no-op.
    _consumed: bool = field(default=False, compare=False, repr=False)
    # Scheduler bookkeeping hook (keeps the live-event counter exact);
    # invoked at most once thanks to the idempotence guard in cancel().
    _canceller: Optional[Callable[[], None]] = field(
        default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped.

        Idempotent: cancelling an already-cancelled (or already-run)
        event is a no-op, so double-cancel never corrupts the
        scheduler's live-event accounting.
        """
        if self.cancelled or self._consumed:
            return
        self.cancelled = True
        if self._canceller is not None:
            self._canceller()


class Scheduler:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    max_events:
        Safety budget: :meth:`run` raises :class:`SimulationError` if more
        than this many events are executed, which catches accidental
        livelocks in protocol code during tests.
    policy:
        The schedule policy choosing the next pending event.  Defaults to
        FIFO (the historical deterministic order).
    """

    def __init__(self, max_events: int = 50_000_000,
                 policy: Optional[SchedulePolicy] = None) -> None:
        self._policy = policy if policy is not None else FifoPolicy()
        self._seq = 0
        self._now = 0.0
        self._max_events = max_events
        self._live = 0
        self.executed = 0
        # The live-event bookkeeping hook handed to every event.  Bound
        # once: reading ``self._on_cancel`` per schedule() would
        # allocate a fresh bound-method object per event, pure waste on
        # the hot path (events are rarely cancelled).
        self._cancel_hook = self._on_cancel

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def policy(self) -> SchedulePolicy:
        return self._policy

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` time units from now.

        Returns the :class:`Event`, which the caller may cancel.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        event = Event(time=self._now + delay, seq=self._seq, fn=fn)
        event._canceller = self._cancel_hook
        self._seq += 1
        self._live += 1
        self._policy.push(event)
        return event

    def schedule_at(self, time: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self._now}"
            )
        return self.schedule(time - self._now, fn)

    def step(self) -> bool:
        """Execute the next pending event (per the schedule policy).

        Returns ``False`` when the event queue is empty, ``True`` otherwise.
        """
        policy = self._policy
        while len(policy):
            event = policy.pop()
            if event.cancelled:
                continue
            event._consumed = True
            self._live -= 1
            # Non-FIFO policies pop out of time order; ``now`` stays
            # monotone (the stamps are advisory under those policies).
            if event.time > self._now:
                self._now = event.time
            self.executed += 1
            if self.executed > self._max_events:
                raise SimulationError(
                    f"event budget exceeded ({self._max_events} events); "
                    "likely livelock in protocol code"
                )
            event.fn()
            return True
        return False

    def pump(self) -> bool:
        """Session pump hook: one event per pump."""
        return self.step()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains (or the next event is past ``until``)."""
        policy = self._policy
        while len(policy):
            if until is not None:
                head = policy.peek()
                while head is not None and head.cancelled:
                    policy.pop()
                    head = policy.peek()
                if head is None or head.time > until:
                    return
            self.step()

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._live

    def _on_cancel(self) -> None:
        self._live -= 1


# ----------------------------------------------------------------------
# Adapters: the oracle behind the engine's entry points.
# ----------------------------------------------------------------------
class OracleScheduler(Scheduler):
    """The reference scheduler plus ``schedule_call``, so a
    ``DistributedController`` can run on it; built from a policy name
    like ``repro.sim.Scheduler``."""

    def __init__(self, policy: str = "fifo", seed: int = 0,
                 max_events: int = 50_000_000) -> None:
        super().__init__(max_events=max_events,
                         policy=make_policy(policy, seed=seed))

    def schedule_call(self, delay: float, fn: Callable[[object], None],
                      arg: object) -> None:
        self.schedule(delay, functools.partial(fn, arg))


@contextlib.contextmanager
def oracle_sessions():
    """Every ``ControllerSession`` built inside the block runs on an
    :class:`OracleScheduler` (same policy and seed as configured)."""
    with mock.patch.object(session_module, "Scheduler", OracleScheduler):
        yield
