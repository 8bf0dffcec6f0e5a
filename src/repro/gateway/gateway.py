"""The ingestion gateway: a concurrent front door over one session.

``Gateway`` multiplexes many concurrent client streams into batched
feeds of a single :class:`~repro.service.session.SessionProtocol`
surface (a ``ControllerSession``, an ``AppSession`` or a
``FleetRouter``).  The engine stays strictly
single-caller — only the pump ever touches it — while admission is
thread-safe and non-blocking.  Three layers, in order:

1. **token-bucket throttle** (:mod:`repro.gateway.throttle`) — over
   rate: the ticket settles immediately with ``SHED``;
2. **circuit breaker** (:mod:`repro.gateway.breaker`) — backend
   unhealthy: ``SHED`` (with HALF_OPEN probe admissions);
3. **bounded leveling queue** — full: ``BACKPRESSURE``, the session
   layer's own saturation vocabulary.

Accepted tickets wait in the leveling queue; each **pump cycle** pops
up to ``batch_size`` of them, hands the whole batch to the session's
``submit_many``, settles the corresponding gateway tickets as the
engine resolves them, and feeds the breaker with latency verdicts.  The
pump runs wherever the embedder wants it: call :meth:`Gateway.pump` /
:meth:`run_until_idle` inline (deterministic tests, benches), or
:meth:`start` a worker thread (live serving; the asyncio front door in
:mod:`repro.gateway.aio` rides on the same worker).

Every accepted envelope settles **exactly once**: a
:class:`GatewayTicket` resolves with a verdict-and-record exactly one
time, a gateway shutdown aborts still-open tickets with
:class:`~repro.errors.GatewayError` instead of leaving them to block
forever, and :func:`repro.metrics.invariants.audit_gateway`
machine-checks the conservation ledger
(``submitted = accepted + shed + backpressured`` and
``accepted = settled + aborted + open``).
"""

import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
)

from repro.clock import monotonic
from repro.core.requests import Request
from repro.errors import ConfigError, GatewayError
from repro.gateway.breaker import ADMIT, PROBE, BreakerState, CircuitBreaker
from repro.gateway.config import GatewayConfig
from repro.gateway.health import HealthReport
from repro.gateway.throttle import TokenBucket
from repro.metrics.invariants import InvariantReport
from repro.service.envelopes import (
    IterationRecord,
    OutcomeRecord,
    SessionVerdict,
)
from repro.service.session import SessionProtocol


def _empty_verdicts() -> Dict[str, int]:
    return {verdict.value: 0 for verdict in SessionVerdict}


@dataclass
class GatewayStats:
    """The gateway's running ledger (one instance per gateway).

    Admission: ``submitted = accepted + shed_throttle + shed_breaker +
    backpressured``.  Settlement: ``accepted = settled + aborted +
    open`` (``open`` is the live queue plus the in-engine batch, read
    off the gateway).  ``verdicts`` tallies every settled ticket by its
    :class:`~repro.service.envelopes.SessionVerdict` value, including
    the gateway-level ``shed``/``backpressure`` refusals.
    ``double_settles`` counts attempts to settle an already-settled
    ticket — always 0 unless exactly-once broke.
    """

    submitted: int = 0
    accepted: int = 0
    shed_throttle: int = 0
    shed_breaker: int = 0
    backpressured: int = 0
    settled: int = 0
    aborted: int = 0
    double_settles: int = 0
    batches: int = 0
    cycles: int = 0
    iterations: int = 0
    probes: int = 0
    max_queue_depth: int = 0
    max_batch: int = 0
    breaker_trips: int = 0
    breaker_recoveries: int = 0
    breaker_state: str = BreakerState.CLOSED.value
    verdicts: Dict[str, int] = field(default_factory=_empty_verdicts)

    @property
    def shed(self) -> int:
        """Total gateway-level sheds (throttle + breaker)."""
        return self.shed_throttle + self.shed_breaker

    @property
    def granted(self) -> int:
        return self.verdicts[SessionVerdict.GRANTED.value]

    @property
    def rejected(self) -> int:
        return self.verdicts[SessionVerdict.REJECTED.value]

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable description of the ledger."""
        return {
            "submitted": self.submitted, "accepted": self.accepted,
            "shed_throttle": self.shed_throttle,
            "shed_breaker": self.shed_breaker,
            "backpressured": self.backpressured,
            "settled": self.settled, "aborted": self.aborted,
            "double_settles": self.double_settles,
            "batches": self.batches, "cycles": self.cycles,
            "iterations": self.iterations,
            "probes": self.probes,
            "max_queue_depth": self.max_queue_depth,
            "max_batch": self.max_batch,
            "breaker_trips": self.breaker_trips,
            "breaker_recoveries": self.breaker_recoveries,
            "breaker_state": self.breaker_state,
            "verdicts": dict(self.verdicts),
        }


class GatewayTicket:
    """One client request's handle through the gateway.

    Settles exactly once — either with a verdict (and, for requests
    that reached the engine, the session's
    :class:`~repro.service.envelopes.OutcomeRecord`) or exceptionally
    when the gateway aborts.  :meth:`result` blocks (thread clients),
    :meth:`aresult` awaits (asyncio clients); both are idempotent
    reads after settlement.

    Settlement is a flag, not a future: the gateway records the
    verdict (or the error) and sets ``done`` under its own lock.  A
    waiter — one ``concurrent.futures.Future`` shared by every thread
    and coroutine waiting on this ticket — is built only when a client
    waits on a still-open ticket, under that same lock, so a
    settlement either sees the waiter and wakes it or happened before
    it and the client never waits.  Inline-pumped runs that read
    ``verdict`` after the pump never build one.
    """

    __slots__ = ("seq", "request", "client", "probe", "submit_wall",
                 "settle_wall", "verdict", "record", "_done", "_error",
                 "_waiter", "_lock")

    def __init__(self, seq: int, request: Request,
                 client: Optional[str], submit_wall: float,
                 lock: "threading.RLock") -> None:
        self.seq = seq
        self.request = request
        self.client = client
        #: True when the breaker admitted this request as a HALF_OPEN
        #: probe (its settlement decides recovery vs re-trip).
        self.probe = False
        self.submit_wall = submit_wall
        self.settle_wall: Optional[float] = None
        self.verdict: Optional[SessionVerdict] = None
        self.record: Optional[OutcomeRecord] = None
        self._done = False
        self._error: Optional[BaseException] = None
        self._waiter: "Optional[Future[GatewayTicket]]" = None
        #: The gateway's lock: it guards ``_done``, ``_error`` and
        #: ``_waiter`` together.
        self._lock = lock

    @property
    def done(self) -> bool:
        return self._done

    def _settle(self, verdict: SessionVerdict,
                record: Optional[OutcomeRecord], wall: float) -> bool:
        """Resolve the ticket (caller holds the gateway lock); False
        when it was already resolved."""
        if self._done:
            return False
        self.verdict = verdict
        self.record = record
        self.settle_wall = wall
        self._done = True
        waiter = self._waiter
        if waiter is not None:
            waiter.set_result(self)
        return True

    def _abort(self, error: BaseException) -> bool:
        """Resolve the ticket with ``error`` (caller holds the gateway
        lock); False when it was already resolved."""
        if self._done:
            return False
        self._error = error
        self._done = True
        waiter = self._waiter
        if waiter is not None:
            waiter.set_exception(error)
        return True

    def _open_waiter(self) -> "Optional[Future[GatewayTicket]]":
        """The shared waiter while the ticket is open, else ``None``."""
        with self._lock:
            if self._done:
                return None
            if self._waiter is None:
                waiter: "Future[GatewayTicket]" = Future()
                # A running future refuses cancel(): an awaiter that
                # times out (asyncio.wrap_future cancels its source)
                # must not cancel the waiter other clients share.
                waiter.set_running_or_notify_cancel()
                self._waiter = waiter
            return self._waiter

    def _outcome(self) -> "GatewayTicket":
        if self._error is not None:
            raise self._error
        return self

    def result(self, timeout: Optional[float] = None) -> "GatewayTicket":
        """Block until settled (or ``timeout`` seconds); returns self.

        Raises :class:`~repro.errors.GatewayError` if the gateway
        aborted this request (shutdown, engine failure)."""
        waiter = self._open_waiter()
        if waiter is not None:
            waiter.result(timeout)
        return self._outcome()

    async def aresult(self) -> "GatewayTicket":
        """Awaitable :meth:`result` for asyncio clients.

        Cancelling the await (``asyncio.wait_for`` timing out) leaves
        the ticket and every other client waiting on it untouched."""
        waiter = self._open_waiter()
        if waiter is not None:
            import asyncio

            await asyncio.wrap_future(waiter)
        return self._outcome()

    def __repr__(self) -> str:
        state = self.verdict.value if self.verdict is not None else (
            "aborted" if self._done else "in-flight")
        return f"GatewayTicket(seq={self.seq}, {state})"


#: Verdict values that count as engine failures for the breaker: an
#: exhausted terminating engine surfacing PENDING is a backend-health
#: signal, exactly like a latency blow-up.
_FAILURE_VERDICTS = (SessionVerdict.PENDING,)


class Gateway:
    """The concurrent front door over one session (see module doc).

    Parameters
    ----------
    session:
        The backend — any :class:`~repro.service.session.SessionProtocol`
        surface (a session, an app or a fleet).  The gateway becomes
        its only caller; its admission window must be at least the
        gateway's ``batch_size`` (the gateway owns admission, the
        session must never answer ``BACKPRESSURE`` underneath it).
    config:
        The :class:`~repro.gateway.config.GatewayConfig`; defaults are
        a wide-open, unthrottled, breaker-disarmed gateway.
    clock:
        The wall clock (:data:`repro.clock.monotonic` by default).
        Deterministic tests inject a counter; the throttle and the
        tickets' ``submit_wall``/``settle_wall`` use whatever scale this
        returns.
    """

    def __init__(self, session: SessionProtocol,
                 config: Optional[GatewayConfig] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.session = session
        self.config = config if config is not None else GatewayConfig()
        self._clock = clock if clock is not None else monotonic
        window = self._session_window(session)
        if window is not None and window < self.config.batch_size:
            raise ConfigError(
                f"the session's admission window ({window}) is smaller "
                f"than the gateway batch size ({self.config.batch_size}); "
                "the gateway owns admission — build the session with a "
                "wide-open max_in_flight")
        self._lock = threading.RLock()
        self._idle = threading.Condition(self._lock)
        self._queue: Deque[GatewayTicket] = deque()
        self._engine_batch: List[GatewayTicket] = []
        self._bucket = TokenBucket(self.config.rate, self.config.burst)
        self._breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failures,
            cooldown=self.config.breaker_cooldown,
            probe_quota=self.config.breaker_probes)
        self._stats = GatewayStats()
        self._seq = 0
        self._last_beat = self._clock()
        self._closed = False
        self._failure: Optional[BaseException] = None
        self._worker: Optional[threading.Thread] = None
        self._work = threading.Event()
        self._stop_flag = threading.Event()

    @staticmethod
    def _session_window(session: SessionProtocol) -> Optional[int]:
        for owner in ("config", "spec"):
            holder = getattr(session, owner, None)
            window = getattr(holder, "max_in_flight", None)
            if window is not None:
                return int(window)
        return None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def stats(self) -> GatewayStats:
        """The live ledger (breaker mirrors refreshed on read)."""
        with self._lock:
            self._stats.breaker_trips = self._breaker.trips
            self._stats.breaker_recoveries = self._breaker.recoveries
            self._stats.breaker_state = self._breaker.state.value
            return self._stats

    @property
    def breaker_state(self) -> BreakerState:
        with self._lock:
            return self._breaker.state

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def open_requests(self) -> int:
        """Accepted but not yet settled: queued plus in-engine."""
        with self._lock:
            return len(self._queue) + len(self._engine_batch)

    def tally(self) -> Dict[str, int]:
        """Verdict counts over every settled gateway ticket."""
        with self._lock:
            return dict(self._stats.verdicts)

    def health(self) -> HealthReport:
        """One health/heartbeat probe (reads only; any thread)."""
        with self._lock:
            scheduler = getattr(self.session, "scheduler", None)
            controller = getattr(self.session, "controller", None)
            if scheduler is None or controller is None:
                # AppSession: the live iteration's inner session.
                inner = getattr(self.session, "session", None)
                scheduler = scheduler or getattr(inner, "scheduler", None)
                controller = controller or getattr(inner, "controller",
                                                   None)
            backlog = int(scheduler.pending()) if scheduler is not None \
                else 0
            injector = getattr(controller, "faults", None)
            fault_stats: Dict[str, int] = (
                dict(injector.stats) if injector is not None
                else dict(getattr(self.session, "fault_stats", {})))
            depth = len(self._queue)
            saturated = depth >= self.config.queue_capacity
            state = self._breaker.state
            return HealthReport(
                healthy=(not self._closed
                         and state is not BreakerState.OPEN
                         and not saturated),
                closed=self._closed,
                breaker=state.value,
                queue_depth=depth,
                queue_capacity=self.config.queue_capacity,
                in_flight=depth + len(self._engine_batch),
                scheduler_backlog=backlog,
                tokens=self._bucket.available(self._clock()),
                heartbeat_age=self._clock() - self._last_beat,
                fault_stats=fault_stats,
            )

    def audit(self, report: Optional[InvariantReport] = None
              ) -> InvariantReport:
        """Gateway conservation plus the backend's own audit (see
        :func:`repro.metrics.invariants.audit_gateway`)."""
        from repro.metrics.invariants import audit_gateway

        return audit_gateway(self, report)

    # ------------------------------------------------------------------
    # Admission (thread-safe, non-blocking).
    # ------------------------------------------------------------------
    def submit(self, request: Request,
               client: Optional[str] = None) -> GatewayTicket:
        """Admit one request; never blocks.

        Throttle, breaker, then queue: a refusal settles the ticket
        immediately (``SHED`` / ``BACKPRESSURE``), an acceptance
        enqueues it for the pump.  Safe from any thread.
        """
        with self._lock:
            if self._closed:
                raise GatewayError(
                    "gateway is closed" if self._failure is None
                    else f"gateway aborted: {self._failure}")
            now = self._clock()
            ticket = GatewayTicket(self._seq, request, client, now,
                                   self._lock)
            self._seq += 1
            self._stats.submitted += 1
            decision = self._breaker.admit()
            if decision not in (ADMIT, PROBE):
                self._stats.shed_breaker += 1
                self._refuse(ticket, SessionVerdict.SHED, now)
                return ticket
            if not self._bucket.try_take(now):
                self._stats.shed_throttle += 1
                self._refuse(ticket, SessionVerdict.SHED, now)
                return ticket
            if len(self._queue) >= self.config.queue_capacity:
                self._stats.backpressured += 1
                self._refuse(ticket, SessionVerdict.BACKPRESSURE, now)
                return ticket
            if decision == PROBE:
                ticket.probe = True
                self._stats.probes += 1
            self._stats.accepted += 1
            self._queue.append(ticket)
            depth = len(self._queue)
            if depth > self._stats.max_queue_depth:
                self._stats.max_queue_depth = depth
            # Setting an already-set Event still takes its condition;
            # the worker clears the flag before each pump, so a set
            # flag already promises a pump that will see this ticket.
            if not self._work.is_set():
                self._work.set()
            return ticket

    def submit_many(self, requests: Iterable[Request],
                    client: Optional[str] = None) -> List[GatewayTicket]:
        """Admit a batch (one ticket each; same admission per request)."""
        return [self.submit(request, client=client) for request in requests]

    def _refuse(self, ticket: GatewayTicket, verdict: SessionVerdict,
                now: float) -> None:
        self._stats.verdicts[verdict.value] += 1
        if not ticket._settle(verdict, None, now):
            self._stats.double_settles += 1

    # ------------------------------------------------------------------
    # The pump (load leveling: one batched engine feed).
    # ------------------------------------------------------------------
    def pump(self) -> int:
        """One pump cycle; returns how many tickets it settled.

        Pops up to ``batch_size`` tickets from the leveling queue,
        feeds the batch to the session, settles the gateway tickets in
        engine-settlement order, and consumes any app iteration
        boundaries.  Engine access is single-threaded by construction:
        only the pump owner (worker thread or inline caller) runs this.
        """
        with self._lock:
            if self._closed:
                return 0
            self._stats.cycles += 1
            self._breaker.on_cycle()
            self._last_beat = self._clock()
            batch: List[GatewayTicket] = []
            while self._queue and len(batch) < self.config.batch_size:
                batch.append(self._queue.popleft())
            if not batch:
                return 0
            self._stats.batches += 1
            if len(batch) > self._stats.max_batch:
                self._stats.max_batch = len(batch)
            self._engine_batch = batch
        try:
            # Engine calls happen outside the admission lock, so client
            # threads keep submitting while the batch settles.
            inner = self.session.submit_many(
                [ticket.request for ticket in batch])
            for gateway_ticket, session_ticket in zip(batch, inner):
                record = session_ticket.result()
                self._settle_engine(gateway_ticket, record)
            for event in self.session.drain():
                if isinstance(event, IterationRecord):
                    with self._lock:
                        self._stats.iterations += 1
        except Exception as error:
            # Any backend failure, not only a ReproError: the engine's
            # state is unknown, so every open ticket aborts rather
            # than being dropped with the batch below.
            self._abort(error)
            raise
        finally:
            with self._lock:
                self._engine_batch = []
                self._idle.notify_all()
        return len(batch)

    def _settle_engine(self, ticket: GatewayTicket,
                       record: OutcomeRecord) -> None:
        with self._lock:
            now = self._clock()
            verdict = record.verdict
            self._stats.settled += 1
            self._stats.verdicts[verdict.value] += 1
            if not ticket._settle(verdict, record, now):
                self._stats.double_settles += 1
            if self.config.breaker_enabled:
                ok = (record.latency <= self.config.breaker_latency
                      and verdict not in _FAILURE_VERDICTS)
                self._breaker.record(ok, probe=ticket.probe)

    def run_until_idle(self) -> int:
        """Pump until the queue is empty; total tickets settled.

        The inline (manual) serving mode for deterministic tests and
        benches; the worker thread runs the same loop."""
        total = 0
        while True:
            settled = self.pump()
            if settled == 0:
                return total
            total += settled

    # ------------------------------------------------------------------
    # Worker thread (live serving; the asyncio front rides on this).
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        worker = self._worker
        return worker is not None and worker.is_alive()

    def start(self) -> "Gateway":
        """Start the background pump; idempotent while running."""
        with self._lock:
            if self._closed:
                raise GatewayError("gateway is closed")
            if self.running:
                return self
            self._stop_flag.clear()
            self._worker = threading.Thread(
                target=self._worker_loop, name="repro-gateway-pump",
                daemon=True)
            self._worker.start()
            return self

    def _worker_loop(self) -> None:
        work = self._work
        while not self._stop_flag.is_set():
            # Clear before the pump, not after an empty one: a submit
            # that lands after the pump's empty check re-sets the flag,
            # so the wait below returns at once instead of sleeping on
            # a lost wake-up.
            work.clear()
            try:
                if self.pump() == 0:
                    # Idle heartbeat cadence: wake periodically even
                    # without submissions so the health probe's
                    # heartbeat age stays bounded.
                    work.wait(timeout=0.005)
            except Exception:
                return  # _abort already settled every open ticket

    def stop(self, timeout: Optional[float] = 10.0) -> None:
        """Stop the worker (queued requests stay queued; ``close``
        aborts them, a later ``start``/``pump`` would serve them)."""
        worker = self._worker
        self._stop_flag.set()
        self._work.set()
        if worker is not None:
            worker.join(timeout)
            self._worker = None

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until every accepted ticket has settled (the queue and
        the engine are empty); False on timeout."""
        with self._idle:
            return self._idle.wait_for(
                lambda: (not self._queue and not self._engine_batch)
                or self._closed,
                timeout)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def _abort(self, error: BaseException) -> None:
        """Engine failure: settle every open ticket exceptionally so no
        client blocks forever, and refuse further admissions."""
        with self._lock:
            self._failure = error
            self._closed = True
            open_tickets = list(self._engine_batch) + list(self._queue)
            self._queue.clear()
            self._engine_batch = []
            for ticket in open_tickets:
                if ticket._abort(GatewayError(
                        f"request aborted by gateway failure: {error}")):
                    self._stats.aborted += 1
            self._idle.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Stop the worker and abort still-open tickets.  Idempotent.
        The session is left attached (the gateway does not own it)."""
        if self._closed:
            self.stop(timeout=1.0)
            return
        self.stop()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            leftovers = list(self._engine_batch) + list(self._queue)
            self._queue.clear()
            self._engine_batch = []
            for ticket in leftovers:
                if ticket._abort(GatewayError(
                        "gateway closed before the request settled")):
                    self._stats.aborted += 1
            self._idle.notify_all()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Gateway(queue={len(self._queue)}/"
                f"{self.config.queue_capacity}, "
                f"breaker={self._breaker.state.value}, "
                f"settled={self._stats.settled}, "
                f"running={self.running})")
