"""Gateway behaviour: admission layers, the pump, stats conservation,
health probes, lifecycle, and both serving modes (worker and asyncio)."""

import asyncio
import math
import threading

import pytest

from repro import (
    AsyncGateway,
    BreakerState,
    Gateway,
    GatewayConfig,
    ControllerSession,
    Request,
    RequestKind,
    SessionConfig,
    SessionVerdict,
    make_app,
    AppSpec,
)
from repro.errors import ConfigError, GatewayError
from repro.distributed.faults import FaultPlan
from repro.metrics.invariants import audit_gateway
from repro.workloads import build_random_tree, get_scenario


class FakeClock:
    """A settable clock for deterministic throttle/latency tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _session(flavor="iterated", tree_n=16, **knobs):
    tree = build_random_tree(tree_n, seed=5)
    knobs.setdefault("max_in_flight", 1 << 20)
    config = SessionConfig.of(flavor, m=400, w=40, u=2000, **knobs)
    return ControllerSession(config, tree=tree)


def _requests(session, count, kind=RequestKind.PLAIN):
    return [Request(kind, session.tree.root) for _ in range(count)]


# ----------------------------------------------------------------------
# Admission and the manual pump.
# ----------------------------------------------------------------------
def test_manual_pump_settles_everything_and_audits_clean():
    session = _session()
    gateway = Gateway(session, GatewayConfig(batch_size=8))
    tickets = gateway.submit_many(_requests(session, 30))
    assert gateway.queue_depth == 30 and gateway.open_requests == 30
    assert gateway.run_until_idle() == 30
    assert gateway.open_requests == 0
    for ticket in tickets:
        assert ticket.done
        record = ticket.result().record
        assert record is not None and ticket.verdict is record.verdict
    stats = gateway.stats
    assert stats.submitted == stats.accepted == stats.settled == 30
    assert stats.batches == 4 and stats.max_batch == 8
    assert stats.double_settles == 0
    report = audit_gateway(gateway)
    assert report.passed, [v.to_json() for v in report.violations]


def test_submit_preserves_client_tags_and_seq_order():
    session = _session()
    gateway = Gateway(session, GatewayConfig())
    a = gateway.submit(_requests(session, 1)[0], client="alice")
    b = gateway.submit(_requests(session, 1)[0], client="bob")
    assert (a.client, b.client) == ("alice", "bob")
    assert b.seq == a.seq + 1


def test_throttle_sheds_with_shed_verdict_and_settles_immediately():
    clock = FakeClock()
    session = _session()
    gateway = Gateway(session, GatewayConfig(rate=1.0, burst=2),
                      clock=clock)
    tickets = gateway.submit_many(_requests(session, 5))
    shed = [t for t in tickets if t.verdict is SessionVerdict.SHED]
    assert len(shed) == 3 and all(t.done and t.record is None for t in shed)
    assert gateway.stats.shed_throttle == 3
    # The bucket refills on the injected clock: two more admissions.
    clock.now = 2.0
    more = gateway.submit_many(_requests(session, 3))
    assert [t.verdict for t in more].count(SessionVerdict.SHED) == 1
    gateway.run_until_idle()
    assert gateway.audit().passed


def test_tickets_carry_the_wall_and_session_latency_of_each_request():
    """A client times its requests from its own tickets: the wall
    stamps read the gateway's clock, the record carries the session
    ticks; a shed ticket settles at admission and has no record."""
    clock = FakeClock()
    session = _session()
    gateway = Gateway(session, GatewayConfig(rate=1.0, burst=3),
                      clock=clock)
    clock.now = 1.0
    tickets = gateway.submit_many(_requests(session, 5))
    clock.now = 3.5
    gateway.run_until_idle()
    shed = [t for t in tickets if t.verdict is SessionVerdict.SHED]
    settled = [t for t in tickets if t.record is not None]
    assert len(shed) == 2 and len(settled) == 3
    assert all(t.submit_wall == t.settle_wall == 1.0 for t in shed)
    for ticket in settled:
        assert ticket.settle_wall - ticket.submit_wall == 2.5
        record = ticket.record
        assert record.latency == record.settle_tick - record.submit_tick
        assert record.latency > 0


def test_full_queue_answers_backpressure():
    session = _session()
    gateway = Gateway(session, GatewayConfig(queue_capacity=4, batch_size=4))
    tickets = gateway.submit_many(_requests(session, 6))
    verdicts = [t.verdict for t in tickets]
    assert verdicts[:4] == [None] * 4  # queued, not yet settled
    assert verdicts[4:] == [SessionVerdict.BACKPRESSURE] * 2
    assert gateway.stats.backpressured == 2
    gateway.run_until_idle()
    assert gateway.audit().passed


def test_breaker_open_sheds_at_admission():
    session = _session()
    gateway = Gateway(session,
                      GatewayConfig().with_breaker(latency=1.0, failures=1))
    gateway._breaker.record(ok=False)  # force the trip
    assert gateway.breaker_state is BreakerState.OPEN
    ticket = gateway.submit(_requests(session, 1)[0])
    assert ticket.verdict is SessionVerdict.SHED
    assert gateway.stats.shed_breaker == 1


def test_session_window_narrower_than_batch_is_a_config_error():
    session = _session(max_in_flight=4)
    with pytest.raises(ConfigError, match="admission window"):
        Gateway(session, GatewayConfig(batch_size=8))


@pytest.mark.parametrize("field, value", [
    ("queue_capacity", 0), ("rate", -1.0), ("breaker_latency", 0.0),
    # Each int field takes ints only (a bool is not a count).
    ("queue_capacity", "8"), ("queue_capacity", 2.5),
    ("batch_size", True), ("burst", 2.5), ("breaker_failures", 1.5),
    ("breaker_cooldown", "2"), ("breaker_probes", "1"),
    # The rate and the breaker threshold are reals, never bools or NaN.
    ("rate", True), ("rate", float("nan")), ("rate", "1"),
    ("breaker_latency", "x"), ("breaker_latency", float("nan")),
])
def test_bad_gateway_config_raises_eagerly(field, value):
    with pytest.raises(ConfigError, match=field):
        GatewayConfig(**{field: value})


def test_an_infinite_breaker_latency_disables_the_breaker():
    assert not GatewayConfig(breaker_latency=math.inf).breaker_enabled
    assert GatewayConfig(breaker_latency=300).breaker_enabled


# ----------------------------------------------------------------------
# Breaker trip and recovery through the real stack.
# ----------------------------------------------------------------------
def test_breaker_trips_and_recovers_under_stall_storms():
    spec = get_scenario("hot_spot").scaled(0.25)
    tree = spec.build_tree(seed=3)
    requests = spec.stream(tree, seed=3)
    plan = FaultPlan(stall_prob=0.15, stall_factor=40.0, horizon=50_000.0)
    config = SessionConfig.of("distributed", m=spec.m, w=spec.w, u=spec.u,
                              schedule_policy="fifo", delay_model="burst",
                              faults=plan, max_in_flight=1 << 20)
    session = ControllerSession(config, tree=tree)
    gateway = Gateway(session, GatewayConfig(batch_size=8).with_breaker(
        latency=400.0, failures=3, cooldown=2, probes=2))
    # Interleave submission with pumping so HALF_OPEN sees fresh
    # requests to admit as probes.
    for start in range(0, len(requests), 6):
        gateway.submit_many(requests[start:start + 6])
        gateway.pump()
    gateway.run_until_idle()
    stats = gateway.stats
    assert stats.breaker_trips >= 1
    assert stats.breaker_recoveries >= 1
    assert stats.shed_breaker >= 1 and stats.probes >= 1
    assert gateway.audit().passed


# ----------------------------------------------------------------------
# App backend: iteration boundaries surface in the stats.
# ----------------------------------------------------------------------
def test_gateway_over_app_session_counts_iterations():
    tree = build_random_tree(10, seed=2)
    app = make_app(AppSpec("size_estimation", max_in_flight=1 << 20),
                   tree=tree)
    gateway = Gateway(app, GatewayConfig(batch_size=8))
    tickets = gateway.submit_many(
        [Request(RequestKind.ADD_LEAF, tree.root) for _ in range(30)])
    gateway.run_until_idle()
    assert all(t.done for t in tickets)
    # 30 adds from n=10 force at least one Observation 2.1 rollover,
    # and the pump's drain pass consumed the boundary records.
    assert gateway.stats.iterations >= 1
    assert gateway.audit().passed
    app.close()


# ----------------------------------------------------------------------
# Health probes.
# ----------------------------------------------------------------------
def test_health_report_reflects_queue_and_breaker():
    session = _session()
    gateway = Gateway(session, GatewayConfig(queue_capacity=4))
    assert gateway.health().healthy
    gateway.submit_many(_requests(session, 4))
    probe = gateway.health()
    assert probe.queue_saturated and not probe.healthy
    assert probe.queue_depth == 4 and probe.in_flight == 4
    gateway.run_until_idle()
    probe = gateway.health()
    assert probe.healthy and probe.in_flight == 0
    assert probe.snapshot()["breaker"] == "closed"


def test_health_exposes_fault_stats_from_the_injector():
    plan = FaultPlan(stall_prob=0.5, stall_factor=10.0, horizon=1000.0)
    session = _session("distributed", delay_model="uniform", faults=plan)
    gateway = Gateway(session, GatewayConfig())
    gateway.submit_many(_requests(session, 10, kind=RequestKind.ADD_LEAF))
    gateway.run_until_idle()
    assert set(gateway.health().fault_stats) >= {"stalls"}


# ----------------------------------------------------------------------
# Worker thread and asyncio serving modes.
# ----------------------------------------------------------------------
def test_worker_thread_serves_concurrent_clients():
    session = _session()
    gateway = Gateway(session, GatewayConfig(batch_size=8)).start()
    assert gateway.running
    results = []

    def client(count):
        tickets = [gateway.submit(request)
                   for request in _requests(session, count)]
        results.extend(t.result(timeout=30).verdict for t in tickets)

    threads = [threading.Thread(target=client, args=(20,))
               for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert gateway.join(timeout=30)
    gateway.stop()
    assert len(results) == 80
    assert gateway.stats.settled == 80
    assert gateway.audit().passed


def test_async_gateway_serves_and_closes():
    async def run():
        session = _session()
        async with AsyncGateway(session, GatewayConfig(batch_size=4)) as front:
            tickets = await front.serve(_requests(session, 12), client="aio")
            assert all(t.done for t in tickets)
            assert await front.join(timeout=30)
            return front.gateway

    gateway = asyncio.run(run())
    assert gateway.closed and gateway.stats.settled == 12
    assert gateway.audit().passed


def test_async_gateway_needs_session_or_gateway():
    with pytest.raises(ConfigError):
        AsyncGateway()


# ----------------------------------------------------------------------
# Lifecycle: close aborts, never hangs.
# ----------------------------------------------------------------------
def test_close_aborts_queued_tickets_with_gateway_error():
    session = _session()
    gateway = Gateway(session, GatewayConfig())
    tickets = gateway.submit_many(_requests(session, 5))
    gateway.close()
    for ticket in tickets:
        with pytest.raises(GatewayError, match="closed"):
            ticket.result(timeout=1)
    assert gateway.stats.aborted == 5
    with pytest.raises(GatewayError):
        gateway.submit(_requests(session, 1)[0])
    gateway.close()  # idempotent
    assert gateway.audit().passed  # aborted tickets are conserved too


def test_context_manager_closes():
    session = _session()
    with Gateway(session, GatewayConfig()) as gateway:
        gateway.submit_many(_requests(session, 3))
        gateway.run_until_idle()
    assert gateway.closed
    with pytest.raises(GatewayError):
        gateway.start()


def _failing_backend(session):
    """``session`` whose ``submit_many`` fails with a non-``ReproError``."""

    def submit_many(requests):
        raise RuntimeError("backend exploded")

    session.submit_many = submit_many
    return session


def test_non_repro_backend_error_aborts_the_batch_and_reraises():
    session = _failing_backend(_session())
    gateway = Gateway(session, GatewayConfig(batch_size=8))
    tickets = gateway.submit_many(_requests(session, 3))
    with pytest.raises(RuntimeError, match="backend exploded"):
        gateway.pump()
    for ticket in tickets:
        assert ticket.done
        with pytest.raises(GatewayError, match="backend exploded"):
            ticket.result(timeout=1)
    stats = gateway.stats
    assert (stats.accepted, stats.settled, stats.aborted) == (3, 0, 3)
    assert gateway.open_requests == 0 and gateway.closed
    report = audit_gateway(gateway)
    assert report.passed, [v.to_json() for v in report.violations]
    with pytest.raises(GatewayError, match="backend exploded"):
        gateway.submit(_requests(session, 1)[0])


def test_worker_exits_after_a_non_repro_backend_error():
    session = _failing_backend(_session())
    # The worker must return after the abort, not die of the error.
    uncaught = []
    previous = threading.excepthook
    threading.excepthook = uncaught.append
    try:
        gateway = Gateway(session, GatewayConfig(batch_size=8))
        # Queued before the worker starts, so its first batch holds all
        # three and no submit races the abort.
        tickets = gateway.submit_many(_requests(session, 3))
        gateway.start()
        for ticket in tickets:
            with pytest.raises(GatewayError, match="backend exploded"):
                ticket.result(timeout=10)
        assert gateway.join(timeout=10)
        worker = gateway._worker
        assert worker is not None
        worker.join(timeout=10)
    finally:
        threading.excepthook = previous
    assert not uncaught, uncaught
    assert not gateway.running and gateway.closed
    assert gateway.stats.aborted == 3
    assert audit_gateway(gateway).passed
    with pytest.raises(GatewayError):
        gateway.submit(_requests(session, 1)[0])
    gateway.close()
