"""Stress/soak: the gateway under stall storms and churn, with real
threads — never deadlock, never drop, never double-settle.

The regime the circuit breaker exists for: a distributed engine on
bursty delays with stall faults (hops inflated 40x) and churn storms
(topology mutated mid-run), fed by concurrent client threads that
retry shed requests the way real clients do.  Assertions:

* every client thread finishes (joins within its timeout — no
  deadlock, no ticket that never settles);
* every accepted envelope settles exactly once (``accepted ==
  settled``, ``double_settles == 0``, nothing aborted);
* the breaker actually cycled: at least one trip *and* one probe-driven
  recovery, read off :class:`repro.gateway.GatewayStats`;
* the full-stack audit (gateway conservation -> session envelopes ->
  controller safety/waste/locks) is clean afterwards.

The settlement hand-off gets its own races: waiter threads (more than
cores, with a microsecond switch interval) and coroutines block on
tickets the worker has not pumped yet, and an inline-pumped run must
never build a waiter at all.
"""

import asyncio
import concurrent.futures
import os
import sys
import threading
import time

import pytest

from repro import (
    AsyncGateway,
    ControllerSession,
    Gateway,
    GatewayConfig,
    SessionConfig,
)
from repro.distributed.faults import FaultPlan
from repro.errors import GatewayError
from repro.service.envelopes import SessionVerdict
from repro.workloads import get_scenario

pytestmark = pytest.mark.timeout(120)

#: Per-wait timeout: far above anything the engine needs, far below the
#: suite guard, so a hang fails fast with a usable message.
WAIT = 60.0


def _stressed_gateway(seed, queue_capacity=256):
    spec = get_scenario("mixed_flood").scaled(0.5)
    tree = spec.build_tree(seed=seed)
    requests = spec.stream(tree, seed=seed)
    plan = FaultPlan(stall_prob=0.15, stall_factor=40.0,
                     storms=3, storm_size=6, horizon=80_000.0, seed=seed)
    config = SessionConfig.of("distributed", m=spec.m, w=spec.w, u=spec.u,
                              schedule_policy="fifo", delay_model="burst",
                              faults=plan, max_in_flight=1 << 20)
    session = ControllerSession(config, tree=tree)
    gateway = Gateway(session, GatewayConfig(
        queue_capacity=queue_capacity, batch_size=8).with_breaker(
            latency=300.0, failures=2, cooldown=2, probes=1))
    return gateway, requests


def test_soak_under_stall_storms_trips_and_recovers():
    gateway, requests = _stressed_gateway(seed=7)
    gateway.start()
    n_clients = 4
    outcomes = []
    failures = []

    def client(idx):
        # Chunked bursts: submit a wave of tickets, then wait on them
        # all.  Bursts keep the pump's batches full, so a stall storm
        # stalls *consecutive* settlements — the trip condition.
        try:
            mine = requests[idx::n_clients]
            for start in range(0, len(mine), 10):
                wave = mine[start:start + 10]
                # Real-client retry loop: a SHED answer (throttle or
                # open breaker) is retried after a beat, which is
                # exactly what keeps HALF_OPEN supplied with probes.
                for _ in range(500):
                    tickets = [gateway.submit(request, client=f"c{idx}")
                               for request in wave]
                    for ticket in tickets:
                        ticket.result(timeout=WAIT)
                    outcomes.extend(
                        t.verdict for t in tickets
                        if t.verdict is not SessionVerdict.SHED)
                    wave = [t.request for t in tickets
                            if t.verdict is SessionVerdict.SHED]
                    if not wave:
                        break
                    time.sleep(0.001)
        except Exception as error:  # surfaced after the joins
            failures.append(error)

    threads = [threading.Thread(target=client, args=(idx,))
               for idx in range(n_clients)]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=WAIT)
    hung = [t for t in threads if t.is_alive()]
    assert not hung, f"deadlocked client threads: {hung}"
    assert not failures, failures
    assert gateway.join(timeout=WAIT), "queue never drained"
    gateway.stop()

    stats = gateway.stats
    # No drops: every request eventually got a non-shed settlement.
    assert len(outcomes) == len(requests)
    # Exactly once: accepted == settled, nothing aborted, no double
    # settles ever attempted.
    assert stats.accepted == stats.settled
    assert stats.aborted == 0 and stats.double_settles == 0
    # The breaker earned its keep: it tripped on the stall storm and
    # recovered through probes (clients retried through the OPEN
    # window, so sheds were observed too).
    assert stats.breaker_trips >= 1, stats.snapshot()
    assert stats.breaker_recoveries >= 1, stats.snapshot()
    assert stats.shed_breaker >= 1
    report = gateway.audit()
    assert report.passed, [v.to_json() for v in report.violations]
    # Soak sanity: the run actually exercised sustained load.
    assert time.monotonic() - start < WAIT


def test_close_mid_storm_aborts_cleanly_instead_of_hanging():
    gateway, requests = _stressed_gateway(seed=9)
    gateway.start()
    tickets = [gateway.submit(request) for request in requests[:200]]
    # Let the pump get some batches in flight, then slam the door.
    deadline = time.monotonic() + WAIT
    while gateway.stats.settled == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    gateway.close()
    settled = aborted = 0
    for ticket in tickets:
        try:
            ticket.result(timeout=WAIT)
            settled += 1
        except Exception:
            aborted += 1
    assert settled + aborted == len(tickets)
    stats = gateway.stats
    assert stats.settled == settled - stats.shed
    assert stats.aborted == aborted
    assert stats.double_settles == 0
    assert gateway.audit().passed


# ----------------------------------------------------------------------
# The settlement hand-off: waiters built on demand, never lost.
# ----------------------------------------------------------------------
def _plain_gateway(seed):
    """A breaker-less gateway over a distributed session on bursty
    delays: every accepted ticket waits for the pump."""
    spec = get_scenario("mixed_flood").scaled(0.3)
    tree = spec.build_tree(seed=seed)
    config = SessionConfig.of("distributed", m=spec.m, w=spec.w, u=spec.u,
                              delay_model="burst", seed=seed,
                              max_in_flight=1 << 20)
    session = ControllerSession(config, tree=tree)
    gateway = Gateway(session, GatewayConfig(batch_size=4))
    return gateway, spec.stream(tree, seed=seed)


def test_waiters_racing_the_worker_never_lose_a_wake_up():
    gateway, requests = _plain_gateway(seed=3)
    n_waiters = 2 * (os.cpu_count() or 1) + 4
    # Phase 1: every ticket is open before the worker exists.  All
    # threads park on the last one (the pump reaches it last), so they
    # share its waiter, then wait on every ticket (rotated): each
    # waiter is built by whichever thread gets there first.
    early = [gateway.submit(request) for request in requests[:60]]
    live = requests[60:]
    failures = []
    barrier = threading.Barrier(n_waiters + 1)

    def waiter(idx):
        try:
            barrier.wait(timeout=WAIT)
            assert early[-1].result(timeout=WAIT) is early[-1]
            for ticket in early[idx:] + early[:idx]:
                assert ticket.result(timeout=WAIT) is ticket
            # Phase 2: submit-then-wait against the running worker.
            mine = [gateway.submit(request)
                    for request in live[idx::n_waiters]]
            for ticket in mine:
                assert ticket.result(timeout=WAIT).verdict is not None
        except Exception as error:  # surfaced after the joins
            failures.append(error)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=waiter, args=(idx,))
                   for idx in range(n_waiters)]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=WAIT)
        time.sleep(0.05)  # let the waiters park before the first pump
        gateway.start()
        for thread in threads:
            thread.join(timeout=WAIT)
    finally:
        sys.setswitchinterval(previous)
        gateway.stop()
    assert not [t for t in threads if t.is_alive()], "waiter threads hung"
    assert not failures, failures
    stats = gateway.stats
    assert stats.accepted == stats.settled == len(requests)
    assert stats.double_settles == 0 and stats.aborted == 0
    assert gateway.audit().passed
    gateway.close()


def test_aresult_before_and_after_settlement_and_on_abort():
    gateway, requests = _plain_gateway(seed=4)

    async def run():
        # Awaited before settlement: the coroutine parks on the waiter
        # before the worker has even started.
        early = gateway.submit(requests[0])
        waiting = asyncio.ensure_future(early.aresult())
        await asyncio.sleep(0)
        assert not waiting.done() and not early.done
        gateway.start()
        assert await asyncio.wait_for(waiting, WAIT) is early
        assert early.verdict is not None
        # Awaited after settlement: returns at once.
        late = gateway.submit(requests[1])
        assert await asyncio.to_thread(gateway.join, WAIT)
        assert late.done
        assert await late.aresult() is late
        # Aborted: both a parked awaiter and a late one raise.
        await asyncio.to_thread(gateway.stop)
        doomed = gateway.submit(requests[2])
        parked = asyncio.ensure_future(doomed.aresult())
        await asyncio.sleep(0)
        await asyncio.to_thread(gateway.close)
        with pytest.raises(GatewayError, match="closed"):
            await asyncio.wait_for(parked, WAIT)
        with pytest.raises(GatewayError, match="closed"):
            await doomed.aresult()

    asyncio.run(run())
    stats = gateway.stats
    assert (stats.settled, stats.aborted, stats.double_settles) == (2, 1, 0)
    assert gateway.audit().passed


def test_inline_pump_builds_no_future(monkeypatch):
    built = []
    original = concurrent.futures.Future.__init__

    def counting_init(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(concurrent.futures.Future, "__init__", counting_init)
    # A small queue backpressures the 48-request waves, the stall
    # storm trips the breaker into shedding; both are retried.
    gateway, requests = _stressed_gateway(seed=7, queue_capacity=16)
    retried = (SessionVerdict.SHED, SessionVerdict.BACKPRESSURE)
    seen = set()
    todo = list(requests)
    for _ in range(10_000):
        if not todo:
            break
        wave, todo = todo[:48], todo[48:]
        tickets = [gateway.submit(request) for request in wave]
        gateway.run_until_idle()
        for ticket in tickets:
            # result() on a settled ticket is a read, not a wait.
            assert ticket.done and ticket.result() is ticket
            seen.add(ticket.verdict)
            if ticket.verdict in retried:
                todo.append(ticket.request)
    assert not todo
    assert {SessionVerdict.GRANTED, *retried} <= seen, seen
    assert built == []
    assert gateway.audit().passed
    # The counter is live: waiting on an open ticket builds exactly
    # one waiter, shared by later waits.
    plain, requests = _plain_gateway(seed=5)
    ticket = plain.submit(requests[0])
    for _ in range(2):
        with pytest.raises(concurrent.futures.TimeoutError):
            ticket.result(timeout=0.01)
    assert len(built) == 1
    plain.run_until_idle()
    assert ticket.result(timeout=WAIT).done and len(built) == 1


def test_a_cancelled_await_leaves_the_shared_waiter_alive():
    gateway, requests = _plain_gateway(seed=6)
    # One pump settles the first batch of four; the last two stay open.
    tickets = [gateway.submit(request) for request in requests[:6]]
    settled, doomed, spare = tickets[0], tickets[4], tickets[5]
    shared = []

    def thread_wait():
        try:
            shared.append(settled.result(timeout=WAIT))
        except BaseException as error:  # surfaced after the join
            shared.append(error)

    async def time_out(ticket):
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(ticket.aresult(), 0.01)

    async def run():
        # Each await times out on an open ticket; the cancellation must
        # stop at the awaiter, not cancel the waiter it shares.
        for ticket in (settled, doomed, spare):
            await time_out(ticket)
        thread = threading.Thread(target=thread_wait)
        thread.start()
        assert await asyncio.to_thread(gateway.pump) == 4
        await asyncio.to_thread(thread.join, WAIT)
        assert not thread.is_alive()
        assert settled.done and not gateway.closed
        assert not doomed.done and not spare.done
        assert await settled.aresult() is settled

    asyncio.run(run())
    assert shared == [settled]
    assert settled.verdict is not None
    # Two open tickets with timed-out awaiters both abort on close.
    gateway.close()
    for ticket in (doomed, spare):
        assert ticket.done
        with pytest.raises(GatewayError, match="closed"):
            ticket.result(timeout=WAIT)
    stats = gateway.stats
    assert (stats.accepted, stats.settled, stats.aborted) == (6, 4, 2)
    assert stats.double_settles == 0
    assert gateway.audit().passed


def test_a_timed_out_serve_leaves_the_gateway_serving():
    gateway, requests = _plain_gateway(seed=8)
    # Not entered, so no worker runs: every served ticket stays open
    # and the gather inside serve() is cancelled by the timeout.
    front = AsyncGateway(gateway=gateway)

    async def time_out(batch):
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(front.serve(batch), 0.01)

    asyncio.run(time_out(requests[:8]))
    gateway.run_until_idle()
    assert not gateway.closed
    stats = gateway.stats
    assert stats.accepted == stats.settled == 8 and stats.aborted == 0
    assert gateway.audit().passed
    # A second timed-out serve leaves eight open tickets with cancelled
    # awaiters; closing aborts every one of them.
    asyncio.run(time_out(requests[8:16]))
    gateway.close()
    stats = gateway.stats
    assert (stats.accepted, stats.settled, stats.aborted) == (16, 8, 8)
    assert gateway.open_requests == 0 and stats.double_settles == 0
    assert gateway.audit().passed
