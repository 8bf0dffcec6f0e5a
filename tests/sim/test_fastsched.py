"""The scheduler's record queue: records, tombstones, batched draining.

The contract under test: :class:`repro.sim.Scheduler` executes the
identical callback sequence the reference engine in
``tests/sim/oracle.py`` would — pop order, timestamps, tie-breaks,
cancellation semantics — while exposing the same introspection
surface plus the record-level entry points (``schedule_call``,
``step_batch``).  The equivalence tests drive both engines through
randomized FIFO workloads (including zero-delay chains scheduled from
inside callbacks, the pattern the distributed lock hand-offs rely on)
and compare the full execution logs; ``test_scheduler.py`` extends the
comparison to every policy.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Scheduler
from tests.sim.oracle import OracleScheduler


def drive_workload(sched, delays, nested_every=5):
    """Schedule one callback per delay (plus a nested zero-delay child
    every ``nested_every`` events) and run to quiescence, logging
    ``(label, now)`` per execution."""
    log = []

    def make(label):
        def fire():
            log.append((label, sched.now))
            if label % nested_every == 0:
                child = label + 100_000
                sched.schedule(0.0, lambda: log.append((child, sched.now)))
        return fire

    for label, delay in enumerate(delays):
        sched.schedule(delay, make(label))
    sched.run()
    return log


@given(st.lists(st.floats(min_value=0.0, max_value=8.0,
                          allow_nan=False, allow_infinity=False),
                min_size=0, max_size=60),
       st.integers(min_value=2, max_value=7))
@settings(max_examples=50, deadline=None)
def test_pop_order_matches_reference_fifo(delays, nested_every):
    # Quantize so timestamp ties actually occur and exercise the
    # (time, seq) tie-break.
    delays = [round(d * 2) / 2 for d in delays]
    reference = drive_workload(OracleScheduler(), delays, nested_every)
    engine = drive_workload(Scheduler(), delays, nested_every)
    assert engine == reference


def test_schedule_call_orders_like_schedule():
    """schedule_call records interleave with schedule handles in strict
    (time, seq) order — one global sequence covers both entry points."""
    sched = Scheduler()
    log = []
    sched.schedule(1.0, lambda: log.append("handle-1"))
    sched.schedule_call(1.0, log.append, "call-1")
    sched.schedule_call(0.5, log.append, "call-0.5")
    sched.schedule(1.0, lambda: log.append("handle-2"))
    sched.run()
    assert log == ["call-0.5", "handle-1", "call-1", "handle-2"]


def test_zero_delay_chain_runs_after_same_stamp_backlog():
    """A zero-delay event scheduled mid-drain gets a later seq, so it
    runs after already-queued events carrying the same stamp — exactly
    the reference FIFO behaviour."""
    sched = Scheduler()
    log = []
    sched.schedule(1.0, lambda: (log.append("first"),
                                 sched.schedule_call(0.0, log.append,
                                                     "chained")))
    sched.schedule(1.0, lambda: log.append("second"))
    sched.run()
    assert log == ["first", "second", "chained"]


def test_now_advances_and_negative_delay_rejected():
    sched = Scheduler()
    times = []
    sched.schedule(2.5, lambda: times.append(sched.now))
    sched.schedule_call(5.0, lambda _: times.append(sched.now), None)
    sched.run()
    assert times == [2.5, 5.0]
    assert sched.now == 5.0
    with pytest.raises(SimulationError):
        sched.schedule(-0.1, lambda: None)
    with pytest.raises(SimulationError):
        sched.schedule_call(-0.1, lambda _: None, None)


def test_schedule_at_past_rejected():
    sched = Scheduler()
    sched.schedule(5.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.schedule_at(1.0, lambda: None)
    seen = []
    sched.schedule_at(9.0, lambda: seen.append(sched.now))
    sched.run()
    assert seen == [9.0]


# ----------------------------------------------------------------------
# Tombstone cancellation.
# ----------------------------------------------------------------------
def test_cancelled_events_are_skipped_and_accounted():
    sched = Scheduler()
    seen = []
    events = [sched.schedule(1.0, lambda i=i: seen.append(i))
              for i in range(5)]
    assert sched.pending() == 5
    events[0].cancel()
    events[3].cancel()
    events[3].cancel()  # idempotent
    assert sched.pending() == 3
    sched.run()
    assert seen == [1, 2, 4]
    assert sched.pending() == 0
    assert sched.executed == 3


def test_cancel_after_execution_is_a_noop():
    sched = Scheduler()
    event = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    assert sched.step() is True  # runs ``event``
    event.cancel()
    event.cancel()
    assert sched.pending() == 1
    sched.run()
    assert sched.executed == 2


def test_cancel_from_callback_before_pop():
    """Cancelling a later event from inside an earlier callback leaves
    a tombstone the drain loop skips without counting it."""
    sched = Scheduler()
    seen = []
    victim = sched.schedule(2.0, lambda: seen.append("victim"))
    sched.schedule(1.0, lambda: (seen.append("killer"), victim.cancel()))
    sched.schedule(3.0, lambda: seen.append("after"))
    sched.run()
    assert seen == ["killer", "after"]
    assert sched.executed == 2
    assert sched.pending() == 0


# ----------------------------------------------------------------------
# Batched draining.
# ----------------------------------------------------------------------
def test_step_batch_respects_budget():
    sched = Scheduler()
    seen = []
    for i in range(10):
        sched.schedule(float(i), lambda i=i: seen.append(i))
    assert sched.step_batch(4) == 4
    assert seen == [0, 1, 2, 3]
    assert sched.step_batch(100) == 6
    assert seen == list(range(10))
    assert sched.step_batch(1) == 0


def test_tombstones_do_not_consume_budget():
    sched = Scheduler()
    seen = []
    victims = [sched.schedule(1.0, lambda: seen.append("victim"))
               for _ in range(3)]
    sched.schedule(2.0, lambda: seen.append("live"))
    for victim in victims:
        victim.cancel()
    # Budget 1 must still execute the live event: skipped tombstones
    # don't count against the batch.
    assert sched.step_batch(1) == 1
    assert seen == ["live"]


def test_pump_and_step_surface():
    sched = Scheduler()
    assert sched.step() is False
    assert sched.pump() is False
    sched.schedule(1.0, lambda: None)
    assert sched.pump() is True
    assert sched.pump() is False


def test_batch_accounting_survives_raising_callback():
    """A callback that raises mid-batch must not corrupt the executed /
    pending counters: the remainder of the queue stays drainable."""
    sched = Scheduler()
    seen = []
    sched.schedule(1.0, lambda: seen.append("ok"))

    def boom():
        raise RuntimeError("protocol bug")

    sched.schedule(2.0, boom)
    sched.schedule(3.0, lambda: seen.append("tail"))
    with pytest.raises(RuntimeError):
        sched.step_batch()
    assert sched.executed == 2  # "ok" and the raising event both ran
    assert sched.pending() == 1
    sched.run()
    assert seen == ["ok", "tail"]
    assert sched.pending() == 0


def test_event_budget_catches_livelock():
    sched = Scheduler(max_events=100)

    def loop():
        sched.schedule(1.0, loop)

    sched.schedule(1.0, loop)
    with pytest.raises(SimulationError):
        sched.run()


# ----------------------------------------------------------------------
# Bounded runs.
# ----------------------------------------------------------------------
def test_run_until_stops_at_the_boundary():
    sched = Scheduler()
    seen = []
    sched.schedule(1.0, lambda: seen.append(1))
    sched.schedule(5.0, lambda: seen.append(5))  # exactly at the bound
    sched.schedule(10.0, lambda: seen.append(10))
    sched.run(until=5.0)
    assert seen == [1, 5]
    assert sched.pending() == 1
    assert sched.now == 5.0
    sched.run()
    assert seen == [1, 5, 10]


def test_run_until_does_not_overshoot_from_nested_schedules():
    """Events scheduled during the bounded run that land past ``until``
    must stay queued, even when the queue head was in range."""
    sched = Scheduler()
    seen = []

    def fire():
        seen.append("in-range")
        sched.schedule(100.0, lambda: seen.append("far-future"))

    sched.schedule(1.0, fire)
    sched.schedule(2.0, lambda: seen.append("also-in-range"))
    sched.run(until=10.0)
    assert seen == ["in-range", "also-in-range"]
    assert sched.pending() == 1


def test_run_until_skips_head_tombstones():
    sched = Scheduler()
    seen = []
    victim = sched.schedule(1.0, lambda: seen.append("victim"))
    sched.schedule(2.0, lambda: seen.append("live"))
    victim.cancel()
    sched.run(until=2.0)
    assert seen == ["live"]
    assert sched.pending() == 0


def test_run_until_matches_reference_scheduler():
    rng = random.Random(7)
    delays = [rng.uniform(0.0, 10.0) for _ in range(200)]
    cut = 5.0
    logs = []
    for sched in (OracleScheduler(), Scheduler()):
        log = []
        for label, delay in enumerate(delays):
            sched.schedule(delay, lambda l=label: log.append((l, sched.now)))
        sched.run(until=cut)
        log.append(("pending", sched.pending()))
        sched.run()
        logs.append(log)
    assert logs[0] == logs[1]


def test_pending_is_exact_inside_step_batch():
    """Regression: ``pending()`` read from a callback running *inside*
    ``step_batch`` must be exact, not batch-stale.

    The original implementation settled its live-event counter only at
    batch boundaries, so a same-thread reader mid-batch could see up to
    PUMP_BATCH - 1 phantom events.  The engine and the oracle must
    report the identical backlog at every execution point, also
    when a callback cancels a future event (the tombstone must leave
    the count immediately) and when it schedules new work.
    """
    rng = random.Random(13)
    delays = [round(rng.uniform(0.0, 4.0) * 2) / 2 for _ in range(120)]
    observed = []
    for make_sched in (OracleScheduler, Scheduler):
        sched = make_sched()
        log = []
        handles = {}

        def fire(label, sched=sched, log=log, handles=handles):
            # Cancel a not-yet-run sibling every 7th event: the drop
            # must be visible in pending() immediately.
            if label % 7 == 0:
                victim = handles.get(label + 1)
                if victim is not None and not victim.cancelled:
                    victim.cancel()
            # Spawn nested work every 11th event: the add must be
            # visible immediately too.
            if label % 11 == 0:
                sched.schedule(0.25, lambda: log.append(("child", label,
                                                         sched.pending())))
            log.append((label, sched.now, sched.pending()))

        for label, delay in enumerate(delays):
            handles[label] = sched.schedule(delay, lambda l=label: fire(l))
        # Drain the engine through step_batch in deliberately lumpy
        # batches so callbacks observe pending() mid-batch at many
        # batch offsets; the oracle (no step_batch) steps singly —
        # exactness means the logs agree anyway.
        if isinstance(sched, Scheduler):
            budget = 1
            while sched.step_batch(budget):
                budget = budget % 17 + 1
        else:
            while sched.step():
                pass
        observed.append(log)
        assert sched.pending() == 0
    assert observed[0] == observed[1]


def test_pending_exact_after_cancel_between_batches():
    sched = Scheduler()
    keep = sched.schedule(1.0, lambda: None)
    victim = sched.schedule(2.0, lambda: None)
    assert sched.pending() == 2
    victim.cancel()
    assert sched.pending() == 1
    victim.cancel()  # idempotent: no double decrement
    assert sched.pending() == 1
    sched.run()
    assert sched.pending() == 0
    assert not keep.cancelled
