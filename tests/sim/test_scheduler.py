"""The discrete-event scheduler, and its equivalence with the oracle.

``repro.sim.Scheduler`` is the simulator's only engine;
``tests/sim/oracle.py`` keeps the reference engine it replaced.  The
contract is the *same execution*: under every schedule policy and seed,
one program pops the same events in the same order, at the same clock,
with the same ``pending()`` counts (hence the same RNG draws under
``random``).  The first half of this module pins the engine's own
surface on the default FIFO policy; the second half drives both engines
through drawn programs under all four policies and compares the logs.
``test_policies.py`` (pop rules) and ``test_fastsched.py`` (records,
tombstones, batched draining) complete the suite on the same oracle.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import SCHEDULE_POLICIES, Scheduler
from tests.sim.oracle import OracleScheduler


def test_events_run_in_time_order():
    sched = Scheduler()
    seen = []
    sched.schedule(3.0, lambda: seen.append("c"))
    sched.schedule(1.0, lambda: seen.append("a"))
    sched.schedule(2.0, lambda: seen.append("b"))
    sched.run()
    assert seen == ["a", "b", "c"]


def test_ties_break_in_insertion_order():
    sched = Scheduler()
    seen = []
    for tag in ("first", "second", "third"):
        sched.schedule(1.0, lambda t=tag: seen.append(t))
    sched.run()
    assert seen == ["first", "second", "third"]


def test_now_advances_with_events():
    sched = Scheduler()
    times = []
    sched.schedule(2.5, lambda: times.append(sched.now))
    sched.schedule(5.0, lambda: times.append(sched.now))
    sched.run()
    assert times == [2.5, 5.0]
    assert sched.now == 5.0


def test_events_scheduled_from_handlers_run():
    sched = Scheduler()
    seen = []
    def outer():
        seen.append("outer")
        sched.schedule(1.0, lambda: seen.append("inner"))
    sched.schedule(1.0, outer)
    sched.run()
    assert seen == ["outer", "inner"]
    assert sched.now == 2.0


def test_negative_delay_rejected():
    sched = Scheduler()
    with pytest.raises(SimulationError):
        sched.schedule(-0.1, lambda: None)


@pytest.mark.parametrize("entry", ["schedule_call", "schedule",
                                   "schedule_at"])
def test_nan_delays_and_times_are_rejected(entry):
    """NaN passes every ``<`` test, so a ``delay < 0`` guard let a NaN
    delay in and the clock became NaN from then on."""
    sched = Scheduler()
    nan = float("nan")
    schedule = {
        "schedule_call": lambda: sched.schedule_call(nan, id, None),
        "schedule": lambda: sched.schedule(nan, lambda: None),
        "schedule_at": lambda: sched.schedule_at(nan, lambda: None),
    }[entry]
    with pytest.raises(SimulationError):
        schedule()
    assert sched.pending() == 0


def test_schedule_at_past_rejected():
    sched = Scheduler()
    sched.schedule(5.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.schedule_at(1.0, lambda: None)


def test_schedule_at_future():
    sched = Scheduler()
    seen = []
    sched.schedule_at(4.0, lambda: seen.append(sched.now))
    sched.run()
    assert seen == [4.0]


def test_cancelled_events_are_skipped():
    sched = Scheduler()
    seen = []
    event = sched.schedule(1.0, lambda: seen.append("cancelled"))
    sched.schedule(2.0, lambda: seen.append("kept"))
    event.cancel()
    sched.run()
    assert seen == ["kept"]


def test_run_until_stops_early():
    sched = Scheduler()
    seen = []
    sched.schedule(1.0, lambda: seen.append(1))
    sched.schedule(10.0, lambda: seen.append(10))
    sched.run(until=5.0)
    assert seen == [1]
    assert sched.pending() == 1
    sched.run()
    assert seen == [1, 10]


def test_step_returns_false_when_empty():
    sched = Scheduler()
    assert sched.step() is False
    sched.schedule(1.0, lambda: None)
    assert sched.step() is True
    assert sched.step() is False


def test_event_budget_catches_livelock():
    sched = Scheduler(max_events=100)
    def loop():
        sched.schedule(1.0, loop)
    sched.schedule(1.0, loop)
    with pytest.raises(SimulationError):
        sched.run()


def test_executed_counter():
    sched = Scheduler()
    for _ in range(5):
        sched.schedule(1.0, lambda: None)
    sched.run()
    assert sched.executed == 5


# ----------------------------------------------------------------------
# Live-event accounting: O(1) pending() and idempotent cancel().
# ----------------------------------------------------------------------
def test_pending_counts_live_events():
    sched = Scheduler()
    events = [sched.schedule(1.0, lambda: None) for _ in range(5)]
    assert sched.pending() == 5
    events[0].cancel()
    events[3].cancel()
    assert sched.pending() == 3
    sched.run()
    assert sched.pending() == 0
    assert sched.executed == 3


def test_double_cancel_is_idempotent():
    sched = Scheduler()
    event = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    event.cancel()
    event.cancel()
    event.cancel()
    assert sched.pending() == 1  # not driven negative by repeat cancels
    sched.run()
    assert sched.pending() == 0
    assert sched.executed == 1


def test_cancel_after_execution_is_a_noop():
    sched = Scheduler()
    event = sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    sched.step()  # runs ``event``
    event.cancel()
    event.cancel()
    assert sched.pending() == 1
    sched.run()
    assert sched.executed == 2


def test_cancel_after_pop_does_not_double_decrement():
    """Regression: an event that cancels *itself* from its own callback
    has already been popped and counted as consumed — the late cancel
    must not decrement the live counter a second time."""
    sched = Scheduler()
    holder = {}

    def fire():
        holder["event"].cancel()

    holder["event"] = sched.schedule(1.0, fire)
    sched.schedule(2.0, lambda: None)
    sched.step()
    assert sched.pending() == 1  # not driven to 0 by the self-cancel
    sched.run()
    assert sched.pending() == 0
    assert sched.executed == 2


def test_cancel_hook_is_shared_across_events():
    """Cancel bookkeeping lives on the scheduler, not per event: every
    handle points at the one scheduler (no hook is allocated per
    schedule() call), and the count stays exact for every event."""
    sched = Scheduler()
    first = sched.schedule(1.0, lambda: None)
    second = sched.schedule(2.0, lambda: None)
    assert first._sched is second._sched is sched
    first.cancel()
    second.cancel()
    assert sched.pending() == 0


def test_pending_is_constant_time():
    """pending() must not scan the queue: cancelling from within a large
    backlog keeps the count exact without touching the heap."""
    sched = Scheduler()
    events = [sched.schedule(float(i % 7), lambda: None)
              for i in range(1000)]
    for event in events[::2]:
        event.cancel()
    for event in events[::4]:  # half of these are second cancels
        event.cancel()
    assert sched.pending() == 500


# ----------------------------------------------------------------------
# Differential: drawn programs, every policy, engine vs oracle.
# ----------------------------------------------------------------------
#: Op kinds: a cancellable event, a ``schedule_call`` record, an event
#: that starts a zero-delay chain, one that cancels another handle (a
#: tombstone if the target is still queued, a no-op if it already ran)
#: and one that cancels itself (after its own pop).
_KINDS = ("plain", "call", "chain", "cancel", "self")


def run_program(sched, program, drain=None):
    """Run ``program`` on ``sched``; return the execution log.

    Every callback logs ``(label, now, pending())``.  ``program`` is
    ``(ops, precancel, until, late)``: the initial ops, the handles
    cancelled before anything runs, an optional ``run(until=...)``
    bound, and ops scheduled after that bounded run (they invalidate
    the ``random`` policy's pre-draw).  ``drain`` finishes the run
    (default ``sched.run()``).
    """
    ops, precancel, until, late = program
    log = []
    handles = {}

    def note(label):
        log.append((label, sched.now, sched.pending()))

    def chain(arg):
        label, left = arg
        note((label, left))
        if left:
            sched.schedule_call(0.0, chain, (label, left - 1))

    def fire(label, kind, param):
        note(label)
        if kind == "chain":
            sched.schedule_call(0.0, chain, (label, param % 4))
        elif kind == "cancel" and param in handles:
            handles[param].cancel()
        elif kind == "self":
            handles[label].cancel()

    def add(label, op):
        delay, kind, param = op
        if kind == "call":
            sched.schedule_call(delay, note, label)
        else:
            handles[label] = sched.schedule(
                delay, lambda: fire(label, kind, param))

    for label, op in enumerate(ops):
        add(label, op)
    for label in precancel:
        if label in handles:
            handles[label].cancel()
    if until is not None:
        sched.run(until=until)
        note("until")
        for offset, op in enumerate(late):
            add(len(ops) + offset, op)
    if drain is None:
        sched.run()
    else:
        drain(sched)
    log.append(("end", sched.now, sched.pending(), sched.executed))
    return log


# Quantized delays, so that timestamp ties occur and exercise the
# (time, seq) tie-break.
_delays = st.integers(min_value=0, max_value=16).map(lambda k: k / 2)
_ops = st.tuples(_delays, st.sampled_from(_KINDS),
                 st.integers(min_value=0, max_value=45))
_programs = st.tuples(
    st.lists(_ops, max_size=40),
    st.lists(st.integers(min_value=0, max_value=45), max_size=8),
    st.one_of(st.none(), _delays),
    st.lists(_ops, max_size=6))


@given(policy=st.sampled_from(SCHEDULE_POLICIES),
       seed=st.integers(min_value=0, max_value=2**16),
       program=_programs)
@example(policy="random", seed=3,
         program=([(1.0, "plain", 0)] * 6, [], 0.5, [(0.0, "call", 0)]))
@example(policy="adversary", seed=0,
         program=([(1.0, "chain", 3), (4.0, "cancel", 0),
                   (2.0, "self", 0)], [1], 3.0, []))
@settings(max_examples=300, deadline=None)
def test_every_policy_matches_the_oracle(policy, seed, program):
    expected = run_program(OracleScheduler(policy, seed=seed), program)
    actual = run_program(Scheduler(policy, seed=seed), program)
    assert actual == expected


def _lumpy(sched):
    budget = 1
    while sched.step_batch(budget):
        budget = budget % 17 + 1


@given(policy=st.sampled_from(SCHEDULE_POLICIES),
       seed=st.integers(min_value=0, max_value=2**16),
       program=_programs)
@settings(max_examples=100, deadline=None)
def test_batched_draining_matches_the_oracle(policy, seed, program):
    """Batch boundaries are invisible: draining in lumpy batches logs
    what the oracle logs stepping one event at a time."""
    expected = run_program(OracleScheduler(policy, seed=seed), program,
                           drain=lambda oracle: oracle.run())
    actual = run_program(Scheduler(policy, seed=seed), program,
                         drain=_lumpy)
    assert actual == expected


# Per-seed pop sequences of the random policy: the grid's regression
# seeds depend on these draws, so they are pinned, not just compared.
@pytest.mark.parametrize("seed, order", [
    (0, [6, 9, 0, 2, 4, 3, 5, 1, 8, 7]),
    (1, [2, 1, 4, 0, 3, 5, 7, 9, 8, 6]),
    (7, [5, 2, 6, 9, 0, 7, 4, 1, 3, 8]),
    (2024, [7, 2, 4, 1, 5, 3, 8, 9, 0, 6]),
])
def test_random_pop_sequences_are_pinned(seed, order):
    for make in (Scheduler, OracleScheduler):
        sched = make("random", seed=seed)
        seen = []
        for tag in range(10):
            sched.schedule(1.0, lambda t=tag: seen.append(t))
        sched.run()
        assert seen == order, make.__name__


@pytest.mark.parametrize("seed, order", [
    (0, [3, 5, 0, 2, 4, 103, 104, 100, 1, 102, 105, 101]),
    (5, [4, 2, 102, 104, 0, 100, 3, 103, 5, 1, 105, 101]),
])
def test_random_pop_sequences_with_nested_events_are_pinned(seed, order):
    def nested_order(sched):
        seen = []

        def fire(tag):
            seen.append(tag)
            sched.schedule(0.5, lambda: seen.append(tag + 100))

        for tag in range(6):
            sched.schedule(float(tag % 3), lambda t=tag: fire(t))
        sched.run()
        return seen

    assert nested_order(Scheduler("random", seed=seed)) == order
    assert nested_order(OracleScheduler("random", seed=seed)) == order


@pytest.mark.parametrize("policy", SCHEDULE_POLICIES)
def test_policy_name_round_trips(policy):
    assert Scheduler(policy).policy == policy
