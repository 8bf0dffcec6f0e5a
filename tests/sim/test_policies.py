"""Schedule-policy semantics: the pop rule behind each policy name.

Each policy is one legal interleaving of the same workload (see
``repro.sim.scheduler``); these tests pin what each rule means on
small hand-built workloads, and where a rule draws (``random``) that
the draws are the oracle's (``tests/sim/oracle.py``).
"""

import pytest

from repro.errors import SimulationError
from repro.sim import SCHEDULE_POLICIES, Scheduler
from tests.sim.oracle import OracleScheduler, RandomPolicy
from tests.sim.oracle import Scheduler as ReferenceScheduler


def _run_tagged(sched, delays):
    """Schedule one tagged event per delay; return execution order."""
    seen = []
    for tag, delay in enumerate(delays):
        sched.schedule(delay, lambda t=tag: seen.append(t))
    sched.run()
    return seen


def test_fifo_matches_default_scheduler():
    delays = [3.0, 1.0, 2.0, 1.0, 0.5]
    assert (_run_tagged(Scheduler("fifo"), delays)
            == _run_tagged(Scheduler(), delays)
            == [4, 1, 3, 2, 0])


def test_adversary_reverses_fifo_order():
    delays = [3.0, 1.0, 2.0]
    fifo = _run_tagged(Scheduler("fifo"), delays)
    adversary = _run_tagged(Scheduler("adversary"), delays)
    assert adversary == list(reversed(fifo))


def test_lifo_runs_newest_first():
    assert _run_tagged(Scheduler("lifo"), [1.0, 1.0, 1.0]) == [2, 1, 0]


def test_lifo_depth_bias_follows_causal_chain():
    """LIFO drives one causal chain to completion before starting the
    next: a chain's freshly scheduled continuation is always newest."""
    sched = Scheduler("lifo")
    seen = []

    def chain(name, hops):
        seen.append((name, hops))
        if hops > 1:
            sched.schedule(1.0, lambda: chain(name, hops - 1))

    sched.schedule(1.0, lambda: chain("a", 3))
    sched.schedule(1.0, lambda: chain("b", 3))
    sched.run()
    # "b" was scheduled last, so its whole chain runs before "a" starts.
    assert seen == [("b", 3), ("b", 2), ("b", 1), ("a", 3), ("a", 2),
                    ("a", 1)]


def test_random_policy_is_seed_deterministic():
    delays = [1.0] * 12
    first = _run_tagged(Scheduler("random", seed=7), delays)
    second = _run_tagged(Scheduler("random", seed=7), delays)
    other = _run_tagged(Scheduler("random", seed=8), delays)
    assert first == second
    assert sorted(first) == list(range(12))
    assert first != other  # 1 in 12! chance of colliding
    assert first == _run_tagged(OracleScheduler("random", seed=7), delays)


def test_random_policy_peek_pop_agree():
    """A bounded run that stops at the head pre-draws the random
    victim; the next pop takes exactly that event — the one the
    oracle's ``peek`` names."""
    policy = RandomPolicy(seed=3)
    oracle = ReferenceScheduler(policy=policy)
    sched = Scheduler("random", seed=3)
    seen = []
    for tag in range(8):
        oracle.schedule(1.0 + tag, lambda: None)
        sched.schedule(1.0 + tag, lambda t=tag: seen.append(t))
    for _ in range(8):
        head = policy.peek()
        sched.run(until=0.5)  # nothing is due: pre-draw only
        assert sched.step()
        assert policy.pop() is head
        assert seen[-1] == head.seq
    assert policy.peek() is None
    assert sched.pending() == 0


def test_now_stays_monotone_under_reordering():
    sched = Scheduler("adversary")
    times = []
    for delay in (5.0, 1.0, 3.0):
        sched.schedule(delay, lambda: times.append(sched.now))
    sched.run()
    assert times == sorted(times)
    assert sched.now == 5.0


def test_every_policy_drains_and_preserves_the_event_set():
    delays = [2.0, 1.0, 3.0, 1.0, 2.5, 0.5]
    for name in SCHEDULE_POLICIES:
        order = _run_tagged(Scheduler(name, seed=11), delays)
        assert sorted(order) == list(range(len(delays))), name
        assert order == _run_tagged(OracleScheduler(name, seed=11),
                                    delays), name


def test_cancelled_events_skipped_under_every_policy():
    for name in SCHEDULE_POLICIES:
        sched = Scheduler(name, seed=5)
        seen = []
        events = [sched.schedule(1.0, lambda t=tag: seen.append(t))
                  for tag in range(6)]
        events[1].cancel()
        events[4].cancel()
        sched.run()
        assert sorted(seen) == [0, 2, 3, 5], name


def test_make_policy_rejects_unknown_name():
    with pytest.raises(SimulationError, match="known: fifo"):
        Scheduler("chaos-monkey")


def test_run_until_with_nonfifo_policy():
    sched = Scheduler("adversary")
    seen = []
    sched.schedule(1.0, lambda: seen.append(1))
    sched.schedule(10.0, lambda: seen.append(10))
    # The adversary pops the latest event first, so the time-10 head
    # blocks the run; nothing at all runs before until=5.
    sched.run(until=5.0)
    assert seen == []
    sched.run()
    assert sorted(seen) == [1, 10]
