"""Property test: the gateway over the engine == over the oracle.

A session's discrete-event scheduler is :class:`repro.sim.Scheduler`,
whose contract against the reference scheduler kept in
``tests/sim/oracle.py`` is the *same execution*, not a similar one.
That equivalence is already pinned at the session layer
(``tests/distributed/test_fast_path.py``); this property closes the
stack: with a :class:`Gateway` in front — admission queue, batching,
drawn client interleavings, every schedule policy — the engine's run
must still produce identical outcome tallies, identical per-request
verdict sequences, and identical message counters to a gateway over
an oracle-wired session fed the same drawn schedule.
"""

import contextlib

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import ControllerSession, Gateway, GatewayConfig, SessionConfig
from repro.sim import SCHEDULE_POLICIES, Scheduler
from repro.workloads import TreeMirror, get_scenario, request_spec
from tests.sim.oracle import OracleScheduler, oracle_sessions

_SCALE = 0.15
_SPEC_CACHE = {}


def _materialized(name):
    if name not in _SPEC_CACHE:
        spec = get_scenario(name).scaled(_SCALE)
        tree = spec.build_tree(seed=23)
        stream = [request_spec(r) for r in spec.stream(tree, seed=23)]
        _SPEC_CACHE[name] = (spec, stream)
    return _SPEC_CACHE[name]


def _run_arm(spec, stream_specs, drawn, *, oracle, policy):
    """One gateway-fronted run; returns the behavioural artefacts the
    equivalence covers plus the scheduler type actually wired."""
    n_clients, ops, batch_size = drawn
    tree = spec.build_tree(seed=23)
    mirror = TreeMirror(tree)
    requests = [mirror.request(s) for s in stream_specs]
    mirror.detach()
    config = SessionConfig.of(
        "distributed", m=spec.m, w=spec.w, u=spec.u, seed=7,
        schedule_policy=policy, max_in_flight=1 << 20)
    with oracle_sessions() if oracle else contextlib.nullcontext():
        session = ControllerSession(config, tree=tree)
    gateway = Gateway(session, GatewayConfig(
        queue_capacity=len(requests) + 1, batch_size=batch_size))
    queues = [list(reversed(requests[i::n_clients]))
              for i in range(n_clients)]
    tickets = []
    for op in ops:
        if op == n_clients:
            gateway.pump()
            continue
        if queues[op]:
            tickets.append(gateway.submit(queues[op].pop(),
                                          client=f"c{op}"))
    while any(queues):
        for client, queue in enumerate(queues):
            if queue:
                tickets.append(gateway.submit(queue.pop(),
                                              client=f"c{client}"))
    gateway.run_until_idle()
    report = gateway.audit()
    assert report.passed, [v.to_json() for v in report.violations]
    tickets.sort(key=lambda t: t.seq)
    verdicts = tuple(t.verdict for t in tickets)
    tally = gateway.tally()
    counters = tuple(sorted(session.controller.counters.snapshot().items()))
    scheduler_type = type(session.scheduler)
    session.close()
    return verdicts, tally, counters, scheduler_type


def interleavings():
    return st.tuples(
        st.integers(min_value=2, max_value=4),
        st.lists(st.integers(min_value=0, max_value=4),
                 min_size=1, max_size=50),
        st.integers(min_value=1, max_value=16))


# Regression seeds: pump-heavy (empty batches interleave every submit)
# and a starved-client draw.
@example(scenario="hot_spot", drawn=(2, [2, 0, 2, 1, 2, 2, 0], 1),
         policy="fifo")
@example(scenario="near_exhaustion", drawn=(3, [0] * 20 + [3, 1, 2], 8),
         policy="random")
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=st.sampled_from(["hot_spot", "near_exhaustion",
                                 "mixed_flood"]),
       drawn=interleavings(),
       policy=st.sampled_from(SCHEDULE_POLICIES))
def test_gateway_fast_path_matches_reference_engine(scenario, drawn,
                                                    policy):
    n_clients, ops, batch_size = drawn
    drawn = (n_clients, [min(op, n_clients) for op in ops], batch_size)
    spec, stream = _materialized(scenario)
    reference = _run_arm(spec, stream, drawn, oracle=True, policy=policy)
    engine = _run_arm(spec, stream, drawn, oracle=False, policy=policy)
    assert reference[3] is OracleScheduler
    assert engine[3] is Scheduler
    # Verdict sequence (admission order), tallies, message counters:
    # all identical — the gateway adds nothing the engine can observe.
    assert engine[:3] == reference[:3]
