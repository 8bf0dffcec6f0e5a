"""ControllerSession behaviour: envelopes, admission, drain, lifecycle."""

import pytest

from repro import (
    ControllerSession,
    Request,
    RequestKind,
    SessionConfig,
    SessionVerdict,
)
from repro.errors import ConfigError, ControllerError
from repro.protocol import SessionProtocol
from repro.tree import paths
from repro.workloads import build_random_tree


def _session(flavor="iterated", tree_n=16, **knobs):
    tree = build_random_tree(tree_n, seed=5)
    config = SessionConfig.of(flavor, m=200, w=20, u=1000, **knobs)
    return ControllerSession(config, tree=tree)


def _plain(session, node=None):
    return Request(RequestKind.PLAIN, node or session.tree.root)


# ----------------------------------------------------------------------
# Submission and settlement.
# ----------------------------------------------------------------------
def test_submit_is_non_blocking_and_result_settles():
    session = _session()
    ticket = session.submit(_plain(session))
    assert not ticket.done and session.in_flight == 1
    record = ticket.result()
    assert ticket.done and record.granted
    assert record.verdict is SessionVerdict.GRANTED
    assert record.settle_tick > record.submit_tick
    assert session.in_flight == 0


def test_session_satisfies_session_protocol():
    assert isinstance(_session(), SessionProtocol)


def test_drain_yields_in_settlement_order_with_monotone_ids():
    session = _session()
    session.submit_many([_plain(session) for _ in range(6)])
    records = list(session.drain())
    assert [r.envelope_id for r in records] == list(range(6))
    ticks = [r.settle_tick for r in records]
    assert ticks == sorted(ticks)


def test_result_then_drain_is_exactly_once():
    session = _session()
    ticket = session.submit(_plain(session))
    record = ticket.result()
    # The claimed record is not re-delivered by drain ...
    assert list(session.drain()) == []
    # ... but stays readable through the ticket.
    assert ticket.result() is record


def test_drain_then_result_reads_back():
    session = _session()
    ticket = session.submit(_plain(session))
    records = session.settle_all()
    assert len(records) == 1
    assert ticket.result() is records[0]


def test_envelope_materializes_with_value_semantics():
    session = _session()
    record = session.serve(_plain(session))
    envelope = record.envelope
    assert envelope == record.envelope  # fresh object, equal by value
    assert envelope.request is record.request


def test_serve_matches_submit_drain():
    session_a = _session()
    session_b = _session()
    request_a = Request(RequestKind.ADD_LEAF, session_a.tree.root)
    request_b = Request(RequestKind.ADD_LEAF, session_b.tree.root)
    record_a = session_a.serve(request_a)
    session_b.submit(request_b)
    [record_b] = list(session_b.drain())
    assert record_a.verdict == record_b.verdict
    assert session_a.tally() == session_b.tally()


def test_serve_stream_records_and_tally():
    session = _session()
    records = session.serve_stream([_plain(session) for _ in range(5)])
    assert [r.envelope_id for r in records] == list(range(5))
    assert all(r.granted for r in records)
    assert session.tally()["granted"] == 5
    # serve_stream is its own delivery channel: nothing queued for drain.
    assert list(session.drain()) == []


def test_interleaved_submit_and_serve_keep_order():
    session = _session()
    session.submit(_plain(session))
    record = session.serve(_plain(session))
    # The queued submission was flushed first, so serve's record is the
    # later envelope.
    assert record.envelope_id == 1
    assert [r.envelope_id for r in session.drain()] == [0]


# ----------------------------------------------------------------------
# Admission control.
# ----------------------------------------------------------------------
def test_backpressure_distinct_from_reject():
    session = _session(max_in_flight=2)
    tickets = session.submit_many([_plain(session) for _ in range(5)])
    verdicts = [t.result().verdict for t in tickets]
    assert verdicts[:2] == [SessionVerdict.GRANTED] * 2
    assert verdicts[2:] == [SessionVerdict.BACKPRESSURE] * 3
    assert session.backpressured == 3
    # Backpressure never reached the controller: no permit accounting.
    assert session.controller.granted == 2
    assert session.controller.rejected == 0
    refused = tickets[-1].result()
    assert refused.outcome is None and refused.backpressured
    assert refused.permit_interval is None


def test_backpressure_clears_after_drain():
    session = _session(max_in_flight=1)
    first = session.submit(_plain(session))
    refused = session.submit(_plain(session))
    assert refused.result().backpressured
    first.result()
    retried = session.submit(_plain(session))
    assert retried.result().granted


# ----------------------------------------------------------------------
# Event-driven engine.
# ----------------------------------------------------------------------
def test_distributed_session_settles_via_scheduler():
    session = _session("distributed", tree_n=24)
    nodes = list(session.tree.nodes())
    tickets = session.submit_many(
        [Request(RequestKind.PLAIN, node) for node in nodes[:8]],
        stagger=0.5)
    records = session.settle_all()
    assert len(records) == 8
    assert all(r.granted for r in records)
    assert session.now > 0  # simulated time advanced
    assert all(t.done for t in tickets)
    ticks = [r.settle_tick for r in records]
    assert ticks == sorted(ticks)  # settlement order


def test_drain_quiesces_cleanup_walks():
    """Grants settle before the agent's return/unlock walk; a finished
    drain must run that cleanup so locks and counters end exactly where
    a direct submit_batch would leave them (regression: drain used to
    stop at the last settlement, stranding cleanup hops)."""
    session = _session("distributed", tree_n=24)
    deep = max(session.tree.nodes(), key=paths.depth)
    session.submit(Request(RequestKind.PLAIN, deep))
    records = session.settle_all()
    assert records[0].granted
    assert session.scheduler.pending() == 0
    boards = session.controller.boards
    assert all(board.locked_by is None for _, board in boards.items())


def test_distributed_serve_matches_submit_and_run():
    """session.serve on the event engine quiesces per request, so a
    serve sequence is counter-identical to sequential submit_and_run."""
    from repro import make_controller
    tree_a = build_random_tree(24, seed=5)
    tree_b = build_random_tree(24, seed=5)
    legacy = make_controller("distributed", tree_a, m=200, w=20, u=1000)
    session = _session("distributed", tree_n=24)
    assert session.tree.size == tree_b.size
    for position in range(6):
        node_a = list(tree_a.nodes())[position]
        node_s = list(session.tree.nodes())[position]
        legacy.handle(Request(RequestKind.PLAIN, node_a))
        session.serve(Request(RequestKind.PLAIN, node_s))
    assert (legacy.counters.snapshot()
            == session.controller.counters.snapshot())


def test_scheduled_wrapper_ticks_stay_on_one_scale():
    """distributed_iterated/adaptive carry a scheduler but settle
    synchronously; their submit/settle ticks must both use the
    operation counter (regression: settle used simulated time, giving
    negative latencies)."""
    session = _session("distributed_iterated", tree_n=16)
    for _ in range(3):
        record = session.serve(Request(RequestKind.ADD_LEAF,
                                       session.tree.root))
        assert record.granted
        assert record.latency > 0, record


def test_serve_stream_bypasses_admission_on_event_engine():
    """serve_stream serves, never queues: a stream longer than the
    window must not be backpressured (regression: the event path went
    through submit_many and silently refused the tail)."""
    session = _session("distributed", tree_n=16, max_in_flight=3)
    nodes = list(session.tree.nodes())
    records = session.serve_stream(
        [Request(RequestKind.PLAIN, nodes[i % len(nodes)])
         for i in range(10)])
    assert len(records) == 10
    assert all(r.granted for r in records)
    assert session.backpressured == 0


def test_ticket_only_consumption_does_not_leak_ready_queue():
    """A session consumed purely via Ticket.result() must not retain
    every settled record (regression: _ready grew without bound)."""
    session = _session()
    for _ in range(50):
        session.submit(_plain(session)).result()
    assert len(session._outbox._ready) <= 1


def test_abandoned_ticket_does_not_block_ready_compaction():
    """One never-claimed, never-drained ticket at the queue head must
    not pin every later claimed record (regression: the head purge
    stopped at the first unclaimed entry)."""
    session = _session()
    session.submit(_plain(session))  # abandoned: never result()ed
    session._pump()                  # settles it, unclaimed, at head
    for _ in range(300):
        session.submit(_plain(session)).result()
    assert len(session._outbox._ready) < 70  # compacted, not 301
    assert session.undelivered == 1  # the abandoned record survives


def test_distributed_ticket_result_pumps_scheduler():
    session = _session("distributed", tree_n=24)
    deep = max(session.tree.nodes(), key=paths.depth)
    ticket = session.submit(Request(RequestKind.PLAIN, deep))
    assert not ticket.done
    assert ticket.result().granted


# ----------------------------------------------------------------------
# Tracing and intervals.
# ----------------------------------------------------------------------
def test_trace_handles_are_prefix_cursors():
    session = _session("centralized", trace=True)
    first = session.serve(_plain(session))
    second = session.serve(Request(RequestKind.ADD_LEAF,
                                   session.tree.root))
    assert first.trace_handle is not None
    assert second.trace_handle.upto >= first.trace_handle.upto
    assert first.trace_handle.events() == tuple(
        session.trace.events[:first.trace_handle.upto])


def test_trace_on_untraced_flavor_is_config_error():
    with pytest.raises(ConfigError, match="kernel trace"):
        _session("iterated", trace=True)


def test_permit_interval_surfaces_serials():
    session = _session("centralized",
                       options={"track_intervals": True})
    records = session.serve_stream([_plain(session) for _ in range(3)])
    assert [r.permit_interval for r in records] == [1, 2, 3]


def test_session_owned_options_rejected():
    with pytest.raises(ConfigError, match="session-owned"):
        _session("distributed", options={"scheduler": None})


# ----------------------------------------------------------------------
# Lifecycle.
# ----------------------------------------------------------------------
def test_close_is_idempotent_and_blocks_submit():
    session = _session()
    session.close()
    session.close()
    assert session.closed
    with pytest.raises(ControllerError, match="closed"):
        session.submit(_plain(session))
    with pytest.raises(ControllerError, match="closed"):
        session.serve(_plain(session))


def test_closed_session_never_settles_in_flight_tickets():
    """close() abandons in-flight work: pumping a closed session (via
    result() or drain()) raises instead of settling on the detached
    engine (regression: event-engine tickets granted post-detach)."""
    for flavor in ("iterated", "distributed"):
        session = _session(flavor)
        ticket = session.submit(_plain(session))
        session.close()
        with pytest.raises(ControllerError, match="closed"):
            ticket.result()
        assert not ticket.done
        assert session.controller.granted == 0


def test_serve_bypasses_admission_on_event_engine():
    """serve() serves, never queues: a full window must not turn a
    serve into backpressure (regression: event-engine serve went
    through submit())."""
    session = _session("distributed", max_in_flight=1)
    session.submit(_plain(session))  # fills the window
    record = session.serve(_plain(session))
    assert record.granted
    assert session.backpressured == 0


def test_drive_scenario_requires_quiescent_session():
    from repro.errors import ConfigError
    from repro.service import drive_scenario
    session = _session()
    session.submit(_plain(session))
    with pytest.raises(ConfigError, match="quiescent"):
        drive_scenario(session, steps=5)
    session.settle_all()
    result = drive_scenario(session, steps=5, seed=1)
    assert result.granted + result.rejected + result.cancelled \
        + result.pending == 5


def test_context_manager_closes():
    with _session() as session:
        session.serve(_plain(session))
    assert session.closed


def test_audit_and_introspect_delegate():
    session = _session()
    session.serve_stream([_plain(session) for _ in range(10)])
    view = session.introspect()
    assert view.granted == 10
    report = session.audit()
    assert report.passed


def test_default_tree_is_owned():
    session = ControllerSession(
        SessionConfig.of("centralized", m=10, w=1, u=64))
    assert session.tree.size == 1
    record = session.serve(Request(RequestKind.ADD_LEAF,
                                   session.tree.root))
    assert record.granted and session.tree.size == 2
