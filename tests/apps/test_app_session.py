"""AppSession machinery: tickets, drain boundaries, admission,
lifecycle, and the registry/protocol contract."""

import pytest

from repro import (
    AppProtocol,
    AppSpec,
    IterationRecord,
    OutcomeRecord,
    Request,
    RequestKind,
    make_app,
)
from repro.apps import APP_REGISTRY, AppSession, app_names
from repro.errors import ControllerError
from repro.service import APP_NAMES
from repro.service.envelopes import SessionVerdict
from repro.workloads import build_random_tree


def _requests(tree, count, kind=RequestKind.ADD_LEAF):
    return [Request(kind, tree.root) for _ in range(count)]


def test_registry_matches_app_names():
    assert tuple(APP_REGISTRY) == APP_NAMES == app_names()
    for name, cls in APP_REGISTRY.items():
        assert cls.name == name
        assert issubclass(cls, AppSession)


@pytest.mark.parametrize("name", APP_NAMES)
def test_every_app_constructible_and_protocol_conformant(name):
    params = {"total": 1 << 16} if name == "majority_commit" else {}
    app = make_app(AppSpec(name, params=params),
                   tree=build_random_tree(12, seed=1))
    assert isinstance(app, AppProtocol)
    record = app.serve(Request(RequestKind.ADD_LEAF, app.tree.root))
    assert record.granted
    view = app.app_view()
    assert view.name == name and view.iterations == app.iterations_run
    assert app.audit().passed
    app.close()


def test_make_app_requires_matching_class():
    spec = AppSpec("size_estimation")
    with pytest.raises(ControllerError, match="make_app"):
        APP_REGISTRY["name_assignment"](spec)


def test_drain_interleaves_boundaries_with_records():
    tree = build_random_tree(10, seed=2)
    app = make_app(AppSpec("size_estimation"), tree=tree)
    tickets = app.submit_many(_requests(tree, 30))
    stream = app.settle_all()
    boundaries = [r for r in stream if isinstance(r, IterationRecord)]
    records = [r for r in stream if isinstance(r, OutcomeRecord)]
    # 30 adds through iterations budgeted ~n/2 force >= 2 rollovers.
    assert len(boundaries) == app.iterations_run >= 3
    assert [b.index for b in boundaries] == list(
        range(1, app.iterations_run + 1))
    assert all(b.size >= 1 and b.m >= 1 for b in boundaries)
    # The construction boundary leads the stream.
    assert isinstance(stream[0], IterationRecord)
    assert len(records) == 30
    # Every ticket settled with a *final* verdict; PENDING never leaks.
    for ticket in tickets:
        assert ticket.result().verdict is SessionVerdict.GRANTED
    app.close()


def test_exactly_once_across_ticket_and_drain():
    tree = build_random_tree(8, seed=3)
    app = make_app(AppSpec("size_estimation"), tree=tree)
    tickets = app.submit_many(_requests(tree, 4))
    first = tickets[0].result()        # claimed via the ticket
    stream = app.settle_all()
    records = [r for r in stream if isinstance(r, OutcomeRecord)]
    assert first not in records        # not re-yielded
    assert len(records) == 3
    # A drained record stays readable through its ticket (lookup).
    assert tickets[1].result() in records
    app.close()


def test_app_level_backpressure_never_reaches_the_engine():
    tree = build_random_tree(6, seed=4)
    app = make_app(AppSpec("size_estimation", max_in_flight=2), tree=tree)
    tickets = app.submit_many(_requests(tree, 5))
    # The first two queue; the rest settle immediately as BACKPRESSURE.
    assert [t.done for t in tickets] == [False, False, True, True, True]
    for ticket in tickets[2:]:
        record = ticket.result()
        assert record.backpressured and record.outcome is None
    granted = [t.result() for t in tickets[:2]]
    assert all(r.granted for r in granted)
    assert app.tally()["backpressure"] == 3
    assert app.granted_total == 2
    app.close()


def test_ticket_path_matches_serve_loop():
    """The pump's batched rollover (requeue PENDING at the front)
    settles what a serve loop does."""
    tree_a = build_random_tree(10, seed=5)
    tree_b = build_random_tree(10, seed=5)
    app_a = make_app(AppSpec("size_estimation"), tree=tree_a)
    app_b = make_app(AppSpec("size_estimation"), tree=tree_b)
    records_a = [app_a.serve(r) for r in _requests(tree_a, 25)]
    tickets_b = app_b.submit_many(_requests(tree_b, 25))
    app_b.settle_all()
    assert ([r.outcome.status for r in records_a]
            == [t.result().outcome.status for t in tickets_b])
    assert app_a.iterations_run == app_b.iterations_run >= 2
    assert app_a.estimate == app_b.estimate
    assert app_a.counters.snapshot() == app_b.counters.snapshot()
    app_a.close(), app_b.close()


def test_event_driven_serve_stream_bypasses_admission():
    """A served stream is never backpressured: it is a ``serve``
    loop, and a served request is never queued."""
    tree = build_random_tree(8, seed=12)
    app = make_app(AppSpec("size_estimation", flavor="distributed",
                           max_in_flight=4), tree=tree)
    records = app.serve_stream(_requests(tree, 15))
    assert len(records) == 15
    assert all(r.outcome is not None for r in records)
    assert app.tally()["backpressure"] == 0
    assert app.audit().passed
    app.close()


def test_fault_stats_accumulate_across_rollovers():
    """Each iteration wires a fresh injector; the app's fault_stats
    must be the whole-run total, not the last iteration's."""
    tree = build_random_tree(10, seed=13)
    app = make_app(AppSpec("size_estimation", flavor="distributed",
                           faults="stall=0.5", seed=2), tree=tree)
    # Target non-root nodes: agents must hop, and hops draw stalls.
    nodes = [n for n in tree.nodes() if not n.is_root]
    app.submit_many([Request(RequestKind.ADD_LEAF, nodes[i % len(nodes)])
                     for i in range(24)])
    app.settle_all()
    assert app.iterations_run >= 2
    banked = dict(app._banked_fault_stats)
    assert banked.get("stalls", 0) > 0  # pre-rollover faults retained
    total = app.fault_stats
    assert total["stalls"] >= banked["stalls"]
    app.close()


def test_pump_respects_the_inner_session_window():
    """An app-level queue larger than the engine window drains in
    window-sized rounds; the engine never answers backpressure."""
    tree = build_random_tree(8, seed=14)
    app = make_app(AppSpec("size_estimation", max_in_flight=1 << 30),
                   tree=tree)
    # Shrink the live engine window to force multi-round pumping.
    object.__setattr__(app.session.config, "max_in_flight", 5)
    tickets = app.submit_many(_requests(tree, 17))
    records = [r for r in app.settle_all()
               if isinstance(r, OutcomeRecord)]
    assert len(records) == 17
    assert all(r.outcome is not None for r in records)
    assert app.tally()["backpressure"] == 0
    assert app.iterations_run >= 2
    # Settlement order is submission order: a PENDING ticket rolled
    # over mid-queue is requeued ahead of the requests behind it.
    assert [r.envelope_id for r in records] == [
        t.envelope_id for t in tickets]
    app.close()


def test_closed_app_refuses_everything():
    app = make_app(AppSpec("size_estimation"),
                   tree=build_random_tree(6, seed=6))
    app.close()
    assert app.closed
    with pytest.raises(ControllerError, match="closed"):
        app.submit(Request(RequestKind.PLAIN, app.tree.root))
    with pytest.raises(ControllerError, match="closed"):
        app.serve(Request(RequestKind.PLAIN, app.tree.root))
    with pytest.raises(ControllerError, match="closed"):
        app.serve_stream([])
    app.close()  # idempotent


def test_context_manager_closes():
    with make_app(AppSpec("size_estimation"),
                  tree=build_random_tree(6, seed=7)) as app:
        app.serve(Request(RequestKind.ADD_LEAF, app.tree.root))
    assert app.closed


def test_rollover_conserves_grants_across_iterations():
    tree = build_random_tree(9, seed=8)
    app = make_app(AppSpec("size_estimation"), tree=tree)
    for request in _requests(tree, 40):
        app.serve(request)
    assert app.iterations_run >= 3
    view = app.app_view()
    live = app.session.controller.granted
    assert view.grants_banked + live == app.granted_total == 40
    assert app.audit().passed
    app.close()


def test_event_driven_rollover_and_boundaries():
    tree = build_random_tree(10, seed=9)
    app = make_app(AppSpec("size_estimation", flavor="distributed",
                           schedule_policy="random", seed=4), tree=tree)
    app.submit_many(_requests(tree, 24))
    stream = app.settle_all()
    boundaries = [r for r in stream if isinstance(r, IterationRecord)]
    records = [r for r in stream if isinstance(r, OutcomeRecord)]
    assert len(records) == 24
    assert all(r.outcome is not None for r in records)
    assert all(r.verdict is not SessionVerdict.PENDING for r in records)
    assert len(boundaries) == app.iterations_run >= 2
    assert app.audit().passed
    app.close()
