"""The settlement outbox behind ControllerSession, AppSession and
FleetRouter.

One Hypothesis state machine per surface (sync session, event-driven
session, app, fleet) interleaves submit (fresh or repeated requests,
also past the admission window), ``Ticket.result()``, partial pulls
from a live ``drain()``, ``serve`` and ``close``, and checks them
against a sequential model:

* every admitted ticket is delivered exactly once across ``result()``
  and ``drain()`` (``result()`` after a delivery is a lookup of the
  same record);
* ``tally()`` counts exactly the settled verdicts (served and
  backpressured ones included), and ``in_flight`` the unsettled
  tickets;
* ``undelivered`` is what a full drain then yields;
* the verdicts are ones a sequential permit counter admits: the exact
  sequence in settlement order on the synchronous surfaces, the
  (M, W) multiset on the event-driven engine (its interleaving is the
  scheduler's, so only the projection is comparable).
"""

import gc
import random
import weakref
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro import (ControllerSession, IterationRecord, Request, RequestKind,
                   SessionConfig, SessionVerdict)
from repro.apps import make_app
from repro.core.requests import Outcome, OutcomeStatus
from repro.errors import ControllerError, ProtocolError
from repro.fleet import FleetConfig, FleetRouter
from repro.registry import CONTROLLER_FLAVORS
from repro.service import AppSpec
from repro.service.outbox import Outbox
from repro.workloads import build_random_tree

WINDOW = 3
GRANTED, REJECTED = SessionVerdict.GRANTED, SessionVerdict.REJECTED


def _plain(node):
    return Request(RequestKind.PLAIN, node)


class OutboxMachine(RuleBasedStateMachine):
    """Drive one surface; subclasses say how to build it and which
    verdicts the sequential model admits."""

    def build(self):
        raise NotImplementedError

    def check_verdicts(self, verdicts):
        """``verdicts``: the non-backpressure verdicts in settlement
        order."""
        raise NotImplementedError

    def undelivered(self):
        return self.surface.undelivered

    def __init__(self):
        super().__init__()
        self.surface, self.nodes = self.build()
        self.requests = []
        self.tickets = {}       # envelope id -> ticket
        self.served = []
        self.ids = set()        # envelope ids of tickets and served records
        self.delivered = {}     # envelope id -> first delivered record
        self.stream = None
        self.closed = False

    def _request(self, repeat, node):
        if repeat >= 0 and self.requests:
            return self.requests[repeat % len(self.requests)]
        request = _plain(self.nodes[node % len(self.nodes)])
        self.requests.append(request)
        return request

    def _deliver(self, record, drained):
        ticket = self.tickets.get(record.envelope_id)
        assert ticket is not None, "a served record reached drain"
        assert record.request is ticket.request
        first = self.delivered.setdefault(record.envelope_id, record)
        if drained:
            assert first is record and not ticket.claimed, \
                f"drain re-delivered envelope {record.envelope_id}"
        else:
            assert record is first  # a lookup, not a second delivery

    def _yield_from(self, items):
        for item in items:
            if not isinstance(item, IterationRecord):
                self._deliver(item, drained=True)

    # ------------------------------------------------------------------
    @rule(picks=st.lists(st.tuples(st.integers(-3, 30),
                                   st.integers(0, 10 ** 6)),
                         min_size=1, max_size=5))
    def submit(self, picks):
        for repeat, node in picks:
            self._submit(self._request(repeat, node))

    def _submit(self, request):
        if self.closed:
            with pytest.raises(ControllerError):
                self.surface.submit(request)
            return
        full = self.surface.in_flight >= WINDOW
        ticket = self.surface.submit(request)
        assert ticket.request is request
        assert ticket.envelope_id not in self.ids
        assert ticket.done == full  # backpressure settles at once
        self.ids.add(ticket.envelope_id)
        self.tickets[ticket.envelope_id] = ticket

    @precondition(lambda self: self.tickets)
    @rule(pick=st.integers(0, 10 ** 6))
    def result(self, pick):
        ticket = list(self.tickets.values())[pick % len(self.tickets)]
        if self.closed and not ticket.done:
            with pytest.raises(ControllerError):
                ticket.result()
            return
        record = ticket.result()
        assert ticket.claimed
        self._deliver(record, drained=False)

    @rule(k=st.integers(1, 4))
    def pull(self, k):
        if self.stream is None:
            self.stream = iter(self.surface.drain())
        for _ in range(k):
            try:
                item = next(self.stream)
            except StopIteration:
                self.stream = None
                return
            except ControllerError:
                assert self.closed
                self.stream = None
                return
            self._yield_from([item])

    @precondition(lambda self: not self.closed
                  and self.surface.in_flight == 0)
    @rule()
    def full_drain(self):
        expected = self.undelivered()
        items = list(self.surface.drain())
        assert len(items) == expected
        self._yield_from(items)

    @rule(repeat=st.integers(-3, 30), node=st.integers(0, 10 ** 6))
    def serve(self, repeat, node):
        request = self._request(repeat, node)
        if self.closed:
            with pytest.raises(ControllerError):
                self.surface.serve(request)
            return
        record = self.surface.serve(request)
        assert record.request is request
        assert record.envelope_id not in self.ids
        self.ids.add(record.envelope_id)
        self.served.append(record)

    @precondition(lambda self: not self.closed)
    @rule(dice=st.integers(0, 19))
    def close(self, dice):
        if dice == 0:  # rare: closing ends the interesting part
            self.surface.close()
            self.closed = True

    # ------------------------------------------------------------------
    @invariant()
    def tally_and_in_flight_match_the_settled_records(self):
        settled = [t._record for t in self.tickets.values() if t.done]
        for record in settled:
            assert record.request is self.tickets[record.envelope_id].request
        verdicts = Counter(r.verdict.value for r in settled + self.served)
        tally = {key: value for key, value in self.surface.tally().items()
                 if value}
        assert tally == dict(verdicts)
        assert self.surface.in_flight == sum(
            1 for t in self.tickets.values() if not t.done)

    def teardown(self):
        if not self.closed:
            self._yield_from(self.surface.drain())
            for envelope_id, ticket in self.tickets.items():
                assert ticket.done and envelope_id in self.delivered
            self.surface.close()
        settled = [t._record for t in self.tickets.values() if t.done]
        settled.extend(self.served)
        settled.sort(key=lambda record: record.settle_tick)
        self.check_verdicts([record.verdict for record in settled
                             if not record.backpressured])


class _CounterModel:
    """Sequential permit counter with M permits and no waste: the first
    M requests in settlement order are granted, the rest rejected."""

    M = 6

    def check_verdicts(self, verdicts):
        granted = min(self.M, len(verdicts))
        assert verdicts == [GRANTED] * granted + [REJECTED] * (
            len(verdicts) - granted)


class SyncSessionMachine(_CounterModel, OutboxMachine):
    def build(self):
        session = ControllerSession(
            SessionConfig.of("trivial", m=self.M, w=0, u=200,
                             max_in_flight=WINDOW),
            tree=build_random_tree(8, seed=1))
        return session, list(session.tree.nodes())


class EventSessionMachine(OutboxMachine):
    M, W = 8, 3

    def build(self):
        session = ControllerSession(
            SessionConfig.of("distributed", m=self.M, w=self.W, u=200,
                             max_in_flight=WINDOW, delay_model="uniform",
                             seed=3),
            tree=build_random_tree(10, seed=2))
        return session, list(session.tree.nodes())

    def check_verdicts(self, verdicts):
        counts = Counter(verdicts)
        assert set(counts) <= {GRANTED, REJECTED}
        assert counts[GRANTED] <= self.M
        if counts[REJECTED]:
            assert counts[GRANTED] >= self.M - self.W


class AppMachine(OutboxMachine):
    def build(self):
        app = make_app(AppSpec("size_estimation", max_in_flight=WINDOW),
                       tree=build_random_tree(6, seed=4))
        return app, list(app.tree.nodes())

    def undelivered(self):
        return self.surface._outbox.undelivered

    def check_verdicts(self, verdicts):
        # Rollovers consume every PENDING: the app never rejects.
        assert verdicts == [GRANTED] * len(verdicts)


class FleetMachine(_CounterModel, OutboxMachine):
    def build(self):
        fleet = FleetRouter(FleetConfig.of(
            shards=2, m_total=self.M, w_total=2, u=200, tranche=2,
            max_in_flight=WINDOW))
        nodes = [node for shard in fleet.shards
                 for node in shard.tree.nodes()]
        return fleet, nodes


_SETTINGS = settings(max_examples=50, stateful_step_count=30,
                     deadline=None)
TestSyncSessionOutbox = SyncSessionMachine.TestCase
TestSyncSessionOutbox.settings = _SETTINGS
TestEventSessionOutbox = EventSessionMachine.TestCase
TestEventSessionOutbox.settings = _SETTINGS
TestAppOutbox = AppMachine.TestCase
TestAppOutbox.settings = _SETTINGS
TestFleetOutbox = FleetMachine.TestCase
TestFleetOutbox.settings = _SETTINGS


# ----------------------------------------------------------------------
# Regressions the outbox fixed.
# ----------------------------------------------------------------------
def test_ticket_only_app_keeps_claimed_records_compacted():
    """An app consumed only through ``Ticket.result()`` keeps
    O(unclaimed) queued entries (its iteration boundaries), not every
    claimed record it ever settled."""
    app = make_app(AppSpec("size_estimation"))
    for _ in range(3000):
        app.submit(Request(RequestKind.ADD_LEAF, app.tree.root)).result()
    outbox = app._outbox
    unclaimed = outbox.undelivered
    assert unclaimed == app.iterations_run  # the boundaries, undrained
    assert len(outbox._ready) < 64 + 2 * unclaimed


def _session(flavor):
    return ControllerSession(
        SessionConfig.of(flavor, m=12, w=3, u=120, delay_model="uniform"),
        tree=build_random_tree(60, seed=3))


@pytest.mark.parametrize("flavor", CONTROLLER_FLAVORS)
def test_every_flavour_pairs_tickets_with_their_own_outcomes(flavor):
    session = _session(flavor)
    nodes = list(session.tree.nodes())
    rng = random.Random(1)
    tickets = session.submit_many(
        [_plain(rng.choice(nodes)) for _ in range(25)])
    session.settle_all()
    for ticket in tickets:
        record = ticket.result()
        assert record.envelope_id == ticket.envelope_id
        assert record.outcome.request is ticket.request


#: Every surface, with the tree its requests are built on.
SURFACES = {
    "session": lambda: ControllerSession(
        SessionConfig.of("iterated", m=50, w=5, u=100)),
    "app-terminating": lambda: make_app(AppSpec("size_estimation")),
    "app-distributed": lambda: make_app(
        AppSpec("size_estimation", flavor="distributed")),
    "fleet": lambda: FleetRouter(
        FleetConfig.of(shards=2, m_total=50, w_total=2, u=100)),
    # A tranche above the default: fundings exceed the root's
    # shortfall, through the same hook back into the router.
    "fleet-funded": lambda: FleetRouter(
        FleetConfig.of(shards=2, m_total=50, w_total=2, u=100, tranche=2)),
}


def _tree_of(surface):
    if isinstance(surface, FleetRouter):
        return surface.shards[0].tree
    return surface.tree


@pytest.mark.parametrize("name", SURFACES)
def test_one_request_queued_twice_settles_both_tickets(name):
    surface = SURFACES[name]()
    request = _plain(_tree_of(surface).root)
    first, second = surface.submit(request), surface.submit(request)
    records = [record for record in surface.drain()
               if not isinstance(record, IterationRecord)]
    assert sorted(r.envelope_id for r in records) == sorted(
        [first.envelope_id, second.envelope_id])
    for ticket in (first, second):
        assert ticket.done and ticket.result().request is request
        assert ticket.result().granted
    surface.close()


@pytest.mark.parametrize("name", SURFACES)
def test_a_surface_is_freed_by_reference_counting(name):
    """No surface -> outbox -> bound-method cycle: a served-on surface
    dies with its last reference, not at the next cyclic collection."""
    surface = SURFACES[name]()
    surface.serve(_plain(_tree_of(surface).root))
    ref = weakref.ref(surface)
    gc.disable()
    try:
        del surface
        assert ref() is None
    finally:
        gc.enable()


def test_a_funded_fleet_is_freed_by_reference_counting():
    """The funding hook holds its router weakly, so no router -> shard
    -> session -> hook cycle: after a serve that funded a live session,
    the router, every shard and every shard session die with the last
    reference."""
    fleet = SURFACES["fleet-funded"]()
    shard = fleet.shards[0]
    first = shard.live_m
    for _ in range(first + 1):
        fleet.serve(_plain(shard.tree.root))
    assert shard.sessions_spawned == 1 and shard.live_m > first  # funded
    refs = [weakref.ref(fleet)]
    for member in fleet.shards:
        refs += [weakref.ref(member), weakref.ref(member.session)]
    gc.disable()
    try:
        del fleet, shard, member
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_settling_a_ticket_with_another_requests_outcome_raises():
    outbox = Outbox()
    mine, theirs = _plain(None), _plain(None)
    ticket = outbox.ticket(mine, lambda: False)
    with pytest.raises(ProtocolError, match="outcome of request"):
        outbox.settle(ticket, Outcome(OutcomeStatus.GRANTED, theirs))
    outbox.settle(ticket, Outcome(OutcomeStatus.GRANTED, mine))
    assert outbox.pop() is ticket.result()
