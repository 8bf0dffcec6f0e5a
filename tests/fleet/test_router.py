"""FleetRouter behaviour: placement, routing, rebalancing, lifecycle."""

import math
import random

import pytest

from repro.core.requests import OutcomeStatus, Request, RequestKind
from repro.errors import (ConfigError, ControllerError, FleetError,
                          ProtocolError)
from repro.fleet import FleetConfig, FleetRouter
from repro.service import ControllerSession, SessionConfig
from repro.service.config import ControllerSpec
from repro.workloads.catalogue import get_scenario
from repro.tree.dynamic_tree import DynamicTree
from repro.workloads.scenarios import (TreeMirror, build_path,
                                       build_random_tree, request_spec)

pytestmark = pytest.mark.timeout(120)


def drive(fleet, steps, clients=8, seed=0, kinds=(RequestKind.ADD_LEAF,)):
    """Serve ``steps`` random feasible requests via origin routing."""
    rng = random.Random(seed)
    for _ in range(steps):
        client = f"client-{rng.randrange(clients)}"
        tree = fleet.tree_of(client)
        node = rng.choice(list(tree.nodes()))
        fleet.serve(Request(rng.choice(kinds), node), origin=client)


# ----------------------------------------------------------------------
# Placement and routing.
# ----------------------------------------------------------------------
def test_placement_is_deterministic_and_sticky():
    config = FleetConfig.of(shards=4, m_total=400, w_total=8, u=1024)
    fleet = FleetRouter(config)
    twin = FleetRouter(FleetConfig.of(shards=4, m_total=400, w_total=8,
                                      u=1024))
    for i in range(50):
        origin = f"user-{i}"
        index = fleet.place(origin)
        assert index == fleet.place(origin)          # sticky
        assert index == fleet.ring_place(origin)     # ring answer
        assert index == twin.place(origin)           # cross-instance
    assert len(fleet.placements) == 50
    # The ring spreads origins over more than one shard.
    assert len(set(fleet.placements.values())) > 1
    fleet.close(), twin.close()


def test_node_ownership_routes_without_origin():
    config = FleetConfig.of(shards=2, m_total=100, w_total=4, u=512)
    fleet = FleetRouter(config)
    for shard in fleet.shards:
        record = fleet.serve(Request(RequestKind.ADD_LEAF,
                                     shard.tree.root))
        assert record.outcome.granted
        # The new leaf is registered to the same shard.
        leaf = record.outcome.new_node
        assert fleet.owner_of(leaf) == shard.index
    fleet.close()


def test_foreign_node_and_cross_shard_origin_are_rejected_eagerly():
    config = FleetConfig.of(shards=2, m_total=100, w_total=4, u=512)
    fleet = FleetRouter(config)
    foreign = DynamicTree()
    with pytest.raises(FleetError, match="not owned"):
        fleet.serve(Request(RequestKind.ADD_LEAF, foreign.root))
    # An origin placed on shard A cannot target shard B's tree.
    origin = "pinned"
    index = fleet.place(origin)
    other = fleet.shards[1 - index].tree
    with pytest.raises(FleetError, match="places on shard"):
        fleet.serve(Request(RequestKind.ADD_LEAF, other.root),
                    origin=origin)
    fleet.close()


def test_removed_node_tombstone_routes_to_cancel():
    config = FleetConfig.of(shards=2, m_total=100, w_total=4, u=512)
    fleet = FleetRouter(config)
    shard = fleet.shards[0]
    record = fleet.serve(Request(RequestKind.ADD_LEAF, shard.tree.root))
    leaf = record.outcome.new_node
    assert fleet.serve(Request(RequestKind.REMOVE_LEAF,
                               leaf)).outcome.granted
    # The node is gone, but it still names its tree, which routes the
    # request to the owning engine, which answers CANCELLED.
    assert leaf not in shard.tree
    assert fleet.owner_of(leaf) == shard.index
    late = fleet.serve(Request(RequestKind.ADD_LEAF, leaf))
    assert late.outcome.status.value == "cancelled"
    fleet.close()


def test_a_tree_given_to_two_shards_is_a_config_error():
    """Routing reads a node's tree, so each shard needs its own: one
    tree on two shards is rejected before any shard is built on it."""
    tree = DynamicTree()
    config = FleetConfig.of(shards=2, m_total=40, w_total=4, u=200,
                            seed=0)
    names = [spec.name for spec in config.shards]
    with pytest.raises(ConfigError, match=f"{names[0]!r} and {names[1]!r}"):
        FleetRouter(config, trees=[tree, tree])
    assert not tree._listeners and tree.store_slot_owner is None


# ----------------------------------------------------------------------
# Budget lifecycle: rollover, transfers, reject wave.
# ----------------------------------------------------------------------
def test_tranche_rollover_borrows_from_siblings():
    config = FleetConfig.of(shards=2, m_total=60, w_total=8, u=2048,
                            tranche=10, weights=[3, 1])
    fleet = FleetRouter(config)
    drive(fleet, 200, seed=3)
    tally = fleet.tally()
    assert tally["granted"] == 60            # the full global budget
    assert tally["rejected"] == 140          # then the reject wave
    assert fleet.reject_wave
    assert len(fleet.ledger) >= 1            # cross-shard transfers flowed
    assert fleet.audit().passed
    # Ledger double-entry: per-shard books match the ledger columns.
    for shard in fleet.shards:
        assert shard.inbound == fleet.ledger.inbound(shard.name)
        assert shard.outbound == fleet.ledger.outbound(shard.name)
    fleet.close()


def test_fleet_waste_is_zero_at_reject_wave():
    """The fleet rejects only once the global budget is fully granted:
    clawback recovers every unspent permit before the wave starts."""
    config = FleetConfig.of(shards=3, m_total=45, w_total=9, u=2048,
                            tranche=6)
    for seed in (0, 1):
        fleet = FleetRouter(config)
        drive(fleet, 150, seed=seed)
        assert fleet.granted_total == config.m_total
        assert fleet.tally()["rejected"] > 0
        report = fleet.audit()
        assert report.passed, report.violations[:3]
        fleet.close()


@pytest.mark.parametrize("m_total,tranche", [(1000, 10), (999, 3),
                                             (64, 1), (5000, 7)])
def test_stages_halve_down_to_the_tranche(m_total, tranche):
    """Observation 3.4: each stage takes half of what the previous ones
    left, so one shard spends its slice in O(log(M/tranche)) sessions
    (fixed tranche-sized sessions took M/tranche + 1)."""
    config = FleetConfig.of(shards=1, m_total=m_total, w_total=4, u=4096,
                            tranche=tranche)
    with FleetRouter(config) as fleet:
        shard = fleet.shards[0]
        for _ in range(m_total + 1):
            fleet.serve(Request(RequestKind.PLAIN, shard.tree.root))
        assert fleet.tally()["granted"] == m_total
        assert fleet.tally()["rejected"] == 1 and fleet.reject_wave
        bound = math.ceil(math.log2(shard.allocation / tranche)) + 2
        assert shard.sessions_spawned <= bound
        assert fleet.audit().passed


def test_a_live_session_is_funded_in_halving_stages():
    """A shard tops its live session up instead of terminating it: each
    funding moves half the reserve (never less than ``tranche``, never
    more than the reserve) into the session's M, so one funded session
    and the mop-up spend the whole slice."""
    config = FleetConfig.of(shards=1, m_total=1000, w_total=4, u=4096,
                            tranche=10)
    with FleetRouter(config) as fleet:
        shard = fleet.shards[0]
        budgets = []
        for _ in range(config.m_total):
            fleet.serve(Request(RequestKind.PLAIN, shard.tree.root))
            view = shard.session.controller.introspect()
            if not budgets or view.m != budgets[-1]:
                budgets.append(view.m)
        assert budgets == [500, 750, 875, 937, 968, 984, 994, 1000]
        assert shard.sessions_spawned == 1
        assert shard.counters.reset_moves == 0
        fleet.serve(Request(RequestKind.PLAIN, shard.tree.root))
        assert fleet.reject_wave and shard.sessions_spawned == 2
        assert fleet.audit().passed


def test_a_retry_that_moves_no_permit_raises(monkeypatch):
    """With borrowing broken, a shard past its slice used to roll its
    session over forever while siblings still held permits; now the
    retry names the shard.  The rollover count is bounded here so a
    regression fails instead of hanging the suite."""
    monkeypatch.setattr(FleetRouter, "_borrow",
                        lambda self, shard, need: None)
    rollover = FleetRouter._rollover
    rollovers = []

    def bounded(self, shard):
        rollovers.append(shard.index)
        assert len(rollovers) < 100, "the rollover loop never ends"
        rollover(self, shard)

    monkeypatch.setattr(FleetRouter, "_rollover", bounded)
    config = FleetConfig.of(shards=2, m_total=40, w_total=4, u=1024,
                            tranche=10, weights=[1, 3])
    with FleetRouter(config) as fleet:
        shard = fleet.shards[0]
        with pytest.raises(ProtocolError, match="shard-0"):
            for _ in range(20):
                fleet.serve(Request(RequestKind.PLAIN, shard.tree.root))
        assert fleet.tally()["granted"] == shard.allocation == 10


def test_overdrawing_lifecycle_steps_raise_naming_the_shard():
    """A funding past the reserve, or a root loan past the root
    storage, raises before it touches the books."""
    config = FleetConfig.of(shards=2, m_total=40, w_total=4, u=1024,
                            tranche=10)
    with FleetRouter(config) as fleet:
        shard = fleet.shards[1]
        with pytest.raises(ProtocolError, match="shard-1.*reserve"):
            shard.top_up(shard.reserve + 1)
        with pytest.raises(ProtocolError, match="shard-1.*root storage"):
            shard.lend_root(shard.root_storage + 1)
        assert fleet.audit().passed
        assert shard.reserve == shard.root_storage == 10


def test_a_sibling_lends_at_most_half_its_spare_at_a_time():
    """Lending halves like the stages: every loan is at most half of
    what the lender still holds (rounded up), so a sibling keeps budget
    for its own next stages; loans go on until the whole global budget
    is granted.  The idle sibling's spare sits at its live session's
    root, so it lends from there in place: it is never drained and the
    busy shard's one session is funded to the end."""
    config = FleetConfig.of(shards=2, m_total=200, w_total=4, u=1024,
                            tranche=10)
    with FleetRouter(config) as fleet:
        idle, busy = fleet.shards
        for _ in range(201):
            fleet.serve(Request(RequestKind.PLAIN, busy.tree.root))
            # The first loan empties the idle reserve; a root loan then
            # passes straight through it, leaving nothing behind.
            assert idle.reserve == 0 or not fleet.ledger.entries
        assert fleet.tally()["granted"] == 200 and fleet.reject_wave
        spare = idle.allocation  # the idle shard never grants
        for entry in fleet.ledger.entries:
            assert entry.donor == idle.name
            assert entry.permits <= (spare + 1) // 2, entry
            spare -= entry.permits
        assert spare == 0
        assert "reclaim" not in {entry.kind
                                 for entry in fleet.ledger.entries}
        assert idle.sessions_spawned == 1
        assert busy.sessions_spawned <= 2


def _skewed_fleet_run():
    """Four shards over random trees of 40; 32 sticky clients place
    unevenly, so one shard carries about half the traffic and borrows
    most of its siblings' slices; 2,400 requests against a budget of
    2,000 end in the reject wave."""
    trees = [build_random_tree(40, seed=5 + index) for index in range(4)]
    fleet = FleetRouter(FleetConfig.of(
        shards=4, m_total=2000, w_total=16, u=4 * (2400 + 160),
        tranche=10, seed=5), trees=trees)
    rng = random.Random(5)
    for _ in range(2400):
        client = f"client-{rng.randrange(32)}"
        node = rng.choice(list(fleet.tree_of(client).nodes()))
        kind = rng.choice((RequestKind.ADD_LEAF, RequestKind.PLAIN))
        fleet.serve(Request(kind, node), origin=client)
    assert fleet.granted_total == 2000 and fleet.reject_wave
    assert fleet.audit().passed
    books = [shard.snapshot() for shard in fleet.shards]
    fleet.close()
    return books


def test_halving_halves_the_counted_reset_cost():
    """Fixed tranche-sized sessions charged 85,122 reset moves on this
    stream (35.5 per request); the halving stages and loans must charge
    at most half.  The counts are exact, so two runs agree move for
    move."""
    books = _skewed_fleet_run()
    assert books == _skewed_fleet_run()
    reset_moves = sum(shard["moves"]["reset_moves"] for shard in books)
    assert reset_moves <= 85_122 / 2


def test_reclaim_transfers_drain_live_siblings():
    """One request at the foot of a path parks permits in the static
    pools below shard 0's root, where no root loan reaches.  All later
    load lands on shard 1, which borrows in halving reserve loans until
    shard 0's root storage is spent; its last permit comes from
    draining shard 0's live session."""
    parked = build_path(100)
    config = FleetConfig.of(shards=2, m_total=40, w_total=1024, u=512)
    fleet = FleetRouter(config, trees=[parked, DynamicTree()])
    foot = next(node for node in parked.nodes() if node.is_leaf)
    assert fleet.serve(Request(RequestKind.PLAIN, foot)).outcome.granted
    starved = fleet.shards[1]
    for _ in range(config.m_total - 1):
        fleet.serve(Request(RequestKind.ADD_LEAF, starved.tree.root))
    assert [(entry.kind, entry.permits)
            for entry in fleet.ledger.entries] == [
        ("reserve", 10), ("reserve", 5), ("reserve", 2), ("reserve", 1),
        ("reclaim", 1)]
    assert starved.granted == config.m_total - 1
    assert fleet.granted_total == config.m_total
    assert fleet.shards[0].session is None  # drained, not yet refilled
    assert fleet.audit().passed
    fleet.close()


def test_zero_allocation_shard_still_serves_by_borrowing():
    config = FleetConfig.of(shards=2, m_total=1, w_total=2, u=512,
                            weights=[1, 1000])
    fleet = FleetRouter(config)
    poor = min(fleet.shards, key=lambda s: s.allocation)
    assert poor.allocation == 0
    record = fleet.serve(Request(RequestKind.ADD_LEAF, poor.tree.root))
    assert record.outcome.granted
    assert fleet.audit().passed
    fleet.close()


# ----------------------------------------------------------------------
# Session-surface parity.
# ----------------------------------------------------------------------
def _one_shard_beside_plain(name):
    """A 1-shard fleet and a plain terminating session with the same
    budget, each on its own copy of ``name``'s tree (scale 0.25, tree
    seed 11), and the stream (seed 12) as request specs."""
    spec = get_scenario(name).scaled(0.25)
    fleet_tree = spec.build_tree(seed=11)
    stream = [request_spec(r) for r in spec.stream(fleet_tree, seed=12)]
    fleet = FleetRouter(
        FleetConfig.of(shards=1, m_total=spec.m, w_total=spec.w, u=spec.u),
        trees=[fleet_tree])
    plain = ControllerSession(
        SessionConfig(controller=ControllerSpec(
            "terminating", m=spec.m, w=spec.w, u=spec.u)),
        tree=spec.build_tree(seed=11))
    return spec, stream, fleet, plain


def test_single_shard_matches_plain_session_bit_for_bit():
    _spec, stream, fleet, plain = _one_shard_beside_plain("mixed_flood")
    fleet_records = fleet.serve_stream(
        TreeMirror(fleet.shards[0].tree).requests(stream))
    plain_records = [plain.serve(r)
                     for r in TreeMirror(plain.tree).requests(stream)]

    assert fleet.tally() == plain.tally()
    assert (fleet.shards[0].counters.snapshot()
            == plain.controller.counters.snapshot())
    assert ([r.outcome.status for r in fleet_records]
            == [r.outcome.status for r in plain_records])
    assert fleet.audit().passed
    fleet.close(), plain.close()


def test_single_shard_equivalence_holds_only_inside_the_budget():
    """Past the budget the two part ways.  Up to the first exhaustion
    both grant every request with equal move counters; from then on the
    plain session has terminated and answers PENDING (Observation 2.1
    leaves the request for a next iteration), while the fleet, with
    nothing left to fund, answers REJECTED (its reject wave)."""
    spec, stream, fleet, plain = _one_shard_beside_plain("near_exhaustion")
    fleet_mirror = TreeMirror(fleet.shards[0].tree)
    plain_mirror = TreeMirror(plain.tree)
    fleet_counters = fleet.shards[0].counters
    split = []
    for item in stream:
        fleet_status = fleet.serve(fleet_mirror.request(item)).outcome.status
        plain_status = plain.serve(plain_mirror.request(item)).outcome.status
        if not split and plain_status is OutcomeStatus.GRANTED:
            assert fleet_status is OutcomeStatus.GRANTED
            assert (fleet_counters.snapshot()
                    == plain.controller.counters.snapshot())
        else:
            split.append((fleet_status, plain_status))
    assert len(stream) - len(split) == spec.m == 65
    assert split == [(OutcomeStatus.REJECTED, OutcomeStatus.PENDING)] * 60
    assert fleet.tally()["rejected"] == plain.tally()["pending"] == 60
    assert fleet.audit().passed
    fleet.close(), plain.close()


def test_submit_drain_matches_serve_and_is_exactly_once():
    def build():
        return FleetRouter(FleetConfig.of(shards=2, m_total=80, w_total=4,
                                          u=1024))

    rng = random.Random(9)
    plan = [(f"c{rng.randrange(5)}", rng.random()) for _ in range(60)]

    served = build()
    for client, pick in plan:
        tree = served.tree_of(client)
        nodes = list(tree.nodes())
        served.serve(Request(RequestKind.ADD_LEAF,
                             nodes[int(pick * len(nodes))]), origin=client)

    queued = build()
    tickets = []
    for client, pick in plan:
        tree = queued.tree_of(client)
        nodes = list(tree.nodes())
        tickets.append(queued.submit(
            Request(RequestKind.ADD_LEAF, nodes[int(pick * len(nodes))]),
            origin=client))
    drained = list(queued.drain())
    assert len(drained) == len(plan)
    assert queued.tally() == served.tally()
    # Exactly-once: drained records stay readable through tickets, and
    # a second drain yields nothing.
    assert [t.result().envelope_id for t in tickets] == [
        r.envelope_id for r in drained]
    assert list(queued.drain()) == []
    served.close(), queued.close()


def test_backpressure_at_the_fleet_window():
    config = FleetConfig.of(shards=2, m_total=50, w_total=4, u=512,
                            max_in_flight=4)
    fleet = FleetRouter(config)
    root = fleet.shards[0].tree.root
    tickets = [fleet.submit(Request(RequestKind.PLAIN, root))
               for _ in range(6)]
    verdicts = [t.result().verdict.value for t in tickets]
    assert verdicts.count("backpressure") == 2
    assert fleet.backpressured == 2
    fleet.close()


def test_close_is_idempotent_and_refuses_new_work():
    fleet = FleetRouter(FleetConfig.of(shards=2, m_total=10, w_total=2,
                                       u=64))
    root = fleet.shards[0].tree.root
    with fleet:
        fleet.serve(Request(RequestKind.PLAIN, root))
    fleet.close()  # idempotent
    assert fleet.closed
    with pytest.raises(ControllerError, match="closed"):
        fleet.serve(Request(RequestKind.PLAIN, root))
    with pytest.raises(ControllerError, match="closed"):
        fleet.submit(Request(RequestKind.PLAIN, root))


def test_gateway_fronts_a_fleet_unchanged():
    from repro.gateway import Gateway
    from repro.metrics.invariants import audit_gateway
    fleet = FleetRouter(FleetConfig.of(shards=2, m_total=200, w_total=4,
                                       u=1024))
    gateway = Gateway(fleet)
    rng = random.Random(21)
    requests = []
    for i in range(40):
        tree = fleet.shards[i % 2].tree
        requests.append(Request(RequestKind.ADD_LEAF,
                                rng.choice(list(tree.nodes()))))
    tickets = gateway.submit_many(requests)
    gateway.run_until_idle()
    assert all(t.result().record.verdict.value == "granted"
               for t in tickets)
    report = audit_gateway(gateway)
    assert report.passed, report.violations[:3]
    gateway.close()
