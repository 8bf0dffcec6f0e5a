"""Tests for the centralized (M,W)-Controller (Section 3)."""

import pytest

from repro.errors import ControllerError
from repro import (
    CentralizedController,
    DynamicTree,
    OutcomeStatus,
    Request,
    RequestKind,
)
from repro.tree import paths
from repro.workloads import build_path, build_random_tree
from tests.drivers import drive_handle, store_map


def make_controller(tree, m=100, w=20, u=1000, **kwargs):
    return CentralizedController(tree, m=m, w=w, u=u, **kwargs)


def plain(node):
    return Request(RequestKind.PLAIN, node)


# ----------------------------------------------------------------------
# Basics.
# ----------------------------------------------------------------------
def test_first_request_is_granted():
    tree = DynamicTree()
    controller = make_controller(tree)
    outcome = controller.handle(plain(tree.root))
    assert outcome.granted
    assert controller.granted == 1


def test_grant_performs_topological_change():
    tree = DynamicTree()
    controller = make_controller(tree)
    outcome = controller.handle(Request(RequestKind.ADD_LEAF, tree.root))
    assert outcome.granted
    assert outcome.new_node is not None
    assert outcome.new_node.parent is tree.root
    assert tree.size == 2


def test_all_four_topological_kinds():
    tree = DynamicTree()
    controller = make_controller(tree)
    leaf = controller.handle(Request(RequestKind.ADD_LEAF, tree.root)).new_node
    mid = controller.handle(
        Request(RequestKind.ADD_INTERNAL, tree.root, child=leaf)
    ).new_node
    assert leaf.parent is mid and mid.parent is tree.root
    assert controller.handle(
        Request(RequestKind.REMOVE_INTERNAL, mid)
    ).granted
    assert leaf.parent is tree.root
    assert controller.handle(Request(RequestKind.REMOVE_LEAF, leaf)).granted
    assert tree.size == 1
    tree.validate()


def test_static_pool_served_locally_after_first_fetch():
    """The first request at a node pays for a package; the next phi-1
    requests at the same node are free (static pool)."""
    tree = build_path(20)
    deep = max(tree.nodes(), key=paths.depth)
    controller = make_controller(tree, m=1000, w=500, u=40)
    assert controller.params.phi > 1
    controller.handle(plain(deep))
    moves_after_first = controller.counters.package_moves
    controller.handle(plain(deep))
    assert controller.counters.package_moves == moves_after_first


def test_filler_reused_by_nearby_request():
    """A second deep request finds the parked packages of the first."""
    tree = build_path(600)
    nodes = sorted(tree.nodes(), key=paths.depth)
    deep = nodes[-1]
    neighbor = nodes[-2]
    controller = make_controller(tree, m=5000, w=2500, u=1200)
    controller.handle(plain(deep))
    first_cost = controller.counters.package_moves
    assert first_cost >= paths.depth(deep)  # paid the full climb
    controller.handle(plain(neighbor))
    second_cost = controller.counters.package_moves - first_cost
    # The neighbour must be served from parked packages, far cheaper
    # than another full climb.
    assert 0 < second_cost < first_cost / 2


def test_safety_never_exceeds_m():
    tree = build_random_tree(20, seed=1)
    controller = make_controller(tree, m=15, w=5, u=200)
    result = drive_handle(tree, controller.handle, steps=100, seed=2)
    assert controller.granted <= 15
    assert result.rejected > 0


def test_liveness_at_first_reject():
    """Once anything is rejected, at least M - W grants happened
    (GrantOrReject's reject wave fires only when stuck permits < W)."""
    for seed in range(5):
        tree = build_random_tree(15, seed=seed)
        controller = make_controller(tree, m=40, w=12, u=300)
        drive_handle(tree, controller.handle, steps=300, seed=seed + 50,
                     stop_when=lambda: controller.rejecting)
        if controller.rejecting:
            assert controller.granted >= 40 - 12


def test_permits_are_conserved():
    tree = build_random_tree(30, seed=3)
    controller = make_controller(tree, m=500, w=100, u=600)
    drive_handle(tree, controller.handle, steps=400, seed=4)
    assert controller.granted + controller.unused_permits() == 500


def test_reject_wave_reaches_every_node():
    tree = build_random_tree(12, seed=5)
    controller = make_controller(tree, m=3, w=1, u=100)
    drive_handle(tree, controller.handle, steps=50, seed=6)
    assert controller.rejecting
    for node in tree.nodes():
        assert controller.stores.get(node).has_reject


def test_nodes_born_after_wave_inherit_reject():
    tree = DynamicTree()
    controller = make_controller(tree, m=2, w=1, u=100)
    while not controller.rejecting:
        controller.handle(plain(tree.root))
    child = tree.add_leaf(tree.root)  # environment-driven growth
    assert controller.stores.get(child).has_reject
    assert controller.handle(plain(child)).rejected


def test_stale_requests_cancelled():
    tree = DynamicTree()
    controller = make_controller(tree)
    leaf = controller.handle(Request(RequestKind.ADD_LEAF, tree.root)).new_node
    request = Request(RequestKind.REMOVE_LEAF, leaf)
    assert controller.handle(request).granted
    # Same request again: the node is gone.
    again = Request(RequestKind.REMOVE_LEAF, leaf)
    assert controller.handle(again).status is OutcomeStatus.CANCELLED


def test_remove_leaf_of_node_with_children_cancelled():
    tree = DynamicTree()
    controller = make_controller(tree)
    a = tree.add_leaf(tree.root)
    tree.add_leaf(a)
    outcome = controller.handle(Request(RequestKind.REMOVE_LEAF, a))
    assert outcome.status is OutcomeStatus.CANCELLED


def test_deletion_relocates_packages_to_parent():
    tree = build_path(40)
    nodes = sorted(tree.nodes(), key=paths.depth)
    deep = nodes[-1]
    controller = make_controller(tree, m=1000, w=500, u=80)
    controller.handle(plain(deep))  # leaves static permits at deep
    static_before = controller.stores.get(deep).static_permits
    assert static_before > 0
    parent = deep.parent
    controller.handle(Request(RequestKind.REMOVE_LEAF, deep))
    # The permit pool (minus the one consumed) moved to the parent.
    assert controller.stores.get(parent).static_permits == static_before - 1
    assert controller.counters.relocation_moves >= 1


def test_pending_mode_does_not_reject():
    tree = DynamicTree()
    controller = make_controller(tree, m=1, w=1, u=10,
                                 reject_on_exhaustion=False)
    assert controller.handle(plain(tree.root)).granted
    outcome = controller.handle(plain(tree.root))
    assert outcome.status is OutcomeStatus.PENDING
    assert controller.exhausted
    assert controller.rejected == 0
    assert not controller.rejecting


def test_detached_controller_refuses_requests():
    tree = DynamicTree()
    controller = make_controller(tree)
    controller.detach()
    with pytest.raises(ControllerError):
        controller.handle(plain(tree.root))


# ----------------------------------------------------------------------
# Interval mode (name-assignment support).
# ----------------------------------------------------------------------
def test_interval_mode_serials_unique_and_in_range():
    tree = build_random_tree(25, seed=7)
    controller = make_controller(tree, m=60, w=20, u=200,
                                 track_intervals=True, interval_base=100)
    serials = []
    result = drive_handle(tree, controller.handle, steps=55, seed=8,
                          keep_outcomes=True)
    for outcome in result.outcomes:
        if outcome.granted:
            assert outcome.serial is not None
            serials.append(outcome.serial)
    assert len(serials) == len(set(serials))
    assert all(101 <= s <= 160 for s in serials)


def test_interval_mode_off_returns_no_serials():
    tree = DynamicTree()
    controller = make_controller(tree)
    assert controller.handle(plain(tree.root)).serial is None


# ----------------------------------------------------------------------
# The owner's funding hook (Observation 3.4 without a reset).
# ----------------------------------------------------------------------
def test_a_funded_controller_is_the_larger_controller():
    """Each funding makes the live controller the (M + k, W) one: M,
    the root storage and the serial range's end rise together, φ and
    ψ stay, serials continue without a gap, and the controller
    exhausts only once the owner funds nothing."""
    tree = build_random_tree(25, seed=7)
    controller = make_controller(tree, m=10, w=20, u=200,
                                 reject_on_exhaustion=False,
                                 track_intervals=True, interval_base=100)
    shape = (controller.params.phi, controller.params.psi)
    asks = []

    def fund(shortfall):
        asks.append(shortfall)
        return 5 if len(asks) <= 4 else 0

    controller._fund = fund
    nodes = list(tree.nodes())
    serials = []
    for step in range(40):
        outcome = controller.handle(plain(nodes[step % len(nodes)]))
        if not outcome.granted:
            break
        serials.append(outcome.serial)
    assert outcome.status is OutcomeStatus.PENDING and controller.exhausted
    assert asks == [1] * 5
    assert sorted(serials) == list(range(101, 131))
    assert controller.params.m == controller.granted == 30
    assert (controller.params.phi, controller.params.psi) == shape
    assert controller.introspect().params is controller.params


def test_a_budget_cut_takes_at_most_the_root_storage():
    tree = DynamicTree()
    controller = make_controller(tree, m=10, w=1, u=10)
    assert controller.handle(plain(tree.root)).granted
    storage = controller.storage
    with pytest.raises(ControllerError, match="root storage"):
        controller._adjust_budget(-(storage + 1))
    controller._adjust_budget(-storage)
    assert controller.params.m == 10 - storage
    assert controller.storage == 0
    assert controller.granted + controller.unused_permits() == \
        controller.params.m


# ----------------------------------------------------------------------
# The inline level-0 grant and the kernel-planned path.
# ----------------------------------------------------------------------
def controller_pair(build, **kwargs):
    """One controller per grant path, on twin trees: the first holds
    its tree's node slots (level-0 grants run inline in ``handle``), a
    decoy holds the second one's (every grant takes ``_fetch_permits``)."""
    inline = make_controller(build(), **kwargs)
    general_tree = build()
    CentralizedController(general_tree, m=1, w=1, u=4)
    general = make_controller(general_tree, **kwargs)
    assert inline._inline and not general._inline
    return inline, general


@pytest.mark.parametrize("path", [0, 1], ids=["inline", "general"])
def test_a_meaningless_request_is_cancelled_without_a_store(path):
    def build():
        tree = DynamicTree()
        tree.add_leaf(tree.add_leaf(tree.root))
        tree.add_leaf(tree.root)
        return tree

    controller = controller_pair(build)[path]
    tree = controller.tree
    root = tree.root
    a, c = root.children
    (b,) = a.children
    gone = tree.add_leaf(root)
    tree.remove_leaf(gone)
    requests = [
        Request(RequestKind.REMOVE_LEAF, a),         # has a child
        Request(RequestKind.REMOVE_INTERNAL, c),     # a leaf
        Request(RequestKind.REMOVE_INTERNAL, root),  # the root
        Request(RequestKind.ADD_INTERNAL, root, child=b),  # not its edge
        Request(RequestKind.ADD_INTERNAL, root, child=gone),  # removed
        plain(gone),                                 # removed
        plain(DynamicTree().root),                   # another tree's
    ]
    outcomes = [controller.handle(request) for request in requests]
    assert [o.status for o in outcomes] == [OutcomeStatus.CANCELLED] * 7
    assert store_map(controller) == {}
    assert controller.granted == 0 and controller.counters.total == 0


@pytest.mark.parametrize("path", [0, 1], ids=["inline", "general"])
def test_the_grant_enforces_safety_on_both_paths(path):
    controller = controller_pair(lambda: build_path(5), m=10)[path]
    controller.granted = controller.params.m  # doctored: M spent
    leaf = list(controller.tree.nodes())[-1]
    with pytest.raises(ControllerError, match="safety violated"):
        controller.handle(plain(leaf))


@pytest.mark.parametrize("reject", [True, False])
def test_funding_and_exhaustion_match_on_both_paths(reject):
    """The root asks its owner before it exhausts, on either path, and
    exhaustion is the reject wave or PENDING exactly as in
    ``_fetch_permits``: same asks, verdicts, ledger, flags and stores."""
    runs = []
    for controller in controller_pair(
            lambda: build_random_tree(25, seed=7), m=10, w=20, u=200,
            reject_on_exhaustion=reject):
        asks = []

        def fund(shortfall, asks=asks):
            asks.append(shortfall)
            return 5 if len(asks) <= 4 else 0

        controller._fund = fund
        nodes = list(controller.tree.nodes())
        statuses = []
        for step in range(40):
            statuses.append(controller.handle(
                plain(nodes[step % len(nodes)])).status)
            if statuses[-1] is not OutcomeStatus.GRANTED:
                break
        runs.append((asks, statuses, controller.params.m,
                     controller.granted, controller.rejected,
                     controller.storage, controller.exhausted,
                     controller.rejecting, controller.counters.snapshot(),
                     store_map(controller)))
    assert runs[0] == runs[1]
    asks, statuses, m, granted, rejected = runs[0][:5]
    assert asks == [1] * 5 and m == granted == 30
    assert statuses[-1] is (OutcomeStatus.REJECTED if reject
                            else OutcomeStatus.PENDING)
    assert rejected == int(reject) and runs[0][7] is reject


# ----------------------------------------------------------------------
# Deep-tree distribution geometry.
# ----------------------------------------------------------------------
def test_deep_request_parks_packages_at_uk_positions():
    tree = build_path(1000)
    controller = make_controller(tree, m=4000, w=2000, u=2000)
    deep = max(tree.nodes(), key=paths.depth)
    depth = paths.depth(deep)
    level = controller.params.creation_level(depth)
    assert level >= 2  # the interesting multi-level regime
    controller.handle(plain(deep))
    # One parked package of each level k < level, at distance uk(k).
    from repro.tree.paths import ancestor_at
    for k in range(level):
        host = ancestor_at(deep, controller.params.uk_distance(k))
        parked = controller.stores.get(host).mobile
        assert any(p.level == k for p in parked), f"level {k} missing"
        for package in parked:
            assert package.size == controller.params.mobile_size(package.level)


def test_move_cost_of_single_deep_request_is_linear_in_depth():
    tree = build_path(800)
    controller = make_controller(tree, m=4000, w=2000, u=1600)
    deep = max(tree.nodes(), key=paths.depth)
    controller.handle(plain(deep))
    depth = paths.depth(deep)
    # Proc moves the package along the path with geometrically shrinking
    # segments: total < 2 * depth.
    assert depth <= controller.counters.package_moves <= 2 * depth
