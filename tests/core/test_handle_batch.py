"""Batch semantics: ``handle_batch`` must be outcome- and counter-exact.

The contract of the request engine (docs/architecture.md): feeding a
request stream through ``handle_batch`` in chunks of any size yields
*identical* per-request outcomes and move-counter accounting to feeding
the same stream through sequential ``handle`` calls.  Verified here by
driving twin trees (identical construction => identical node ids) with
a recorded stream, across every initial topology of
``workloads/scenarios.py``, every request mix, and all four controller
flavours — plus a second controller on an already-claimed tree (dict
store lookups and the kernel-planned ``_fetch_permits`` for every
grant), so the slot fast path and the inline level-0 grant are proven
behaviour-preserving too.
"""

import random

import pytest

from repro.core.adaptive import AdaptiveController
from repro.core.centralized import CentralizedController
from repro.core.iterated import IteratedController
from repro.core.terminating import TerminatingController
from repro.workloads import (
    NodePicker,
    TreeMirror,
    build_caterpillar,
    build_path,
    build_random_tree,
    build_star,
    default_mix,
    grow_only_mix,
    random_request,
    request_spec,
)
from tests.drivers import store_map

TOPOLOGIES = {
    "random": lambda n: build_random_tree(n, seed=11),
    "path": build_path,
    "star": build_star,
    "caterpillar": build_caterpillar,
}


def drive_twins(make_controller, build, n, steps, batch_size, mix, seed,
                decoy=None):
    """Run a stream sequentially on tree A, batched on twin tree B;
    return both (controller, outcomes, tree) triples.  ``decoy(tree)``,
    if given, builds a controller on tree B before the one under test
    (so the decoy holds B's store slots)."""
    tree_a, tree_b = build(n), build(n)
    if decoy is not None:
        decoy(tree_b)
    ctrl_a, submit_a = make_controller(tree_a)
    ctrl_b, _ = make_controller(tree_b)

    rng = random.Random(seed)
    picker = NodePicker(tree_a)
    mirror = TreeMirror(tree_b)
    outcomes_a, specs = [], []
    for _ in range(steps):
        request = random_request(tree_a, rng, mix=mix, picker=picker)
        specs.append(request_spec(request))
        outcomes_a.append(submit_a(request))
    picker.detach()

    outcomes_b = []
    for base in range(0, steps, batch_size):
        chunk = mirror.requests(specs[base:base + batch_size])
        outcomes_b.extend(ctrl_b.handle_batch(chunk))
    mirror.detach()
    return (ctrl_a, outcomes_a, tree_a), (ctrl_b, outcomes_b, tree_b)


def assert_equivalent(a, b):
    ctrl_a, outcomes_a, tree_a = a
    ctrl_b, outcomes_b, tree_b = b
    assert [o.status for o in outcomes_a] == [o.status for o in outcomes_b]
    assert ctrl_a.counters.snapshot() == ctrl_b.counters.snapshot()
    assert ctrl_a.granted == ctrl_b.granted
    assert tree_a.size == tree_b.size


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_iterated_batch_equals_sequential(topology, batch_size):
    def make(tree):
        ctrl = IteratedController(tree, m=800, w=50, u=800)
        return ctrl, ctrl.handle
    a, b = drive_twins(make, TOPOLOGIES[topology], n=200, steps=400,
                       batch_size=batch_size, mix=default_mix(), seed=3)
    assert_equivalent(a, b)


@pytest.mark.parametrize("mix_name,mix", [
    ("default", default_mix()),
    ("grow_only", grow_only_mix()),
])
def test_centralized_batch_equals_sequential(mix_name, mix):
    def make(tree):
        ctrl = CentralizedController(tree, m=600, w=80, u=900)
        return ctrl, ctrl.handle
    a, b = drive_twins(make, TOPOLOGIES["random"], n=150, steps=500,
                       batch_size=16, mix=mix, seed=5)
    assert_equivalent(a, b)


def test_adaptive_batch_equals_sequential():
    def make(tree):
        ctrl = AdaptiveController(tree, m=900, w=60)
        return ctrl, ctrl.handle
    a, b = drive_twins(make, TOPOLOGIES["random"], n=120, steps=600,
                       batch_size=25, mix=default_mix(), seed=7)
    assert_equivalent(a, b)
    assert a[0].epochs_run == b[0].epochs_run


def test_terminating_batch_equals_sequential():
    def make(tree):
        ctrl = TerminatingController(tree, m=150, w=25, u=600)
        return ctrl, ctrl.submit
    a, b = drive_twins(make, TOPOLOGIES["random"], n=150, steps=400,
                       batch_size=10, mix=default_mix(), seed=9)
    assert_equivalent(a, b)
    assert a[0].terminated == b[0].terminated
    assert len(a[0].pending) == len(b[0].pending)


#: Flavour -> (factory, the live CentralizedController under it).
FLAVOURS = {
    "centralized": (CentralizedController, lambda ctrl: ctrl),
    "terminating": (TerminatingController, lambda ctrl: ctrl.inner),
    "iterated": (IteratedController, lambda ctrl: ctrl._inner),
}

#: (m, w, u): phi = max(W // 2U, 1) is 1, then 2 (W >= 4U).  M runs
#: out within the stream either way: the reject wave (centralized),
#: termination (terminating) and the final stages (iterated) are part
#: of every run.
BUDGETS = {"phi=1": (150, 20, 600), "phi=2": (300, 2400, 600)}


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("flavour", sorted(FLAVOURS))
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_engine_off_matches_engine_on(topology, flavour, budget):
    """A controller that finds the tree's store slots already claimed
    runs dict lookups, parent-pointer walks and the kernel-planned
    ``_fetch_permits`` for every grant; the slot-holding run serves
    the level-0 grants inline.  Both must leave the same outcomes,
    counters, ledger, flags and store map, node by node."""
    factory, core_of = FLAVOURS[flavour]
    m, w, u = BUDGETS[budget]
    decoys = []

    def decoy(tree):
        decoys.append(CentralizedController(tree, m=1, w=1, u=4 * u))

    def make(tree):
        ctrl = factory(tree, m=m, w=w, u=u)
        return ctrl, ctrl.handle
    a, b = drive_twins(make, TOPOLOGIES[topology], n=120, steps=400,
                       batch_size=32, mix=default_mix(), seed=13,
                       decoy=decoy)
    assert_equivalent(a, b)
    (ctrl_a, outcomes_a, tree_a), (ctrl_b, outcomes_b, tree_b) = a, b
    assert ([(o.status, getattr(o.new_node, "node_id", None))
             for o in outcomes_a]
            == [(o.status, getattr(o.new_node, "node_id", None))
                for o in outcomes_b])
    core_a, core_b = core_of(ctrl_a), core_of(ctrl_b)
    assert core_a._inline and not core_b._inline
    assert not core_b._fast
    assert tree_b.store_slot_owner is decoys[0]
    assert core_a.params.phi == core_b.params.phi == max(w // (2 * u), 1)
    for name in ("storage", "granted", "rejected", "exhausted",
                 "rejecting"):
        assert getattr(core_a, name) == getattr(core_b, name), name
    assert store_map(core_a) == store_map(core_b)
    # The stream runs the budget out.
    if flavour == "terminating":
        assert ctrl_a.terminated and ctrl_b.terminated
    else:
        assert ctrl_a.rejecting and ctrl_b.rejecting
    if flavour == "iterated":
        assert ctrl_a.stages_run == ctrl_b.stages_run


def test_exhaustion_and_reject_wave_through_batches():
    """A stream long enough to exhaust the budget: the reject wave must
    land on the same request index in batched mode."""
    def make(tree):
        ctrl = CentralizedController(tree, m=40, w=10, u=400)
        return ctrl, ctrl.handle
    a, b = drive_twins(make, TOPOLOGIES["random"], n=100, steps=300,
                       batch_size=9, mix=default_mix(), seed=17)
    assert_equivalent(a, b)
    assert a[0].rejecting and b[0].rejecting


def test_store_slot_arbitration():
    """Only one controller claims the per-node store slots; a second
    falls back to dict lookups; detach releases the claim."""
    tree = build_random_tree(60, seed=2)
    first = CentralizedController(tree, m=100, w=20, u=200)
    second = CentralizedController(tree, m=100, w=20, u=200)
    assert first._fast and not second._fast
    assert tree.store_slot_owner is first
    first.detach()
    assert tree.store_slot_owner is None
    third = CentralizedController(tree, m=100, w=20, u=200)
    assert third._fast
    second.detach()
    third.detach()
