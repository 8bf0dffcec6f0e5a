"""Unit and property tests for the shared controller kernel."""

import random

import pytest

from repro.core import kernel
from repro.core.packages import MobilePackage, NodeStore
from repro.core.params import ControllerParams
from repro.errors import ControllerError
from repro.workloads import build_random_tree

PARAM_GRID = [
    ControllerParams(m=400, w=100, u=200),
    ControllerParams(m=3000, w=40, u=3000),
    ControllerParams(m=64, w=1, u=7),
    ControllerParams(m=2400, w=30, u=2880),
]


# ----------------------------------------------------------------------
# The level-window partition behind the indexed lookup.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("params", PARAM_GRID)
def test_filler_windows_admit_exactly_one_level_per_distance(params):
    """For every hop distance exactly one level passes the Section 3.1
    window — the fact that turns the board scan into one dict probe.

    Checked densely near the small windows and at every window boundary
    (plus or minus one) across all levels.
    """
    dists = set(range(0, min(4 * params.psi, 50_000)))
    for level in range(params.max_level + 2):
        low = (1 << level) * params.psi
        dists.update((low - 1, low, low + 1, 2 * low - 1, 2 * low,
                      2 * low + 1))
    for dist in sorted(d for d in dists if d >= 0):
        matching = [level for level in range(params.max_level + 3)
                    if params.in_filler_window(level, dist)]
        assert matching == [kernel.filler_level(params, dist)], dist


@pytest.mark.parametrize("params", PARAM_GRID)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_indexed_lookup_equals_linear_scan(params, seed):
    """peek/take_filler pick exactly the package the legacy linear scan
    picks (first-parked of the lowest in-window level), on randomly
    parked stores and random query distances."""
    rng = random.Random(seed)
    store = NodeStore()
    for _ in range(40):
        level = rng.randrange(params.max_level + 1)
        kernel.park(store, MobilePackage(level=level,
                                         size=params.mobile_size(level)))
    for _ in range(300):
        dist = rng.randrange(4 * (1 << params.max_level) * params.psi)
        expected = kernel.scan_filler(store, dist, params)
        assert kernel.peek_filler(store, dist, params) is expected
        if expected is not None and rng.random() < 0.3:
            taken = kernel.take_filler(store, dist, params)
            assert taken is expected
            assert expected not in store.mobile
            if rng.random() < 0.5:  # interleave re-parking
                level = rng.randrange(params.max_level + 1)
                kernel.park(store, MobilePackage(
                    level=level, size=params.mobile_size(level)))


def test_index_survives_direct_mobile_mutation():
    """Code that appends to ``store.mobile`` directly (tests, fixtures)
    must still be seen by the indexed lookup: the index rebuilds."""
    params = PARAM_GRID[0]
    store = NodeStore()
    kernel.park(store, MobilePackage(level=0, size=params.mobile_size(0)))
    assert kernel.peek_filler(store, 0, params) is not None
    direct = MobilePackage(level=1, size=params.mobile_size(1))
    store.mobile.append(direct)  # bypasses kernel.park
    dist = 2 * params.psi + 1    # level-1 window
    assert kernel.peek_filler(store, dist, params) is direct


# ----------------------------------------------------------------------
# Distribution plans.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("params", PARAM_GRID)
def test_plan_distribution_shape_and_conservation(params):
    for level in range(params.max_level + 1):
        size = params.mobile_size(level)
        dist = 2 * (1 << level) * params.psi  # top of the level's window
        plan = kernel.plan_distribution(params, level, size, dist)
        assert plan.start_dist == dist and plan.moves == dist
        assert plan.final_size == params.mobile_size(0)
        assert len(plan.steps) == level
        dists = [step.dist for step in plan.steps]
        assert dists == sorted(dists, reverse=True)
        assert all(step.dist < dist for step in plan.steps)
        expected_levels = list(range(level - 1, -1, -1))
        assert [step.level for step in plan.steps] == expected_levels
        for step in plan.steps:
            assert step.dist == params.uk_distance(step.level)
            assert step.size == params.mobile_size(step.level)
        # Permits conserve: parked halves plus the level-0 remainder.
        assert sum(s.size for s in plan.steps) + plan.final_size == size


# ----------------------------------------------------------------------
# The permit ledger.
# ----------------------------------------------------------------------
def test_ledger_grant_enforces_safety():
    params = ControllerParams(m=2, w=1, u=4)
    ledger = kernel.PermitLedger(params=params, storage=2)
    ledger.grant()
    ledger.grant()
    with pytest.raises(ControllerError):
        ledger.grant()


def test_ledger_create_package_draws_storage_and_intervals():
    params = ControllerParams(m=64, w=8, u=16)
    ledger = kernel.PermitLedger(params=params, storage=64,
                                 track_intervals=True)
    package = ledger.create_package(2, dist=0)
    assert package.size == params.mobile_size(2)
    assert ledger.storage == 64 - package.size
    lo, hi = package.interval
    assert (lo, hi) == (1, package.size)
    assert ledger.covers(ledger.storage)
    assert not ledger.covers(ledger.storage + 1)
    with pytest.raises(ControllerError):
        ledger.create_package(params.max_level + 8, dist=0)


def test_ledger_restore_returns_an_undelivered_package():
    params = ControllerParams(m=64, w=8, u=16)
    trace = kernel.KernelTrace()
    ledger = kernel.PermitLedger(params=params, storage=64, trace=trace)
    package = ledger.create_package(1, dist=0)
    ledger.restore(package)
    assert ledger.storage == 64
    assert list(trace)[-1] == ("restore", 1, package.size)
    carved = kernel.PermitLedger(params=params, storage=64,
                                 track_intervals=True)
    with pytest.raises(ControllerError):
        carved.restore(carved.create_package(0, dist=0))


def test_ledger_unused_counts_storage_plus_parked():
    params = ControllerParams(m=10, w=2, u=4)
    ledger = kernel.PermitLedger(params=params, storage=7)
    assert ledger.unused(parked=3) == 10


# ----------------------------------------------------------------------
# Reject wave and trace.
# ----------------------------------------------------------------------
def test_broadcast_reject_touches_every_node_and_returns_cost():
    tree = build_random_tree(17, seed=3)
    stores = {node: NodeStore() for node in tree.nodes()}
    trace = kernel.KernelTrace()
    cost = kernel.broadcast_reject(tree, stores.__getitem__, trace=trace)
    assert cost == tree.size == 17
    assert all(store.has_reject for store in stores.values())
    assert list(trace) == [("reject_wave", 17)]


def test_trace_records_take_park_absorb():
    params = ControllerParams(m=64, w=8, u=16)
    trace = kernel.KernelTrace()
    store = NodeStore()
    package = MobilePackage(level=0, size=params.mobile_size(0))
    kernel.park(store, package, trace=trace)
    taken = kernel.take_filler(store, 0, params, trace=trace)
    kernel.absorb(store, taken, trace=trace)
    ops = [event[0] for event in trace]
    assert ops == ["park", "take", "absorb"]
    assert store.static_permits == package.size
