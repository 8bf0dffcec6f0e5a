"""Fault injection: stalls, delivery pauses, churn storms.

Every injected fault is legal under the asynchronous model, so the
tests assert the controller's guarantees *survive* the faults: stalled
agents resume and complete (liveness), paused deliveries land after the
window, and a churn storm aimed at locked paths never orphans a
package, a lock, or a waiter.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.core.requests import Request, RequestKind
from repro.distributed import (
    DistributedController,
    FaultInjector,
    FaultPlan,
    parse_fault_spec,
)
from repro.metrics import audit_controller
from repro.sim import Scheduler
from repro.sim.delays import UnitDelay
from repro.tree import paths
from repro.workloads import NodePicker, build_path, build_random_tree, random_request


# ----------------------------------------------------------------------
# Plan parsing.
# ----------------------------------------------------------------------
def test_parse_fault_spec_roundtrip():
    plan = parse_fault_spec("stall=0.05,pauses=2,storms=3,seed=7")
    assert plan.stall_prob == 0.05
    assert plan.pauses == 2
    assert plan.storms == 3
    assert plan.seed == 7
    assert not plan.is_noop


def test_parse_fault_spec_empty_and_none():
    assert parse_fault_spec(None).is_noop
    assert parse_fault_spec("").is_noop
    assert parse_fault_spec("none").is_noop


def test_parse_fault_spec_rejects_garbage():
    with pytest.raises(SimulationError):
        parse_fault_spec("stall")
    with pytest.raises(SimulationError):
        parse_fault_spec("gremlins=4")
    with pytest.raises(SimulationError):
        parse_fault_spec("stall=lots")
    with pytest.raises(SimulationError):
        parse_fault_spec("stall=1.5")  # FaultPlan validation


@pytest.mark.parametrize("field,value", [
    ("stall_factor", "nan"), ("stall_factor", "inf"),
    ("pause_duration", "nan"), ("horizon", "nan"), ("horizon", "inf"),
])
def test_non_finite_plans_are_rejected(field, value):
    """NaN passes every ``<`` check; a stall or pause window of NaN or
    inf would make hop delays non-finite, which Section 2.1 forbids.
    Both entry points, the dataclass and the spec parser, reject it by
    name."""
    fields = {"pauses": 1, "horizon": 10.0, field: float(value)}
    with pytest.raises(SimulationError, match=field):
        FaultPlan(**fields)
    with pytest.raises(SimulationError, match=field):
        parse_fault_spec(",".join(f"{key}={val}"
                                  for key, val in fields.items()))


# ----------------------------------------------------------------------
# Agent stalls: liveness under pauses.
# ----------------------------------------------------------------------
def test_stalled_agents_resume_and_complete():
    """With every hop stalled 100x, all requests still resolve and the
    outcome totals match the fault-free run (stalls are just slow
    messages — the paper's model makes no timing assumptions)."""
    baseline = None
    for stall_prob in (0.0, 1.0):
        tree = build_path(20)
        injector = FaultInjector(FaultPlan(seed=3, stall_prob=stall_prob,
                                           stall_factor=100.0))
        controller = DistributedController(tree, m=200, w=50, u=100,
                                           delays=UnitDelay(),
                                           faults=injector)
        nodes = list(tree.nodes())
        requests = [Request(RequestKind.PLAIN, nodes[i % len(nodes)])
                    for i in range(30)]
        outcomes = controller.submit_batch(requests, stagger=0.5)
        assert len(outcomes) == 30
        assert controller.active_agents == 0
        tally = sorted(o.status.value for o in outcomes)
        if baseline is None:
            baseline = tally
        else:
            assert tally == baseline
            assert injector.stats["stalls"] > 0
        assert audit_controller(controller).passed


def test_delivery_pause_delays_but_never_drops():
    tree = build_path(15)
    plan = FaultPlan(seed=1, pauses=3, pause_duration=30.0, horizon=40.0)
    injector = FaultInjector(plan)
    controller = DistributedController(tree, m=100, w=25, u=60,
                                       delays=UnitDelay(), faults=injector)
    deep = max(tree.nodes(), key=paths.depth)
    outcomes = controller.submit_batch(
        [Request(RequestKind.PLAIN, deep) for _ in range(5)], stagger=1.0)
    assert all(o.granted for o in outcomes)
    assert injector.stats["paused_deliveries"] > 0
    # Paused hops land at/after their window's end, never vanish.
    assert controller.active_agents == 0
    assert audit_controller(controller).passed


# ----------------------------------------------------------------------
# Churn storms: the graceful hand-over under bombardment.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy_name", ["fifo", "random", "adversary"])
def test_churn_storm_never_orphans_package_or_lock(policy_name):
    """Storms fire while agents are mid-climb; afterwards every permit is
    accounted for (conservation), no dead node holds state, and no lock
    or waiter is left behind — on every schedule policy."""
    splices_seen = 0
    for seed in range(4):
        tree = build_random_tree(50, seed=seed)
        plan = FaultPlan(seed=seed * 31 + 1, storms=4, storm_size=8,
                         horizon=25.0)
        injector = FaultInjector(plan)
        controller = DistributedController(
            tree, m=900, w=220, u=4000,
            scheduler=Scheduler(policy_name, seed=seed),
            faults=injector)
        rng = random.Random(seed)
        picker = NodePicker(tree)
        outcomes = []
        for i in range(80):
            controller.submit(random_request(tree, rng, picker=picker),
                              delay=i * 0.3, callback=outcomes.append)
        controller.run()
        picker.detach()
        assert len(outcomes) == 80
        assert controller.active_agents == 0
        report = audit_controller(controller)
        assert report.passed, report.violations[:3]
        assert injector.stats["storm_ops"] > 0
        splices_seen += injector.stats["storm_splices"]
        tree.validate()
    # Across the seeds, the storm must actually have exercised the
    # Section 4.2 splice hand-over, not just leaf churn.
    assert splices_seen > 0


def test_storm_respects_locking_discipline():
    """A storm never deletes a locked node (the one removal the
    hand-over cannot absorb is a foreign mid-path deletion)."""
    tree = build_path(25)
    plan = FaultPlan(seed=5, storms=6, storm_size=10, horizon=20.0)
    injector = FaultInjector(plan)
    controller = DistributedController(tree, m=400, w=100, u=2000,
                                       delays=UnitDelay(), faults=injector)
    deep = max(tree.nodes(), key=paths.depth)
    # A deep climb keeps a long path locked across the storm window.
    outcomes = controller.submit_batch(
        [Request(RequestKind.PLAIN, deep) for _ in range(10)], stagger=2.0)
    assert len(outcomes) == 10
    assert controller.active_agents == 0
    assert audit_controller(controller).passed


def test_injector_cannot_attach_twice():
    injector = FaultInjector(FaultPlan(seed=0))
    tree = build_path(4)
    DistributedController(tree, m=10, w=5, u=8, faults=injector)
    with pytest.raises(SimulationError):
        FaultInjector.attach(injector, object())


def test_auto_horizon_resolution():
    plan = parse_fault_spec("storms=2")      # horizon unset -> auto
    assert plan.needs_horizon and plan.horizon == 0.0
    with pytest.raises(SimulationError):
        FaultInjector(plan)                  # unresolved: refuse to guess
    resolved = plan.resolved(120.0)
    assert resolved.horizon == 120.0
    FaultInjector(resolved)                  # now constructible
    explicit = parse_fault_spec("storms=2,horizon=33")
    assert explicit.resolved(120.0).horizon == 33  # explicit wins
    # Plans without pauses/storms never need a horizon.
    stall_only = parse_fault_spec("stall=0.5")
    assert not stall_only.needs_horizon
    FaultInjector(stall_only)
