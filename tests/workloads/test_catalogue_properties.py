"""Property grid: catalogue x schedule policy x seed x controller.

The satellite contract of the adversarial-engine PR: for every
catalogue scenario, every schedule policy and several seeds, the
invariant checker passes on all four core controllers and the
distributed engine, and distributed outcomes stay outcome-equivalent to
the centralized reference where the paper guarantees it (reject-free,
cancellation-free streams).

The heavy lifting is the bench grid runner itself — a bench invocation
doubles as a correctness gate, so the test exercises the exact code
path ``python -m repro.bench scenario --name all ...`` runs, on scaled
specs to stay fast.
"""

import dataclasses

import pytest

from repro.bench.runner import run_scenario_grid
from repro.core.centralized import CentralizedController
from repro.distributed import DistributedController
from repro.metrics import audit_controller
from repro.sim import Scheduler
from repro.workloads import get_scenario
from repro.workloads.scenarios import TreeMirror, request_spec


ALL_POLICIES = "fifo,random,lifo,adversary"


def test_full_grid_all_engines_invariants_pass():
    """Every scenario x all four core controllers + distributed under
    every policy x two seeds: zero invariant violations."""
    document = run_scenario_grid(
        name="all",
        policy=ALL_POLICIES,
        seeds="0,1",
        engines="centralized,iterated,adaptive,terminating,distributed",
        scale=0.25,
    )
    summary = document["summary"]
    assert summary["passed"]
    assert summary["violations"] == 0
    # 5 scenarios x 2 seeds x (4 core + 4 policies of distributed).
    assert summary["cells"] == 5 * 2 * 8
    # Every cell resolved its full stream.
    for cell in document["cells"]:
        resolved = (cell["granted"] + cell["rejected"]
                    + cell["cancelled"] + cell["pending"])
        assert resolved > 0


def test_faulted_grid_invariants_pass():
    """The same grid under an aggressive fault plan (stalls + pauses +
    churn storms) still audits green — the faults are legal adversaries,
    not rule changes."""
    document = run_scenario_grid(
        name="all",
        policy="random,adversary",
        seeds="0,1",
        engines="iterated,distributed",
        faults="stall=0.08,pauses=1,storms=3,seed=13",
        scale=0.25,
    )
    assert document["summary"]["passed"]
    storm_ops = sum(cell.get("fault_stats", {}).get("storm_ops", 0)
                    for cell in document["cells"])
    assert storm_ops > 0


@pytest.mark.parametrize("policy_name", ["fifo", "random", "adversary"])
def test_distributed_matches_centralized_where_guaranteed(policy_name):
    """Cancellation-free, reject-free replay: the distributed engine
    grants exactly the requests the centralized reference grants (the
    serializability of Lemma 4.3 collapses to identity when no event
    can lose its meaning and the budget never runs out)."""
    spec = get_scenario("near_exhaustion").scaled(0.25)
    # Lift the budget so nothing rejects: stream is PLAIN/ADD_LEAF only.
    spec = dataclasses.replace(spec, m=8 * spec.steps)
    reference_tree = spec.build_tree(seed=3)
    stream = spec.stream(reference_tree, seed=3)
    specs = [request_spec(r) for r in stream]

    central = CentralizedController(reference_tree, m=spec.m, w=spec.w,
                                    u=spec.u)
    central_outcomes = [central.handle(r) for r in stream]
    assert all(o.granted for o in central_outcomes)
    assert audit_controller(central).passed

    twin = spec.build_tree(seed=3)
    mirror = TreeMirror(twin)
    requests = [mirror.request(s) for s in specs]
    mirror.detach()
    controller = DistributedController(
        twin, m=spec.m, w=spec.w, u=spec.u,
        scheduler=Scheduler(policy_name, seed=3))
    outcomes = controller.submit_batch(requests, stagger=0.2)
    assert audit_controller(controller).passed
    # Outcome-equivalence: the same multiset (here: every position) of
    # permits is granted.
    assert [o.status for o in outcomes] == \
        [o.status for o in central_outcomes]
    assert controller.granted == central.granted


def test_every_policy_produces_a_legal_distinct_interleaving():
    """Sanity that the grid explores genuinely different executions:
    across policies the simulated quiescence times differ while the
    tallies stay within the paper's envelope."""
    spec = get_scenario("mixed_flood").scaled(0.25)
    tree0 = spec.build_tree(seed=0)
    specs = [request_spec(r) for r in spec.stream(tree0, seed=0)]
    times = {}
    for policy_name in ("fifo", "lifo", "adversary"):
        twin = spec.build_tree(seed=0)
        mirror = TreeMirror(twin)
        requests = [mirror.request(s) for s in specs]
        mirror.detach()
        controller = DistributedController(
            twin, m=spec.m, w=spec.w, u=spec.u,
            scheduler=Scheduler(policy_name, seed=0))
        controller.submit_batch(requests, stagger=0.25)
        assert audit_controller(controller).passed
        times[policy_name] = controller.scheduler.now
    assert len(set(times.values())) > 1, times
