"""Differential equivalence for every Section 5 app.

With the legacy hand-wired constructors removed in 2.0, the
differential reference is the app's own per-request ``serve`` loop: on
identical catalogue streams the ticket path (``submit_many`` +
``settle_all``, whose pump serves the queue as one batch, rolls the
iteration at a PENDING and requeues the PENDING tickets at the front)
must produce identical verdicts, iteration counts, move counters and
app-level state — estimates, ids, mu pointers, labels — across
multiple iteration rollovers, and the invariant auditor must come back
clean.  The event-driven half runs every app on the distributed engine
under >= 2 schedule policies and audits it.
"""

import pytest

from repro import AppSpec, make_app
from repro.service.envelopes import IterationRecord, OutcomeRecord
from repro.workloads import TreeMirror, request_spec
from repro.workloads.catalogue import get_scenario

SCENARIOS = ["hot_spot", "grow_shrink", "mixed_flood"]
SCALE = 0.2

APP_SPECS = {
    "size_estimation": {"beta": 2.0},
    "name_assignment": {},
    "subtree_estimator": {"beta": 2.0},
    "heavy_child": {},
    "ancestry_labels": {"slack": 4},
    "routing_labels": {},
    "majority_commit": {"total": 1 << 16, "beta": 1.5},
}


def _app_state(name, app, tree):
    if name == "size_estimation":
        return ("est", app.estimate, app.iterations_run)
    if name == "name_assignment":
        return ("ids", sorted((n.node_id, app.ids[n])
                              for n in tree.nodes()))
    if name == "subtree_estimator":
        return ("sw", sorted((n.node_id, app.estimate_of(n))
                             for n in tree.nodes()))
    if name == "heavy_child":
        return ("mu", sorted((k.node_id, v.node_id)
                             for k, v in app._mu.items()))
    if name == "ancestry_labels":
        return ("labels", sorted((n.node_id, app.labels[n])
                                 for n in tree.nodes()), app.relabels)
    if name == "routing_labels":
        return ("routes", sorted((n.node_id, app.labels[n])
                                 for n in tree.nodes()), app.relabels)
    if name == "majority_commit":
        return ("maj", app.estimate, app.can_commit())
    raise AssertionError(name)


def _scenario_stream(scenario, seed):
    spec = get_scenario(scenario).scaled(SCALE)
    tree = spec.build_tree(seed=seed)
    return spec, [request_spec(r) for r in spec.stream(tree, seed=seed)]


def _resolved(spec, stream, seed):
    """A fresh tree and the stream resolved against it up front."""
    tree = spec.build_tree(seed=seed)
    mirror = TreeMirror(tree)
    requests = [mirror.request(s) for s in stream]
    mirror.detach()
    return tree, requests


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("name", sorted(APP_SPECS))
def test_serve_and_ticket_paths_agree(name, scenario):
    seed = 11
    spec, stream = _scenario_stream(scenario, seed)

    tree_s, requests_s = _resolved(spec, stream, seed)
    app_s = make_app(AppSpec(name, params=APP_SPECS[name]), tree=tree_s)
    statuses_s = [app_s.serve(r).outcome.status for r in requests_s]

    tree_t, requests_t = _resolved(spec, stream, seed)
    app_t = make_app(AppSpec(name, params=APP_SPECS[name]), tree=tree_t)
    tickets = app_t.submit_many(requests_t)
    settled = {r.envelope_id: r.outcome.status for r in app_t.settle_all()
               if isinstance(r, OutcomeRecord)}
    statuses_t = [settled[ticket.envelope_id] for ticket in tickets]

    assert statuses_s == statuses_t
    assert _app_state(name, app_s, tree_s) == _app_state(name, app_t,
                                                         tree_t)
    assert tree_s.size == tree_t.size
    assert app_s.iterations_run == app_t.iterations_run
    assert app_s.counters.snapshot() == app_t.counters.snapshot()
    # The stream must have exercised the Observation 2.1 rollover.
    assert app_t.iterations_run >= 2
    for app in (app_s, app_t):
        report = app.audit()
        assert report.passed, report.violations
        app.close()


@pytest.mark.parametrize("policy", ["random", "adversary"])
@pytest.mark.parametrize("name", sorted(APP_SPECS))
def test_event_driven_apps_audit_clean(name, policy):
    seed = 23
    spec, stream = _scenario_stream("mixed_flood", seed)
    tree, requests = _resolved(spec, stream, seed)
    app = make_app(
        AppSpec(name, params=APP_SPECS[name], flavor="distributed",
                schedule_policy=policy, seed=seed), tree=tree)
    app.submit_many(requests)
    output = app.settle_all()
    records = [r for r in output if isinstance(r, OutcomeRecord)]
    boundaries = [r for r in output if isinstance(r, IterationRecord)]
    assert len(records) == len(requests)  # everything settled, finally
    assert all(r.outcome is not None for r in records)
    assert len(boundaries) == app.iterations_run >= 2
    report = app.audit()
    assert report.passed, report.violations
    if name == "name_assignment":
        app.check_invariants()
    app.close()


@pytest.mark.parametrize("name", sorted(APP_SPECS))
def test_event_driven_app_under_faults(name):
    """A stalling fault plan changes timing, never correctness."""
    seed = 31
    spec, stream = _scenario_stream("grow_shrink", seed)
    tree, requests = _resolved(spec, stream, seed)
    app = make_app(
        AppSpec(name, params=APP_SPECS[name], flavor="distributed",
                schedule_policy="random", faults="stall=0.1", seed=seed),
        tree=tree)
    app.submit_many(requests)
    records = [r for r in app.settle_all()
               if isinstance(r, OutcomeRecord)]
    assert len(records) == len(requests)
    report = app.audit()
    assert report.passed, report.violations
    app.close()
