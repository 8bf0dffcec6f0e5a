"""The paper's quantitative claims, checked at tier-1 scale.

Each test drives one claim's workload and asserts its *shape* — who
wins, which bound holds, how a ratio scales — with the threshold the
claim has always been held to.  Sweeps run at the smallest sizes that
still carry the threshold; the move-complexity slope and the
trivial-controller crossover need their full sweeps, so those run at
full size.
"""

import math
import random

import pytest

from repro import (
    AdaptiveController,
    AppSpec,
    CentralizedController,
    DynamicTree,
    IteratedController,
    Request,
    RequestKind,
    make_app,
)
from repro.apps import AncestryLabeling
from repro.baselines import (
    AAPSController,
    FloodingSizeEstimator,
    TrivialController,
)
from repro.bench import run_move_complexity
from repro.core.requests import perform_event
from repro.distributed import DistributedController
from repro.metrics.fitting import theorem_3_5_bound
from repro.workloads import (
    NodePicker,
    build_caterpillar,
    build_path,
    build_random_tree,
    grow_only_mix,
    random_request,
)
from tests.drivers import drive_handle


def churn(tree, serve, steps, seed, mix=None):
    """``drive_handle``'s stream discipline for callables that return
    no ``Outcome`` (app ``serve``, bare ``perform_event``)."""
    rng = random.Random(seed)
    picker = NodePicker(tree)
    try:
        for _ in range(steps):
            serve(random_request(tree, rng, mix=mix, picker=picker))
    finally:
        picker.detach()


# ----------------------------------------------------------------------
# Lemma 3.2: safety and liveness at exhaustion.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("m,w", [(50, 1), (50, 10), (200, 5), (200, 50),
                                 (1000, 100)])
def test_lemma_3_2_safety_and_liveness_at_exhaustion(m, w):
    """At most M permits are granted; once a request is rejected, at
    least M - W have been."""
    for seed in (m + w, 7 * m + w):
        tree = build_random_tree(20, seed=seed)
        controller = IteratedController(tree, m=m, w=w, u=20 + 4 * m)
        drive_handle(tree, controller.handle, steps=6 * m, seed=seed,
                     stop_when=lambda: controller.rejecting)
        assert controller.granted <= m, "safety violated"
        assert controller.rejecting, "the budget was never exhausted"
        assert controller.granted >= m - w, "liveness violated"


# ----------------------------------------------------------------------
# Observation 3.4: O(U log^2 U log(M/(W+1))) moves.
# ----------------------------------------------------------------------
def test_observation_3_4_move_complexity_sweep():
    """The full ``move_complexity`` sweep (path lengths 200..3200): the
    bound dominates with a stable constant and growth is near-linear
    in U.  Smaller sweeps sit in the steeper small-n part of the curve
    (slope 1.53 over 200..800), so this one runs at full size."""
    result = run_move_complexity()
    ratios = [row["ratio"] for row in result["rows"]]
    assert max(ratios) < 1.0, "constant blew past the bound"
    assert ratios[-1] <= 2.5 * ratios[0], "ratio grows with U"
    assert result["log_log_slope"] < 1.45, "super-linear move growth"


def test_observation_3_4_cost_is_logarithmic_in_m_over_w():
    """Fixed U, M/W swept over 300x: the cost grows by a small multiple,
    not by the factor."""
    n = 300
    costs = []
    for w in (600, 150, 30, 6, 1):
        tree = build_path(n)
        controller = IteratedController(tree, m=2400, w=w, u=2 * n)
        drive_handle(tree, controller.handle, steps=n, seed=w)
        costs.append(controller.counters.total)
    assert costs[-1] <= 8 * costs[0]


# ----------------------------------------------------------------------
# Theorem 3.5: the unknown-U controller.
# ----------------------------------------------------------------------
def test_theorem_3_5_unknown_u_stays_within_its_bound():
    """Moves against the theorem's right-hand side, evaluated on the
    recorded n_j series: below 1 and not drifting upward."""
    ratios = []
    for steps in (250, 500, 1000, 2000):
        tree = build_random_tree(50, seed=steps)
        controller = AdaptiveController(tree, m=10 * steps + 100, w=50)
        drive_handle(tree, controller.handle, steps=steps, seed=steps + 1)
        bound = theorem_3_5_bound(50, tree.size_history, controller.m,
                                  controller.w)
        ratios.append(controller.counters.total / bound)
    assert max(ratios) < 1.0
    assert ratios[-1] <= 3.0 * ratios[0], "ratio drifts upward"


def test_theorem_3_5_growth_epochs_are_logarithmic():
    """Pure growth doubles U per epoch: O(log n) epochs."""
    tree = build_random_tree(10, seed=9)
    controller = AdaptiveController(tree, m=100_000, w=500)
    drive_handle(tree, controller.handle, steps=4000, seed=10,
                 mix=grow_only_mix())
    assert controller.epochs_run <= 4 * math.log2(tree.size)


# ----------------------------------------------------------------------
# Theorems 4.7 / 4.9: the distributed controller.
# ----------------------------------------------------------------------
def twin_run(n, steps, m, w, u, seed, builder=None):
    """The same seeded stream through the centralized and the
    distributed controller, request by request."""
    builder = builder or (lambda k: build_random_tree(k, seed=seed))
    tree_c, tree_d = builder(n), builder(n)
    central = CentralizedController(tree_c, m=m, w=w, u=u)
    distributed = DistributedController(tree_d, m=m, w=w, u=u)
    rng_c, rng_d = random.Random(seed), random.Random(seed)
    picker_c, picker_d = NodePicker(tree_c), NodePicker(tree_d)
    for _ in range(steps):
        central.handle(random_request(tree_c, rng_c, picker=picker_c))
        distributed.submit_and_run(
            random_request(tree_d, rng_d, picker=picker_d))
    return central, distributed


def test_theorem_4_7_messages_track_moves_on_deep_paths():
    """The reduction costs a constant factor (the agent walks each
    package route at most four times), not a growing one."""
    ratios = []
    for n in (100, 300):
        central, distributed = twin_run(n, steps=n, m=6 * n, w=n, u=4 * n,
                                        seed=n, builder=build_path)
        ratios.append(distributed.counters.total
                      / max(central.counters.total, 1))
    assert max(ratios) < 10
    assert ratios[-1] <= 2.0 * ratios[0]


def test_theorem_4_9_not_worse_than_aaps_on_grow_only():
    """On AAPS's own (grow-only) model the general controller costs
    the same ballpark, not a growing factor more."""
    for n in (100, 300):
        seed = n + 7
        tree_ours = build_random_tree(n, seed=seed)
        tree_aaps = build_random_tree(n, seed=seed)
        m, w, u = 4 * n, n // 2, 4 * n
        ours = CentralizedController(tree_ours, m=m, w=w, u=u)
        aaps = AAPSController(tree_aaps, m=m, w=w, u=u)
        drive_handle(tree_ours, ours.handle, 2 * n, seed,
                     mix=grow_only_mix())
        drive_handle(tree_aaps, aaps.handle, 2 * n, seed,
                     mix=grow_only_mix())
        assert ours.counters.total / max(aaps.counters.total, 1) < 8


def test_theorem_4_7_full_dynamic_model_costs_under_n_per_change():
    """On the general model (leaf and internal inserts and deletes),
    which AAPS cannot run at all, the cost per change stays below n."""
    _central, distributed = twin_run(200, steps=400, m=2000, w=200,
                                     u=2000, seed=11)
    per_change = distributed.counters.total / max(
        distributed.tree.topology_changes, 1)
    assert per_change < distributed.tree.size


# ----------------------------------------------------------------------
# Section 5: size estimation, names, heavy children, labels, majority.
# ----------------------------------------------------------------------
#: Topological churn, additions slightly outweighing removals.
ESTIMATOR_MIX = {
    RequestKind.ADD_LEAF: 0.35,
    RequestKind.ADD_INTERNAL: 0.15,
    RequestKind.REMOVE_LEAF: 0.30,
    RequestKind.REMOVE_INTERNAL: 0.20,
}


def test_theorem_5_1_estimator_beats_flooding_at_polylog_cost():
    """beta = 2 holds at every step, the amortized cost stays under
    12 log^2 n, and the gap to Theta(n) flooding widens with n."""
    speedups = []
    for n in (100, 400):
        tree = build_random_tree(n, seed=n)
        app = make_app(AppSpec("size_estimation", params={"beta": 2.0}),
                       tree=tree)
        worst = [1.0]

        def serve(request, app=app, worst=worst):
            app.serve(request)
            worst[0] = max(worst[0], app.check_approximation())
        churn(tree, serve, 4 * n, seed=n, mix=ESTIMATOR_MIX)
        ours = app.counters.total / tree.topology_changes

        tree_f = build_random_tree(n, seed=n)
        flooding = FloodingSizeEstimator(tree_f)
        churn(tree_f, lambda request, tree=tree_f:
              perform_event(tree, request), 4 * n, seed=n,
              mix=ESTIMATOR_MIX)
        flood = flooding.counters.total / tree_f.topology_changes
        assert worst[0] <= 2.0, "beta-approximation violated"
        assert ours <= 12 * math.log2(n) ** 2, "above the polylog envelope"
        speedups.append(flood / ours)
    assert speedups == sorted(speedups)


def test_theorem_5_1_growth_from_a_singleton():
    """n0 = 1: iterations double and the approximation never breaks."""
    tree = DynamicTree()
    app = make_app(AppSpec("size_estimation", params={"beta": 2.0}),
                   tree=tree)
    worst = 1.0
    rng = random.Random(3)
    picker = NodePicker(tree)
    for _ in range(3000):
        app.serve(random_request(tree, rng, mix={RequestKind.ADD_LEAF: 1.0},
                                 picker=picker))
        worst = max(worst, app.check_approximation())
    picker.detach()
    assert worst <= 2.0


def test_theorem_5_2_names_stay_short_under_churn():
    """Unique ids in [1, 4n] (log n + O(1) bits) at every step, at
    O(log^2 n) messages per change."""
    mix = {RequestKind.ADD_LEAF: 0.40, RequestKind.ADD_INTERNAL: 0.10,
           RequestKind.REMOVE_LEAF: 0.30, RequestKind.REMOVE_INTERNAL: 0.20}
    for n in (100, 400):
        tree = build_random_tree(n, seed=n)
        app = make_app(AppSpec("name_assignment"), tree=tree)

        def serve(request, app=app):
            app.serve(request)
            app.check_invariants()
        churn(tree, serve, 3 * n, seed=n + 1, mix=mix)
        max_id = max(app.id_of(v) for v in tree.nodes())
        assert max_id / tree.size <= 4.0, "ids left [1, 4n]"
        assert max_id.bit_length() <= math.ceil(math.log2(tree.size)) + 2
        assert (app.counters.total / tree.topology_changes
                <= 14 * math.log2(tree.size) ** 2)


HEAVY_CHILD_MIX = {
    RequestKind.ADD_LEAF: 0.45,
    RequestKind.ADD_INTERNAL: 0.15,
    RequestKind.REMOVE_LEAF: 0.25,
    RequestKind.REMOVE_INTERNAL: 0.15,
}


def test_theorem_5_4_light_depth_is_logarithmic_under_churn():
    """Max light ancestors over log2 n: bounded, and not growing."""
    ratios = []
    for n in (100, 400):
        tree = build_random_tree(n, seed=n)
        app = make_app(AppSpec("heavy_child"), tree=tree)
        rng = random.Random(n + 2)
        picker = NodePicker(tree)
        worst = 0
        for step in range(2 * n):
            app.serve(random_request(tree, rng, mix=HEAVY_CHILD_MIX,
                                     picker=picker))
            if step % max(n // 8, 1) == 0:
                worst = max(worst, app.max_light_depth())
        picker.detach()
        worst = max(worst, app.max_light_depth())
        ratios.append(worst / math.log2(tree.size))
    assert all(ratio <= 6 for ratio in ratios)
    assert ratios[-1] <= 2.0 * max(ratios[0], 0.5)


def test_theorem_5_4_caterpillar_growth_stays_logarithmic():
    """Caterpillar spines maximize naive light depth."""
    tree = build_caterpillar(400, legs_per_node=3)
    app = make_app(AppSpec("heavy_child"), tree=tree)
    churn(tree, app.serve, 600, seed=5, mix={RequestKind.ADD_LEAF: 1.0})
    assert app.max_light_depth() <= 6 * math.log2(tree.size)


def test_corollary_5_7_labels_shrink_with_the_tree():
    """Ancestry labels stay correct through a 10x shrinkage and end
    within a constant of the 2 log n information floor."""
    mix = {RequestKind.REMOVE_LEAF: 0.6, RequestKind.REMOVE_INTERNAL: 0.4}
    for n in (200, 800):
        tree = build_random_tree(n, seed=n)
        labeling = AncestryLabeling(tree)
        bits_initial = labeling.label_bits()
        rng = random.Random(n + 4)
        picker = NodePicker(tree)
        while tree.size > n // 10:
            request = random_request(tree, rng, mix=mix, picker=picker)
            if request.kind is RequestKind.REMOVE_LEAF:
                tree.remove_leaf(request.node)
            elif request.kind is RequestKind.REMOVE_INTERNAL:
                tree.remove_internal(request.node)
            else:
                continue
            nodes = list(tree.nodes())
            labeling.check_correctness(
                [(nodes[rng.randrange(len(nodes))],
                  nodes[rng.randrange(len(nodes))]) for _ in range(5)])
        picker.detach()
        bits_final = labeling.label_bits()
        floor = 2 * math.ceil(math.log2(tree.size) + 1)
        assert bits_final < bits_initial
        assert bits_final <= floor + 2 * math.ceil(math.log2(n)) // 2 + 12


def test_corollary_5_7_relabel_cost_is_below_n_per_change():
    tree = build_random_tree(250, seed=7)
    labeling = AncestryLabeling(tree)
    rng = random.Random(8)
    picker = NodePicker(tree)
    for _ in range(1000):
        request = random_request(tree, rng, picker=picker)
        if request.kind is not RequestKind.PLAIN:
            perform_event(tree, request)
    picker.detach()
    assert labeling.counters.total / tree.topology_changes < tree.size


@pytest.mark.parametrize("total, leavers", [(100, False), (100, True),
                                            (1000, False), (1000, True)])
def test_section_1_3_majority_commit_over_the_estimator(total, leavers):
    """Never certified below a strict majority; commits by the end;
    polylog (< universe) messages per membership change."""
    tree = DynamicTree()
    app = make_app(AppSpec("majority_commit",
                           params={"total": total, "beta": 1.5}), tree=tree)
    rng = random.Random(total + int(leavers))
    nodes = [tree.root]
    commit_at = None
    while tree.size < total - 1:
        new = app.join(nodes[rng.randrange(len(nodes))])
        if new is not None:
            nodes.append(new)
        if leavers and rng.random() < 0.08 and tree.size > 3:
            leaf = next((x for x in reversed(nodes)
                         if x.alive and x.is_leaf and not x.is_root), None)
            if leaf is not None:
                app.leave(leaf)
                nodes.remove(leaf)
        if commit_at is None and app.can_commit():
            commit_at = tree.size
    if commit_at is not None:
        assert commit_at > total / 2
    assert app.can_commit()
    assert app.counters.total / max(tree.topology_changes, 1) < total


# ----------------------------------------------------------------------
# Section 1: the trivial root-round-trip controller, and the phi/psi
# waste-traffic trade-off.
# ----------------------------------------------------------------------
def test_section_1_gap_to_trivial_controller_widens_with_depth():
    """Omega(n) per request against polylog: the full sweep (100..1600)
    is needed, since 100..400 widens the gap only 1.7x of the 3x bar."""
    speedups = []
    mix = {RequestKind.PLAIN: 0.7, RequestKind.ADD_LEAF: 0.3}
    for n in (100, 400, 1600):
        requests = 4 * n
        tree_a, tree_b = build_path(n), build_path(n)
        ours = CentralizedController(tree_a, m=2 * requests, w=requests,
                                     u=4 * n)
        trivial = TrivialController(tree_b, m=2 * requests)
        drive_handle(tree_a, ours.handle, requests, seed=n, mix=mix)
        drive_handle(tree_b, trivial.handle, requests, seed=n, mix=mix)
        speedups.append(trivial.counters.total
                        / max(ours.counters.total, 1))
    assert all(s > 1 for s in speedups), "we should always win"
    assert speedups == sorted(speedups)
    assert speedups[-1] / speedups[0] > 3


def test_section_1_repeated_requests_at_one_deep_node():
    """The trivial controller pays the depth every time; ours once per
    phi permits (phi = 10 here)."""
    n = 1000
    tree_a, tree_b = build_path(n), build_path(n)
    deep_a = max(tree_a.nodes(), key=tree_a.depth)
    deep_b = max(tree_b.nodes(), key=tree_b.depth)
    ours = CentralizedController(tree_a, m=80_000, w=40_000, u=2 * n)
    trivial = TrivialController(tree_b, m=80_000)
    for _ in range(500):
        ours.handle(Request(RequestKind.PLAIN, deep_a))
        trivial.handle(Request(RequestKind.PLAIN, deep_b))
    assert ours.counters.total * 10 < trivial.counters.total


def test_waste_buys_traffic_through_phi_and_psi():
    """More allowed waste W gives larger pools and less travel at a
    hot node: a (weakly) decreasing cost in W."""
    costs = []
    for w in (1, 1_200, 12_000, 60_000, 110_000):
        tree = build_path(600)
        deep = max(tree.nodes(), key=tree.depth)
        controller = CentralizedController(tree, m=120_000, w=w, u=1200)
        for _ in range(400):
            controller.handle(Request(RequestKind.PLAIN, deep))
        costs.append(controller.counters.total / 400)
    assert costs[-1] < costs[0] / 3, "larger pools failed to amortize"
    assert all(a >= b * 0.8 for a, b in zip(costs, costs[1:]))
