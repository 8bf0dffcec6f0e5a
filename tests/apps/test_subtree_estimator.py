"""Tests for the subtree (super-weight) estimator app (Lemma 5.3).

The exact super-weights come from a :class:`SuperWeights` listener
attached before serving, which reads only the tree and the app's
iteration count, so a wrong ``omega_0`` cannot hide in the ground truth.
"""

from repro import AppSpec, RequestKind, make_app
from repro.apps.subtree_estimator import SuperWeights
from repro.workloads import build_random_tree
from tests.drivers import churn_app


def _build(tree, beta=2.0):
    """The app and the ground truth it is checked against."""
    app = make_app(AppSpec("subtree_estimator", params={"beta": beta}),
                   tree=tree)
    return app, SuperWeights(app)


def test_initial_estimates_are_exact():
    tree = build_random_tree(40, seed=1)
    app, weights = _build(tree)
    for node in tree.nodes():
        assert app.estimate_of(node) == weights.of(node)
    weights.detach()
    app.close()


def test_estimates_never_undercount():
    """omega_0 + passed permits >= SW: every addition below v shipped a
    permit through v first."""
    tree = build_random_tree(50, seed=2)
    app, weights = _build(tree)
    mix = {RequestKind.ADD_LEAF: 0.7, RequestKind.REMOVE_LEAF: 0.3}
    def check(step):
        for node in tree.nodes():
            assert (app.estimate_of(node)
                    >= weights.of(node) / app.beta)
    churn_app(tree, app, steps=150, seed=3, mix=mix, on_step=check)
    weights.detach()
    app.close()


def test_estimates_stay_within_factor_on_growth():
    """On grow-only workloads the estimate tracks SW within the
    beta-and-parked-packages envelope."""
    tree = build_random_tree(40, seed=4)
    app, weights = _build(tree)
    mix = {RequestKind.ADD_LEAF: 1.0}
    churn_app(tree, app, steps=300, seed=5, mix=mix)
    worst = 1.0
    for node in tree.nodes():
        true_sw = weights.of(node)
        est = app.estimate_of(node)
        worst = max(worst, est / true_sw, true_sw / est)
    # The paper proves a beta-approximation; parked-but-unconsumed
    # packages can inflate transiently, so allow beta * 2.
    assert worst <= app.beta * 2
    weights.detach()
    app.close()


def test_root_estimate_tracks_total_size():
    tree = build_random_tree(30, seed=6)
    app, weights = _build(tree)
    mix = {RequestKind.ADD_LEAF: 1.0}
    churn_app(tree, app, steps=200, seed=7, mix=mix)
    assert tree.size == 230
    # SW(root) within the current iteration is at least the live size
    # accrued since the iteration start; the estimate must track it.
    true_root = weights.of(tree.root)
    est = app.estimate_of(tree.root)
    assert true_root / 2 <= est <= 4 * true_root
    weights.detach()
    app.close()
