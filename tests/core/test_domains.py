"""Machine-checking the domain invariants of Section 3.2.

The paper's entire liveness analysis rests on three invariants over the
(analysis-only) package domains.  These property tests run randomized
dynamic scenarios with a :class:`DomainOracle` fed by the controller's
kernel events and check the invariants after every single request — on
random trees (shallow, level-0-dominated) and on deep paths (the
multi-level regime where the recursive splitting of ``Proc`` actually
exercises domain creation).  After every step the oracle's shadow of
the parked packages must also equal the controller's stores.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import CentralizedController, Request, RequestKind
from repro.core.params import ControllerParams
from repro.errors import InvariantViolation
from repro.tree import paths
from repro.workloads import build_path, build_random_tree
from tests.core.domain_oracle import DomainOracle
from tests.drivers import drive_handle, store_map


def _controller(tree, m, w, u):
    """A controller with a :class:`DomainOracle` as its kernel trace."""
    oracle = DomainOracle(tree, ControllerParams(m=m, w=w, u=u))
    controller = CentralizedController(tree, m=m, w=w, u=u,
                                       kernel_trace=oracle)
    return controller, oracle


def _check(controller, oracle):
    oracle.check_invariants()
    parked = {node_id: mobile
              for node_id, (_static, mobile, _reject)
              in store_map(controller).items() if mobile}
    assert oracle.shadow() == parked


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_domain_invariants_on_random_trees(seed):
    tree = build_random_tree(40, seed=seed)
    controller, oracle = _controller(tree, m=600, w=150, u=1500)
    def check(step, outcome):
        _check(controller, oracle)
    drive_handle(tree, controller.handle, steps=150, seed=seed + 1,
                 on_step=check)


# Seeds 3 and 171 delete a node that hosts a parked package, so the
# deletion hand-over of mobile packages is exercised on every run.
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
@example(seed=3)
@example(seed=171)
def test_domain_invariants_on_deep_paths(seed):
    tree = build_path(700)
    controller, oracle = _controller(tree, m=3000, w=1500, u=1400)
    assert controller.params.creation_level(699) >= 2
    def check(step, outcome):
        _check(controller, oracle)
    drive_handle(tree, controller.handle, steps=250, seed=seed,
                 on_step=check)


def test_domains_created_by_deep_distribution():
    tree = build_path(900)
    controller, oracle = _controller(tree, m=4000, w=2000, u=1800)
    deep = max(tree.nodes(), key=paths.depth)
    controller.handle(Request(RequestKind.PLAIN, deep))
    level = controller.params.creation_level(paths.depth(deep))
    tracked = oracle.tracked_packages()
    assert len(tracked) == level  # one parked package per level < j(u)
    for package in tracked:
        domain = package.domain
        assert len(domain) == controller.params.domain_size(package.level)
    _check(controller, oracle)


def test_internal_insert_updates_domain():
    """Case 4: an inserted parent joins the domain, the bottom leaves."""
    tree = build_path(900)
    controller, oracle = _controller(tree, m=4000, w=2000, u=1800)
    deep = max(tree.nodes(), key=paths.depth)
    controller.handle(Request(RequestKind.PLAIN, deep))
    package = max(oracle.tracked_packages(), key=lambda p: p.level)
    domain_before = list(package.domain)
    middle = domain_before[len(domain_before) // 2]
    inserted = tree.add_internal(middle.parent, middle)
    domain_after = package.domain
    assert inserted in domain_after
    assert len(domain_after) == len(domain_before)  # invariant 1 kept
    assert domain_after[-1] is not domain_before[-1]  # bottom evicted
    _check(controller, oracle)


def test_deleted_nodes_stay_in_domains():
    """Case 5: deletion does not shrink a domain."""
    tree = build_path(900)
    controller, oracle = _controller(tree, m=4000, w=2000, u=1800)
    deep = max(tree.nodes(), key=paths.depth)
    controller.handle(Request(RequestKind.PLAIN, deep))
    package = max(oracle.tracked_packages(), key=lambda p: p.level)
    domain = package.domain
    victim = domain[len(domain) // 2]
    tree.remove_internal(victim)
    assert victim in package.domain
    assert not victim.alive
    _check(controller, oracle)


def test_corrupted_domain_is_detected():
    """The checker itself must catch planted violations."""
    tree = build_path(900)
    controller, oracle = _controller(tree, m=4000, w=2000, u=1800)
    deep = max(tree.nodes(), key=paths.depth)
    controller.handle(Request(RequestKind.PLAIN, deep))
    package = oracle.tracked_packages()[0]
    package.domain.pop()  # break invariant 1
    with pytest.raises(InvariantViolation):
        oracle.check_invariants()
