"""Machine-checking the domain invariants of Section 3.2.

The paper's entire liveness analysis rests on three invariants over the
(analysis-only) package domains.  These property tests run randomized
dynamic scenarios with the :class:`DomainTracker` attached and check
the invariants after every single request — on random trees (shallow,
level-0-dominated) and on deep paths (the multi-level regime where the
recursive splitting of ``Proc`` actually exercises domain creation).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import CentralizedController, Request, RequestKind
from repro.core.domains import DomainTracker
from repro.errors import InvariantViolation
from repro.tree import paths
from repro.workloads import build_path, build_random_tree
from tests.drivers import drive_handle


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_domain_invariants_on_random_trees(seed):
    tree = build_random_tree(40, seed=seed)
    controller = CentralizedController(tree, m=600, w=150, u=1500,
                                       track_domains=True)
    def check(step, outcome):
        controller.domains.check_invariants()
    drive_handle(tree, controller.handle, steps=150, seed=seed + 1,
                 on_step=check)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_domain_invariants_on_deep_paths(seed):
    tree = build_path(700)
    controller = CentralizedController(tree, m=3000, w=1500, u=1400,
                                       track_domains=True)
    assert controller.params.creation_level(699) >= 2
    def check(step, outcome):
        controller.domains.check_invariants()
    drive_handle(tree, controller.handle, steps=250, seed=seed,
                 on_step=check)


def test_domains_created_by_deep_distribution():
    tree = build_path(900)
    controller = CentralizedController(tree, m=4000, w=2000, u=1800,
                                       track_domains=True)
    deep = max(tree.nodes(), key=paths.depth)
    controller.handle(Request(RequestKind.PLAIN, deep))
    level = controller.params.creation_level(paths.depth(deep))
    tracked = controller.domains.tracked_packages()
    assert len(tracked) == level  # one parked package per level < j(u)
    for package in tracked:
        domain = controller.domains.domain_of(package)
        assert len(domain) == controller.params.domain_size(package.level)
    controller.domains.check_invariants()


def test_internal_insert_updates_domain():
    """Case 4: an inserted parent joins the domain, the bottom leaves."""
    tree = build_path(900)
    controller = CentralizedController(tree, m=4000, w=2000, u=1800,
                                       track_domains=True)
    deep = max(tree.nodes(), key=paths.depth)
    controller.handle(Request(RequestKind.PLAIN, deep))
    package = max(controller.domains.tracked_packages(),
                  key=lambda p: p.level)
    domain_before = list(controller.domains.domain_of(package))
    middle = domain_before[len(domain_before) // 2]
    inserted = tree.add_internal(middle.parent, middle)
    domain_after = controller.domains.domain_of(package)
    assert inserted in domain_after
    assert len(domain_after) == len(domain_before)  # invariant 1 kept
    assert domain_after[-1] is not domain_before[-1]  # bottom evicted
    controller.domains.check_invariants()


def test_deleted_nodes_stay_in_domains():
    """Case 5: deletion does not shrink a domain."""
    tree = build_path(900)
    controller = CentralizedController(tree, m=4000, w=2000, u=1800,
                                       track_domains=True)
    deep = max(tree.nodes(), key=paths.depth)
    controller.handle(Request(RequestKind.PLAIN, deep))
    package = max(controller.domains.tracked_packages(),
                  key=lambda p: p.level)
    domain = controller.domains.domain_of(package)
    victim = domain[len(domain) // 2]
    tree.remove_internal(victim)
    assert victim in controller.domains.domain_of(package)
    assert not victim.alive
    controller.domains.check_invariants()


def test_corrupted_domain_is_detected():
    """The checker itself must catch planted violations."""
    tree = build_path(900)
    controller = CentralizedController(tree, m=4000, w=2000, u=1800,
                                       track_domains=True)
    deep = max(tree.nodes(), key=paths.depth)
    controller.handle(Request(RequestKind.PLAIN, deep))
    tracker: DomainTracker = controller.domains
    package = tracker.tracked_packages()[0]
    tracker.domain_of(package).pop()  # break invariant 1
    with pytest.raises(InvariantViolation):
        tracker.check_invariants()
