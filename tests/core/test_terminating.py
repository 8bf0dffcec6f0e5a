"""Tests for the terminating controller (Observation 2.1)."""

import gc
import weakref

import pytest

from repro.errors import ControllerError
from repro import (
    DynamicTree,
    OutcomeStatus,
    Request,
    RequestKind,
    TerminatingController,
)
from repro.workloads import build_random_tree
from tests.drivers import drive_handle


def plain(node):
    return Request(RequestKind.PLAIN, node)


def test_never_rejects():
    tree = DynamicTree()
    controller = TerminatingController(tree, m=5, w=2, u=50)
    statuses = [controller.submit(plain(tree.root)).status
                for _ in range(12)]
    assert OutcomeStatus.REJECTED not in statuses
    assert OutcomeStatus.PENDING in statuses


def test_grants_between_m_minus_w_and_m_at_termination():
    for seed in range(5):
        tree = build_random_tree(10, seed=seed)
        controller = TerminatingController(tree, m=30, w=8, u=300)
        drive_handle(tree, controller.submit, steps=200, seed=seed + 30,
                     stop_when=lambda: controller.terminated)
        if controller.terminated:
            assert 30 - 8 <= controller.granted <= 30


def test_requests_after_termination_are_queued():
    tree = DynamicTree()
    controller = TerminatingController(tree, m=2, w=1, u=20)
    while not controller.terminated:
        controller.submit(plain(tree.root))
    before = len(controller.pending)
    outcome = controller.submit(plain(tree.root))
    assert outcome.status is OutcomeStatus.PENDING
    assert len(controller.pending) == before + 1


def test_no_grant_after_termination():
    tree = DynamicTree()
    controller = TerminatingController(tree, m=3, w=1, u=20)
    while not controller.terminated:
        controller.submit(plain(tree.root))
    granted_at_termination = controller.granted
    for _ in range(5):
        controller.submit(plain(tree.root))
    assert controller.granted == granted_at_termination


def test_a_terminated_controller_queues_every_request():
    """After termination every request comes back PENDING and is
    queued: one the child's static pool could still serve (phi = 2),
    one whose event lost its meaning, through ``handle``, ``submit``,
    ``handle_batch`` and a ``handle`` read before termination."""
    tree = DynamicTree()
    child = tree.add_leaf(tree.root)
    controller = TerminatingController(tree, m=4, w=8, u=2)
    assert controller.inner.params.phi == 2
    early_handle = controller.handle
    assert controller.handle(plain(child)).granted  # child keeps 1
    while not controller.terminated:
        controller.handle(plain(tree.root))
    granted, charged = controller.granted, controller.counters.total
    queued = list(controller.pending)
    late = []

    def batch_of_one(request):
        return controller.handle_batch([request])[0]

    for serve in (controller.handle, controller.submit, batch_of_one,
                  early_handle):
        for request in (plain(child),
                        Request(RequestKind.REMOVE_LEAF, tree.root)):
            assert serve(request).status is OutcomeStatus.PENDING
            late.append(request)
    assert controller.granted == granted
    assert controller.counters.total == charged  # terminated once
    assert controller.pending == queued + late


def test_a_terminated_controller_is_freed_by_reference_counting():
    """The inner controller's termination hook holds its owner weakly:
    a strong reference would leave every terminated iteration's
    controller, stores and all, to the cyclic collector."""
    tree = build_random_tree(10, seed=2)
    gc.disable()
    try:
        controller = TerminatingController(tree, m=3, w=1, u=40)
        while not controller.terminated:
            controller.handle(plain(tree.root))
        owner, inner = weakref.ref(controller), weakref.ref(controller.inner)
        del controller
        assert owner() is None and inner() is None
    finally:
        gc.enable()


def test_termination_charges_broadcast_and_upcast():
    tree = build_random_tree(10, seed=1)
    controller = TerminatingController(tree, m=2, w=1, u=100)
    while not controller.terminated:
        controller.submit(plain(tree.root))
    assert controller.counters.reset_moves >= 2 * tree.size


def test_rejecting_inner_controller_is_rejected():
    """The wrapper guards against misconfiguration."""
    tree = DynamicTree()
    controller = TerminatingController(tree, m=1, w=1, u=10)
    # Force the inner controller into reject mode behind the wrapper's
    # back; the wrapper must notice rather than mislabel the outcome.
    controller.inner.reject_on_exhaustion = True
    controller.submit(plain(tree.root))
    with pytest.raises(ControllerError):
        controller.submit(plain(tree.root))
