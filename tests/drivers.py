"""Shared test scaffolding: drive a bare controller over random churn.

The session layer owns the supported scenario driver
(:func:`repro.service.drive_scenario`); tests that poke a controller's
*internals* — domains, stage boundaries, counters mid-flight — still
want to feed a raw ``handle`` callable directly.  ``drive_handle`` does
that with the same stream discipline (one :class:`NodePicker`, one
``random.Random(seed)``, :func:`random_request` per step) so tallies
stay comparable across the suite.
"""

import random

from repro.core.requests import RequestKind
from repro.tree.dynamic_tree import TreeListener
from repro.workloads.scenarios import (
    NodePicker,
    ScenarioResult,
    random_request,
)


class SizeHistory(TreeListener):
    """The ``n_j`` series of Theorem 3.5: the tree's size just before
    each topological change, recorded by a listener attached to
    ``tree``.  Hooks run after the change, so an addition saw
    ``size - 1`` nodes and a removal ``size + 1``."""

    def __init__(self, tree):
        self.tree = tree
        self.sizes = []
        tree.add_listener(self)

    def on_add_leaf(self, node):
        self.sizes.append(self.tree.size - 1)

    def on_add_internal(self, node, parent, child):
        self.sizes.append(self.tree.size - 1)

    def on_remove_leaf(self, node, parent):
        self.sizes.append(self.tree.size + 1)

    def on_remove_internal(self, node, parent, children):
        self.sizes.append(self.tree.size + 1)


def drive_handle(tree, handle, steps, seed=0, mix=None,
                 keep_outcomes=False, on_step=None, stop_when=None):
    """Feed ``steps`` random feasible requests to ``handle``."""
    rng = random.Random(seed)
    picker = NodePicker(tree)
    result = ScenarioResult()
    try:
        for step in range(steps):
            outcome = handle(random_request(tree, rng, mix=mix,
                                            picker=picker))
            result.record(outcome, keep_outcomes)
            if on_step is not None:
                on_step(step, outcome)
            if stop_when is not None and stop_when():
                break
    finally:
        picker.detach()
    return result


def churn_app(tree, app, steps, seed=0, mix=None, on_step=None):
    """Feed ``steps`` *topological* requests through ``app.serve``.

    PLAIN draws are skipped (not counted) so ``steps`` counts actual
    topology churn — the figure the Section 5 theorem bounds are stated
    against.  ``on_step(done)`` fires after each served change.
    """
    rng = random.Random(seed)
    picker = NodePicker(tree)
    done = 0
    try:
        while done < steps:
            request = random_request(tree, rng, mix=mix, picker=picker)
            if request.kind is RequestKind.PLAIN:
                continue
            app.serve(request)
            done += 1
            if on_step is not None:
                on_step(done)
    finally:
        picker.detach()


def store_map(controller):
    """A centralized controller's store map, node by node: static pool,
    parked ``(level, size)`` list and reject flag of every node that
    has a store (twin trees share node ids, so maps compare)."""
    return {node.node_id: (store.static_permits,
                           [(p.level, p.size) for p in store.mobile],
                           store.has_reject)
            for node, store in controller.stores.items()}
