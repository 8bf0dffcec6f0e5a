"""Counted mutation cost: Python calls inside ``DynamicTree`` mutations.

A granted churn event mutates the tree, so the four mutation methods
run once per topological request; their bookkeeping is local to the
simulation (the cost model charges package moves only), yet it is
paid on every such request.  Timing on a shared host cannot resolve
a frame or two; the number of Python calls a seeded run makes is
exact.  This test serves a seeded churn stream through a
``CentralizedController`` with a ``TreeMirror`` resolving the requests
(the two listeners a stackbench churn tree carries) and pins:

* at most :data:`MUTATION_BUDGET` calls per mutation inside it, on
  average, counting the node constructor, the port draws and every
  listener hook with what it calls;
* no ``TreeNode.__hash__`` call inside any mutation.

Only frames whose code lives in the ``repro`` package count (stdlib
and test-tool frames differ across interpreters), and the garbage
collector is off in the profiled window: Hypothesis registers a GC
callback that would fire inside a mutation.
"""

import gc
import os
import random
import sys
from collections import Counter

import repro
from repro.core.centralized import CentralizedController
from repro.core.requests import perform_event
from repro.tree.dynamic_tree import DynamicTree
from repro.tree.node import TreeNode
from repro.workloads.scenarios import (NodePicker, TreeMirror,
                                       build_random_tree, random_request,
                                       request_spec)

#: Calls per mutation inside it, hooks and port draws included.
MUTATION_BUDGET = 5

_REPRO = os.path.dirname(repro.__file__) + os.sep
_MUTATIONS = frozenset(getattr(DynamicTree, name).__code__ for name in (
    "add_leaf", "add_internal", "remove_leaf", "remove_internal"))
_HASH = TreeNode.__hash__.__code__


class MutationCounter:
    """A ``sys.setprofile`` hook counting ``repro`` calls per mutation."""

    def __init__(self) -> None:
        self.mutations = Counter()
        self.inside = Counter()
        self._depth = 0

    def __call__(self, frame, event, _arg) -> None:
        code = frame.f_code
        if event == "return":
            if code in _MUTATIONS:
                self._depth -= 1
            return
        if event != "call":
            return
        if self._depth and code.co_filename.startswith(_REPRO):
            self.inside[code] += 1
        if code in _MUTATIONS:
            if not self._depth:
                self.mutations[code.co_name] += 1
            self._depth += 1

    def per_mutation(self) -> float:
        return sum(self.inside.values()) / sum(self.mutations.values())

    def names(self) -> Counter:
        return Counter({code.co_name: count
                        for code, count in self.inside.items()})


def churn_specs(nodes: int, steps: int, seed: int):
    """A seeded churn stream, drawn over a shadow twin of the live tree
    and recorded as tree-independent specs."""
    shadow = build_random_tree(nodes, seed=seed)
    rng = random.Random(seed)
    picker = NodePicker(shadow)
    specs = []
    try:
        for _ in range(steps):
            request = random_request(shadow, rng, picker=picker)
            specs.append(request_spec(request))
            perform_event(shadow, request)
    finally:
        picker.detach()
    return specs


def serve_counted(nodes: int, steps: int, seed: int):
    specs = churn_specs(nodes, steps, seed)
    tree = build_random_tree(nodes, seed=seed)
    # phi = 1 and 2 psi beyond any depth: every grant is the level-0 one.
    controller = CentralizedController(tree, m=steps, w=20,
                                       u=4 * (nodes + steps))
    mirror = TreeMirror(tree)
    counter = MutationCounter()
    granted = 0
    gc.disable()
    sys.setprofile(counter)
    try:
        for request in mirror.requests(specs):
            granted += controller.handle(request).granted
    finally:
        sys.setprofile(None)
        gc.enable()
    mirror.detach()
    tree.validate()
    return counter, granted, tree


def test_a_mutation_is_one_frame_plus_its_draws_and_hooks():
    steps = 3000
    counter, granted, tree = serve_counted(300, steps, seed=5)
    assert granted == steps
    assert set(counter.mutations) == {"add_leaf", "add_internal",
                                      "remove_leaf", "remove_internal"}
    assert sum(counter.mutations.values()) == tree.topology_changes
    # The counter sees what a mutation calls: port draws and both
    # listeners' hooks.
    names = counter.names()
    assert names["next_port"]
    for listener in (CentralizedController, TreeMirror):
        assert listener.on_add_leaf.__code__ in counter.inside
    assert counter.per_mutation() <= MUTATION_BUDGET, (
        counter.per_mutation(), names.most_common(8))
    assert _HASH not in counter.inside, names.most_common(8)


def test_the_count_repeats_exactly():
    first, _, _ = serve_counted(120, 600, seed=9)
    second, _, _ = serve_counted(120, 600, seed=9)
    assert first.inside == second.inside
    assert first.mutations == second.mutations
