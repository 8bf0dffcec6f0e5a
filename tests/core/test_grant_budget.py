"""Counted grant cost: Python calls inside ``CentralizedController.handle``.

Timing on a shared host cannot resolve a saving of a frame or two per
request; the number of Python calls a seeded run makes is exact.  This
test profiles a phi = 1 churn stream (every grant is the Section 3.1
level-0 step: carve phi permits at the root, walk them down, spend
them) through the two synchronous surfaces that serve one, a
``size_estimation`` app and a 4-shard fleet with funded shard sessions,
and pins:

* at most :data:`HANDLE_BUDGET` calls per ``handle`` call inside it,
  not counting the tree's mutation methods and what they call (the
  granted event itself, and the listeners it notifies);
* at most :data:`AROUND_BUDGET` calls per served request around
  ``handle``: the surface's own frames, with rollovers and fundings
  amortized.  The terminating controller adds none, since its
  ``handle`` is its inner controller's own;
* one ``Outbox.record`` per served request on both surfaces (the fleet
  calls its shard engines directly, so a fleet request has one record);
* no ``MobilePackage`` and no ``DistributionPlan`` built: nothing is
  ever parked, so the inline grant serves every request, funding and
  exhaustion included.

The calls inside ``handle`` count only frames whose code lives in the
``repro`` package: stdlib and test-tool frames (a Hypothesis GC
callback, say) differ across interpreters and runs.  Records, packages
and plans are matched by code identity, wherever their code was
compiled (a dataclass ``__init__`` is compiled from a string); a
positive control shows the counter sees the general path build them.
"""

import os
import random
import sys
from collections import Counter

import repro
from repro.apps import make_app
from repro.core.centralized import CentralizedController
from repro.core.kernel import DistributionPlan, park
from repro.core.packages import MobilePackage
from repro.core.requests import Request, RequestKind
from repro.fleet import FleetConfig, FleetRouter
from repro.service import AppSpec
from repro.service.outbox import Outbox
from repro.tree.dynamic_tree import DynamicTree
from repro.workloads import (NodePicker, build_path, build_random_tree,
                             random_request)

#: Calls per ``handle`` call inside it, tree mutations excluded.
HANDLE_BUDGET = 5
#: Calls per served request inside ``serve`` but outside ``handle``.
#: The app stamps and records (2.20 here); the fleet also routes and
#: funds (5.04).  A terminating wrapper frame per request would make
#: them 3.24 and 6.03.
AROUND_BUDGET = {"app": 2.5, "fleet": 5.5}

_REPRO = os.path.dirname(repro.__file__) + os.sep
_MUTATIONS = frozenset(getattr(DynamicTree, name).__code__ for name in (
    "add_leaf", "add_internal", "remove_leaf", "remove_internal"))
_HANDLE = CentralizedController.handle.__code__
_RECORD = Outbox.record.__code__
_BUILT = {MobilePackage.__init__.__code__: "MobilePackage",
          DistributionPlan.__init__.__code__: "DistributionPlan",
          park.__code__: "park"}


class CallCounter:
    """A ``sys.setprofile`` hook counting ``repro`` call events."""

    def __init__(self, serve_code) -> None:
        self.handles = 0
        self.in_handle = Counter()
        self.serves = 0
        self.around = Counter()
        self.records = 0
        self.built = Counter()
        self._serve_code = serve_code
        self._serve_depth = 0
        self._handle_depth = 0
        self._mutation_depth = 0

    def __call__(self, frame, event, _arg) -> None:
        code = frame.f_code
        if event == "return":
            if code is _HANDLE:
                self._handle_depth -= 1
            elif code is self._serve_code:
                self._serve_depth -= 1
            elif code in _MUTATIONS and self._mutation_depth:
                self._mutation_depth -= 1
            return
        if event != "call":
            return
        if code is _RECORD:
            self.records += 1
        elif code in _BUILT:
            self.built[_BUILT[code]] += 1
        if code is _HANDLE:
            self._handle_depth += 1
            self.handles += 1
        elif code is self._serve_code:
            self._serve_depth += 1
            self.serves += 1
        elif code in _MUTATIONS:
            self._mutation_depth += 1
        elif (not self._mutation_depth
              and code.co_filename.startswith(_REPRO)):
            if self._handle_depth:
                self.in_handle[code.co_name] += 1
            elif self._serve_depth:
                self.around[code.co_name] += 1

    def per_handle(self) -> float:
        return sum(self.in_handle.values()) / self.handles

    def around_per_serve(self) -> float:
        return sum(self.around.values()) / self.serves


def profiled(serve, requests) -> CallCounter:
    counter = CallCounter(getattr(serve, "__func__", serve).__code__)
    sys.setprofile(counter)
    try:
        for request in requests:
            serve(request)
    finally:
        sys.setprofile(None)
    return counter


def churn(tree: DynamicTree, steps: int, seed: int):
    """A lazily drawn churn stream over the live ``tree``: each request
    is drawn after the previous one was served."""
    rng = random.Random(seed)
    picker = NodePicker(tree)
    try:
        for _ in range(steps):
            yield random_request(tree, rng, picker=picker)
    finally:
        picker.detach()


def assert_within_budget(counter: CallCounter, served: int,
                         granted: int, surface: str) -> None:
    assert counter.handles >= granted  # every grant went through handle
    assert counter.per_handle() <= HANDLE_BUDGET, (
        counter.per_handle(), counter.in_handle.most_common(8))
    assert counter.serves == served
    assert counter.around_per_serve() <= AROUND_BUDGET[surface], (
        counter.around_per_serve(), counter.around.most_common(8))
    assert counter.records == served
    assert not counter.built, counter.built


def test_an_app_grant_is_one_frame_and_one_record():
    tree = build_random_tree(300, seed=3)
    app = make_app(AppSpec("size_estimation"), tree=tree)
    steps = 3000
    counter = profiled(app.serve, churn(tree, steps, seed=5))
    assert app.iterations_run > 5  # every rollover builds a controller
    assert app.tally()["granted"] == steps
    assert app.audit().passed
    app.close()
    assert_within_budget(counter, steps, granted=steps, surface="app")


def test_a_fleet_grant_is_one_frame_and_one_record():
    shards = 4
    trees = [build_random_tree(120, seed=7 + index)
             for index in range(shards)]
    steps = 3000
    config = FleetConfig.of(shards=shards, m_total=steps - 100,
                            w_total=10 * shards, u=4 * steps, tranche=40,
                            seed=1)
    fleet = FleetRouter(config, trees=trees)
    rng = random.Random(9)
    pickers = [NodePicker(tree) for tree in trees]

    def requests():
        for _ in range(steps):
            index = rng.randrange(shards)
            yield random_request(trees[index], rng, picker=pickers[index])

    counter = profiled(fleet.serve, requests())
    for picker in pickers:
        picker.detach()
    tally = fleet.tally()
    # The run funds live sessions, terminates them and reaches the
    # global reject wave, all on the inline path.
    assert fleet.ledger.entries and fleet.reject_wave
    assert tally["granted"] == steps - 100 == fleet.granted_total
    assert tally["rejected"] == 100
    assert fleet.audit().passed
    fleet.close()
    assert_within_budget(counter, steps, granted=steps - 100,
                         surface="fleet")


def test_the_counter_sees_the_general_path_build_and_park():
    # Positive control: 199 hops below the root is beyond 2 psi
    # (psi = 12 at W = 4, U = 2), so the kernel plans a level >= 1
    # package and parks its splits on the way down.
    tree = build_path(200)
    deepest = tree.root
    while deepest.children:
        deepest = deepest.children[0]
    controller = CentralizedController(tree, m=100, w=4, u=2)
    counter = profiled(controller.handle,
                       [Request(RequestKind.ADD_LEAF, deepest)
                        for _ in range(4)])
    assert controller.granted == 4
    assert counter.handles == 4
    assert set(counter.built) == {"MobilePackage", "DistributionPlan",
                                  "park"}, counter.built
