"""Counted hop cost: Python calls per agent hop, and whiteboard probes.

Timing on a shared host cannot resolve a per-hop saving of a frame or
two; the number of Python calls a seeded run makes is exact.  This test
profiles a distributed session over a scaled mixed_flood stream under
the stack benchmark's gateway_storm regime (bursty delays, 15% stalled
hops, churn storms) and pins the engine's per-hop budget:

* a hop is two Python frames, the compiled hop and
  ``Scheduler.schedule_call``: the delay model's ``sample``, the fault
  perturbation and the clock property are inlined into the hop;
* the arrival handlers call neither the clock property nor the tracer
  while tracing is off;
* a whiteboard read on the hop path costs no dict probe: the per-hop
  handlers call ``WhiteboardMap.get`` only to create a board, and the
  map never hashes a node (its entries are keyed by identity).
"""

import gc
import sys
from collections import Counter
from dataclasses import replace

from repro.distributed import controller as controller_module
from repro.distributed.faults import parse_fault_spec
from repro.distributed.whiteboard import Whiteboard, WhiteboardMap
from repro.service import ControllerSession, ControllerSpec, SessionConfig
from repro.sim.delays import BurstStallDelay, UniformDelay
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Tracer
from repro.tree.node import TreeNode
from repro.workloads import get_scenario

STORM_FAULTS = "stall=0.15,storms=3,storm_size=6"

#: The controller methods on the hop path that read whiteboards: the
#: request arrival, the arrival handlers and the lock hand-off.  Cold
#: paths (reject wave, splits, splices, removals) read through
#: ``WhiteboardMap.get``.
HOP_PATH_READERS = ("_on_request_arrival", "_after_lock", "_climb_arrive",
                    "_grant_from_static", "_unlock_current",
                    "_release_lock", "_resumed_at")


def _code(function):
    return getattr(function, "__func__", function).__code__


def test_a_hop_costs_two_frames_and_a_board_read_no_probe():
    spec = get_scenario("mixed_flood").scaled(0.5)
    tree = spec.build_tree(seed=1)
    requests = spec.stream(tree, seed=1)
    span = len(requests) * 0.25 + 4 * spec.n
    plan = replace(parse_fault_spec(STORM_FAULTS).resolved(span), seed=1)
    session = ControllerSession(SessionConfig(
        controller=ControllerSpec("distributed", m=spec.m, w=spec.w,
                                  u=spec.u),
        delay_model="burst", faults=plan, seed=1,
        max_in_flight=len(requests)), tree=tree)
    controller = session.controller
    hop = _code(controller._hop)
    controller_file = controller_module.__file__
    map_codes = {_code(getattr(WhiteboardMap, name))
                 for name in ("get", "peek", "discard")}
    get, discard = _code(WhiteboardMap.get), _code(WhiteboardMap.discard)
    readers = {_code(getattr(controller_module.DistributedController, name))
               for name in HOP_PATH_READERS}
    samples = {_code(UniformDelay.sample), _code(BurstStallDelay.sample)}
    now, emit = _code(Scheduler.now.fget), _code(Tracer.emit)
    new_board = _code(Whiteboard.__init__)
    node_hash = _code(TreeNode.__hash__)

    on_hop_path = Counter()
    counts = Counter()
    depth = [0]

    def profile(frame, event, _arg):
        code = frame.f_code
        if event == "return":
            if code is hop:
                depth[0] -= 1
            return
        if event != "call":
            return
        if code is hop:
            depth[0] += 1
        if depth[0]:
            on_hop_path[code.co_name] += 1
        caller = frame.f_back.f_code
        from_controller = (caller.co_filename == controller_file
                           or caller is hop)
        if code in samples:
            counts["sample"] += 1
        elif code is new_board:
            counts["boards"] += 1
        elif code is get and caller in readers:
            counts["get"] += 1
        elif code is discard and from_controller:
            counts["discard"] += 1
        elif code in (now, emit) and from_controller:
            counts[code.co_name] += 1
        elif code is node_hash and (caller.co_filename == controller_file
                                    or caller in map_codes):
            counts["hash"] += 1

    # Every frame inside a hop counts, so no garbage collection may run
    # in the window: a GC callback (Hypothesis registers one) would
    # fire inside whichever hop allocated last.
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        session.submit_many(requests, stagger=0.25)
        records = list(session.drain())
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    hops = controller.counters.agent_hops
    stats = controller.faults.stats
    session.close()
    assert len(records) == len(requests)
    # The regime really ran: hops, stalls, storms, deletions.
    assert hops > 1000 and stats["stalls"] > 0 and stats["storm_ops"] > 0
    assert counts["discard"] > 0

    # Two frames per hop: the hop and schedule_call, nothing nested.
    assert sum(on_hop_path.values()) <= 2 * hops, on_hop_path
    assert on_hop_path[hop.co_name] == hops
    assert counts["sample"] == 0
    assert counts["now"] == counts["emit"] == 0

    # Whiteboards live in node slots: on the hop path get() only
    # creates, and creating or dropping a board hashes no node.
    assert counts["get"] <= counts["boards"]
    assert counts["hash"] == 0
