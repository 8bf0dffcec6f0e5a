"""Distributed implementation of the (M,W)-Controller (Section 4).

The distributed controller runs on the discrete-event simulator: a
request at node ``u`` spawns a mobile *agent* that climbs toward the
root, locking every node on its way (waiting FIFO at locked nodes),
until it finds a filler node or the root; it then distributes the found
or created package down the locked path (``Proc``), grants the request,
walks back up to the topmost node it reached and descends again,
unlocking.  Every agent hop is one message — Lemma 4.5's accounting.

Graceful topology changes (Section 4.2) are realized by path *splices*:
insertions hand the new node's lock to the unique agent holding the
child endpoint while travelling upward, deletions move packages, queued
agents and the whiteboard to the parent.
"""

from repro.distributed.whiteboard import Whiteboard
from repro.distributed.agent import Agent, AgentState
from repro.distributed.controller import DistributedController
from repro.distributed.faults import FaultInjector, FaultPlan, parse_fault_spec
from repro.distributed.iterated import DistributedIteratedController
from repro.distributed.adaptive import DistributedAdaptiveController

__all__ = [
    "Whiteboard",
    "Agent",
    "AgentState",
    "DistributedController",
    "DistributedIteratedController",
    "DistributedAdaptiveController",
    "FaultPlan",
    "FaultInjector",
    "parse_fault_spec",
]
