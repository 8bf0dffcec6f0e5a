"""The reference agent hop: sample the delay model, then perturb.

``repro.distributed.hop.compile_hop`` folds a controller's delay
model and fault plan into one function.  This module keeps the
composition it replaces — the departure-node key, ``delays.sample``
(with the key only for models that read it), the fault plan's stall
draw and pause-window clamp, then ``schedule_call`` — so the
differential tests can run one execution under each and compare.

:func:`oracle_hops` patches the compiler out of every controller built
inside the context.
"""

import contextlib
from typing import Callable, Iterator

import pytest

from repro.distributed import controller as controller_module
from repro.distributed.agent import Agent, AgentState
from repro.distributed.controller import DistributedController
from repro.distributed.faults import FaultInjector


def perturb(injector: FaultInjector, now: float, delay: float) -> float:
    """Apply the plan's stalls and pause windows to one hop's delay."""
    plan = injector.plan
    if plan.stall_prob and injector._rng.random() < plan.stall_prob:
        delay *= plan.stall_factor
        injector.stats["stalls"] += 1
    if injector._windows:
        arrival = now + delay
        clamped = False
        # Windows are sorted, so pushing an arrival past one window's
        # end lets the next iteration re-check the later windows.
        for start, end in injector._windows:
            if start <= arrival < end:
                arrival = end
                clamped = True
        if clamped:
            injector.stats["paused_deliveries"] += 1
            delay = arrival - now
    return delay


def hop_key(agent: Agent) -> int:
    """The id of the node the hop departs from."""
    path = agent.path
    if agent.state is AgentState.CLIMBING:
        return path[-1].node_id if path else agent.origin.node_id
    if path:
        return path[min(agent.pos, len(path) - 1)].node_id
    return agent.origin.node_id


def oracle_hop(controller: DistributedController
               ) -> Callable[[Agent, int], None]:
    """``controller``'s hop as the composition of its collaborators."""
    delays, faults = controller.delays, controller.faults
    scheduler = controller.scheduler

    def hop(agent: Agent, phase: int) -> None:
        controller.counters.agent_hops += 1
        if delays.reads_key:
            delay = delays.sample(hop_key(agent))
        else:
            delay = delays.sample()
        if faults is not None:
            delay = perturb(faults, scheduler.now, delay)
        scheduler.schedule_call(delay, controller._dispatch[phase], agent)

    return hop


@contextlib.contextmanager
def oracle_hops() -> Iterator[None]:
    """Controllers built inside the context hop through the oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(controller_module, "compile_hop", oracle_hop)
        yield
