"""The agent hop, built once per controller.

Every agent hop is one message (Section 4.3.1): the hop counts it,
draws its delay from the controller's delay model, applies the fault
plan (stalls, delivery pauses) and schedules the arrival.  Drawn
through the model's ``sample`` and a separate fault perturbation, that
costs several Python frames per message; :func:`compile_hop` instead
returns one function per controller that does it inline, so a hop over
bursty uniform delays with stalls (the stack benchmark's gateway_storm
regime) is two frames: the hop and ``Scheduler.schedule_call``.

Only that measured shape is inlined: an exact :class:`UniformDelay`,
optionally wrapped by an exact :class:`BurstStallDelay`.  Any other
model, a subclass of those two included, and any other burst base, is
drawn through its own ``sample``.  The draws, their order and the
arithmetic are those of sampling the model and then perturbing the
delay, so every execution is bit-identical;
``tests/distributed/hop_oracle.py`` keeps that composition as the
oracle the differential tests compare against.

The burst window counter stays on the model, read and written through
it: the staged controllers of ``distributed_iterated`` and
``distributed_adaptive`` share one delay model, and their hops must
advance one window.
"""

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.distributed.agent import Agent, AgentState
from repro.sim.delays import BurstStallDelay, UniformDelay

if TYPE_CHECKING:
    from repro.distributed.controller import DistributedController

Hop = Callable[[Agent, int], None]


def compile_hop(controller: "DistributedController") -> Hop:
    """The controller's hop: ``hop(agent, phase)`` sends ``agent`` to
    ``controller._dispatch[phase]``, one message, after a delay drawn
    from ``controller.delays`` and perturbed by ``controller.faults``."""
    counters = controller.counters
    scheduler = controller.scheduler
    schedule_call = scheduler.schedule_call
    dispatch = controller._dispatch
    climbing = AgentState.CLIMBING

    model = controller.delays
    keyed = model.reads_key
    burst: Optional[BurstStallDelay] = None
    period = first = 0
    factor = 1.0
    if type(model) is BurstStallDelay:
        # The base is drawn first, then the window, as sample() nests.
        burst, model = model, model._base
        period, factor = burst._period, burst._factor
        first = period - burst._burst
    sample = model.sample
    # UniformDelay.sample's own expression on the same generator.
    draw: Optional[Callable[[], float]] = None
    low = width = 0.0
    if type(model) is UniformDelay:
        low, width, draw = model._low, model._width, model._random

    faults = controller.faults
    stats: Dict[str, int] = {}
    stall: Optional[Callable[[], float]] = None
    stall_prob = stall_factor = 0.0
    windows: Tuple[Tuple[float, float], ...] = ()
    if faults is not None:
        stats = faults.stats
        plan = faults.plan
        if plan.stall_prob:
            stall = faults._rng.random
            stall_prob, stall_factor = plan.stall_prob, plan.stall_factor
        windows = tuple(faults._windows)

    def hop(agent: Agent, phase: int) -> None:
        counters.agent_hops += 1
        if draw is not None:
            delay = low + width * draw()
        elif keyed:
            # The departure node's id: keyed models (per-edge jitter)
            # make specific links slow.
            path = agent.path
            if agent.state is climbing:
                key = path[-1].node_id if path else agent.origin.node_id
            elif path:
                key = path[min(agent.pos, len(path) - 1)].node_id
            else:
                key = agent.origin.node_id
            delay = sample(key)
        else:
            delay = sample()
        if burst is not None:
            count = burst._count
            burst._count = count + 1
            if count % period >= first:
                delay *= factor
        # Stalls: a stalled hop is just a very slow message (Section 2.1).
        if stall is not None and stall() < stall_prob:
            delay *= stall_factor
            stats["stalls"] += 1
        if windows:
            # The windows are sorted, so pushing an arrival past one
            # window's end lets the next iteration re-check later ones.
            now = scheduler.now
            arrival = now + delay
            clamped = False
            for start, end in windows:
                if start <= arrival < end:
                    arrival = end
                    clamped = True
            if clamped:
                stats["paused_deliveries"] += 1
                delay = arrival - now
        schedule_call(delay, dispatch[phase], agent)

    return hop
