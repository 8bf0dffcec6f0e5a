"""Discrete-event simulation substrate.

The paper assumes the standard asynchronous point-to-point message-passing
model (Section 2.1): messages incur arbitrary but finite delays.  This
package provides a deterministic discrete-event simulator that realizes
that model: events pop in the order of a schedule policy (chronological
``(time, sequence)`` order by default), message delays are drawn from
seeded delay models, and the whole execution is reproducible from the
seed.
"""

from repro.sim.scheduler import SCHEDULE_POLICIES, Event, Scheduler
from repro.sim.delays import (
    DELAY_MODELS,
    BurstStallDelay,
    DelayModel,
    HeavyTailDelay,
    PerEdgeJitterDelay,
    UniformDelay,
    UnitDelay,
    make_delay_model,
)

__all__ = [
    "Event",
    "Scheduler",
    "DelayModel",
    "UnitDelay",
    "UniformDelay",
    "HeavyTailDelay",
    "PerEdgeJitterDelay",
    "BurstStallDelay",
    "DELAY_MODELS",
    "make_delay_model",
    "SCHEDULE_POLICIES",
]
