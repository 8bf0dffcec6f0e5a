"""Session-based scenario driving.

:func:`drive_scenario` is the session-era form of the legacy
``repro.workloads.run_scenario`` driver: it generates the identical
random request stream (same RNG discipline, same
:class:`~repro.workloads.scenarios.NodePicker` sampling), but feeds it
through a :class:`~repro.service.session.ControllerSession` —
``submit_many`` + ``drain`` per batch — instead of calling a bare
``handle`` callable.  On the same seed and mix it produces the same
tallies as the legacy driver did against the same flavour, which the
equivalence property tests assert for every catalogue scenario.
"""

import random
from typing import Dict, Optional

from repro.core.requests import RequestKind
from repro.errors import ConfigError, ProtocolError
from repro.service.session import ControllerSession
from repro.workloads.scenarios import (
    NodePicker,
    ScenarioResult,
    random_request,
)


def drive_scenario(session: ControllerSession, steps: int, seed: int = 0,
                   mix: Optional[Dict[RequestKind, float]] = None,
                   batch_size: int = 1) -> ScenarioResult:
    """Generate ``steps`` random requests and serve them via ``session``.

    The contract mirrors the legacy driver exactly: requests are
    generated ``batch_size`` at a time against the tree state at batch
    start, and every outcome of a submitted batch is tallied (the
    controller already served it).  The admission window must cover
    the batch — a drive never wants to observe its own backpressure,
    so an undersized window raises instead of silently skewing the
    tallies.
    """
    if batch_size < 1:
        raise ConfigError(
            f"batch_size must be >= 1, got {batch_size}")
    if session.config.max_in_flight < batch_size:
        raise ConfigError(
            f"admission window {session.config.max_in_flight} cannot "
            f"cover batch_size {batch_size}; widen the window or "
            "shrink the batch")
    if session.in_flight or session.undelivered:
        # The drive owns the drain stream while it runs; foreign
        # records would be tallied as scenario outcomes.
        raise ConfigError(
            f"drive_scenario needs a quiescent session, but "
            f"{session.in_flight} requests are in flight and "
            f"{session.undelivered} settled records are undelivered; "
            "drain the session first")
    rng = random.Random(seed)
    picker = NodePicker(session.tree)
    result = ScenarioResult()
    try:
        step = 0
        while step < steps:
            count = min(batch_size, steps - step)
            batch = [random_request(session.tree, rng, mix=mix,
                                    picker=picker)
                     for _ in range(count)]
            session.submit_many(batch)
            for record in session.drain():
                outcome = record.outcome
                if outcome is None:  # backpressure cannot happen here
                    raise ProtocolError(
                        "drive_scenario observed backpressure despite "
                        "the window pre-check")
                result.record(outcome, False)
                step += 1
    finally:
        picker.detach()
    return result

