"""repro.gateway — the async ingestion gateway (the concurrent front
door over one session).

Layer map (queue -> throttle -> breaker -> session; full lifecycle in
``docs/architecture.md`` §9):

* :class:`~repro.gateway.gateway.Gateway` — thread-safe admission, a
  bounded leveling queue, and the single batched pump that feeds the
  session; runs inline (``pump``/``run_until_idle``) or on a worker
  thread (``start``/``stop``).
* :class:`~repro.gateway.aio.AsyncGateway` — the asyncio adapter over
  the worker-pumped gateway.
* :class:`~repro.gateway.config.GatewayConfig` — frozen, validated
  policy (queue bound, batch size, token bucket, breaker).
* :class:`~repro.gateway.throttle.TokenBucket`,
  :class:`~repro.gateway.breaker.CircuitBreaker` /
  :class:`~repro.gateway.breaker.BreakerState`,
  :class:`~repro.gateway.health.HealthReport` — the admission-layer
  state machines and the health probe value.
* :class:`~repro.gateway.gateway.GatewayStats`,
  :class:`~repro.gateway.gateway.GatewayTicket` — the conservation
  ledger and the exactly-once client handle.
"""

from repro.gateway.aio import AsyncGateway
from repro.gateway.breaker import BreakerState, CircuitBreaker
from repro.gateway.config import GatewayConfig
from repro.gateway.gateway import (
    Gateway,
    GatewayStats,
    GatewayTicket,
)
from repro.gateway.health import HealthReport
from repro.gateway.throttle import TokenBucket

__all__ = [
    "AsyncGateway",
    "BreakerState",
    "CircuitBreaker",
    "Gateway",
    "GatewayConfig",
    "GatewayStats",
    "GatewayTicket",
    "HealthReport",
    "TokenBucket",
]
