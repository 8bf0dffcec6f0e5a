"""Gateway configuration: frozen, validated, serializable.

A :class:`GatewayConfig` describes the whole front door in one frozen
value — the leveling queue bound, the pump batch size, the token-bucket
throttle and the circuit-breaker policy — with the same
eager-validation discipline as
:class:`repro.service.config.SessionConfig` (every mistake raises
:class:`repro.errors.ConfigError` before any gateway state exists).

The three admission layers are deliberately distinct, and each failure
mode has its own verdict:

* **throttle** (token bucket): the request *rate* exceeded policy —
  verdict ``SHED``;
* **breaker** (circuit breaker): the backend is unhealthy (stall
  storms, fault-plan churn) — verdict ``SHED``;
* **leveling queue** (bounded): the queue is momentarily full —
  verdict ``BACKPRESSURE``, the same vocabulary the session layer
  already speaks.
"""

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Any, Dict

from repro.errors import ConfigError
from repro.service.config import _require_int

#: The fields that count requests or pump cycles.
_INT_FIELDS = ("queue_capacity", "batch_size", "burst", "breaker_failures",
               "breaker_cooldown", "breaker_probes")


@dataclass(frozen=True)
class GatewayConfig:
    """Everything a :class:`~repro.gateway.gateway.Gateway` needs.

    Parameters
    ----------
    queue_capacity:
        The leveling-queue bound: how many accepted requests may wait
        for the pump before ``submit`` answers ``BACKPRESSURE``.
    batch_size:
        How many queued requests one pump cycle hands to the session's
        ``submit_many`` (load leveling: many client streams, one
        batched engine feed).
    rate / burst:
        The token-bucket throttle: sustained admissions per clock unit
        and the bucket capacity (the tolerated burst).  ``rate=0``
        disables throttling (the bucket always has a token).
    breaker_latency:
        The per-request failure threshold, in *session clock* units
        (simulated time on the event-driven engine): a settled record
        whose ``latency`` exceeds this counts as a breaker failure, as
        does a ``PENDING`` verdict.  ``math.inf`` disables the breaker.
    breaker_failures:
        Consecutive failures that trip the breaker CLOSED -> OPEN.
    breaker_cooldown:
        Pump cycles the breaker stays OPEN before probing (HALF_OPEN).
    breaker_probes:
        Probe requests admitted in HALF_OPEN; all must succeed to close
        the breaker, one failure re-opens it.
    """

    queue_capacity: int = 1024
    batch_size: int = 64
    rate: float = 0.0
    burst: int = 64
    breaker_latency: float = math.inf
    breaker_failures: int = 8
    breaker_cooldown: int = 4
    breaker_probes: int = 2

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            _require_int(name, getattr(self, name))
        for name in ("rate", "breaker_latency"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or math.isnan(value)):
                raise ConfigError(
                    f"{name} must be a real number, got {value!r}")
        if self.queue_capacity < 1:
            raise ConfigError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}")
        if self.batch_size < 1:
            raise ConfigError(
                f"batch_size must be >= 1, got {self.batch_size}")
        if self.rate < 0:
            raise ConfigError(f"rate must be >= 0, got {self.rate}")
        if self.burst < 1:
            raise ConfigError(f"burst must be >= 1, got {self.burst}")
        if self.breaker_latency <= 0:
            raise ConfigError(
                f"breaker_latency must be > 0, got {self.breaker_latency}")
        if self.breaker_failures < 1:
            raise ConfigError(
                f"breaker_failures must be >= 1, got {self.breaker_failures}")
        if self.breaker_cooldown < 1:
            raise ConfigError(
                f"breaker_cooldown must be >= 1, got {self.breaker_cooldown}")
        if self.breaker_probes < 1:
            raise ConfigError(
                f"breaker_probes must be >= 1, got {self.breaker_probes}")

    @property
    def breaker_enabled(self) -> bool:
        """True when the latency threshold can ever count a failure."""
        return math.isfinite(self.breaker_latency)

    def with_breaker(self, latency: float, failures: int = 4,
                     cooldown: int = 2, probes: int = 2) -> "GatewayConfig":
        """A copy with the circuit breaker armed."""
        return replace(self, breaker_latency=latency,
                       breaker_failures=failures,
                       breaker_cooldown=cooldown, breaker_probes=probes)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable description of the full configuration."""
        out: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            out[spec.name] = repr(value) if value == math.inf else value
        return out
