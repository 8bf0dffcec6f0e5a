"""Fleet configuration: frozen, validated, serializable.

A fleet runs N twin controller shards — one tree, one live
:class:`~repro.service.session.ControllerSession` each — behind a
router, with one *global* ``(M_total, W_total)`` contract carved into
per-shard entitlements.  The carve follows the paper's re-budgeting
algebra: like :class:`repro.core.iterated.IteratedController` handing
the unused half of its budget to the next stage (Observation 3.4), the
fleet hands each shard a slice of ``M_total`` and accounts every later
move of budget between shards through an explicit
:class:`~repro.fleet.rebalancer.BudgetTransfer` ledger, so the
:class:`~repro.protocol.BudgetSplit` conservation check
(``prior_grants + live_budget == entitlement``) holds per shard at all
times and Σ granted ≤ ``M_total`` holds globally.

Every shard runs the same engine (which one, and with what budget, is
the router's decision), so :class:`FleetConfig` describes the shards by
their count, their carve weights and the node bound ``u`` they share,
next to the global contract, the ``tranche`` that floors each funding
stage of a shard's live session, and the fleet-level admission window.
It validates eagerly in ``__post_init__`` (every mistake raises
:class:`repro.errors.ConfigError` naming the field) and serializes via
``snapshot()``.
"""

from dataclasses import asdict, dataclass
from typing import Any, Dict, Sequence, Tuple

from repro.errors import ConfigError
from repro.service.config import _require_int, _require_known_knobs

__all__ = [
    "FleetConfig",
    "carve",
]

#: FleetConfig fields that must hold an int (bools excluded), checked
#: before any range check compares them.
_INT_FIELDS: Tuple[str, ...] = ("shards", "m_total", "w_total", "u",
                                "tranche", "max_in_flight", "seed")


def carve(total: int, weights: Sequence[int]) -> Tuple[int, ...]:
    """Split ``total`` into integer shares proportional to ``weights``.

    Largest-remainder (Hamilton) apportionment: exact conservation
    (shares sum to ``total``), deterministic tie-break by index.  This
    is the fleet's Observation 3.4 analogue — the budget is *carved*,
    never minted: Σ shares == total by construction, and the auditor
    re-checks it.
    """
    if total < 0:
        raise ConfigError(f"cannot carve a negative total ({total})")
    if not weights or any(w < 1 for w in weights):
        raise ConfigError(f"carve weights must all be >= 1, got {weights!r}")
    denom = sum(weights)
    base = [total * w // denom for w in weights]
    remainder = total - sum(base)
    # Largest fractional part first; ties broken by lower index.
    order = sorted(range(len(weights)),
                   key=lambda i: (-((total * weights[i]) % denom), i))
    for i in order[:remainder]:
        base[i] += 1
    return tuple(base)


@dataclass(frozen=True)
class FleetConfig:
    """Everything a :class:`~repro.fleet.router.FleetRouter` needs.

    Parameters
    ----------
    shards:
        How many twin shards the fleet runs (at least 1); they are
        named ``shard-0`` ... ``shard-{N-1}`` on the hash ring and in
        the transfer ledger.
    m_total / w_total:
        The fleet-wide ``(M, W)`` contract: at most ``m_total`` permits
        are ever granted across all shards, and once the fleet rejects,
        at least ``m_total - w_total`` were granted.  ``w_total`` must
        cover at least 1 per shard (every terminating inner session
        needs ``w >= 1``, the Section 2 packaging floor).
    u:
        The node bound every shard session is built with (at least 1).
    weights:
        One int ``>= 1`` per shard, scaling both its slice of the carve
        and its share of the ring; empty (the default) weighs every
        shard 1.
    tranche:
        The floor of each funding stage (Observation 3.4): a shard's
        first session takes half its carve, and whenever its root runs
        dry the live session is funded with half the shard's reserve,
        never less than ``tranche`` permits; a shard whose reserve
        falls below ``tranche`` borrows from its siblings.  The
        remainder stays in the shard's reserve (borrowable by siblings
        without touching a live engine).  At least 1; the default 1
        leaves the root's shortfall as the only floor on a funding.
    max_in_flight:
        The fleet-level admission window (mirrors
        :attr:`~repro.service.config.SessionConfig.max_in_flight`; the
        gateway's window probe reads it from here).
    seed:
        Passed to every shard session's
        :attr:`~repro.service.config.SessionConfig.seed`.  The shard
        engines are synchronous and build no scheduler, so nothing
        draws from it.
    """

    shards: int
    m_total: int
    w_total: int
    u: int
    weights: Tuple[int, ...] = ()
    tranche: int = 1
    max_in_flight: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            _require_int(name, getattr(self, name))
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")
        if not isinstance(self.weights, (list, tuple)):
            raise ConfigError(
                f"weights must be a sequence of ints, got {self.weights!r}")
        weights = tuple(self.weights) or (1,) * self.shards
        if len(weights) != self.shards:
            raise ConfigError(
                f"got {len(weights)} weights for {self.shards} shards")
        for weight in weights:
            _require_int("weight", weight)
            if weight < 1:
                raise ConfigError(f"weight must be >= 1, got {weight}")
        object.__setattr__(self, "weights", weights)
        if self.u < 1:
            raise ConfigError(f"u must be >= 1, got {self.u}")
        if self.m_total < 0:
            raise ConfigError(f"m_total must be >= 0, got {self.m_total}")
        if self.w_total < self.shards:
            raise ConfigError(
                f"w_total must cover >= 1 per shard ({self.shards} "
                f"shards; every terminating session needs w >= 1), "
                f"got {self.w_total}")
        if self.tranche < 1:
            raise ConfigError(f"tranche must be >= 1, got {self.tranche}")
        if self.max_in_flight < 1:
            raise ConfigError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}")

    @classmethod
    def of(cls, **knobs: Any) -> "FleetConfig":
        """Keyword front door:
        ``FleetConfig.of(shards=4, m_total=2000, w_total=40, u=4096)``.

        An unknown keyword raises :class:`ConfigError` naming the
        valid ones (the eight fields).
        """
        _require_known_knobs(cls, knobs)
        return cls(**knobs)

    # ------------------------------------------------------------------
    # Budget carve.
    # ------------------------------------------------------------------
    def budget_shares(self) -> Tuple[int, ...]:
        """Per-shard slices of ``m_total`` (sum is exactly ``m_total``)."""
        return carve(self.m_total, self.weights)

    def waste_shares(self) -> Tuple[int, ...]:
        """Per-shard slices of ``w_total``; every share is >= 1.

        One unit goes to each shard first (the packaging floor), the
        rest is carved by weight, so the shares still sum to exactly
        ``w_total``.
        """
        extra = carve(self.w_total - self.shards, self.weights)
        return tuple(1 + share for share in extra)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable description: the eight fields."""
        return asdict(self)
