"""Fleet configuration: frozen, validated, serializable.

A fleet runs N controller shards — one tree, one live
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

Two frozen values describe a fleet:

* :class:`ShardSpec` names one shard — a stable ``name`` (the
  consistent-hash ring key), a *budget-less*
  :class:`~repro.service.config.ControllerSpec` template (``m``/``w``
  must be 0: the fleet owns the budget), and a ``weight`` that scales
  both its ring share and its slice of the carve;
* :class:`FleetConfig` adds the global knobs — ``m_total``/``w_total``,
  the ``tranche`` that floors each funding stage of a shard's live
  session, and the fleet-level admission window.

Both validate eagerly in ``__post_init__`` (every mistake raises
:class:`repro.errors.ConfigError` naming the valid choices) and
serialize via ``snapshot()`` for bench artifacts.
"""

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.service.config import ControllerSpec, _require_int

__all__ = [
    "SHARD_FLAVORS",
    "FleetConfig",
    "ShardSpec",
    "carve",
]

#: Engine flavours a shard template may name.  Shard engines must
#: surface exhaustion as a *terminating* PENDING (never a client-visible
#: REJECTED) so the router can intercept it and rebalance; of the
#: registered flavours only ``terminating`` has that contract.  (The
#: router spawns its own ``trivial`` mop-up and M = 0 reject-wave
#: sessions at the end of the budget — fleet-internal, not templates.)
SHARD_FLAVORS: Tuple[str, ...] = ("terminating",)


#: FleetConfig fields that must hold an int (bools excluded), checked
#: before any range check compares them.
_INT_FIELDS: Tuple[str, ...] = ("m_total", "w_total", "tranche",
                                 "max_in_flight", "seed")


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
class ShardSpec:
    """One shard of the fleet: name, engine template, carve weight.

    The template is *budget-less* by contract: its ``m`` and ``w`` must
    be 0 because the fleet owns the global budget and assigns each
    session its tranche (``m``) and the shard's carved waste allowance
    (``w``) at spawn time.  ``u`` and ``options`` pass through to every
    session the shard spawns.
    """

    name: str
    template: ControllerSpec
    weight: int = 1

    def __post_init__(self) -> None:
        if not self.name or "#" in self.name:
            raise ConfigError(
                f"shard name must be non-empty and '#'-free (it keys the "
                f"hash ring), got {self.name!r}")
        _require_int(f"shard {self.name!r}: weight", self.weight)
        if self.weight < 1:
            raise ConfigError(
                f"shard {self.name!r}: weight must be >= 1, "
                f"got {self.weight}")
        if self.template.flavor not in SHARD_FLAVORS:
            raise ConfigError(
                f"shard {self.name!r}: flavour {self.template.flavor!r} "
                f"cannot shard — the engine must surface exhaustion as a "
                f"terminating PENDING for the router to rebalance "
                f"(valid: {', '.join(SHARD_FLAVORS)})")
        if self.template.m != 0 or self.template.w != 0:
            raise ConfigError(
                f"shard {self.name!r}: template must carry m=0/w=0 — the "
                f"fleet carves M_total/W_total into per-shard budgets "
                f"(got m={self.template.m}, w={self.template.w})")
        if self.template.u < 1:
            raise ConfigError(
                f"shard {self.name!r}: template needs the node bound u "
                f"for its tree (got {self.template.u})")

    def session_template(self, m: int, w: int) -> ControllerSpec:
        """The template with a live budget filled in."""
        return replace(self.template, m=m, w=w)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable description."""
        return {"name": self.name, "weight": self.weight,
                "template": self.template.snapshot()}


@dataclass(frozen=True)
class FleetConfig:
    """Everything a :class:`~repro.fleet.router.FleetRouter` needs.

    Parameters
    ----------
    shards:
        The :class:`ShardSpec` tuple; names must be unique.
    m_total / w_total:
        The fleet-wide ``(M, W)`` contract: at most ``m_total`` permits
        are ever granted across all shards, and once the fleet rejects,
        at least ``m_total - w_total`` were granted.  ``w_total`` must
        cover at least 1 per shard (every terminating inner session
        needs ``w >= 1``, the Section 2 packaging floor).
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
        Seeds per-shard session configs (schedule/delay determinism).
    """

    shards: Tuple[ShardSpec, ...]
    m_total: int
    w_total: int
    tranche: int = 1
    max_in_flight: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        if (not isinstance(self.shards, (tuple, list))
                or not all(isinstance(spec, ShardSpec)
                           for spec in self.shards)):
            raise ConfigError(
                f"shards must be a sequence of ShardSpec, got "
                f"{self.shards!r}")
        object.__setattr__(self, "shards", tuple(self.shards))
        if not self.shards:
            raise ConfigError("a fleet needs at least one shard")
        for name in _INT_FIELDS:
            _require_int(name, getattr(self, name))
        names = [spec.name for spec in self.shards]
        if len(set(names)) != len(names):
            raise ConfigError(f"shard names must be unique, got {names!r}")
        if self.m_total < 0:
            raise ConfigError(f"m_total must be >= 0, got {self.m_total}")
        if self.w_total < len(self.shards):
            raise ConfigError(
                f"w_total must cover >= 1 per shard ({len(self.shards)} "
                f"shards; every terminating session needs w >= 1), "
                f"got {self.w_total}")
        if self.tranche < 1:
            raise ConfigError(f"tranche must be >= 1, got {self.tranche}")
        if self.max_in_flight < 1:
            raise ConfigError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}")

    # ------------------------------------------------------------------
    # Budget carve.
    # ------------------------------------------------------------------
    @property
    def weights(self) -> Tuple[int, ...]:
        return tuple(spec.weight for spec in self.shards)

    def budget_shares(self) -> Tuple[int, ...]:
        """Per-shard slices of ``m_total`` (sum is exactly ``m_total``)."""
        return carve(self.m_total, self.weights)

    def waste_shares(self) -> Tuple[int, ...]:
        """Per-shard slices of ``w_total``; every share is >= 1.

        One unit goes to each shard first (the packaging floor), the
        rest is carved by weight, so the shares still sum to exactly
        ``w_total``.
        """
        count = len(self.shards)
        extra = carve(self.w_total - count, self.weights)
        return tuple(1 + share for share in extra)

    # ------------------------------------------------------------------
    # Convenience constructor.
    # ------------------------------------------------------------------
    @staticmethod
    def of(*, shards: int, m_total: int, w_total: int, u: int,
           flavor: str = "terminating",
           options: Optional[Mapping[str, Any]] = None,
           weights: Optional[Sequence[int]] = None,
           **knobs: Any) -> "FleetConfig":
        """Build a uniform fleet: ``shards`` twins of one template.

        ``u`` is the per-shard node bound; ``weights`` (default: all 1)
        skews the carve and the ring; remaining keywords pass through
        to :class:`FleetConfig` (``tranche=``, ``max_in_flight=``,
        ``seed=``).
        """
        _require_int("shards", shards)
        valid = [field.name for field in fields(FleetConfig)
                 if field.name not in ("shards", "m_total", "w_total")]
        unknown = sorted(set(knobs) - set(valid))
        if unknown:
            raise ConfigError(
                f"unknown FleetConfig knob(s) {', '.join(unknown)} "
                f"(valid: {', '.join(valid)})")
        if shards < 1:
            raise ConfigError(f"shards must be >= 1, got {shards}")
        if weights is None:
            weights = [1] * shards
        if not isinstance(weights, (list, tuple)):
            raise ConfigError(
                f"weights must be a sequence of ints, got {weights!r}")
        if len(weights) != shards:
            raise ConfigError(
                f"got {len(weights)} weights for {shards} shards")
        _require_int("template u", u)
        template = ControllerSpec(flavor, m=0, w=0, u=u,
                                  options=dict(options or {}))
        specs = tuple(
            ShardSpec(name=f"shard-{index}", template=template,
                      weight=weight)
            for index, weight in enumerate(weights))
        return FleetConfig(shards=specs, m_total=m_total, w_total=w_total,
                           **knobs)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable description (bench artifact headers)."""
        return {
            "shards": [spec.snapshot() for spec in self.shards],
            "m_total": self.m_total, "w_total": self.w_total,
            "tranche": self.tranche,
            "max_in_flight": self.max_in_flight, "seed": self.seed,
        }
