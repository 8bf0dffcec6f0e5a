"""Cross-shard permit rebalancing: the transfer ledger and policies.

When a shard's live session terminates and its reserve is short of a
``tranche`` (of its whole carve with ``tranche=0``), the router lends
it half of each sibling's spare (reserve plus the unused permits of
its live session), the lending side of the fleet's Observation 3.4
halving stages.  Every permit that crosses a shard boundary is a :class:`BudgetTransfer` recorded in the
:class:`TransferLedger` — the fleet's double-entry book.  The algebra
is the same conservation contract :class:`~repro.core.iterated.IteratedController`
uses between stages (Observation 3.4: a new stage's budget is exactly
the old stage's leftover): budget is never minted or burned, only
moved, so per shard

    entitlement = allocation + inbound - outbound
                = banked grants + live budget + reserve

holds at all times and :func:`repro.metrics.invariants.audit_fleet`
re-derives both sides from this ledger.

Two donation sources exist, tagged on the transfer:

* ``"reserve"`` — unissued permits sitting in a sibling's reserve; the
  cheap path, no live engine is touched.  The receiver takes every
  sibling's half-spare offer, as far as the sibling's reserve covers it;
* ``"reclaim"`` — spare locked inside a sibling's *live* session, taken
  only when the receiver's reserve is still empty after the reserve
  loans.  The router gracefully drains that session (grants are
  banked, the leftover returns to the sibling's reserve — the same
  bank-and-reset move the iterated controller performs between stages)
  and lends from the recovered reserve.  This is what lets the fleet
  drive waste to zero: a reject wave starts only when no permit remains
  unspent anywhere.

Policies plan *which live sessions to reclaim, and how much from each*,
over the siblings' half-spare offers (both deterministic):

* ``greedy`` — drain the richest offer first (ties by name), then the
  next; minimizes the number of sessions drained;
* ``proportional`` — spread the need across all offers proportionally
  (largest-remainder rounding); minimizes how lopsided donors end up.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = [
    "REBALANCERS",
    "BudgetTransfer",
    "TransferLedger",
    "plan_greedy",
    "plan_proportional",
]

#: A rebalance plan: ``(donor_name, take)`` pairs, Σ take <= need.
Plan = List[Tuple[str, int]]

#: Donor spares offered to a planner: ``(donor_name, available)``.
Donors = Sequence[Tuple[str, int]]


@dataclass(frozen=True)
class BudgetTransfer:
    """One ledger entry: ``permits`` moved ``donor`` → ``receiver``.

    ``kind`` is ``"reserve"`` (from the donor's unissued reserve) or
    ``"reclaim"`` (recovered by draining the donor's live session).
    ``serial`` is the ledger position — strictly increasing, so the
    auditor can prove every borrowed permit was debited exactly once.
    """

    serial: int
    donor: str
    receiver: str
    permits: int
    kind: str

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable description."""
        return {"serial": self.serial, "donor": self.donor,
                "receiver": self.receiver, "permits": self.permits,
                "kind": self.kind}


class TransferLedger:
    """Append-only record of every cross-shard budget move."""

    def __init__(self) -> None:
        self._entries: List[BudgetTransfer] = []

    def record(self, donor: str, receiver: str, permits: int,
               kind: str) -> BudgetTransfer:
        entry = BudgetTransfer(serial=len(self._entries), donor=donor,
                               receiver=receiver, permits=permits,
                               kind=kind)
        self._entries.append(entry)
        return entry

    @property
    def entries(self) -> Tuple[BudgetTransfer, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def outbound(self, name: str) -> int:
        """Total permits debited from shard ``name``."""
        return sum(e.permits for e in self._entries if e.donor == name)

    def inbound(self, name: str) -> int:
        """Total permits credited to shard ``name``."""
        return sum(e.permits for e in self._entries if e.receiver == name)


def plan_greedy(need: int, donors: Donors) -> Plan:
    """Drain the richest donor first; ties break by donor name."""
    plan: Plan = []
    for name, available in sorted(donors, key=lambda d: (-d[1], d[0])):
        if need <= 0:
            break
        if available <= 0:
            continue
        take = min(need, available)
        plan.append((name, take))
        need -= take
    return plan


def plan_proportional(need: int, donors: Donors) -> Plan:
    """Spread the need across donors proportionally to their spare.

    Largest-remainder rounding (like the config carve), each take
    capped at the donor's spare; any cap-induced shortfall is swept up
    greedily so the plan always moves ``min(need, Σ spare)`` permits.
    """
    live = [(name, available) for name, available in donors if available > 0]
    if not live or need <= 0:
        return []
    pool = sum(available for _, available in live)
    goal = min(need, pool)
    base = {name: goal * available // pool for name, available in live}
    remainder = goal - sum(base.values())
    order = sorted(live, key=lambda d: (-((goal * d[1]) % pool), d[0]))
    for name, available in order[:remainder]:
        base[name] += 1
    # Cap at spare and sweep any shortfall (rounding may overshoot a
    # small donor) from donors with headroom, richest first.
    takes = {name: min(amount, dict(live)[name])
             for name, amount in base.items()}
    short = goal - sum(takes.values())
    if short > 0:
        for name, available in sorted(live, key=lambda d: (-d[1], d[0])):
            if short <= 0:
                break
            headroom = available - takes[name]
            if headroom > 0:
                grab = min(short, headroom)
                takes[name] += grab
                short -= grab
    return [(name, take) for name, take in sorted(takes.items())
            if take > 0]


#: Policy registry keyed by :data:`repro.fleet.config.REBALANCE_POLICIES`.
REBALANCERS: Dict[str, Callable[[int, Donors], Plan]] = {
    "greedy": plan_greedy,
    "proportional": plan_proportional,
}
