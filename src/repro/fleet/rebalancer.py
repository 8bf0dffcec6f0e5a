"""Cross-shard permit rebalancing: the transfer ledger and the planner.

When a shard's reserve is short of a ``tranche`` (its live session
needs funding, or a refill follows a termination), the router lends
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

* ``"reserve"`` — permits from a sibling's reserve, topped up from its
  live session's root storage (that session's M drops in place, with
  no reset); no engine is drained.  The receiver takes every sibling's
  half-spare offer, as far as those two cover it;
* ``"reclaim"`` — spare parked below a sibling's *live* root, taken
  only when the receiver's reserve is still empty after the reserve
  loans.  The router gracefully drains that session (grants are
  banked, the leftover returns to the sibling's reserve — the same
  bank-and-reset move the iterated controller performs between stages)
  and lends from the recovered reserve.  This is what lets the fleet
  drive waste to zero: a reject wave starts only when no permit remains
  unspent anywhere.

:func:`plan_greedy` plans *which live sessions to reclaim, and how much
from each*, over the siblings' half-spare offers: the richest offer
first (ties by name), which drains the fewest sessions.
"""

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "BudgetTransfer",
    "TransferLedger",
    "plan_greedy",
]

#: A rebalance plan: ``(donor_name, take)`` pairs, Σ take <= need.
Plan = List[Tuple[str, int]]

#: Donor spares offered to a planner: ``(donor_name, available)``.
Donors = Sequence[Tuple[str, int]]


@dataclass(frozen=True)
class BudgetTransfer:
    """One ledger entry: ``permits`` moved ``donor`` → ``receiver``.

    ``kind`` is ``"reserve"`` (from the donor's reserve, topped up
    from its live root storage) or ``"reclaim"`` (recovered by
    draining the donor's live session).
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
