"""``repro.fleet`` — the scale-out layer: sharded controller fleets.

One :class:`~repro.service.session.ControllerSession` governs one tree;
a fleet runs N of them over a forest behind a
:class:`~repro.fleet.router.FleetRouter` that speaks the same session
surface (the ingestion gateway fronts a fleet unchanged).  The global
``(M_total, W_total)`` contract is carved into per-shard budgets
(:class:`~repro.fleet.config.FleetConfig` /
:class:`~repro.fleet.config.ShardSpec`), rebalanced between shards
through an explicit :class:`~repro.fleet.rebalancer.BudgetTransfer`
ledger, and machine-checked end to end by
:func:`repro.metrics.invariants.audit_fleet`.

Quickstart::

    from repro.fleet import FleetConfig, FleetRouter

    config = FleetConfig.of(shards=4, m_total=2000, w_total=40, u=4096)
    with FleetRouter(config) as fleet:
        for client in ("alice", "bob"):
            tree = fleet.tree_of(client)       # locality: one shard per client
            record = fleet.serve(Request(RequestKind.ADD_LEAF, tree.root),
                                 origin=client)
        report = fleet.audit()                 # 0 violations or it says why
"""

from repro.fleet.config import SHARD_FLAVORS, FleetConfig, ShardSpec, carve
from repro.fleet.rebalancer import BudgetTransfer, TransferLedger, plan_greedy
from repro.fleet.router import FleetRouter, Shard

__all__ = [
    "SHARD_FLAVORS",
    "BudgetTransfer",
    "FleetConfig",
    "FleetRouter",
    "Shard",
    "ShardSpec",
    "TransferLedger",
    "carve",
    "plan_greedy",
]
