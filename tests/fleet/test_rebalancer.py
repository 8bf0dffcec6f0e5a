"""Transfer-ledger bookkeeping and the rebalance planners."""

import pytest

from repro.fleet import TransferLedger, plan_greedy, plan_proportional

pytestmark = pytest.mark.timeout(120)


def test_ledger_records_and_sums():
    ledger = TransferLedger()
    ledger.record("a", "b", 5, "reserve")
    ledger.record("c", "b", 3, "reclaim")
    ledger.record("b", "a", 2, "reserve")
    assert len(ledger) == 3
    assert [e.serial for e in ledger.entries] == [0, 1, 2]
    assert ledger.inbound("b") == 8 and ledger.outbound("b") == 2
    assert ledger.inbound("a") == 2 and ledger.outbound("a") == 5
    assert ledger.entries[1].snapshot()["kind"] == "reclaim"


def test_greedy_drains_richest_first():
    donors = [("a", 3), ("b", 10), ("c", 5)]
    assert plan_greedy(12, donors) == [("b", 10), ("c", 2)]
    # Ties break by name; zero-spare donors are skipped.
    assert plan_greedy(4, [("z", 2), ("a", 2), ("m", 0)]) == [
        ("a", 2), ("z", 2)]
    assert plan_greedy(0, donors) == []
    # Unsatisfiable need takes everything available.
    assert plan_greedy(100, donors) == [("b", 10), ("c", 5), ("a", 3)]


def test_proportional_spreads_by_spare():
    donors = [("a", 10), ("b", 10)]
    assert sorted(plan_proportional(6, donors)) == [("a", 3), ("b", 3)]
    # Proportionality: the bigger donor gives more.
    plan = dict(plan_proportional(6, [("a", 20), ("b", 4)]))
    assert plan["a"] > plan["b"]
    # Conservation: exactly min(need, pool) moves.
    for need in (1, 7, 24, 100):
        plan = plan_proportional(need, [("a", 9), ("b", 3), ("c", 12)])
        assert sum(take for _, take in plan) == min(need, 24)
        assert all(take > 0 for _, take in plan)
    assert plan_proportional(5, []) == []
    assert plan_proportional(0, donors) == []


def test_planners_never_exceed_spare():
    donors = [("a", 2), ("b", 1), ("c", 7)]
    for planner in (plan_greedy, plan_proportional):
        for need in range(0, 15):
            plan = planner(need, donors)
            spare = dict(donors)
            for name, take in plan:
                assert 0 < take <= spare[name]
