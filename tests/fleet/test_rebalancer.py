"""Transfer-ledger bookkeeping and the reclaim planner."""

import pytest

from repro.fleet import TransferLedger, plan_greedy

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


def test_planners_never_exceed_spare():
    donors = [("a", 2), ("b", 1), ("c", 7)]
    for need in range(0, 15):
        plan = plan_greedy(need, donors)
        spare = dict(donors)
        for name, take in plan:
            assert 0 < take <= spare[name]
