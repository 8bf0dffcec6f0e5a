"""The fleet's budget lifecycle against a sequential permit counter.

A Hypothesis state machine draws a fleet (1-4 shards over random
trees of at most ``U`` nodes, weights 1-3, ``tranche`` 1-12, a waste
allowance that often passes 2U so packages carry several permits, a
global budget that some runs exhaust) and serves PLAIN requests from
random origins, so halving stages, fundings of a live session,
reserve and root-storage loans, live reclaims of permits parked below
a root and the reject wave interleave in every order the draws reach.  A
sequential model holding one permit counter predicts every verdict:
while the counter is positive the fleet must grant (fleet waste is
zero), and once it is spent the fleet must reject.  After every step
the books are checked: each shard's ``BudgetSplit`` balances its
entitlement, its live session neither mints nor burns a permit (a
live terminating session's M is its grants plus its unused permits,
and the shard books that same M), the ledger's double entry matches
the shards' columns, and the fleet never grants more than
``m_total``.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro import Request, RequestKind, SessionVerdict
from repro.fleet import FleetConfig, FleetRouter
from repro.workloads import build_random_tree

pytestmark = pytest.mark.timeout(120)

GRANTED, REJECTED = SessionVerdict.GRANTED, SessionVerdict.REJECTED

#: The node bound: trees start with at most ``U`` nodes and PLAIN
#: requests add none.  A shard's waste allowance of W >= 2U makes
#: packages of φ = W // 2U > 1 permits, whose unused remainder stays
#: in static pools below the root, where no root loan reaches it.
U = 8


class BudgetLifecycleMachine(RuleBasedStateMachine):

    @initialize(data=st.data(), shards=st.integers(1, 4),
                tranche=st.integers(1, 12),
                m_total=st.integers(0, 60), seed=st.integers(0, 99))
    def build(self, data, shards, tranche, m_total, seed):
        weights = data.draw(st.lists(st.integers(1, 3), min_size=shards,
                                     max_size=shards), label="weights")
        sizes = data.draw(st.lists(st.integers(1, U), min_size=shards,
                                   max_size=shards), label="sizes")
        w_total = data.draw(st.integers(shards, 5 * U * shards),
                            label="w_total")
        trees = [build_random_tree(size, seed=seed + index)
                 for index, size in enumerate(sizes)]
        self.fleet = FleetRouter(FleetConfig.of(
            shards=shards, m_total=m_total, w_total=w_total, u=U,
            tranche=tranche, weights=weights, seed=seed), trees=trees)
        self.permits = m_total  # the sequential model's counter

    def teardown(self):
        fleet = getattr(self, "fleet", None)
        if fleet is not None:
            fleet.close()

    @rule(origin=st.integers(0, 31), pick=st.integers(0, 10 ** 6),
          repeat=st.integers(1, 8))
    def serve(self, origin, pick, repeat):
        """``repeat`` PLAIN requests from one origin: a burst on one
        shard makes it outrun its slice and borrow."""
        nodes = list(self.fleet.tree_of(origin).nodes())
        for step in range(repeat):
            node = nodes[(pick + step) % len(nodes)]
            record = self.fleet.serve(Request(RequestKind.PLAIN, node),
                                      origin=origin)
            expected = GRANTED if self.permits > 0 else REJECTED
            assert record.verdict is expected, (
                f"model has {self.permits} permits left, fleet answered "
                f"{record.verdict.value}")
            if expected is GRANTED:
                self.permits -= 1

    @invariant()
    def books_balance(self):
        fleet = self.fleet
        ledger = fleet.ledger
        for shard in fleet.shards:
            assert shard.reserve >= 0
            assert shard.budget.total == shard.entitlement, shard.snapshot()
            if shard.session is None:
                assert shard.live_m == 0
            else:
                assert (shard.live_granted + shard.live_unused
                        == shard.live_m), shard.snapshot()
                view = shard.session.controller.introspect()
                if view.flavor == "terminating":
                    assert (view.params.m
                            == view.granted + shard.live_unused
                            == shard.live_m), shard.snapshot()
            assert shard.inbound == ledger.inbound(shard.name)
            assert shard.outbound == ledger.outbound(shard.name)
        assert (sum(entry.permits for entry in ledger.entries)
                == sum(shard.inbound for shard in fleet.shards)
                == sum(shard.outbound for shard in fleet.shards))
        assert (sum(shard.entitlement for shard in fleet.shards)
                == fleet.config.m_total)

    @invariant()
    def grants_follow_the_counter(self):
        fleet = self.fleet
        m_total = fleet.config.m_total
        assert fleet.granted_total <= m_total
        assert fleet.granted_total == m_total - self.permits
        if fleet.tally()["rejected"]:
            assert fleet.granted_total == m_total  # fleet waste zero
            assert fleet.reject_wave


TestBudgetLifecycle = BudgetLifecycleMachine.TestCase
TestBudgetLifecycle.settings = settings(
    max_examples=150, stateful_step_count=25, deadline=None)
