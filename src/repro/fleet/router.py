"""The fleet router: N controller shards behind one session surface.

A :class:`FleetRouter` runs one :class:`~repro.service.session.ControllerSession`
per shard — each on its own tree — and exposes the *same* typed-envelope
surface as a single session (``submit`` / ``submit_many`` / ``drain`` /
``serve`` / ``serve_stream`` / ``tally`` / ``audit``), so the ingestion
gateway sits in front of a fleet unchanged.

**Placement.**  Requests route by *origin* (any hashable client key)
over a consistent-hash ring of shard virtual nodes, or — when no origin
is given — by *node ownership*: a node belongs to the shard whose tree
made it (``TreeNode.tree``, read through a tree -> shard map; each
shard has its own tree).  A removed node keeps its tree, so a late
request for it still reaches the engine that answers CANCELLED.  An
origin is pinned to its first ring answer for the fleet's lifetime —
the locality contract that keeps one client's requests on one shard —
and every placement is recorded so
:func:`~repro.metrics.invariants.audit_fleet` can replay the ring and
prove determinism.

**Budget lifecycle.**  Each shard spawns terminating-flavour sessions
(exhaustion surfaces as a PENDING the router intercepts, never as a
client-visible reject) against its carved slice of ``M_total``, in the
halving stages of Observation 3.4: the first session takes half the
slice and every later stage half of the shard's reserve, never less
than ``tranche``.  A stage *funds the live
session* instead of starting a new one: φ and ψ depend only on W and
U, so a live (M, W) controller given k more root permits is exactly an
(M + k, W) controller, and the session's root asks its shard for the
next stage (a private hook on the controller) before it would exhaust.
The termination broadcast and upcast are then paid about once per
shard, when the funded session hands over to the mop-up, instead of
at every stage.  A shard short of ``tranche`` borrows from siblings
through the :class:`~repro.fleet.rebalancer.TransferLedger`, and
lending halves too: each sibling lends at most half its spare, from
its reserve first and then from its live session's root storage (that
session's M drops in place, again with no reset); only a shard left
with nothing *reclaims* spare locked in a sibling's live session —
only spare parked below its root — by gracefully
draining it.  A session terminates only when nothing can be funded;
the shard then *banks* its grants and recovers the leftover into its
reserve — the exact stage-rollover algebra of
:class:`~repro.core.iterated.IteratedController` — and refills.
Only when no permit remains unspent anywhere
does the fleet enter its **reject wave**: the mop-up ``trivial``
sessions answer exact (M, 0) rejects, so at the first client-visible
REJECTED the fleet has granted its entire global budget — fleet-level
waste is zero, well inside the ``W_total`` bound the auditor checks.
"""

import threading
import weakref
from bisect import bisect_left
from collections import deque
from typing import (Any, Callable, Deque, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple, cast)
from zlib import crc32

from repro.core.centralized import CentralizedController
from repro.core.requests import Outcome, OutcomeStatus, Request
from repro.core.terminating import TerminatingController
from repro.errors import ConfigError, ControllerError, FleetError, ProtocolError
from repro.fleet.config import FleetConfig, ShardSpec
from repro.fleet.rebalancer import TransferLedger, plan_greedy
from repro.metrics import waves
from repro.metrics.counters import MoveCounters
from repro.metrics.invariants import InvariantReport, audit_fleet
from repro.protocol import BudgetSplit
from repro.service.config import ControllerSpec, SessionConfig
from repro.service.envelopes import OutcomeRecord, SessionVerdict, Ticket
from repro.service.outbox import Outbox
from repro.service.session import ControllerSession
from repro.tree.dynamic_tree import DynamicTree
from repro.tree.node import TreeNode

__all__ = ["FleetRouter", "Shard"]

#: Virtual nodes per unit of shard weight on the consistent-hash ring.
RING_REPLICAS = 32


def _stage(pool: int, tranche: int) -> int:
    """Permits the next session of a shard takes from ``pool``.

    Observation 3.4's schedule: each stage takes half of what the
    previous ones left, so a slice of M is spent in O(log(M/tranche))
    sessions; ``tranche`` floors the stage, so the tail of the slice
    does not crawl through sessions of a few permits each.
    """
    return max(tranche, pool // 2)


def _funding_hook(router: "FleetRouter",
                  index: int) -> Callable[[int], int]:
    """The hook shard ``index``'s terminating sessions ask for funds.

    It holds the router weakly: the router owns its shards, a shard its
    session and the session this hook, so a strong reference would
    close a cycle that only the cyclic collector frees.
    """
    ref = weakref.ref(router)

    def fund(shortfall: int) -> int:
        fleet = ref()
        if fleet is None:
            return 0
        return fleet._fund(fleet.shards[index], shortfall)

    return fund


class Shard:
    """One member of the fleet: a tree, a live session, and the books.

    The books are double-entry against the transfer ledger:
    ``entitlement`` (= allocation + inbound - outbound) always equals
    ``banked_granted + live budget + reserve``, which
    :func:`~repro.metrics.invariants.audit_fleet` re-checks through the
    :class:`~repro.protocol.BudgetSplit` contract (:attr:`budget`).
    """

    def __init__(self, index: int, spec: ShardSpec, allocation: int,
                 waste: int, *, tranche: int, seed: int,
                 tree: Optional[DynamicTree] = None,
                 fund: Callable[[int], int]) -> None:
        self.index = index
        self.spec = spec
        self.name = spec.name
        self.tree = tree if tree is not None else DynamicTree()
        #: One counter object threads through every session this shard
        #: spawns (and takes the rebalancing charges), so move totals
        #: are cumulative across rollovers.
        self.counters = MoveCounters()
        self.allocation = allocation
        self.waste = waste
        self.reserve = allocation
        self.banked_granted = 0
        self.banked_rejected = 0
        self.inbound = 0
        self.outbound = 0
        self.served = 0
        self.sessions_spawned = 0
        self.live_m = 0
        #: Grants of the most recently closed session; -1 = none yet.
        self.last_granted = -1
        self._seed = seed
        self.session: Optional[ControllerSession] = None
        #: The funding hook every terminating session gets, and the
        #: live one's controller, whose root storage siblings borrow
        #: from.
        self._fund = fund
        self._root: Optional[CentralizedController] = None
        self.spawn_terminating(min(_stage(allocation, tranche), allocation))

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def entitlement(self) -> int:
        """Budget this shard currently answers for."""
        return self.allocation + self.inbound - self.outbound

    @property
    def live_granted(self) -> int:
        return (self.session.controller.introspect().granted
                if self.session is not None else 0)

    @property
    def live_unused(self) -> int:
        """Unspent permits locked in the live session (reclaimable):
        its M less its grants, as the session conserves permits."""
        return self.live_m - self.live_granted

    @property
    def root_storage(self) -> int:
        """Permits at the live funded session's root (lendable in place)."""
        return self._root.storage if self._root is not None else 0

    @property
    def granted(self) -> int:
        return self.banked_granted + self.live_granted

    @property
    def rejected(self) -> int:
        view = (self.session.controller.introspect()
                if self.session is not None else None)
        return self.banked_rejected + (view.rejected if view else 0)

    @property
    def budget(self) -> BudgetSplit:
        """The Observation 3.4 split: banked grants vs. unspent budget."""
        return BudgetSplit(prior_grants=self.banked_granted,
                           live_budget=self.live_m + self.reserve)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable books (bench artifacts)."""
        return {
            "name": self.name, "allocation": self.allocation,
            "waste": self.waste, "reserve": self.reserve,
            "granted": self.granted, "rejected": self.rejected,
            "inbound": self.inbound, "outbound": self.outbound,
            "served": self.served,
            "sessions_spawned": self.sessions_spawned,
            "tree_size": self.tree.size,
            "moves": self.counters.snapshot(),
        }

    # ------------------------------------------------------------------
    # Session lifecycle (driven by the router).
    # ------------------------------------------------------------------
    def spawn_terminating(self, m_live: int) -> None:
        """Issue ``m_live`` permits from reserve into a fresh session."""
        template = self.spec.session_template(m_live, self.waste)
        options = dict(template.options)
        options["counters"] = self.counters
        session = self._spawn(ControllerSpec(template.flavor, m=template.m,
                                             w=template.w, u=template.u,
                                             options=options), m_live)
        root = cast(TerminatingController, session.controller).inner
        root._fund = self._fund
        self._root = root

    def spawn_trivial(self, m_live: int) -> None:
        """Mop-up mode: an exact (M, 0) engine over the whole reserve.

        Spawned when packaged sessions can no longer make progress (the
        previous session granted nothing, or the pool is too small to
        fill a package): the trivial engine grants permit-by-permit
        until the pool is empty and only then rejects — so a reject is
        a proof the budget is spent, not a packaging artifact.
        """
        self._spawn(ControllerSpec("trivial", m=m_live, w=0, u=0,
                                   options={"counters": self.counters}),
                    m_live)

    def _spawn(self, spec: ControllerSpec,
               m_live: int) -> ControllerSession:
        assert self.session is None, "spawn over a live session"
        assert 0 <= m_live <= self.reserve
        self.reserve -= m_live
        self.live_m = m_live
        config = SessionConfig(controller=spec, seed=self._seed)
        session = self.session = ControllerSession(config, tree=self.tree)
        self.sessions_spawned += 1
        return session

    def top_up(self, permits: int) -> None:
        """Book ``permits`` from reserve into the live session's M (the
        funding hook's debit; the controller raises its own M)."""
        if permits > self.reserve:
            raise ProtocolError(
                f"shard {self.name!r}: funding of {permits} permits "
                f"exceeds its reserve of {self.reserve}")
        self.reserve -= permits
        self.live_m += permits

    def lend_root(self, permits: int) -> None:
        """Move ``permits`` from the live session's root storage back to
        reserve: the session's M drops as much in place, with no reset
        (the funding hook's algebra run backwards)."""
        storage = self.root_storage
        if self._root is None or permits > storage:
            raise ProtocolError(
                f"shard {self.name!r}: a root loan of {permits} permits "
                f"would leave its root storage at {storage - permits}")
        self._root._adjust_budget(-permits)
        self.live_m -= permits
        self.reserve += permits

    def bank(self) -> None:
        """Close the live session, banking its grants (stage rollover).

        The Observation 3.4 move: grants accumulate into the shard's
        prior-grants ledger, the unspent leftover returns to reserve —
        no permit is minted or lost.
        """
        session = self.session
        assert session is not None, "no live session to bank"
        view = session.controller.introspect()
        leftover = session.controller.unused_permits()
        self.banked_granted += view.granted
        self.banked_rejected += view.rejected
        self.reserve += leftover
        self.last_granted = view.granted
        self.live_m = 0
        self.session = None
        self._root = None
        session.close()

    def reclaim(self) -> None:
        """Gracefully drain the live session so siblings can borrow.

        The last resort of a loan: permits at the session's root are
        lent in place (:meth:`lend_root`), so a drain is needed only
        for permits parked below the root.  Charged as a shard-wide
        broadcast (one reset move per tree node): recovering permits
        parked across a live tree costs a collection wave, the same
        price the terminating engine pays on its own termination.
        """
        self.counters.reset_moves += waves.node_wave(self.tree.size)
        self.bank()


class FleetRouter:
    """Route requests over the shards; rebalance budget between them.

    Mirrors the :class:`~repro.service.session.ControllerSession`
    surface (it satisfies :class:`repro.gateway.gateway.IngestionBackend`),
    with one addition: ``submit``/``serve`` accept an ``origin=`` —
    any hashable client key — that routes via the consistent-hash ring
    instead of node ownership.  Thread-safe the same way a session is:
    one reentrant lock serializes admission, serving, and settlement.
    """

    def __init__(self, config: FleetConfig,
                 trees: Optional[Sequence[DynamicTree]] = None) -> None:
        self.config = config
        if trees is not None:
            if len(trees) != len(config.shards):
                raise ConfigError(
                    f"got {len(trees)} trees for {len(config.shards)} "
                    "shards")
            for index, tree in enumerate(trees):
                first = trees.index(tree)
                if first != index:
                    raise ConfigError(
                        f"shards {config.shards[first].name!r} and "
                        f"{config.shards[index].name!r} were given the "
                        "same tree; every shard needs its own")
        m_shares = config.budget_shares()
        w_shares = config.waste_shares()
        self.shards: List[Shard] = [
            Shard(index, spec, m_shares[index], w_shares[index],
                  tranche=config.tranche, seed=config.seed,
                  tree=None if trees is None else trees[index],
                  fund=_funding_hook(self, index))
            for index, spec in enumerate(config.shards)]
        self._by_name = {shard.name: shard for shard in self.shards}
        self.ledger = TransferLedger()

        # Consistent-hash ring: ``RING_REPLICAS`` virtual nodes per
        # unit of shard weight, CRC32-placed (stable across processes,
        # unlike ``hash()``), ties broken by shard index.
        self._ring: List[Tuple[int, int]] = sorted(
            (crc32(f"{spec.name}#{vnode}".encode("utf-8")), index)
            for index, spec in enumerate(config.shards)
            for vnode in range(RING_REPLICAS * spec.weight))
        #: Every origin ever placed -> its pinned shard index (also
        #: the auditor's replay record).
        self.placements: Dict[str, int] = {}

        # Node ownership: the shard whose tree made the node (a node
        # built by hand is tagged None, which no shard owns).
        self._shard_of: Dict[Optional[DynamicTree], int] = {
            shard.tree: shard.index for shard in self.shards}

        # Settlement: one lock over admission, serving and the outbox.
        self._lock = threading.RLock()
        self._outbox = Outbox()
        #: Queued tickets with their target shard index.
        self._pending: Deque[Tuple[Ticket, int]] = deque()
        self._closed = False
        self._reject_wave = False
        self.verdicts: Dict[str, int] = self._outbox.verdicts

    # ------------------------------------------------------------------
    # Placement.
    # ------------------------------------------------------------------
    def ring_place(self, origin: Any) -> int:
        """The pure ring answer for ``origin`` (stateless, auditable)."""
        point = crc32(str(origin).encode("utf-8"))
        position = bisect_left(self._ring, (point, -1))
        if position == len(self._ring):
            position = 0
        return self._ring[position][1]

    def place(self, origin: Any) -> int:
        """Shard index for ``origin``: its first ring answer, pinned
        for the fleet's lifetime and recorded for the determinism
        audit."""
        key = str(origin)
        with self._lock:
            index = self.placements.get(key)
            if index is None:
                index = self.placements[key] = self.ring_place(key)
            return index

    def tree_of(self, origin: Any) -> DynamicTree:
        """The tree a client keyed ``origin`` should build requests on."""
        return self.shards[self.place(origin)].tree

    def owner_of(self, node: TreeNode) -> Optional[int]:
        """Shard index owning ``node``, or None if it was not made on a
        shard tree (a removed node keeps its shard)."""
        return self._shard_of.get(node.tree)

    def _route(self, request: Request, origin: Optional[Any]) -> int:
        """:meth:`owner_of` and :meth:`place` in one frame (locked)."""
        owner = self._shard_of.get(request.node.tree)
        if origin is not None:
            index = self.placements.get(str(origin))
            if index is None:
                index = self.place(origin)
            if owner is not None and owner != index:
                raise FleetError(
                    f"origin {origin!r} places on shard "
                    f"{self.shards[index].name!r} but the request targets "
                    f"a node owned by shard {self.shards[owner].name!r}; "
                    "build a client's requests on its tree_of(origin)")
            return index
        if owner is None:
            raise FleetError(
                "request node is not owned by any shard tree; pass "
                "origin= or build requests against a shard tree "
                "(tree_of / shards[i].tree)")
        return owner

    # ------------------------------------------------------------------
    # Budget rebalancing.
    # ------------------------------------------------------------------
    def _availability(self, requester: Shard) -> int:
        """Permits obtainable for ``requester`` right now."""
        total = 0
        for shard in self.shards:
            total += shard.reserve
            if shard is not requester and shard.session is not None:
                total += shard.live_unused
        return total

    def _transfer(self, donor: Shard, receiver: Shard, permits: int,
                  kind: str) -> None:
        assert 0 < permits <= donor.reserve
        donor.reserve -= permits
        receiver.reserve += permits
        donor.outbound += permits
        receiver.inbound += permits
        self.ledger.record(donor.name, receiver.name, permits, kind)
        # The permit batch rides root-to-root through the coordinator:
        # one hop out of the donor, one into the receiver.
        donor.counters.package_moves += 1
        receiver.counters.package_moves += 1

    def _borrow(self, shard: Shard, need: int) -> None:
        """Lend ``shard`` half of every sibling's spare.

        A sibling's spare is its reserve plus the unused permits of its
        live session; it lends at most half, rounded up, and keeps the
        rest for its own next stages.  ``shard`` takes every offer a
        sibling can pay from its reserve and, for the rest, from its
        live session's root storage (the session's M drops in
        place).  Either way it is
        one ``reserve`` transfer, so a shard carrying most of the
        traffic spends the fleet's leftover in halving stages, not
        ``tranche`` at a time.  Only a shard still holding nothing
        *reclaims*: :func:`plan_greedy` picks the sibling live
        sessions to drain for ``need`` permits (their grants bank,
        their leftover becomes reserve) — that is
        only spare parked below their roots.  Spending a few permits
        before draining a sibling keeps busy shards from draining each
        other in turn at the end of the budget.
        """
        siblings = [s for s in self.shards if s is not shard]
        offers = {s.name: (s.reserve + s.live_unused + 1) // 2
                  for s in siblings}
        for donor in siblings:
            from_root = min(offers[donor.name] - donor.reserve,
                            donor.root_storage)
            if from_root > 0:
                donor.lend_root(from_root)
            take = min(offers[donor.name], donor.reserve)
            if take > 0:
                self._transfer(donor, shard, take, "reserve")
        if shard.reserve > 0:
            return
        # Every sibling reserve is empty here, so an offer is half of
        # the donor's live spare.
        locked = [(name, offer) for name, offer in offers.items()
                  if offer > 0]
        for name, take in plan_greedy(need, locked):
            donor = self._by_name[name]
            donor.reclaim()
            take = min(take, donor.reserve)
            if take > 0:
                self._transfer(donor, shard, take, "reclaim")

    def _refill(self, shard: Shard) -> None:
        """Give ``shard`` a new session from whatever budget remains.

        Runs when a session ended: exhausted with nothing left to fund
        it, or drained by a sibling.  A shard short of ``tranche``
        borrows first.  The stage then takes half the reserve, never
        less than ``tranche``.
        """
        tranche = self.config.tranche
        if shard.reserve < tranche:
            self._borrow(shard, tranche - shard.reserve)
        if shard.reserve == 0:
            # Global budget spent: an empty mop-up engine still answers
            # CANCELLED/REJECTED with exact semantics.
            shard.spawn_trivial(0)
        elif shard.last_granted == 0:
            # The previous packaged session made no progress (tranche
            # below the needed package size) — grant the rest exactly.
            shard.spawn_trivial(shard.reserve)
        else:
            shard.spawn_terminating(
                min(_stage(shard.reserve, tranche), shard.reserve))

    def _fund(self, shard: Shard, shortfall: int) -> int:
        """Fund ``shard``'s live session: the body of its hook.

        Borrows first, as a refill does, then moves the next stage
        (half the reserve, never less than ``tranche`` or the
        ``shortfall`` at the root) into the live session's M.  Returns
        0, so the session terminates, only when even borrowing leaves
        the reserve short of ``shortfall``.
        """
        tranche = self.config.tranche
        floor = max(tranche, shortfall)
        if shard.reserve < floor:
            self._borrow(shard, floor - shard.reserve)
        if shard.reserve < shortfall:
            return 0
        permits = min(max(_stage(shard.reserve, tranche), shortfall),
                      shard.reserve)
        shard.top_up(permits)
        return permits

    def _rollover(self, shard: Shard) -> None:
        shard.bank()
        self._refill(shard)

    def _serve_on(self, index: int, request: Request) -> Outcome:
        """Serve one request on a shard, rebalancing across rollovers.

        Terminating PENDINGs are intercepted and retried on a refilled
        session; a REJECTED is let through only once nothing remains
        borrowable anywhere — the global reject wave.  A rollover that
        moves no permit into the shard's session while some remain
        raises :class:`ProtocolError`: its retry could only reject
        again, forever.
        """
        shard = self.shards[index]
        shard.served += 1
        while True:
            session = shard.session
            if session is None:  # clawed back by a sibling
                self._refill(shard)
                session = shard.session
                assert session is not None
            # The shard engines are synchronous: the fleet's outbox
            # records the request once, so the session's is bypassed.
            outcome: Outcome = session.controller.handle(request)
            status = outcome.status
            if status is OutcomeStatus.PENDING:
                self._rollover(shard)
                continue
            if status is OutcomeStatus.REJECTED and not self._reject_wave:
                remaining = self._availability(shard)
                if remaining > 0:
                    self._rollover(shard)
                    if shard.live_m == 0:
                        raise ProtocolError(
                            f"shard {shard.name!r}: {remaining} permits "
                            "remain but the rollover moved none into its "
                            "session, so the retry would reject forever")
                    continue
                self._reject_wave = True
            return outcome

    # ------------------------------------------------------------------
    # Clock and introspection.
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The fleet clock: a submit/settle operation counter."""
        return self._outbox.now

    @property
    def in_flight(self) -> int:
        return self._outbox.open

    @property
    def backpressured(self) -> int:
        return self.verdicts[SessionVerdict.BACKPRESSURE.value]

    @property
    def undelivered(self) -> int:
        return self._outbox.undelivered

    @property
    def reject_wave(self) -> bool:
        """True once a reject reached a client (global budget spent)."""
        return self._reject_wave

    @property
    def granted_total(self) -> int:
        return sum(shard.granted for shard in self.shards)

    def tally(self) -> Dict[str, int]:
        """Verdict counts over every settled record."""
        return dict(self.verdicts)

    def audit(self, report: Optional[InvariantReport] = None
              ) -> InvariantReport:
        """Run the fleet auditor (per-shard engines + global books)."""
        return audit_fleet(self, report)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable fleet books (bench artifacts)."""
        return {
            "config": self.config.snapshot(),
            "shards": [shard.snapshot() for shard in self.shards],
            "transfers": [entry.snapshot() for entry in self.ledger.entries],
            "granted_total": self.granted_total,
            "reject_wave": self._reject_wave,
            "verdicts": dict(self.verdicts),
        }

    # ------------------------------------------------------------------
    # Submission (the ControllerSession surface).
    # ------------------------------------------------------------------
    def submit(self, request: Request, delay: Optional[float] = None,
               origin: Optional[Any] = None) -> Ticket:
        """Admit one request; non-blocking (see session ``submit``).

        ``delay`` is accepted for surface parity and ignored — every
        shard flavour is synchronous.  ``origin`` routes by placement
        instead of node ownership.
        """
        with self._lock:
            if self._closed:
                raise ControllerError("fleet is closed")
            index = self._route(request, origin)
            outbox = self._outbox
            ticket = outbox.ticket(request, self._pump)
            if outbox.open > self.config.max_in_flight:
                outbox.settle(ticket, None)
                return ticket
            self._pending.append((ticket, index))
            return ticket

    def submit_many(self, requests: Iterable[Request],
                    stagger: Optional[float] = None,
                    origin: Optional[Any] = None) -> List[Ticket]:
        """Admit a batch (``stagger`` accepted for parity, ignored)."""
        return [self.submit(request, origin=origin)
                for request in requests]

    def serve(self, request: Request,
              origin: Optional[Any] = None) -> OutcomeRecord:
        """Serve one request to completion, synchronously.

        Never queued: admission control does not apply and the record
        is not re-yielded by :meth:`drain` (session ``serve`` contract).
        """
        with self._lock:
            if self._closed:
                raise ControllerError("fleet is closed")
            index = self._route(request, origin)
            if self._pending:
                self._pump()  # keep settlement order = submission order
            return self._outbox.served(request,
                                       self._serve_on(index, request))

    def serve_stream(self, requests: Iterable[Request],
                     origin: Optional[Any] = None) -> List[OutcomeRecord]:
        """Serve a lazily-resolved stream in order (session contract:
        each request binds only after the previous one was applied)."""
        return [self.serve(request, origin=origin) for request in requests]

    # ------------------------------------------------------------------
    # Settlement.
    # ------------------------------------------------------------------
    def _pump(self) -> bool:
        """Serve the whole pending queue; False when idle."""
        with self._lock:
            if self._closed:
                raise ControllerError("fleet is closed")
            if not self._pending:
                return False
            batch = list(self._pending)
            self._pending.clear()
            settle = self._outbox.settle
            for ticket, index in batch:
                settle(ticket, self._serve_on(index, ticket.request))
            return True

    def drain(self) -> Iterator[OutcomeRecord]:
        """Pump, yielding records in settlement order (exactly-once)."""
        pop = self._outbox.pop
        while True:
            with self._lock:
                record = pop()
                if record is None:
                    if self.in_flight == 0:
                        return
                    if not self._pump():
                        raise ProtocolError(
                            f"{self.in_flight} requests in flight but "
                            "the fleet is idle")
                    continue
            # Fleet entries are settled tickets only.
            yield cast(OutcomeRecord, record)

    def settle_all(self) -> List[OutcomeRecord]:
        """Drain to quiescence and return the settled records."""
        return list(self.drain())

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close every shard session.  Idempotent; in-flight requests
        are abandoned."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for shard in self.shards:
                if shard.session is not None:
                    shard.session.close()

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"FleetRouter(shards={len(self.shards)}, "
                f"m_total={self.config.m_total}, "
                f"granted={self.granted_total}, "
                f"transfers={len(self.ledger)}, "
                f"reject_wave={self._reject_wave})")
