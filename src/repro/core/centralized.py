"""The centralized (M,W)-Controller with known U (Section 3.1).

This is the reference semantics of the paper's contribution.  Permits
start at the root; requests trigger ``GrantOrReject``:

1. a node holding a reject package rejects locally;
2. a node holding static permits grants one locally;
3. otherwise the algorithm climbs toward the root looking for the
   closest *filler node* — an ancestor holding a mobile package whose
   level matches its distance window — falling back to creating a fresh
   package at the root (or broadcasting a reject wave when the root's
   storage cannot cover it);
4. the found/created package is distributed down the path to the
   requester by the recursive ``Proc``: a level-``k`` package moves to
   ``u_{k-1}`` (the ancestor ``3 * 2^(k-2) * psi`` hops above ``u``),
   splits in two, leaves one half parked there for future requests, and
   recurses with the other half; the final level-0 package becomes the
   requester's static pool.

The permit/package *mechanics* — the ledger, the level-windowed filler
lookup, the ``Proc`` split schedule, the reject wave — live in the
shared :mod:`repro.core.kernel`; this class is the synchronous
executor: it resolves each kernel plan step against the ancestry
structure immediately and charges one package move per hop travelled.
The distributed engine executes the *same* plans hop-by-hop, which is
what makes centralized/distributed equivalence hold by construction
(and lets ``tests/test_kernel_equivalence.py`` compare kernel traces
transition-for-transition).

The prose of the paper states ``Proc`` as "move P (level k) to u_k", but
``u_k`` is only defined for ``k <= j(u) - 1`` and the domain construction
(Section 3.2, Case 2) requires the *post* state "one level-k package at
u_k for every k < j(u)"; the shift-by-one implemented here is the unique
reading satisfying both, and the machine-checked domain invariants in
``tests/core/test_domains.py`` confirm it.

Move complexity is charged per hop of package movement, per the
centralized cost model of Section 2.2.
"""

from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import ControllerError
from repro.metrics.counters import MoveCounters
from repro.protocol import ControllerView
from repro.tree.dynamic_tree import DynamicTree, TreeListener
from repro.tree.node import TreeNode
from repro.tree import paths
from repro.core import kernel
from repro.core.kernel import KernelTrace, PermitLedger
from repro.core.packages import MobilePackage, NodeStore, StoreMap
from repro.core.params import ControllerParams
from repro.core.requests import (Outcome, OutcomeStatus, Request,
                                 RequestKind, perform_event)

_GRANTED = OutcomeStatus.GRANTED
_REJECTED = OutcomeStatus.REJECTED
_CANCELLED = OutcomeStatus.CANCELLED
_PENDING = OutcomeStatus.PENDING
_ADD_INTERNAL = RequestKind.ADD_INTERNAL
_REMOVE_LEAF = RequestKind.REMOVE_LEAF
_REMOVE_INTERNAL = RequestKind.REMOVE_INTERNAL


class CentralizedController(TreeListener):
    """Known-U centralized (M,W)-Controller.

    Parameters
    ----------
    tree:
        The dynamic spanning tree the controller manages.
    m, w, u:
        The controller parameters (see :class:`ControllerParams`).
        ``u`` must upper-bound the number of nodes ever to exist.
    counters:
        Optional shared :class:`MoveCounters` (the iterated/adaptive
        wrappers pass one across their inner controllers).
    reject_on_exhaustion:
        When the root cannot cover a needed package, the paper's basic
        controller broadcasts a reject wave.  Wrappers set this to False
        to intercept exhaustion (Observation 3.4's halving iterations and
        Observation 2.1's terminating variant); the request then returns
        with ``OutcomeStatus.PENDING`` and :attr:`exhausted` flips.
    track_intervals:
        Maintain explicit permit serial-number intervals on every package
        (used by the name-assignment protocol of Section 5.2).  Serials
        for this controller are ``interval_base + 1 .. interval_base + m``.

    The controller plays the model's "requesting entity": a granted
    topological event is performed on the tree at grant time.

    :meth:`handle` serves the common grant in its own frame: with no
    package parked anywhere and the requester within ``2 psi`` of the
    root, the root carves ``phi`` permits, which travel ``depth`` hops
    into the requester's static pool; no package or plan is built.
    Any other input takes the kernel-planned :meth:`_fetch_permits`
    (``tests/core/test_handle_batch.py`` compares the two).
    """

    def __init__(self, tree: DynamicTree, m: int, w: int, u: int,
                 counters: Optional[MoveCounters] = None,
                 reject_on_exhaustion: bool = True,
                 track_intervals: bool = False,
                 interval_base: int = 0,
                 permit_flow_observer=None,
                 kernel_trace: Optional[KernelTrace] = None):
        # ``permit_flow_observer(node, permits)`` is invoked whenever a
        # package carrying ``permits`` permits passes *down* through
        # ``node`` — the monitoring hook the subtree estimator of
        # Lemma 5.3 taps ("each node monitors the packages ... which
        # pass through it down the tree").
        self.permit_flow_observer = permit_flow_observer
        self.tree = tree
        self.params = ControllerParams(m=m, w=w, u=u)
        self.counters = counters if counters is not None else MoveCounters()
        # Request-engine fast path: claim the tree's per-node store
        # slots if nobody holds them (single claimant per tree; extra
        # concurrent controllers transparently use dict lookups).
        self.stores = StoreMap(tree, self)
        self._fast = self.stores.holds_slots
        self._trace = kernel_trace
        #: The owner's funding hook: called with the root's shortfall
        #: when storage cannot cover a package, it returns the permits
        #: the owner adds to M (0 when it cannot fund).  ``None``
        #: exhausts at once, as the paper's controller does.
        self._fund: Optional[Callable[[int], int]] = None
        #: The owner's termination hook (Observation 2.1): with
        #: ``reject_on_exhaustion`` off it answers the request that
        #: exhausts the controller, and every request once the owner
        #: has detached it.  ``None`` answers ``PENDING`` at exhaustion
        #: and raises once detached.
        self._terminate: Optional[Callable[[Request], Outcome]] = None
        self._ledger = PermitLedger(
            params=self.params, storage=m,
            track_intervals=track_intervals, interval_base=interval_base,
            trace=kernel_trace,
        )
        self.rejecting = False
        self.exhausted = False
        self.reject_on_exhaustion = reject_on_exhaustion
        self.track_intervals = track_intervals
        # Index of nodes currently parking >= 1 mobile package.  Empty
        # means no filler anywhere, without touching the tree.
        self._mobile_hosts: Dict[TreeNode, NodeStore] = {}
        # The inline grant needs the slots and no per-package
        # bookkeeping; 2 psi bounds its requesters' depth (funding
        # moves M only, so neither changes).
        self._inline = (self._fast and not track_intervals
                        and permit_flow_observer is None
                        and kernel_trace is None)
        self._level0_reach = 2 * self.params.psi
        self._attached = True
        tree.add_listener(self)

    # ------------------------------------------------------------------
    # Ledger delegation (the public tallies live on the kernel ledger;
    # setters are kept so diagnostic code and doctored-state tests can
    # manipulate them as before).
    # ------------------------------------------------------------------
    @property
    def storage(self) -> int:
        return self._ledger.storage

    @storage.setter
    def storage(self, value: int) -> None:
        self._ledger.storage = value

    @property
    def granted(self) -> int:
        return self._ledger.granted

    @granted.setter
    def granted(self, value: int) -> None:
        self._ledger.granted = value

    @property
    def rejected(self) -> int:
        return self._ledger.rejected

    @rejected.setter
    def rejected(self, value: int) -> None:
        self._ledger.rejected = value

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Outcome:
        """Run ``GrantOrReject`` for one request, synchronously."""
        if not self._attached:
            if self._terminate is not None:
                return self._terminate(request)
            raise ControllerError("controller has been detached")
        tree = self.tree
        fast = self._fast
        node = request.node
        # A node holding this controller's store slot is alive in its
        # tree: stores are made only for the tree's live nodes and are
        # discarded when their node is removed.  Otherwise membership
        # is ``node in tree``, read inline.
        if fast and node._store_owner is self:
            store = node._store
        elif node.tree is tree and node.alive:
            store = None
        else:
            return Outcome(_CANCELLED, request)
        # Section 4.2: a request whose event lost its meaning (a second
        # deletion, a split of an edge that is gone) is cancelled.  The
        # rules of ``still_meaningful`` are inlined here: this grant
        # runs in one frame (tests/core/test_grant_budget.py).
        kind = request.kind
        if kind is _REMOVE_LEAF:
            meaningful = node.parent is not None and not node.children
        elif kind is _REMOVE_INTERNAL:
            meaningful = node.parent is not None and bool(node.children)
        elif kind is _ADD_INTERNAL:
            child = request.child
            meaningful = (child is not None and child.alive
                          and child.parent is node)
        else:
            meaningful = True
        if not meaningful:
            return Outcome(_CANCELLED, request)

        if store is None:
            store = self.stores.get(node)
        ledger = self._ledger
        # Item 1: a reject package answers immediately.
        if store.has_reject or self.rejecting:
            ledger.count_reject()
            return Outcome(_REJECTED, request)

        # Item 3: replenish the static pool if needed.
        if not store.static_permits:
            depth = -1
            reach = self._level0_reach
            if self._inline and not self._mobile_hosts:
                depth = 0
                above = node.parent
                while above is not None:
                    depth += 1
                    if depth > reach:
                        break
                    above = above.parent
            if 0 <= depth <= reach:
                # No filler anywhere and creation level 0: the root
                # carves phi permits, which travel ``depth`` hops and
                # become the static pool.
                phi = self.params.phi
                replenished = ledger.storage >= phi or self._funded(phi)
                if replenished:
                    ledger.storage -= phi
                    self.counters.package_moves += depth
                    store.static_permits = phi
                else:
                    self._exhaust()
            else:
                replenished = self._fetch_permits(node)
            if not replenished:
                if self.reject_on_exhaustion:
                    ledger.count_reject()
                    return Outcome(_REJECTED, request)
                if self._terminate is not None:
                    return self._terminate(request)
                return Outcome(_PENDING, request)

        # Item 2: grant one static permit and perform the event.
        store.static_permits -= 1
        serial = store.take_static_serial() if self.track_intervals else None
        ledger.grant(node)
        return Outcome(_GRANTED, request,
                       new_node=perform_event(tree, request), serial=serial)

    def handle_batch(self, requests: Iterable[Request]) -> List[Outcome]:
        """Run ``GrantOrReject`` for a batch of requests.

        A per-request loop over :meth:`handle`: outcomes and
        move-counter accounting are exactly those of calling
        :meth:`handle` on each request in order (property-tested in
        ``tests/core/test_handle_batch.py``).  The batch form exists
        for the :class:`repro.protocol.ControllerProtocol` surface.
        """
        return [self.handle(request) for request in requests]

    def unused_permits(self) -> int:
        """Permits not yet granted: root storage plus parked packages.

        This is the quantity ``L`` the halving iterations of
        Observation 3.4 re-budget with.
        """
        return self._ledger.unused(self.stores.total_parked_permits())

    def introspect(self) -> ControllerView:
        """The :class:`repro.protocol.ControllerProtocol` audit view."""
        return ControllerView(
            flavor="centralized", m=self.params.m, w=self.params.w,
            granted=self.granted, rejected=self.rejected,
            params=self.params, storage=self.storage, stores=self.stores,
            tree=self.tree,
        )

    def detach(self) -> None:
        """Unregister from the tree; the controller becomes inert."""
        if self._attached:
            self.tree.remove_listener(self)
            if self._fast:
                self.stores.release_slots()
                self._fast = False
            self._attached = False

    # ------------------------------------------------------------------
    # GrantOrReject internals.
    # ------------------------------------------------------------------
    def _fetch_permits(self, node: TreeNode) -> bool:
        """Items 3-4: find/create a package and distribute it to ``node``.

        Returns False when the root's storage cannot cover the required
        package (exhaustion); in reject mode this also broadcasts the
        reject wave.
        """
        package, dist = self._find_filler(node)
        if package is None:
            dist_to_root = paths.depth(node)
            level = self.params.creation_level(dist_to_root)
            need = self.params.mobile_size(level)
            if not self._ledger.covers(need) and not self._funded(need):
                self._exhaust()
                return False
            package = self._ledger.create_package(level, dist_to_root)
            dist = dist_to_root
            if self.permit_flow_observer is not None:
                # Freshly created permits "enter" the root as well.
                self.permit_flow_observer(self.tree.root, package.size)
        self._distribute(package, dist, node)
        return True

    def _exhaust(self) -> None:
        """The root cannot cover the next package: in reject mode the
        reject wave goes out; either way the controller is exhausted."""
        if self.reject_on_exhaustion:
            self._broadcast_reject_wave()
        self.exhausted = True

    def _funded(self, need: int) -> bool:
        """Ask the owner to fund the root up to ``need``; True once the
        storage covers it."""
        if self._fund is None:
            return False
        self._adjust_budget(self._fund(need - self.storage))
        return self._ledger.covers(need)

    def _adjust_budget(self, delta: int) -> None:
        """Observation 3.4's re-budgeting without the reset: this live
        controller becomes the (M + delta, W) one (see
        :meth:`PermitLedger.adjust`) and shares the ledger's new params.
        """
        self._ledger.adjust(delta)
        self.params = self._ledger.params

    def _find_filler(self, node: TreeNode):
        """Closest ancestor that is a filler node w.r.t. ``node``.

        Returns ``(package, distance)``, removing the package from its
        host's store — or ``(None, None)`` if no filler exists up to and
        including the root.  With nothing parked anywhere that is known
        without touching the tree; otherwise the climb runs (two slot
        loads per hop with the fast path claimed, a dict probe without)
        and the kernel's level-windowed lookup picks per store.
        """
        if not self._mobile_hosts:
            return None, None
        params = self.params
        trace = self._trace
        fast = self._fast
        owner = self
        stores = self.stores
        dist = 0
        current: Optional[TreeNode] = node
        while current is not None:
            if fast:
                store = (current._store
                         if current._store_owner is owner else None)
            else:
                store = stores.peek(current)
            if store is not None and store.mobile:
                chosen = kernel.take_filler(store, dist, params,
                                            node=current, trace=trace)
                if chosen is not None:
                    if not store.mobile:
                        self._mobile_hosts.pop(current, None)
                    return chosen, dist
            current = current.parent
            dist += 1
        return None, None

    def _distribute(self, package: MobilePackage, dist: int,
                    node: TreeNode) -> None:
        """Procedure ``Proc``: split the package down the path to ``node``.

        ``dist`` is the package's current distance above ``node``.  The
        split schedule comes from the kernel's distribution plan; this
        executor applies each step synchronously, resolving the step's
        distance to a node by a parent walk and charging one package
        move per hop travelled.
        """
        plan = kernel.plan_distribution(self.params, package.level,
                                        package.size, dist)
        for step in plan.steps:
            target = paths.ancestor_at(node, step.dist)
            self.counters.package_moves += dist - step.dist
            self._observe_flow(node, dist - 1, step.dist, package.size)
            left_interval, right_interval = package.split_interval()
            parked = MobilePackage(level=step.level, size=step.size,
                                   interval=left_interval)
            target_store = self.stores.get(target)
            kernel.park(target_store, parked, node=target,
                        trace=self._trace)
            self._mobile_hosts[target] = target_store
            package.level = step.level
            package.size = step.size
            package.interval = right_interval
            dist = step.dist
        # Level 0: the package reaches the requester and becomes static.
        self.counters.package_moves += dist
        self._observe_flow(node, dist - 1, 0, package.size)
        kernel.absorb(self.stores.get(node), package, node=node,
                      trace=self._trace)

    def _observe_flow(self, node: TreeNode, from_dist: int, to_dist: int,
                      permits: int) -> None:
        """Report a downward package move to the flow observer.

        The package entered every node at distances ``from_dist`` down
        to ``to_dist`` (inclusive) above ``node``.
        """
        if self.permit_flow_observer is None or from_dist < to_dist:
            return
        current = paths.ancestor_at(node, to_dist)
        for _ in range(from_dist - to_dist + 1):
            self.permit_flow_observer(current, permits)
            parent = current.parent
            if parent is None:
                break
            current = parent

    def _broadcast_reject_wave(self) -> None:
        """Place a reject package at every node (item 3b).

        Centrally the broadcast is instantaneous; the cost — one move
        per node, exactly as splitting/moving reject packages would pay
        — comes from the kernel's reject-wave accounting.
        """
        if self.rejecting:
            return
        self.rejecting = True
        self.counters.reject_moves += kernel.broadcast_reject(
            self.tree, self.stores.get, trace=self._trace)

    # ------------------------------------------------------------------
    # Tree listener: graceful hand-over on deletions; reject propagation
    # to newborn nodes (the parent "informs" the child, item 2b).
    # ------------------------------------------------------------------
    def on_add_internal(self, node: TreeNode,
                        parent: Optional[TreeNode] = None,
                        child: Optional[TreeNode] = None) -> None:
        """Both addition hooks: a node born during the reject wave
        holds a reject package at once."""
        if self.rejecting:
            self.stores.get(node).has_reject = True

    on_add_leaf = on_add_internal

    def on_remove_internal(self, node: TreeNode, parent: TreeNode,
                           children: Optional[List[TreeNode]] = None
                           ) -> None:
        """Both removal hooks: the removed node's store moves to its
        parent, in this one frame on the slot-holding path."""
        if node._store_owner is self:
            # ``self.stores.discard(node)`` for a pinned slot.
            store = node._store
            node._store_owner = node._store = None
            del self.stores._items[id(node)]
        else:
            store = self.stores.discard(node)
        if self._mobile_hosts:
            self._mobile_hosts.pop(node, None)
        if store is None or not (store.mobile or store.static_permits
                                 or store.has_reject):
            return
        # One move carries the whole set of packages one hop (Section 2.2
        # allows moving a set of objects in one move).
        self.counters.relocation_moves += 1
        parent_store = self.stores.get(parent)
        parent_store.merge_from(store)
        if parent_store.mobile:
            self._mobile_hosts[parent] = parent_store

    on_remove_leaf = on_remove_internal
