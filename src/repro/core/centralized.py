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

from typing import Dict, Iterable, List, Optional

from repro.errors import ControllerError
from repro.metrics.counters import MoveCounters
from repro.protocol import ControllerView
from repro.tree.dynamic_tree import DynamicTree, TreeListener
from repro.tree.node import TreeNode
from repro.tree import paths
from repro.core import kernel
from repro.core.domains import DomainTracker
from repro.core.kernel import KernelTrace, PermitLedger
from repro.core.packages import MobilePackage, NodeStore, StoreMap
from repro.core.params import ControllerParams
from repro.core.requests import Outcome, OutcomeStatus, Request, RequestKind


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
    track_domains:
        Enable the analysis-only :class:`DomainTracker` so property tests
        can check the Section 3.2 invariants.
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
    apply_topology:
        When True (default) the controller itself performs granted
        topological changes on the tree, playing the "requesting entity"
        of the model.  The distributed engine reuses this class purely as
        a package data structure with ``apply_topology=False``.
    """

    def __init__(self, tree: DynamicTree, m: int, w: int, u: int,
                 counters: Optional[MoveCounters] = None,
                 track_domains: bool = False,
                 reject_on_exhaustion: bool = True,
                 track_intervals: bool = False,
                 interval_base: int = 0,
                 apply_topology: bool = True,
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
        self._ledger = PermitLedger(
            params=self.params, storage=m,
            track_intervals=track_intervals, interval_base=interval_base,
            trace=kernel_trace,
        )
        self.rejecting = False
        self.exhausted = False
        self.reject_on_exhaustion = reject_on_exhaustion
        self.track_intervals = track_intervals
        self._apply_topology = apply_topology
        self.domains: Optional[DomainTracker] = (
            DomainTracker(tree, self.params) if track_domains else None
        )
        # Index of nodes currently parking >= 1 mobile package.  Mobile
        # packages are sparse (a fetch parks at most one per level), so
        # scanning hosts beats climbing the whole root path on deep
        # trees; ``_find_filler`` picks whichever bound is smaller.
        self._mobile_hosts: Dict[TreeNode, NodeStore] = {}
        # Adaptive ancestry policy: skip-pointer tables pay off only
        # while splices are rare (a splice invalidates the caches of a
        # whole subtree).  Every 64 requests we look at how far the
        # tree's splice generation moved and enable/disable the
        # table-based paths accordingly; correctness is unaffected
        # either way (both paths are exact), only constants change.
        # Starts conservative (walks) until the first window proves the
        # churn is low.
        self._tables_on = False
        self._req_count = 0
        self._win_gen = tree.anc_generation
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
            raise ControllerError("controller has been detached")
        if self._fast:
            self._req_count += 1
            if not self._req_count & 63:
                gen = self.tree.anc_generation
                self._tables_on = gen - self._win_gen <= 2
                self._win_gen = gen
        node = request.node
        if node not in self.tree or not self._still_meaningful(request):
            return Outcome(OutcomeStatus.CANCELLED, request)

        store = self.stores.get(node)
        # Item 1: a reject package answers immediately.
        if store.has_reject or self.rejecting:
            self._ledger.count_reject()
            return Outcome(OutcomeStatus.REJECTED, request)

        # Item 3: replenish the static pool if needed.
        if store.static_permits == 0:
            replenished = self._fetch_permits(node)
            if not replenished:
                if self.reject_on_exhaustion:
                    self._ledger.count_reject()
                    return Outcome(OutcomeStatus.REJECTED, request)
                return Outcome(OutcomeStatus.PENDING, request)
            store = self.stores.get(node)

        # Item 2: grant one static permit and perform the event.
        store.static_permits -= 1
        serial = store.take_static_serial() if self.track_intervals else None
        self._ledger.grant(node)
        new_node = self._execute_event(request)
        return Outcome(OutcomeStatus.GRANTED, request,
                       new_node=new_node, serial=serial)

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
            if self.domains is not None:
                self.domains.detach()
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
            dist_to_root = self._depth(node)
            level = self.params.creation_level(dist_to_root)
            if not self._ledger.covers(self.params.mobile_size(level)):
                if self.reject_on_exhaustion:
                    self._broadcast_reject_wave()
                self.exhausted = True
                return False
            package = self._ledger.create_package(level, dist_to_root)
            dist = dist_to_root
            if self.permit_flow_observer is not None:
                # Freshly created permits "enter" the root as well.
                self.permit_flow_observer(self.tree.root, package.size)
        self._distribute(package, dist, node)
        return True

    def _find_filler(self, node: TreeNode):
        """Closest ancestor that is a filler node w.r.t. ``node``.

        Returns ``(package, distance)``, removing the package from its
        host's store — or ``(None, None)`` if no filler exists up to and
        including the root.

        Three equivalent strategies (identical result, all free in the
        centralized cost model — only package moves are charged):

        * the empty-index short cut — no parked package anywhere means
          no filler, without touching the tree;
        * with warm skip-pointer ancestry, an **indexed scan** of
          ``_mobile_hosts``: O(hosts) candidate distances from
          generation-cached host depths plus O(log depth) skip-jump
          verification of the winners — independent of the tree depth;
        * otherwise the climb — O(depth), but over per-node store
          slots (two slot loads per hop) when this controller holds
          the fast path, dict probes when it does not.
        """
        if not self._mobile_hosts:
            return None, None
        if self._fast and self._tables_on:
            return self._find_filler_indexed(node, -1)
        return self._find_filler_climb(node)

    def _find_filler_climb(self, node: TreeNode):
        """The ancestor climb: first in-window package wins.

        With the fast path claimed, each hop is two slot loads; without
        it, a dict probe per hop.  The per-store window check is the
        kernel's level-windowed lookup: the one level that can fill at
        this distance, matched against the (short) parked list.
        """
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

    def _find_filler_indexed(self, node: TreeNode, min_dist: int):
        """Closest filler strictly beyond ``min_dist`` hops, via index.

        Scans the parked-package hosts: candidate distances come from
        generation-cached host depths (one O(log depth) refresh per
        splice generation), and only window-passing candidates pay the
        O(log depth) skip-jump ancestry verification.  Equivalent to
        continuing the climb past ``min_dist``.
        """
        tree = self.tree
        gen = tree.anc_generation
        node_depth = tree.depth(node)
        params = self.params
        excluded = None
        while True:
            # Optimistic pass: pick the closest window-matching host by
            # depth difference alone; ancestry of the single winner is
            # verified after the loop (it fails only for off-path hosts
            # at a coincidental depth, which are then excluded and the
            # scan retried).
            best = None
            best_dist = None
            best_host = None
            for host, store in self._mobile_hosts.items():
                if store.host_depth_gen != gen:
                    store.host_depth = tree.depth(host)
                    store.host_depth_gen = gen
                dist = node_depth - store.host_depth
                if dist <= min_dist or \
                        (best_dist is not None and dist >= best_dist) or \
                        (excluded is not None and host in excluded):
                    continue
                chosen = kernel.peek_filler(store, dist, params)
                if chosen is not None:
                    best, best_dist, best_host = chosen, dist, host
            if best is None:
                return None, None
            if tree.ancestor_at(node, best_dist) is best_host:
                break
            if excluded is None:
                excluded = set()
            excluded.add(best_host)
        store = self._mobile_hosts[best_host]
        kernel.take_package(store, best, node=best_host, dist=best_dist,
                            trace=self._trace)
        if not store.mobile:
            del self._mobile_hosts[best_host]
        return best, best_dist

    def _distribute(self, package: MobilePackage, dist: int,
                    node: TreeNode) -> None:
        """Procedure ``Proc``: split the package down the path to ``node``.

        ``dist`` is the package's current distance above ``node``.  The
        split schedule comes from the kernel's distribution plan; this
        executor applies each step synchronously, resolving the step's
        distance to a node via the ancestry structure and charging one
        package move per hop travelled.
        """
        plan = kernel.plan_distribution(self.params, package.level,
                                        package.size, dist)
        for step in plan.steps:
            target = self._ancestor_at(node, step.dist)
            self.counters.package_moves += dist - step.dist
            self._observe_flow(node, dist - 1, step.dist, package.size)
            if self.domains is not None:
                self.domains.cancel(package)
            left_interval, right_interval = package.split_interval()
            parked = MobilePackage(level=step.level, size=step.size,
                                   interval=left_interval)
            target_store = self.stores.get(target)
            kernel.park(target_store, parked, node=target,
                        trace=self._trace)
            self._mobile_hosts[target] = target_store
            if self.domains is not None:
                self.domains.assign_domain(parked, target, toward=node)
            package.level = step.level
            package.size = step.size
            package.interval = right_interval
            dist = step.dist
        # Level 0: the package reaches the requester and becomes static.
        self.counters.package_moves += dist
        self._observe_flow(node, dist - 1, 0, package.size)
        if self.domains is not None:
            self.domains.cancel(package)
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
        current = self._ancestor_at(node, to_dist)
        for _ in range(from_dist - to_dist + 1):
            self.permit_flow_observer(current, permits)
            parent = current.parent
            if parent is None:
                break
            current = parent

    def _depth(self, node: TreeNode) -> int:
        """Depth of ``node``, honouring the adaptive ancestry policy."""
        if self._tables_on:
            return self.tree.depth(node)
        return paths.depth(node)

    def _ancestor_at(self, node: TreeNode, hops: int) -> TreeNode:
        """Exact ancestor query, honouring the adaptive ancestry policy.

        Callers guarantee ``hops <= depth(node)``.
        """
        if self._tables_on:
            return self.tree.ancestor_at(node, hops)
        return paths.ancestor_at(node, hops)

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
    # Event execution (the controller plays the granted entity).
    # ------------------------------------------------------------------
    def _still_meaningful(self, request: Request) -> bool:
        """Check the request's event is still executable (Section 4.2)."""
        kind = request.kind
        node = request.node
        if kind is RequestKind.REMOVE_LEAF:
            return not node.is_root and not node.children
        if kind is RequestKind.REMOVE_INTERNAL:
            return not node.is_root and bool(node.children)
        if kind is RequestKind.ADD_INTERNAL:
            return (request.child is not None and request.child.alive
                    and request.child.parent is node)
        return True

    def _execute_event(self, request: Request) -> Optional[TreeNode]:
        if not self._apply_topology or not request.kind.is_topological:
            return None
        if request.kind is RequestKind.ADD_LEAF:
            return self.tree.add_leaf(request.node)
        if request.kind is RequestKind.ADD_INTERNAL:
            return self.tree.add_internal(request.node, request.child)
        if request.kind is RequestKind.REMOVE_LEAF:
            self.tree.remove_leaf(request.node)
            return None
        if request.kind is RequestKind.REMOVE_INTERNAL:
            self.tree.remove_internal(request.node)
            return None
        raise ControllerError(f"unknown request kind {request.kind}")

    # ------------------------------------------------------------------
    # Tree listener: graceful hand-over on deletions; reject propagation
    # to newborn nodes (the parent "informs" the child, item 2b).
    # ------------------------------------------------------------------
    def on_add_leaf(self, node: TreeNode) -> None:
        if self.rejecting:
            self.stores.get(node).has_reject = True

    def on_add_internal(self, node: TreeNode, parent: TreeNode,
                        child: TreeNode) -> None:
        if self.rejecting:
            self.stores.get(node).has_reject = True

    def on_remove_leaf(self, node: TreeNode, parent: TreeNode) -> None:
        self._relocate_store(node, parent)

    def on_remove_internal(self, node: TreeNode, parent: TreeNode,
                           children) -> None:
        self._relocate_store(node, parent)

    def _relocate_store(self, node: TreeNode, parent: TreeNode) -> None:
        store = self.stores.discard(node)
        self._mobile_hosts.pop(node, None)
        if store is None or store.is_empty:
            return
        # One move carries the whole set of packages one hop (Section 2.2
        # allows moving a set of objects in one move).
        self.counters.relocation_moves += 1
        if self.domains is not None:
            for package in store.mobile:
                self.domains.set_host(package, parent)
        parent_store = self.stores.get(parent)
        parent_store.merge_from(store)
        if parent_store.mobile:
            self._mobile_hosts[parent] = parent_store
