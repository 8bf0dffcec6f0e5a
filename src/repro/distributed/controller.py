"""The distributed (M,W)-Controller (Sections 4.3-4.4).

Execution model: requests are submitted with :meth:`DistributedController.submit`
(optionally at staggered simulated times); :meth:`run` drains the event
queue.  Every agent hop costs one message; reject waves cost one message
per node; deletions cost the ``O(deg(v) + log^2 U)`` data-move messages
of the discussion after Lemma 4.5.

The locking discipline follows Section 4.3.1 exactly:

* an agent locks every node on its way up; reaching a locked node it
  waits in the node's FIFO queue;
* when a node is unlocked, the lock is handed atomically to the head
  waiter, which resumes "as if it had just entered the node";
* after finding a filler/creating at the root, the agent performs
  ``Proc`` down the locked path, grants at the origin, climbs back to
  the topmost node it reached, then descends unlocking every node.

The permit/package *mechanics* are the shared kernel's
(:mod:`repro.core.kernel`): the ledger owns storage and tallies, the
whiteboard filler check is the kernel's level-indexed lookup, and the
``Proc`` split schedule is a kernel distribution plan whose steps the
agent matches against its locked-path position while descending.  This
class supplies only the execution discipline — agents, locks, one
message per hop.

Graceful topology changes (Section 4.2) are implemented in the tree
listener hooks at the bottom of this class; the correctness argument of
Lemma 4.3/4.5 (serializability of the distributed execution into the
centralized one) is exercised directly by ``tests/distributed/``, which
compare grant totals and package layouts against the centralized engine
on identical scenarios — and, transition-for-transition, by the kernel
trace equality of ``tests/test_kernel_equivalence.py``.
"""

from typing import (Callable, Iterable, List, Optional, Sequence, Tuple,
                    cast)

from repro.errors import ControllerError, ProtocolError
from repro.metrics import waves
from repro.metrics.counters import MessageCounters
from repro.protocol import ControllerView
from repro.sim.delays import DelayModel, UniformDelay
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Tracer
from repro.tree.dynamic_tree import DynamicTree, TreeListener
from repro.tree.node import TreeNode
from repro.core import kernel
from repro.core.kernel import KernelTrace, PermitLedger
from repro.core.packages import MobilePackage
from repro.core.params import ControllerParams
from repro.core.requests import (
    Outcome,
    OutcomeStatus,
    Request,
    RequestKind,
    perform_event,
)
from repro.distributed.agent import Agent, AgentState
from repro.distributed.faults import FaultInjector
from repro.distributed.hop import compile_hop
from repro.distributed.whiteboard import Whiteboard, WhiteboardMap

# Hop phase codes: each in-flight message is (phase, agent); arrival
# dispatches through a per-controller table of bound methods indexed by
# these small ints (``_dispatch``), so a hop is scheduled without
# allocating a closure per message.
_CLIMB = 0            # upward hop lands at path[-1].parent
_DESCEND = 1          # distribution walk, next node down the path
_RETURN = 2           # post-grant walk back up to the topmost lock
_UNLOCK_ARRIVE = 3    # unlock walk, next node down the path
_UNLOCK_HERE = 4      # unlock walk entered at the current position
_RESUME = 5           # lock hand-off resume (at agent.resume_node)


class DistributedController(TreeListener):
    """Distributed (M,W)-Controller with known bound U.

    Parameters
    ----------
    terminate_on_exhaustion:
        False (default): broadcast a reject wave when the root's storage
        cannot cover a request (the plain controller).  True: switch to
        the *terminating* behaviour of Observation 2.1 — no rejects;
        the exhausting and all later requests come back ``PENDING`` and
        :attr:`terminated` flips after the termination broadcast/upcast.
    apply_topology:
        When True the controller performs granted topological changes on
        the tree itself (playing the requesting entity).
    faults:
        Optional :class:`repro.distributed.faults.FaultInjector`.  When
        given, every agent hop's delay is perturbed by the injector's
        plan (agent stalls, delivery pauses) and the injector's churn
        storms are scheduled on this controller's scheduler.  All
        injected faults are legal under the asynchronous model, so
        every controller guarantee must hold unchanged.
    kernel_trace:
        Optional :class:`repro.core.kernel.KernelTrace` recording every
        kernel transition (take/create/park/absorb/grant/reject-wave);
        a serialized run's trace equals the centralized engine's on the
        same stream (the Lemma 4.5 reduction, property-tested).
    track_intervals / interval_base:
        Interval mode (Section 5.2, the name-assignment protocol):
        packages created at the root carve explicit serial-number
        intervals ``interval_base + 1 .. interval_base + m`` out of the
        ledger, ``Proc`` splits halve the interval alongside the
        permits, and every granted outcome carries the serial it
        consumed from the origin's static pool — the same plumbing the
        centralized engine runs, so a serialized distributed run grants
        the identical serials.
    permit_flow_observer:
        ``observer(node, permits)``, invoked whenever a package
        carrying ``permits`` permits passes *down* into ``node`` while
        an agent walks its distribution plan (plus once at the root
        when fresh permits enter circulation) — the Lemma 5.3
        monitoring hook, free of extra messages because nodes watch
        traffic already passing through them.
    """

    def __init__(self, tree: DynamicTree, m: int, w: int, u: int,
                 scheduler: Optional[Scheduler] = None,
                 delays: Optional[DelayModel] = None,
                 counters: Optional[MessageCounters] = None,
                 tracer: Optional[Tracer] = None,
                 terminate_on_exhaustion: bool = False,
                 apply_topology: bool = True,
                 faults: Optional[FaultInjector] = None,
                 kernel_trace: Optional[KernelTrace] = None,
                 track_intervals: bool = False,
                 interval_base: int = 0,
                 permit_flow_observer: Optional[
                     Callable[[TreeNode, int], None]] = None) -> None:
        self.tree = tree
        self.params = ControllerParams(m=m, w=w, u=u)
        self.scheduler = scheduler if scheduler is not None else Scheduler()
        self.delays = delays if delays is not None else UniformDelay(seed=0)
        self.counters = counters if counters is not None else MessageCounters()
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.faults = faults
        if faults is not None:
            faults.attach(self)
        self.terminate_on_exhaustion = terminate_on_exhaustion
        self._apply_topology = apply_topology

        # Claims the tree's node slots unless another controller holds
        # them: the per-hop handlers below then read a board as
        # ``node._store if node._store_owner is self``, two slot loads.
        self.boards = WhiteboardMap(tree, self)
        self._trace = kernel_trace
        self.track_intervals = track_intervals
        self.permit_flow_observer = permit_flow_observer
        self._ledger = PermitLedger(params=self.params, storage=m,
                                    track_intervals=track_intervals,
                                    interval_base=interval_base,
                                    trace=kernel_trace)
        self.cancelled = 0
        self.pending = 0
        self.rejecting = False
        self.terminated = False
        self.outcomes: List[Outcome] = []
        self.active_agents = 0
        self._attached = True
        # Hop dispatch: phase code -> bound arrival method, bound once
        # (each ``self._method`` read allocates a fresh bound method, so
        # the table is the only place that pays it).  Arrivals go
        # through the allocation-free ``schedule_call``.
        self._dispatch = (self._climb_arrive, self._descend_arrive,
                          self._return_arrive, self._unlock_arrive,
                          self._unlock_current, self._resume_handoff)
        self._schedule_call = self.scheduler.schedule_call
        # One message per hop: the delay model and the fault plan are
        # compiled into the hop (see repro.distributed.hop).
        self._hop = compile_hop(self)
        # Section 3.1 budgets static pools at U * phi <= W / 2, which
        # holds only for W >= 2U; below that the max() forces phi = 1,
        # so a pool must end as a grant leaves it, empty, and a package
        # whose request lost its meaning goes back (_return_to_root).
        self._return_moot = self.params.w < 2 * self.params.u
        tree.add_listener(self)

    # ------------------------------------------------------------------
    # Ledger delegation (setters kept for doctored-state tests).
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
    def submit(self, request: Request, delay: float = 0.0,
               callback: Optional[Callable[[Outcome], None]] = None) -> None:
        """Schedule a request's arrival ``delay`` time units from now."""
        if not self._attached:
            raise ControllerError("controller has been detached")
        # A plain record, not a cancellable Event: nothing cancels an
        # arrival.
        self._schedule_call(delay, self._on_request_arrival,
                            (request, callback))

    def run(self) -> None:
        """Drain the event queue (all in-flight agents complete)."""
        self.scheduler.run()

    def submit_and_run(self, request: Request) -> Outcome:
        """Convenience for tests: one request, run to quiescence."""
        result: List[Outcome] = []
        self.submit(request, callback=result.append)
        self.run()
        if not result:
            raise ProtocolError(f"request {request.request_id} never resolved")
        return result[0]

    def submit_batch(self, requests: List[Request],
                     stagger: float = 0.0) -> List[Outcome]:
        """Pipeline a batch of concurrent requests through the engine.

        All requests are injected up front (arrival times ``0``,
        ``stagger``, ``2 * stagger``, ...), their agents interleave on
        the tree under the Section 4.3.1 locking discipline, and the
        scheduler runs to quiescence.  Outcomes are returned in
        *submission order* (agents resolve in whatever order the
        asynchrony produces; the mapping back is by input position, so
        one request submitted twice gets both of its outcomes).

        This is the distributed twin of the centralized controllers'
        ``handle_batch``, which serves a batch one request at a time;
        here the batch amortizes network latency — agents on disjoint
        root-path segments climb concurrently, so a batch completes in
        far fewer simulated time units than sequential
        ``submit_and_run`` calls.
        """
        requests = list(requests)
        resolved: List[Optional[Outcome]] = [None] * len(requests)
        for position, request in enumerate(requests):
            self.submit(request, delay=position * stagger,
                        callback=lambda outcome, p=position:
                        resolved.__setitem__(p, outcome))
        self.run()
        missing = resolved.count(None)
        if missing:
            raise ProtocolError(f"{missing} batch requests never resolved")
        return cast(List[Outcome], resolved)

    def handle(self, request: Request) -> Outcome:
        """Protocol form of :meth:`submit_and_run`: one request, run to
        quiescence, outcome returned synchronously."""
        return self.submit_and_run(request)

    def handle_batch(self, requests: Iterable[Request]) -> List[Outcome]:
        """Protocol form of :meth:`submit_batch` (zero stagger)."""
        return self.submit_batch(list(requests))

    def unused_permits(self) -> int:
        return self._ledger.unused(self.boards.total_parked_permits())

    def detach(self) -> None:
        if self._attached:
            self.tree.remove_listener(self)
            self.boards.release_slots()
            self._attached = False

    def introspect(self) -> ControllerView:
        """The :class:`repro.protocol.ControllerProtocol` audit view."""
        return ControllerView(
            flavor="distributed", m=self.params.m, w=self.params.w,
            granted=self.granted, rejected=self.rejected,
            params=self.params, storage=self.storage, boards=self.boards,
            tree=self.tree, active_agents=self.active_agents,
            terminated=self.terminated,
        )

    # ------------------------------------------------------------------
    # Request arrival (algorithm item 1).
    # ------------------------------------------------------------------
    def _on_request_arrival(
            self, arrival: Tuple[Request,
                                 Optional[Callable[[Outcome], None]]]
    ) -> None:
        request, callback = arrival
        node = request.node
        # A request whose event is already meaningless is cancelled at
        # arrival (every meaningfulness condition of Section 4.2 is
        # local to the origin node, so the requesting entity can observe
        # it without travelling) — matching the centralized engine's
        # pre-flight check and saving the agent's round trip.  Events
        # that lose their meaning *mid-flight* are still caught by the
        # grant-time check in ``_grant_from_static``.
        if not self._still_meaningful(request):
            self._record(Outcome(OutcomeStatus.CANCELLED, request), callback)
            return
        if self.terminated:
            self._record(Outcome(OutcomeStatus.PENDING, request), callback)
            return
        agent = Agent(request=request, origin=node, callback=callback)
        self.active_agents += 1
        if self.tracer.enabled:
            self.tracer.emit(self.scheduler.now, "agent_created",
                             agent=agent.agent_id, node=node.node_id)
        board = (node._store if node._store_owner is self
                 else self.boards.get(node))
        if board.store.has_reject:
            # Item 1b: created at a reject node.
            self._deliver(agent, OutcomeStatus.REJECTED)
            return
        if board.locked_by is None:
            board.locked_by = agent
            agent.path = [node]
            self._after_lock(agent)
        else:
            agent.state = AgentState.WAITING
            agent.waiting_at = node
            board.queue.append(agent)

    # ------------------------------------------------------------------
    # Lock acquisition and the per-node decision (items 2-3).
    # ------------------------------------------------------------------
    def _after_lock(self, agent: Agent) -> None:
        """Agent just locked ``path[-1]``; decide what to do there."""
        node = agent.path[-1]
        store = (node._store if node._store_owner is self
                 else self.boards.get(node)).store
        agent.state = AgentState.CLIMBING
        agent.waiting_at = None

        # Item 2: at the origin, a static permit grants immediately.
        if len(agent.path) == 1 and store.static_permits > 0:
            self._grant_from_static(agent)
            return

        # Item 3a: filler check at the current distance (a store with
        # no mobile package has none).
        if store.mobile:
            package = kernel.take_filler(store, agent.distance,
                                         self.params, node=node,
                                         trace=self._trace)
            if package is not None:
                if self.tracer.enabled:
                    self.tracer.emit(self.scheduler.now, "filler_found",
                                     agent=agent.agent_id,
                                     node=node.node_id,
                                     level=package.level,
                                     dist=agent.distance)
                self._begin_distribution(agent, package)
                return

        # Item 3c: at the root, create or exhaust.
        if node.is_root:
            self._at_root(agent)
            return

        # Keep climbing.
        self._hop(agent, _CLIMB)

    def _climb_arrive(self, agent: Agent) -> None:
        """The agent's upward hop lands at ``path[-1].parent``.

        The parent is resolved *at arrival time*: if a graceful splice
        re-shaped the path mid-flight, the agent lands on the logically
        correct next node.
        """
        parent = agent.path[-1].parent
        if parent is None:
            raise ProtocolError(f"{agent} climbed past the root")
        board = (parent._store if parent._store_owner is self
                 else self.boards.get(parent))
        if board.store.has_reject:
            # Item 1b: walk home placing rejects.  One hop back onto the
            # locked path, then the unlock walk.
            agent.place_rejects = True
            agent.final_outcome = Outcome(OutcomeStatus.REJECTED,
                                          agent.request)
            agent.state = AgentState.UNLOCKING
            agent.pos = len(agent.path) - 1
            self._hop(agent, _UNLOCK_HERE)
            return
        if board.locked_by is not None:
            agent.state = AgentState.WAITING
            agent.waiting_at = parent
            board.queue.append(agent)
            return
        board.locked_by = agent
        agent.path.append(parent)
        self._after_lock(agent)

    def _at_root(self, agent: Agent) -> None:
        """Item 3c: create a package at the root, or exhaust."""
        dist = agent.distance
        level = self.params.creation_level(dist)
        need = self.params.mobile_size(level)
        if self._ledger.covers(need):
            package = self._ledger.create_package(level, dist)
            if self.tracer.enabled:
                self.tracer.emit(self.scheduler.now, "root_created",
                                 agent=agent.agent_id, level=level,
                                 size=need)
            if self.permit_flow_observer is not None:
                # Freshly created permits "enter" the root as well.
                self.permit_flow_observer(self.tree.root, package.size)
            self._begin_distribution(agent, package)
            return
        # Exhaustion.
        if self.terminate_on_exhaustion:
            if not self.terminated:
                self.terminated = True
                # Termination broadcast + convergecast (Observation 2.1).
                self.counters.broadcast_messages += waves.termination(
                    self.tree.size)
                if self.tracer.enabled:
                    self.tracer.emit(self.scheduler.now, "terminated")
            agent.final_outcome = Outcome(OutcomeStatus.PENDING,
                                          agent.request)
        else:
            if not self.rejecting:
                self._broadcast_reject_wave()
            agent.place_rejects = True
            agent.final_outcome = Outcome(OutcomeStatus.REJECTED,
                                          agent.request)
        agent.state = AgentState.UNLOCKING
        agent.pos = len(agent.path) - 1
        self._unlock_current(agent)

    def _broadcast_reject_wave(self) -> None:
        """Reject agents flood the tree: one message per node.

        Modelled as an atomic placement (the wave's asynchrony does not
        interact with correctness: a node rejects only once its own flag
        is set, and we set flags before any later event runs).  The
        one-message-per-node accounting comes from the kernel's
        reject-wave plan.
        """
        self.rejecting = True
        self.counters.reject_messages += kernel.broadcast_reject(
            self.tree, lambda node: self.boards.get(node).store,
            trace=self._trace)
        if self.tracer.enabled:
            self.tracer.emit(self.scheduler.now, "reject_wave")

    # ------------------------------------------------------------------
    # Distribution (item 4, Proc) and granting.
    # ------------------------------------------------------------------
    def _begin_distribution(self, agent: Agent,
                            package: MobilePackage) -> None:
        """Item 4: plan ``Proc`` once, then walk the plan down the path.

        The split schedule is the same kernel plan the centralized
        executor applies synchronously; here each ``SplitStep.dist`` is
        matched against the agent's path position as it descends (the
        locked path *is* the distance scale, including under graceful
        splices, which patch both in lockstep).
        """
        agent.package = package
        agent.splits = list(kernel.plan_distribution(
            self.params, package.level, package.size,
            agent.distance).steps)
        agent.pos = len(agent.path) - 1
        if agent.pos == 0:
            # Filler at the origin itself (level 0 at distance 0).
            self._package_reaches_origin(agent)
            return
        agent.state = AgentState.DESCENDING
        self._hop(agent, _DESCEND)

    def _descend_arrive(self, agent: Agent) -> None:
        agent.pos -= 1
        node = agent.path[agent.pos]
        package = agent.package
        if self.permit_flow_observer is not None:
            # The package enters ``node`` still at its pre-split size.
            self.permit_flow_observer(node, package.size)
        while agent.splits and agent.pos == agent.splits[0].dist:
            step = agent.splits.pop(0)
            left_interval, right_interval = package.split_interval()
            parked = MobilePackage(level=step.level, size=step.size,
                                   interval=left_interval)
            kernel.park(self.boards.get(node).store, parked, node=node,
                        trace=self._trace)
            package.level = step.level
            package.size = step.size
            package.interval = right_interval
            if self.tracer.enabled:
                self.tracer.emit(self.scheduler.now, "split",
                                 agent=agent.agent_id, node=node.node_id,
                                 level=step.level)
        if agent.pos == 0:
            self._package_reaches_origin(agent)
        else:
            self._hop(agent, _DESCEND)

    def _package_reaches_origin(self, agent: Agent) -> None:
        """The level-0 package becomes the origin's static pool."""
        package = agent.package
        if package.level != 0:
            raise ProtocolError(
                f"package level {package.level} reached origin of {agent}"
            )
        origin = agent.path[0]
        agent.package = None
        agent.splits = None
        if (self._return_moot and package.interval is None
                and agent.path[-1].is_root
                and not self._still_meaningful(agent.request)):
            self._return_to_root(agent, package)
        else:
            board = self.boards.get(origin)
            kernel.absorb(board.store, package, node=origin,
                          trace=self._trace)
        self._grant_from_static(agent)

    def _return_to_root(self, agent: Agent, package: MobilePackage) -> None:
        """The request lost its meaning while its package came down.

        Absorbed, the package would strand its permits in the origin's
        static pool, where the waste bound has no room for them when
        ``W < 2U`` (a grant leaves the pool empty), so a few such
        cancellations could push a rejecting run below ``M - W``.  The
        agent carries the package back up the locked path it walks
        anyway, to the root it came from, and the permits rejoin the
        storage.  The root stays locked by this agent until then, so
        crediting the storage now is indistinguishable from crediting
        it on arrival.  The flow observer sees the permits leave every
        node they entered.  (A package found at a filler below the root
        is still absorbed: it cannot rejoin its filler without undoing
        the splits.)
        """
        self._ledger.restore(package)
        if self.permit_flow_observer is not None:
            for node in agent.path:
                self.permit_flow_observer(node, -package.size)

    def _grant_from_static(self, agent: Agent) -> None:
        """Grant at the origin, perform the event, start the return walk."""
        origin = agent.path[0]
        board = (origin._store if origin._store_owner is self
                 else self.boards.get(origin))
        request = agent.request
        if not self._still_meaningful(request):
            # The event lost its meaning while the agent travelled
            # (Section 4.2); the static permit stays for future requests
            # (when W < 2U, a package from the root went back there).
            agent.final_outcome = Outcome(OutcomeStatus.CANCELLED, request)
        else:
            board.store.static_permits -= 1
            serial = (board.store.take_static_serial()
                      if self.track_intervals else None)
            self._ledger.grant(origin)
            new_node = None
            if self._apply_topology and request.kind.is_topological:
                new_node = perform_event(self.tree, request)
            if self.tracer.enabled:
                self.tracer.emit(self.scheduler.now, "granted",
                                 agent=agent.agent_id, node=origin.node_id)
            # Grants are delivered at grant time (the walk is cleanup).
            self._record(Outcome(OutcomeStatus.GRANTED, request,
                                 new_node=new_node, serial=serial),
                         agent.callback)
            agent.delivered = True
        # A self-deletion with a single-node path leaves nothing locked.
        if not agent.path:
            agent.state = AgentState.DONE
            self.active_agents -= 1
            return
        # Walk up to the topmost locked node, then descend unlocking.
        agent.pos = 0
        if agent.pos == len(agent.path) - 1:
            agent.state = AgentState.UNLOCKING
            self._unlock_current(agent)
        else:
            agent.state = AgentState.RETURNING
            self._hop(agent, _RETURN)

    def _return_arrive(self, agent: Agent) -> None:
        agent.pos += 1
        if agent.pos == len(agent.path) - 1:
            agent.state = AgentState.UNLOCKING
            self._unlock_current(agent)
        else:
            self._hop(agent, _RETURN)

    # ------------------------------------------------------------------
    # The final unlock walk (and reject placement).
    # ------------------------------------------------------------------
    def _unlock_current(self, agent: Agent) -> None:
        node = agent.path[agent.pos]
        board = (node._store if node._store_owner is self
                 else self.boards.get(node))
        if agent.place_rejects:
            board.store.has_reject = True
        if board.locked_by is agent:
            self._release_lock(node)
        if agent.pos == 0:
            self._finish(agent)
        else:
            self._hop(agent, _UNLOCK_ARRIVE)

    def _unlock_arrive(self, agent: Agent) -> None:
        agent.pos -= 1
        self._unlock_current(agent)

    def _finish(self, agent: Agent) -> None:
        agent.state = AgentState.DONE
        if agent.final_outcome is not None and not agent.delivered:
            self._record(agent.final_outcome, agent.callback)
            agent.delivered = True
        elif agent.final_outcome is None and not agent.delivered:
            raise ProtocolError(f"{agent} finished without an outcome")
        self.active_agents -= 1

    def _release_lock(self, node: TreeNode) -> None:
        """Unlock ``node``, handing the lock to the head waiter (FIFO)."""
        board = (node._store if node._store_owner is self
                 else self.boards.get(node))
        board.locked_by = None
        if board.queue:
            waiter = board.queue.popleft()
            board.locked_by = waiter
            self._schedule_resume(waiter, node)

    def _resumed_at(self, agent: Agent, node: TreeNode) -> None:
        """A dequeued agent resumes holding ``node``'s lock."""
        board = (node._store if node._store_owner is self
                 else self.boards.get(node))
        if board.locked_by is not agent:
            raise ProtocolError(f"{agent} resumed without the lock")
        if board.store.has_reject:
            # The node turned into a reject node while the agent waited.
            self._release_lock(node)
            if not agent.path:
                self._deliver(agent, OutcomeStatus.REJECTED)
                return
            agent.place_rejects = True
            agent.final_outcome = Outcome(OutcomeStatus.REJECTED,
                                          agent.request)
            agent.state = AgentState.UNLOCKING
            agent.pos = len(agent.path) - 1
            self._unlock_current(agent)
            return
        agent.path.append(node)
        self._after_lock(agent)

    # ------------------------------------------------------------------
    # Lock hand-off (hops themselves are ``self._hop``, compiled).
    # ------------------------------------------------------------------
    def _resume_handoff(self, agent: Agent) -> None:
        """Deferred lock hand-off: resume ``agent`` at ``resume_node``.

        The node travels in the agent's ``resume_node`` slot rather
        than a closure so the hand-off is scheduled as a plain
        ``(method, agent)`` pair (an agent has at most one hand-off in
        flight, so the single slot cannot be clobbered).
        """
        node = agent.resume_node
        agent.resume_node = None
        if node is None:
            raise ProtocolError(f"{agent} resumed without a hand-off node")
        self._resumed_at(agent, node)

    def _schedule_resume(self, waiter: Agent, node: TreeNode) -> None:
        # Local computation takes zero time (Section 4.3.1).
        waiter.resume_node = node
        self._schedule_call(0.0, self._dispatch[_RESUME], waiter)

    # ------------------------------------------------------------------
    # Outcome bookkeeping.
    # ------------------------------------------------------------------
    def _deliver(self, agent: Agent, status: OutcomeStatus) -> None:
        """Terminal outcome for an agent that holds no locks."""
        agent.state = AgentState.DONE
        agent.delivered = True
        self.active_agents -= 1
        self._record(Outcome(status, agent.request), agent.callback)

    def _record(self, outcome: Outcome,
                callback: Optional[Callable[[Outcome], None]]) -> None:
        if outcome.status is OutcomeStatus.REJECTED:
            self._ledger.count_reject()
        elif outcome.status is OutcomeStatus.CANCELLED:
            self.cancelled += 1
        elif outcome.status is OutcomeStatus.PENDING:
            self.pending += 1
        self.outcomes.append(outcome)
        if callback is not None:
            callback(outcome)

    def _still_meaningful(self, request: Request) -> bool:
        node = request.node
        if node not in self.tree:
            return False
        kind = request.kind
        if kind is RequestKind.REMOVE_LEAF:
            return not node.is_root and not node.children
        if kind is RequestKind.REMOVE_INTERNAL:
            return not node.is_root and bool(node.children)
        if kind is RequestKind.ADD_INTERNAL:
            return (request.child is not None and request.child.alive
                    and request.child.parent is node)
        return True

    # ------------------------------------------------------------------
    # Tree listener: graceful topology hand-over (Section 4.2).
    # ------------------------------------------------------------------
    def on_add_leaf(self, node: TreeNode) -> None:
        if self.rejecting:
            self.boards.get(node).store.has_reject = True

    def on_add_internal(self, node: TreeNode, parent: TreeNode,
                        child: TreeNode) -> None:
        """Splice: hand the new node's lock to the agent holding the
        child endpoint, if that agent still travels upward."""
        if self.rejecting:
            self.boards.get(node).store.has_reject = True
        child_board = self.boards.peek(child)
        holder = child_board.locked_by if child_board is not None else None
        if holder is None:
            return
        if holder.state not in (AgentState.CLIMBING, AgentState.WAITING):
            # The holder already turned around; it will never pass the
            # new node, which therefore stays unlocked.
            return
        if holder.path and holder.path[-1] is child:
            holder.path.append(node)
            self.boards.get(node).locked_by = holder

    def on_remove_internal(self, node: TreeNode, parent: TreeNode,
                           children: Sequence[TreeNode] = ()) -> None:
        """Both removal hooks: the removed node's board (packages, lock
        and queue) moves to its parent."""
        board = self.boards.discard(node)
        if board is None:
            return
        parent_board = self.boards.get(parent)
        # Move the package store: O(deg + packages) messages of
        # O(log N) bits (see the discussion following Lemma 4.5).
        if not board.store.is_empty:
            self.counters.relocation_messages += (
                1 + len(children) + len(board.store.mobile)
            )
            parent_board.store.merge_from(board.store)
        # The deleting agent holds the node's lock and pops it from its
        # path (it proceeds from the parent; one data-move message).
        holder = board.locked_by
        if holder is not None:
            if not holder.path or holder.path[0] is not node:
                raise ProtocolError(
                    f"removed node {node} locked mid-path by {holder}"
                )
            holder.path.pop(0)
            self.counters.relocation_messages += 1
        # Queued agents move to the parent (kept in arrival order).
        for waiter in board.queue:
            self.counters.relocation_messages += 1
            if waiter.path:
                # Mid-climb: it will resume at the parent seamlessly.
                waiter.waiting_at = parent
                parent_board.queue.append(waiter)
            else:
                self._rehome_fresh_waiter(waiter, node, parent, parent_board)
        board.queue.clear()
        # If the parent is currently unlocked (the deleting agent found
        # its permit at the deleted node itself and never locked the
        # parent), the relocated waiters must be dispatched now — no
        # future unlock event would otherwise drain the queue.
        if parent_board.locked_by is None and parent_board.queue:
            waiter = parent_board.queue.popleft()
            parent_board.locked_by = waiter
            self._schedule_resume(waiter, parent)

    on_remove_leaf = on_remove_internal

    def _rehome_fresh_waiter(self, waiter: Agent, removed: TreeNode,
                             parent: TreeNode, parent_board: Whiteboard
                             ) -> None:
        """A waiter that was *created* at the removed node.

        Requests anchored to the removed node lose their meaning
        (Section 4.2) and are cancelled; plain requests are re-homed to
        the parent.
        """
        request = waiter.request
        if request.kind is RequestKind.PLAIN:
            waiter.origin = parent
            request.node = parent
            waiter.waiting_at = parent
            parent_board.queue.append(waiter)
        else:
            self._deliver(waiter, OutcomeStatus.CANCELLED)
