"""The shared controller kernel: pure (M,W)-Controller state transitions.

The paper's single construction (Section 3's ``GrantOrReject`` plus the
recursive ``Proc``) is executed twice in this repository — synchronously
by :class:`repro.core.centralized.CentralizedController` and hop-by-hop
by :class:`repro.distributed.controller.DistributedController`.  This
module is the one place the *mechanics* live; the executors supply only
the execution discipline (who walks, who locks, what a move costs).

Three groups of primitives:

**Permit accounting** — :class:`PermitLedger` owns the root storage,
the granted/rejected tallies (with the Definition 2.2 safety check),
and the optional serial-number intervals of the name-assignment
protocol.  Permits enter circulation only through
:meth:`PermitLedger.create_package` and leave it only through
:meth:`PermitLedger.grant`, so conservation is a ledger property.

**Level-windowed package-store operations** — the filler windows of
Section 3.1 are *disjoint in the level*: for any hop distance ``d``
exactly one level can fill (level 0 for ``d <= 2 psi``, else the unique
``j >= 1`` with ``2^j psi < d <= 2^(j+1) psi``), so :func:`take_filler`
computes that level once and takes the first-parked package of it
instead of testing a window per parked package.  Per-node package lists
stay short (Claim 4.8), so the list itself is the whole data structure.

**Plan objects** — the three macro-moves are planned here and executed
by the caller: :func:`plan_distribution` (``Proc``'s full split
schedule), :meth:`PermitLedger.create_package` (root creation at the
Section 3.1 creation level), and :func:`broadcast_reject` (the reject
wave with its one-move-per-node accounting).

Every transition can be recorded on a :class:`KernelTrace`; because
both executors route through this module, a centralized and a
serialized distributed run of the same stream produce the *identical*
trace — the Lemma 4.5 reduction as an executable check (see
``tests/test_kernel_equivalence.py``).
"""

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import ControllerError
from repro.core.packages import MobilePackage, NodeStore
from repro.core.params import ControllerParams

TraceEvent = Tuple[object, ...]


class KernelTrace:
    """An append-only log of kernel transitions.

    Events are plain tuples ``(op, *details)`` with node identities
    recorded as ``node_id`` integers, so traces from different trees
    (twin replays) compare equal when and only when the runs performed
    the same permit/package transitions in the same order.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, *event: object) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)


def _node_id(node: Optional[object]) -> Optional[int]:
    return getattr(node, "node_id", None)


# ----------------------------------------------------------------------
# Permit accounting.
# ----------------------------------------------------------------------
@dataclass
class PermitLedger:
    """Root storage, grant/reject tallies, and serial-number intervals.

    One ledger per controller instance; wrappers that re-budget across
    stages create a fresh ledger per stage (permits are conserved by the
    ``L = M - granted`` hand-over, which the invariant checker audits
    through :class:`repro.protocol.BudgetSplit`).
    """

    params: ControllerParams
    storage: int
    granted: int = 0
    rejected: int = 0
    track_intervals: bool = False
    interval_base: int = 0
    trace: Optional[KernelTrace] = None
    _interval_next: int = field(init=False)
    _interval_end: int = field(init=False)

    def __post_init__(self) -> None:
        self._interval_next = self.interval_base + 1
        self._interval_end = self.interval_base + self.params.m

    def grant(self, node: Optional[object] = None) -> None:
        """Count one grant, enforcing the safety bound (never > M)."""
        self.granted += 1
        if self.granted > self.params.m:
            raise ControllerError(
                f"safety violated: granted {self.granted} > "
                f"M={self.params.m}"
            )
        if self.trace is not None:
            self.trace.emit("grant", _node_id(node))

    def count_reject(self) -> None:
        self.rejected += 1

    def covers(self, need: int) -> bool:
        """Can the root storage fund a package of ``need`` permits?"""
        return self.storage >= need

    def create_package(self, level: int,
                       dist: int) -> MobilePackage:
        """Item 3b: carve a fresh level-``level`` package out of storage.

        ``dist`` is the requester's distance to the root (trace detail
        only).  The caller must have checked :meth:`covers`.
        """
        need = self.params.mobile_size(level)
        if self.storage < need:
            raise ControllerError(
                f"storage {self.storage} cannot cover a level-{level} "
                f"package of {need} permits"
            )
        self.storage -= need
        package = MobilePackage(level=level, size=need,
                                interval=self.take_interval(need))
        if self.trace is not None:
            self.trace.emit("create", level, need, dist)
        return package

    def restore(self, package: MobilePackage) -> None:
        """Return an undelivered package's permits to the root storage.

        Interval-mode packages cannot come back: the ledger carves
        serial intervals in sequence and has no way to reissue one.
        """
        if package.interval is not None:
            raise ControllerError(
                f"cannot restore a package carrying interval "
                f"{package.interval}")
        self.storage += package.size
        if self.trace is not None:
            self.trace.emit("restore", package.level, package.size)

    def take_interval(self, size: int) -> Optional[Tuple[int, int]]:
        """The next ``size`` serial numbers (interval mode only)."""
        if not self.track_intervals:
            return None
        lo = self._interval_next
        hi = lo + size - 1
        if hi > self._interval_end:
            raise ControllerError("interval storage exhausted")
        self._interval_next = hi + 1
        return (lo, hi)

    def unused(self, parked: int) -> int:
        """Permits not yet granted: storage plus parked packages."""
        return self.storage + parked


# ----------------------------------------------------------------------
# Level-windowed package-store operations.
# ----------------------------------------------------------------------
def filler_level(params: ControllerParams, dist: int) -> int:
    """The unique package level that can fill at hop distance ``dist``.

    The Section 3.1 windows partition the distances: level 0 covers
    ``0 <= d <= 2 psi`` and level ``j >= 1`` covers
    ``2^j psi < d <= 2^(j+1) psi``, so for every distance exactly one
    level passes ``ControllerParams.in_filler_window`` (property-tested
    against it in ``tests/core/test_kernel.py``).
    """
    psi = params.psi
    if dist <= 2 * psi:
        return 0
    return ((dist + psi - 1) // psi - 1).bit_length() - 1


def peek_filler(store: NodeStore, dist: int,
                params: ControllerParams) -> Optional[MobilePackage]:
    """The package :func:`take_filler` would take, without removal:
    the first-parked package of the one level that can fill at
    ``dist``, or ``None``."""
    mobile = store.mobile
    if mobile:
        level = filler_level(params, dist)
        for package in mobile:
            if package.level == level:
                return package
    return None


def take_filler(store: NodeStore, dist: int, params: ControllerParams,
                node: Optional[object] = None,
                trace: Optional[KernelTrace] = None
                ) -> Optional[MobilePackage]:
    """Remove and return a filler package for distance ``dist``, if any.

    Equivalent to testing every parked package's window and taking the
    earliest-parked one of the lowest matching level (the scan kept as
    the oracle in ``tests/core/test_kernel.py``): the windows admit
    exactly one level per distance, and ``store.mobile`` is in parking
    order.
    """
    package = peek_filler(store, dist, params)
    if package is not None:
        take_package(store, package, node=node, dist=dist, trace=trace)
    return package


def take_package(store: NodeStore, package: MobilePackage,
                 node: Optional[object] = None,
                 dist: Optional[int] = None,
                 trace: Optional[KernelTrace] = None) -> None:
    """Remove a specific parked package (chosen by a filler search)."""
    store.mobile.remove(package)
    if trace is not None:
        trace.emit("take", _node_id(node), package.level, dist)


def park(store: NodeStore, package: MobilePackage,
         node: Optional[object] = None,
         trace: Optional[KernelTrace] = None) -> None:
    """Park a mobile package at a node's store."""
    store.mobile.append(package)
    if trace is not None:
        trace.emit("park", _node_id(node), package.level, package.size)


def absorb(store: NodeStore, package: MobilePackage,
           node: Optional[object] = None,
           trace: Optional[KernelTrace] = None) -> None:
    """A level-0 package reaches the requester and becomes static pool."""
    store.static_permits += package.size
    if package.interval is not None:
        store.static_intervals.append(package.interval)
    if trace is not None:
        trace.emit("absorb", _node_id(node), package.size)


# ----------------------------------------------------------------------
# Plan objects for the macro-moves.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SplitStep:
    """One ``Proc`` split: at ``dist`` hops above the requester the
    package halves; one half (``level``, ``size``) parks there and the
    identical other half continues toward the requester."""

    dist: int
    level: int
    size: int


@dataclass(frozen=True)
class DistributionPlan:
    """The full ``Proc`` schedule for one package distribution.

    ``steps`` are in travel order (strictly decreasing ``dist``);
    ``final_size`` is the level-0 remainder that reaches the requester.
    ``moves`` is the total hop count the package travels
    (``start_dist``): the centralized cost model charges exactly this
    many package moves, the distributed executor pays one agent hop per
    unit as the agent walks the package down its locked path.
    """

    start_dist: int
    start_level: int
    start_size: int
    steps: Tuple[SplitStep, ...]
    final_size: int

    @property
    def moves(self) -> int:
        return self.start_dist


def plan_distribution(params: ControllerParams, level: int, size: int,
                      dist: int) -> DistributionPlan:
    """Plan ``Proc`` for a level-``level`` package ``dist`` hops above
    the requester.

    The shift-by-one reading documented in
    :mod:`repro.core.centralized` applies: a level-``k`` package splits
    at ``u_{k-1}`` (``uk_distance(k - 1)`` hops above the requester),
    leaving one half parked there, until the level-0 remainder reaches
    the requester.  All split distances are strictly below ``dist``
    (filler windows and the creation level guarantee it), so executors
    encounter the steps in order while travelling down.
    """
    steps: List[SplitStep] = []
    start_level, start_size = level, size
    while level > 0:
        level -= 1
        size //= 2
        steps.append(SplitStep(dist=params.uk_distance(level),
                               level=level, size=size))
    return DistributionPlan(start_dist=dist, start_level=start_level,
                            start_size=start_size, steps=tuple(steps),
                            final_size=size)


def broadcast_reject(tree: object,
                     store_of: Callable[[object], NodeStore],
                     trace: Optional[KernelTrace] = None) -> int:
    """Item 3b's reject wave: a reject package at every node.

    Returns the wave's cost — one move/message per node, exactly what
    splitting and flooding reject packages would pay.  The executor
    charges it to its own counter (moves centrally, messages
    distributed).
    """
    count = 0
    for node in tree.nodes():  # type: ignore[attr-defined]
        store_of(node).has_reject = True
        count += 1
    if trace is not None:
        trace.emit("reject_wave", count)
    return count
