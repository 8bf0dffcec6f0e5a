"""Fault injection for the distributed engine.

Three fault families, all legal under the paper's model and therefore
required to preserve every guarantee:

* **agent stalls** — a hop's delay is inflated by a large factor.  The
  model only requires delays to be finite (Section 2.1), so a stalled
  agent is just a very slow message; liveness must survive.
* **delivery pauses** — global windows during which no message lands
  (every hop arriving inside the window is pushed past its end).  This
  models a network partition that heals: still a finite-delay
  assignment.
* **churn storms** — bursts of topology changes (splices targeting
  locked paths, deletions, leaf growth) fired while agents are
  mid-flight, exercising the graceful-change hand-over of Section 4.2.
  Storm operations respect the same preconditions a *granted* request
  would enjoy under the locking discipline: a splice ``(v, w)`` only
  happens while ``v`` is unlocked (the granting agent would hold ``v``
  at grant time and release it before the change becomes visible to
  others), and only unlocked nodes are deleted (a deletion grant holds
  the deleted node's lock as ``path[0]``, the one case the hand-over
  code supports — an environment deleting a node locked mid-path by a
  foreign agent would violate the model).

A :class:`FaultPlan` is pure data (so it can be parsed from a CLI
string and serialized into bench reports); a :class:`FaultInjector`
binds one plan to one controller run.
"""

import dataclasses
import math
import random
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.distributed.controller import DistributedController
    from repro.tree.node import TreeNode


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults to inject into one run."""

    seed: int = 0
    # Agent stalls: per-hop probability and delay inflation factor.
    stall_prob: float = 0.0
    stall_factor: float = 40.0
    # Global delivery pauses: how many windows, each this long, spread
    # uniformly over [0, horizon].
    pauses: int = 0
    pause_duration: float = 20.0
    # Churn storms: how many bursts of topology operations, each
    # performing up to storm_size changes, spread over [0, horizon].
    storms: int = 0
    storm_size: int = 8
    # Time window pauses/storms are spread over.  0 means *auto*: the
    # harness resolves it to the run's span via :meth:`resolved` before
    # building an injector (a fixed default would pin the faults to the
    # first sliver of a long run).
    horizon: float = 0.0

    def __post_init__(self) -> None:
        # Section 2.1 requires finite delays; NaN passes every ``<``
        # test below, so finiteness is checked first.
        for name in ("stall_prob", "stall_factor", "pause_duration",
                     "horizon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise SimulationError(f"{name} must be finite, got {value}")
        if not 0.0 <= self.stall_prob <= 1.0:
            raise SimulationError(
                f"stall_prob must be in [0, 1], got {self.stall_prob}")
        if self.stall_factor < 1.0:
            raise SimulationError(
                f"stall_factor must be >= 1, got {self.stall_factor}")
        if self.pauses < 0 or self.storms < 0 or self.storm_size < 0:
            raise SimulationError("fault counts must be non-negative")
        if self.pause_duration <= 0 or self.horizon < 0:
            raise SimulationError("durations must be positive")

    @property
    def is_noop(self) -> bool:
        return (self.stall_prob == 0.0 and self.pauses == 0
                and self.storms == 0)

    @property
    def needs_horizon(self) -> bool:
        return self.pauses > 0 or self.storms > 0

    def resolved(self, span: float) -> "FaultPlan":
        """This plan with an auto (0) horizon resolved to ``span``."""
        if self.horizon > 0 or not self.needs_horizon:
            return self
        return dataclasses.replace(self, horizon=max(span, 1.0))

    def snapshot(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_FIELD_TYPES = {f.name: f.type for f in fields(FaultPlan)}


def parse_fault_spec(text: Optional[str]) -> FaultPlan:
    """Parse ``"stall=0.05,pauses=2,storms=3,seed=7"`` into a plan.

    Keys are :class:`FaultPlan` field names (``stall`` is accepted as a
    shorthand for ``stall_prob``); ``none`` / empty means no faults.
    """
    if not text or text.strip().lower() == "none":
        return FaultPlan()
    values = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise SimulationError(
                f"malformed fault spec item {part!r} (want key=value)")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key == "stall":
            key = "stall_prob"
        if key not in _FIELD_TYPES:
            known = ", ".join(sorted(_FIELD_TYPES))
            raise SimulationError(
                f"unknown fault spec key {key!r}; known: {known}")
        caster = int if _FIELD_TYPES[key] in (int, "int") else float
        try:
            values[key] = caster(raw.strip())
        except ValueError:
            raise SimulationError(
                f"bad value {raw!r} for fault spec key {key!r}") from None
    return FaultPlan(**values)


class FaultInjector:
    """Binds a :class:`FaultPlan` to one distributed-controller run.

    The controller compiles the plan's stalls and pause windows into its
    agent hop (:mod:`repro.distributed.hop`): a stall draws from this
    injector's generator (the one its storms draw from) and multiplies
    the hop's delay by ``stall_factor``; a hop that would land inside a
    pause window lands at the window's end.  :meth:`attach` (invoked by
    the controller's constructor) schedules the plan's churn storms on
    the controller's scheduler.  ``stats`` records what was actually
    injected, for the bench JSON reports.
    """

    def __init__(self, plan: FaultPlan) -> None:
        if plan.needs_horizon and plan.horizon <= 0:
            raise SimulationError(
                "fault plan horizon unresolved: pass horizon=... or call "
                "plan.resolved(span) with the run's expected time span")
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._controller: "Optional[DistributedController]" = None
        self.stats: Dict[str, int] = {
            "stalls": 0,
            "paused_deliveries": 0,
            "storm_ops": 0,
            "storm_splices": 0,
            "storm_removals": 0,
            "storm_additions": 0,
        }
        # Pause windows are sampled eagerly so the plan alone (not the
        # interleaving) determines where the network goes dark.
        self._windows: List[Tuple[float, float]] = sorted(
            (start, start + plan.pause_duration)
            for start in (self._rng.uniform(0.0, plan.horizon)
                          for _ in range(plan.pauses))
        )
        self._storm_times = sorted(
            self._rng.uniform(0.0, plan.horizon) for _ in range(plan.storms))

    # ------------------------------------------------------------------
    def attach(self, controller: "DistributedController") -> None:
        """Bind to a controller; schedule the churn storms."""
        if self._controller is not None:
            raise SimulationError("fault injector already attached")
        self._controller = controller
        for at in self._storm_times:
            controller.scheduler.schedule_at(at, self._run_storm)

    # ------------------------------------------------------------------
    # Churn storms.
    # ------------------------------------------------------------------
    @staticmethod
    def _census(controller: "DistributedController"
                ) -> List[Tuple["TreeNode", bool, bool]]:
        """Every node of the tree in preorder (the order of
        ``tree.nodes()``), with whether it is unlocked (no whiteboard,
        or one not locked) and whether its parent is (False for the
        root, which has none), in one pass."""
        boards = controller.boards
        pinned = boards.holds_slots
        census: List[Tuple["TreeNode", bool, bool]] = []
        stack = [(controller.tree.root, False)]
        while stack:
            node, parent_free = stack.pop()
            if node._store_owner is controller:
                board = node._store
            else:
                board = None if pinned else boards.peek(node)
            free = board is None or board.locked_by is None
            census.append((node, free, parent_free))
            # Reversed so that the census visits children left-to-right.
            for child in reversed(node.children):
                stack.append((child, free))
        return census

    def _run_storm(self) -> None:
        controller = self._controller
        assert controller is not None  # storms are scheduled by attach()
        tree = controller.tree
        rng = self._rng
        performed = 0
        budget = self.plan.storm_size
        attempts = 0
        while performed < budget and attempts < budget * 8:
            attempts += 1
            census = self._census(controller)
            if len(census) < 2:
                break
            roll = rng.random()
            if roll < 0.40:
                # Splice: prefer an edge whose child endpoint is locked —
                # that is exactly the Section 4.2 hand-over case the
                # storm exists to provoke.  The root's parent counts as
                # locked, so no pool holds the root.
                pool = ([n for n, free, parent_free in census
                         if parent_free and not free]
                        or [n for n, _free, parent_free in census
                            if parent_free])
                if not pool:
                    continue
                child = pool[rng.randrange(len(pool))]
                tree.add_internal(child.parent, child)
                self.stats["storm_splices"] += 1
            elif roll < 0.65:
                leaves = [n for n, free, _parent_free in census
                          if free and not n.children and n.parent is not None]
                if not leaves:
                    continue
                tree.remove_leaf(leaves[rng.randrange(len(leaves))])
                self.stats["storm_removals"] += 1
            elif roll < 0.85:
                internals = [n for n, free, _parent_free in census
                             if free and n.children and n.parent is not None]
                if not internals:
                    continue
                tree.remove_internal(internals[rng.randrange(len(internals))])
                self.stats["storm_removals"] += 1
            else:
                tree.add_leaf(census[rng.randrange(len(census))][0])
                self.stats["storm_additions"] += 1
            performed += 1
        self.stats["storm_ops"] += performed
