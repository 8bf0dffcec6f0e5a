"""Package domains and the three domain invariants (Section 3.2), as an
oracle fed from outside the controller.

Domains exist *for analysis only*: the algorithm never communicates to
maintain them ("the algorithm does not need to use any communication for
updating domains").  :class:`DomainOracle` rebuilds them from what a
:class:`CentralizedController` already reports: attached as the
controller's ``kernel_trace`` it replays the kernel's package events,
and attached to the tree it sees the mutations.  From those it keeps a
shadow of every parked mobile package (host, level, size, domain) and
checks the paper's three invariants:

1. the domain of each existing level-k mobile package contains exactly
   ``2^(k-1) * psi`` nodes (deleted nodes included — Case 5 keeps them);
2. domains of existing packages of the same level are pairwise disjoint;
3. the *currently existing* nodes of a domain form a path hanging down
   from some child of the node hosting the package.

Maintenance rules (Cases 1-5 of Section 3.2):

* ``take`` cancels the first-parked shadow of that level at that node,
  which is the package the kernel's filler lookup removes;
* ``park`` puts a shadow at the host; the ``absorb`` that ends the
  distribution names the requester, and each shadow parked on the way
  receives as domain the ``2^(k-1) * psi`` nodes just below its host on
  the path to the requester (Case 2; no mutation falls between a
  distribution's parks and its absorb);
* an internal insertion above a domain node joins the domain and evicts
  the bottom-most *existing* domain node (Case 4);
* a deletion moves the node's shadows to its parent, appended in order
  as ``NodeStore.merge_from`` moves the packages, and leaves every
  domain unchanged (dead nodes keep membership, Case 5).

Because the shadow is built without reading the controller's stores,
:meth:`DomainOracle.shadow` can be compared with them after every step.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.core.kernel import KernelTrace
from repro.core.params import ControllerParams
from repro.errors import InvariantViolation
from repro.tree.dynamic_tree import DynamicTree, TreeListener
from repro.tree.node import TreeNode


class ShadowPackage:
    """A parked mobile package as the oracle sees it."""

    __slots__ = ("level", "size", "host", "domain")

    def __init__(self, level: int, size: int, host: TreeNode) -> None:
        self.level = level
        self.size = size
        self.host = host
        #: The domain path, top (nearest the host) first; empty until
        #: the distribution's absorb names the requester.
        self.domain: List[TreeNode] = []


class DomainOracle(KernelTrace, TreeListener):
    """Shadow packages and domains of one controller on ``tree``.

    Build it before the controller and pass it as the controller's
    ``kernel_trace`` (which turns the inline grant off, so every grant
    reports its package events).
    """

    def __init__(self, tree: DynamicTree, params: ControllerParams) -> None:
        super().__init__()
        self.params = params
        self._nodes: Dict[int, TreeNode] = {
            node.node_id: node for node in tree.nodes()}
        #: host -> its shadows in parking order.
        self._parked: Dict[TreeNode, List[ShadowPackage]] = {}
        #: Shadows parked by the distribution in flight.
        self._unassigned: List[ShadowPackage] = []
        tree.add_listener(self)

    # ------------------------------------------------------------------
    # Kernel events.
    # ------------------------------------------------------------------
    def emit(self, *event: object) -> None:
        op = event[0]
        if op == "take":
            _, node_id, level, _dist = event
            shadows = self._parked[self._nodes[node_id]]
            for index, shadow in enumerate(shadows):
                if shadow.level == level:
                    del shadows[index]
                    break
            else:
                raise InvariantViolation(
                    f"take of a level-{level} package the oracle never "
                    f"saw parked at node {node_id}")
        elif op == "park":
            _, node_id, level, size = event
            host = self._nodes[node_id]
            shadow = ShadowPackage(level, size, host)
            self._parked.setdefault(host, []).append(shadow)
            self._unassigned.append(shadow)
        elif op == "absorb":
            requester = self._nodes[event[1]]
            for shadow in self._unassigned:
                self._assign_domain(shadow, requester)
            self._unassigned.clear()

    def _assign_domain(self, shadow: ShadowPackage,
                       toward: TreeNode) -> None:
        """Case 2: the first ``2^(k-1) * psi`` nodes of the path that
        descends from the host toward the requester."""
        size = self.params.domain_size(shadow.level)
        path: List[TreeNode] = []
        current = toward
        while current is not shadow.host:
            path.append(current)
            parent = current.parent
            if parent is None:
                raise InvariantViolation(
                    f"host {shadow.host} not an ancestor of {toward}")
            current = parent
        # ``path`` runs bottom-up; the domain is its top ``size`` nodes.
        if len(path) < size:
            raise InvariantViolation(
                f"path below host has {len(path)} nodes, domain needs {size}")
        shadow.domain = path[:-size - 1:-1]

    # ------------------------------------------------------------------
    # Tree mutations.
    # ------------------------------------------------------------------
    def on_add_leaf(self, node: TreeNode) -> None:
        self._nodes[node.node_id] = node

    def on_add_internal(self, node: TreeNode, parent: TreeNode,
                        child: TreeNode) -> None:
        """Case 4: ``node`` joins every domain just above ``child``; the
        bottom-most existing member leaves."""
        self._nodes[node.node_id] = node
        for shadow in self.tracked_packages():
            domain = shadow.domain
            if child not in domain:
                continue
            domain.insert(domain.index(child), node)
            for position in range(len(domain) - 1, -1, -1):
                if domain[position].alive:
                    del domain[position]
                    break
            else:
                raise InvariantViolation(
                    f"domain of the level-{shadow.level} package at "
                    f"{shadow.host} has no existing node")

    def on_remove_internal(self, node: TreeNode, parent: TreeNode,
                           children: Optional[List[TreeNode]] = None
                           ) -> None:
        """Both removal hooks: the node's shadows move to its parent."""
        shadows = self._parked.pop(node, None)
        if shadows:
            for shadow in shadows:
                shadow.host = parent
            self._parked.setdefault(parent, []).extend(shadows)

    on_remove_leaf = on_remove_internal

    # ------------------------------------------------------------------
    # Queries and checks.
    # ------------------------------------------------------------------
    def tracked_packages(self) -> List[ShadowPackage]:
        return [shadow for shadows in self._parked.values()
                for shadow in shadows]

    def shadow(self) -> Dict[int, List[Tuple[int, int]]]:
        """``node_id -> [(level, size), ...]`` of every host, in parking
        order: the mobile part of :func:`tests.drivers.store_map`."""
        return {host.node_id: [(s.level, s.size) for s in shadows]
                for host, shadows in self._parked.items() if shadows}

    def check_invariants(self) -> None:
        """Raise :class:`InvariantViolation` if any invariant is broken."""
        seen: Dict[int, Set[TreeNode]] = {}
        for shadow in self.tracked_packages():
            expected = self.params.domain_size(shadow.level)
            if len(shadow.domain) != expected:
                raise InvariantViolation(
                    f"invariant 1: level-{shadow.level} package at "
                    f"{shadow.host} has {len(shadow.domain)} domain nodes, "
                    f"expected {expected}")
            self._check_path(shadow)
            level_seen = seen.setdefault(shadow.level, set())
            for node in shadow.domain:
                if node in level_seen:
                    raise InvariantViolation(
                        f"invariant 2: level {shadow.level} domains overlap "
                        f"at {node}")
                level_seen.add(node)

    @staticmethod
    def _check_path(shadow: ShadowPackage) -> None:
        """Invariant 3: alive domain nodes form a path below the host."""
        alive = [node for node in shadow.domain if node.alive]
        if not alive:
            # Every member was deleted: the path condition is vacuous
            # (the paper's invariant speaks of existing nodes).
            return
        if alive[0].parent is not shadow.host:
            raise InvariantViolation(
                f"invariant 3: top of domain {alive[0]} does not hang "
                f"from host {shadow.host} (parent is {alive[0].parent})")
        for upper, lower in zip(alive, alive[1:]):
            if lower.parent is not upper:
                raise InvariantViolation(
                    f"invariant 3: {lower} not a child of {upper} in the "
                    f"domain of the level-{shadow.level} package at "
                    f"{shadow.host}")
