"""The dynamic rooted spanning tree and its mutation events.

This module implements the dynamic model of Section 2.1.2: a rooted tree
whose root is never deleted, undergoing additions and removals of both
leaves and internal nodes.  Every mutation notifies registered listeners
*after* the structural change, handing them exactly the information the
"graceful manner" contract of Section 4.2 promises (which node vanished,
who its parent was, which children were re-attached), so that controller
layers can relocate packages, whiteboard data and queued agents.

Non-tree edges (allowed by the paper but irrelevant to the controller,
whose messages travel only on tree edges) are deliberately not modelled;
Section 2.1.2 classifies their insertion/removal as non-topological
events, which our request layer supports directly.

Skip-pointer ancestry
---------------------
The tree maintains a level-ancestor structure (binary jump pointers:
node ``v`` caches its depth and the ancestors ``2^i`` hops up) so
:meth:`DynamicTree.depth` and :meth:`DynamicTree.ancestor_at` run in
O(log depth) instead of O(depth) parent-pointer walks.  The structure
is *simulation-local* bookkeeping: it models no messages and charges no
counters, exactly like the naive walks it replaces (the centralized
cost model charges package moves only, and the distributed engine's
agents still pay one message per physical hop).

Maintenance under churn is lazy with subtree-local invalidation:

* ``add_leaf`` / ``remove_leaf`` change no existing depth — no
  invalidation; the new leaf's table is built on first query in
  O(log depth);
* ``add_internal`` / ``remove_internal`` shift a whole subtree's depth
  by one — the moved subtree is flag-marked stale (O(subtree) flag
  writes, no table work), and stale tables are rebuilt on demand, only
  for nodes actually reached by later queries.

The soundness invariant (property-tested in ``tests/tree`` against the
parent walks of :mod:`repro.tree.paths`):
a fresh cache is a correct cache, because any splice on a node's root
path marks exactly the subtree below the spliced edge — which contains
the node — stale; by the same argument every entry of a fresh table
(all of them ancestors) is fresh too, so jump decompositions never read
a stale table.

The structure pays off in growth/query-heavy regimes (leaf churn and
plain events never invalidate anything); under splice-heavy churn the
invalidation/repair traffic can exceed what the naive walks cost, which
is why the centralized controller switches between these queries and
the walks of :mod:`repro.tree.paths` per request window
(``CentralizedController._tables_on``).
"""

from typing import Iterator, List, Optional, Set

from repro.errors import TopologyError
from repro.tree.node import TreeNode
from repro.tree.ports import AdversarialPortAssigner, PortAssigner


class TreeListener:
    """Observer interface for topology mutations.

    Subclasses override the hooks they care about.  Hooks run synchronously
    inside the mutation, after the structure is updated, in registration
    order.
    """

    def on_add_leaf(self, node: TreeNode) -> None:
        """``node`` was just attached as a leaf below ``node.parent``."""

    def on_add_internal(self, node: TreeNode, parent: TreeNode,
                        child: TreeNode) -> None:
        """``node`` was spliced into the former edge ``(parent, child)``."""

    def on_remove_leaf(self, node: TreeNode, parent: TreeNode) -> None:
        """Leaf ``node`` (former child of ``parent``) was deleted."""

    def on_remove_internal(self, node: TreeNode, parent: TreeNode,
                           children: List[TreeNode]) -> None:
        """Internal ``node`` was deleted; ``children`` moved to ``parent``."""


class DynamicTree:
    """A mutable rooted tree with listener notifications and accounting.

    Attributes
    ----------
    root:
        The never-deleted root node.
    total_ever:
        Number of nodes that ever existed (deleted ones included) — the
        quantity the paper's parameter ``U`` upper-bounds.
    topology_changes:
        Count of mutations performed (the ``j`` index of Theorem 3.5).
    size_history:
        ``n_j`` — the number of nodes at the time of the j'th change,
        recorded *before* applying the change; used by the complexity
        benches to evaluate the ``sum_j log^2 n_j`` bound.
    """

    def __init__(self, port_assigner: Optional[PortAssigner] = None) -> None:
        self._port_assigner = port_assigner or AdversarialPortAssigner(seed=0)
        self._next_id = 0
        # Arbitration for the per-node state slots (see SlotMap): at
        # most one controller pins its stores or whiteboards into
        # TreeNode slots at a time; later controllers on the same tree
        # fall back to dict lookups.
        self.store_slot_owner: Optional[object] = None
        # Ancestry cache state: ``_anc_epoch`` is bumped to invalidate
        # every table at once (large-subtree splices); ``anc_generation``
        # counts every splice (the centralized ancestry window reads it).
        self._anc_epoch = 0
        self.anc_generation = 0
        self.root = self._new_node(parent=None)
        self.root._anc_epoch = 0
        self._alive: Set[TreeNode] = {self.root}
        self.total_ever = 1
        self.topology_changes = 0
        self.size_history: List[int] = []
        self._listeners: List[TreeListener] = []

    # ------------------------------------------------------------------
    # Listener plumbing.
    # ------------------------------------------------------------------
    def add_listener(self, listener: TreeListener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener: TreeListener) -> None:
        """Unregister ``listener``; a no-op if it is not registered.

        Discard semantics make every layered ``detach()`` idempotent
        by construction — a second detach finds the listener gone and
        does nothing, instead of raising out of the listener list.
        """
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Current number of (alive) nodes, the paper's ``n``."""
        return len(self._alive)

    def __contains__(self, node: TreeNode) -> bool:
        return node in self._alive

    def nodes(self) -> Iterator[TreeNode]:
        """Iterate over alive nodes in DFS (preorder) from the root."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            # Reversed so that iteration visits children left-to-right.
            stack.extend(reversed(node.children))

    def depth(self, node: TreeNode) -> int:
        """Hop distance from ``node`` to the root.

        O(log depth) amortized via the jump tables: climb the maximal
        jump of each landing node, summing powers of two.
        """
        epoch = self._anc_epoch
        hops = 0
        current = node
        while True:
            jumps = (current._anc_jumps if current._anc_epoch == epoch
                     else self._anc_table(current))
            if not jumps:
                return hops
            hops += 1 << (len(jumps) - 1)
            current = jumps[-1]

    def ancestor_at(self, node: TreeNode, hops: int) -> TreeNode:
        """The ancestor exactly ``hops`` edges above ``node``.

        Semantics match :func:`repro.tree.paths.ancestor_at` (raises
        ``ValueError`` when the root is closer than ``hops``) but the
        query runs in O(log depth) amortized: binary decomposition of
        ``hops`` over the jump tables.  Every node the decomposition
        lands on is an ancestor of ``node``, whose table is fresh or
        rebuilt on demand by :meth:`_anc_table`.
        """
        if hops < 0:
            raise TopologyError(f"negative hop count {hops}")
        epoch = self._anc_epoch
        current = node
        remaining = hops
        while remaining:
            jumps = (current._anc_jumps if current._anc_epoch == epoch
                     else self._anc_table(current))
            if not jumps:
                raise TopologyError(f"{node} has no ancestor {hops} hops up")
            i = remaining.bit_length() - 1
            if i >= len(jumps):
                i = len(jumps) - 1
            current = jumps[i]
            remaining -= 1 << i
        return current

    def ancestor_distance(self, node: TreeNode,
                          ancestor: TreeNode) -> Optional[int]:
        """Hops from ``node`` up to ``ancestor``, or ``None``.

        ``None`` when ``ancestor`` does not lie on ``node``'s root path
        (the non-raising cousin of
        :func:`repro.tree.paths.distance_to_ancestor`).  O(log depth)
        amortized: a depth difference plus one ``ancestor_at`` check.
        """
        dist = self.depth(node) - self.depth(ancestor)
        if dist < 0:
            return None
        return dist if self.ancestor_at(node, dist) is ancestor else None

    # ------------------------------------------------------------------
    # Mutations (Section 2.1.2).
    # ------------------------------------------------------------------
    def add_leaf(self, parent: TreeNode) -> TreeNode:
        """Attach a new degree-one node below ``parent``."""
        self._require_alive(parent, "add_leaf parent")
        self._record_change()
        node = self._new_node(parent=parent)
        parent.children.append(node)
        self._wire_edge(parent, node)
        self._alive.add(node)
        self.total_ever += 1
        for listener in self._listeners:
            listener.on_add_leaf(node)
        return node

    def add_internal(self, parent: TreeNode, child: TreeNode) -> TreeNode:
        """Split tree edge ``(parent, child)`` with a new node.

        ``parent`` must currently be ``child``'s parent.  The new node
        takes ``child``'s position in ``parent.children`` so DFS order is
        preserved.
        """
        self._require_alive(parent, "add_internal parent")
        self._require_alive(child, "add_internal child")
        if child.parent is not parent:
            raise TopologyError(
                f"{parent} is not the parent of {child}; cannot split edge"
            )
        self._record_change()
        # Every node of ``child``'s subtree moves one hop further from
        # the root: lazily invalidate its ancestry caches.
        self._anc_mark_stale(child)
        node = self._new_node(parent=parent)
        index = parent.children.index(child)
        parent.children[index] = node
        node.children.append(child)
        child.parent = node
        # Re-wire ports: the edge (parent, child) is unbound at both ends;
        # node gets fresh ports on both sides; child's parent port is new.
        parent.detach_port(child.port_at_parent)
        child.detach_port(child.port_to_parent)
        self._wire_edge(parent, node)
        self._wire_edge(node, child)
        self._alive.add(node)
        self.total_ever += 1
        for listener in self._listeners:
            listener.on_add_internal(node, parent, child)
        return node

    def remove_leaf(self, node: TreeNode) -> None:
        """Delete a childless non-root node."""
        self._require_alive(node, "remove_leaf target")
        if node.is_root:
            raise TopologyError("the root is never deleted")
        if node.children:
            raise TopologyError(f"{node} has children; use remove_internal")
        self._record_change()
        parent = node.parent
        parent.children.remove(node)
        parent.detach_port(node.port_at_parent)
        node.alive = False
        node._anc_jumps = []
        node._anc_epoch = -1
        self._alive.discard(node)
        for listener in self._listeners:
            listener.on_remove_leaf(node, parent)

    def remove_internal(self, node: TreeNode) -> None:
        """Delete a non-root node with children; children move to parent.

        The children are spliced into the parent's child list at the
        deleted node's position, preserving DFS order.
        """
        self._require_alive(node, "remove_internal target")
        if node.is_root:
            raise TopologyError("the root is never deleted")
        if not node.children:
            raise TopologyError(f"{node} is a leaf; use remove_leaf")
        self._record_change()
        parent = node.parent
        children = list(node.children)
        # Every node of every child subtree moves one hop closer to the
        # root: lazily invalidate their ancestry caches.
        for child in children:
            self._anc_mark_stale(child)
        index = parent.children.index(node)
        parent.children[index:index + 1] = children
        parent.detach_port(node.port_at_parent)
        for child in children:
            child.parent = parent
            child.detach_port(child.port_to_parent)
            self._wire_edge(parent, child)
        node.children.clear()
        node.alive = False
        node._anc_jumps = []
        node._anc_epoch = -1
        self._alive.discard(node)
        for listener in self._listeners:
            listener.on_remove_internal(node, parent, children)

    # ------------------------------------------------------------------
    # Validation (tests call this after random mutation storms).
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structure, ancestry caches and port tables.

        Raises ``TopologyError`` on damage.
        """
        seen: Set[TreeNode] = set()
        stack = [(self.root, 0)]
        while stack:
            node, hops = stack.pop()
            if node in seen:
                raise TopologyError(f"cycle through {node}")
            seen.add(node)
            if not node.alive:
                raise TopologyError(f"dead node {node} still reachable")
            if node._anc_epoch == self._anc_epoch:
                # A fresh ancestry cache must be exact (the lazy scheme's
                # soundness invariant): the table's derived depth matches
                # the DFS depth and jump[0] is the parent pointer.
                if hops == 0:
                    if node._anc_jumps:
                        raise TopologyError(
                            f"root-depth node {node} has a jump table")
                else:
                    if (not node._anc_jumps
                            or node._anc_jumps[0] is not node.parent):
                        raise TopologyError(
                            f"ancestry jump[0] of {node} is not its parent")
                    cached = self.depth(node)
                    if cached != hops:
                        raise TopologyError(
                            f"stale-but-fresh ancestry at {node}: cached "
                            f"depth {cached}, actual {hops}")
            # Port tables: both ends of every tree edge bound to each
            # other, and nothing else bound (the mutations unbind by the
            # recorded numbers without scanning, so this is their oracle).
            up = node.port_to_parent
            if node.parent is not None and (
                    up is None or node.neighbor_on(up) is not node.parent):
                raise TopologyError(
                    f"port_to_parent {up} of {node} does not lead to its "
                    f"parent {node.parent}")
            edges = len(node.children) + (node.parent is not None)
            if len(node.ports_in_use()) != edges:
                raise TopologyError(
                    f"{node} binds {len(node.ports_in_use())} ports for "
                    f"{edges} tree edges")
            for child in node.children:
                if child.parent is not node:
                    raise TopologyError(
                        f"{child}.parent is {child.parent}, expected {node}"
                    )
                down = child.port_at_parent
                if down is None or node.neighbor_on(down) is not child:
                    raise TopologyError(
                        f"port_at_parent {down} of {child} does not lead "
                        f"from {node} to it")
                stack.append((child, hops + 1))
        if seen != self._alive:
            raise TopologyError(
                f"reachable set ({len(seen)}) != alive set ({len(self._alive)})"
            )

    # ------------------------------------------------------------------
    # Skip-pointer ancestry internals.
    # ------------------------------------------------------------------
    #: Budget for per-splice subtree invalidation walks; subtrees larger
    #: than this are invalidated in O(1) by bumping the global epoch.
    _ANC_MARK_BUDGET = 64

    def _anc_mark_stale(self, top: TreeNode) -> None:
        """Invalidate ancestry caches for ``top``'s subtree (a splice
        shifted its depths).

        Small subtrees are walked and flag-marked individually; past
        :data:`_ANC_MARK_BUDGET` nodes the walk stops and the global
        epoch is bumped instead, invalidating every table at O(1) cost
        (the already-marked prefix is harmless).  Tables are rebuilt
        lazily by queries either way, so a splice never pays for
        descendants that are never queried again.
        """
        self.anc_generation += 1
        budget = self._ANC_MARK_BUDGET
        stack = [top]
        while stack:
            node = stack.pop()
            node._anc_epoch = -1
            node._anc_jumps = []
            budget -= 1
            if budget <= 0 and (stack or node.children):
                self._anc_epoch += 1
                return
            stack.extend(node.children)

    def _anc_table(self, node: TreeNode) -> List[TreeNode]:
        """Build (memoized) the jump table of ``node``.

        ``jumps[0]`` is the parent and ``jumps[i+1] = jumps[i]``'s
        ``2^i``-ancestor, read from ``jumps[i]``'s own table — so
        building one table may demand tables of ancestors, resolved
        iteratively with an explicit worklist (deep stale chains exceed
        the interpreter recursion limit).  Every table is built at most
        once per invalidation of its node, and only for nodes actually
        reached by queries.
        """
        epoch = self._anc_epoch
        pending = [node]
        while pending:
            entry = pending[-1]
            if entry._anc_epoch == epoch:
                pending.pop()
                continue
            parent = entry.parent
            if parent is None:
                entry._anc_jumps = []
                entry._anc_epoch = epoch
                pending.pop()
                continue
            jumps = [parent]
            blocked = None
            i = 0
            while True:
                hop = jumps[i]
                if hop._anc_epoch != epoch:
                    blocked = hop
                    break
                hop_jumps = hop._anc_jumps
                if i >= len(hop_jumps):
                    break
                jumps.append(hop_jumps[i])
                i += 1
            if blocked is not None:
                pending.append(blocked)
                continue
            entry._anc_jumps = jumps
            entry._anc_epoch = epoch
            pending.pop()
        return node._anc_jumps

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _new_node(self, parent: Optional[TreeNode]) -> TreeNode:
        node = TreeNode(self._next_id, parent=parent)
        self._next_id += 1
        return node

    def _wire_edge(self, parent: TreeNode, child: TreeNode) -> None:
        parent_port = self._port_assigner.next_port(parent)
        parent.attach_port(parent_port, child)
        child_port = self._port_assigner.next_port(child)
        child.attach_port(child_port, parent)
        child.port_to_parent = child_port
        child.port_at_parent = parent_port

    def _record_change(self) -> None:
        self.size_history.append(self.size)
        self.topology_changes += 1

    def _require_alive(self, node: TreeNode, role: str) -> None:
        if node not in self._alive:
            raise TopologyError(f"{role} {node} is not in the tree")
