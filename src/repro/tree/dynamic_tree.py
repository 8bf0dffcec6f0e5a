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

Membership and dispatch
-----------------------
Every node is tagged with the tree that made it (``TreeNode.tree``), so
``node in tree`` reads the tag and the node's ``alive`` flag, and
``size`` is a counter.  A removed node keeps its tag: layers above
route a late request for it by the tag (the fleet hands it to the shard
whose engine answers CANCELLED).

Listeners are dispatched per hook.  :meth:`DynamicTree.add_listener`
looks each hook up on the listener's class and files the listener's
bound method only when the class overrides the :class:`TreeListener`
no-op, so a mutation calls just the hooks that do something.  Each
mutation is one frame: its checks, the counters, the port wiring and
the membership upkeep are written inline, and the only calls it
makes are the node constructor, the port draws
(``PortAssigner.next_port``) and the hooks.

Ancestry queries walk parent pointers (:mod:`repro.tree.paths`).  That
walking is simulation-local: the centralized cost model charges package
moves only, and the distributed engine's agents pay one message per
physical hop.
"""

from typing import Callable, Iterator, List, Optional, Set, Tuple

from repro.errors import TopologyError
from repro.tree.node import TreeNode, port_in_use, port_not_bound
from repro.tree.ports import AdversarialPortAssigner, PortAssigner


class TreeListener:
    """Observer interface for topology mutations.

    Subclasses override the hooks they care about.  The hooks are
    looked up on the listener's class when it registers
    (:meth:`DynamicTree.add_listener`): a hook the class does not
    override is never called.  Hooks run synchronously inside the
    mutation, after the structure is updated, in registration order.
    """

    __slots__ = ()

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
    size:
        Current number of alive nodes, the paper's ``n``.
    total_ever:
        Number of nodes that ever existed (deleted ones included) — the
        quantity the paper's parameter ``U`` upper-bounds.  Node ids run
        0, 1, 2, ... in creation order, so it is also the next node's id.
    topology_changes:
        Count of mutations performed (the ``j`` index of Theorem 3.5).
    """

    __slots__ = ("root", "size", "total_ever", "topology_changes",
                 "store_slot_owner", "_port_assigner", "_listeners",
                 "_on_add_leaf", "_on_add_internal", "_on_remove_leaf",
                 "_on_remove_internal")

    def __init__(self, port_assigner: Optional[PortAssigner] = None) -> None:
        self._port_assigner = port_assigner or AdversarialPortAssigner(seed=0)
        # Arbitration for the per-node state slots (see SlotMap): at
        # most one controller pins its stores or whiteboards into
        # TreeNode slots at a time; later controllers on the same tree
        # fall back to dict lookups.
        self.store_slot_owner: Optional[object] = None
        self.root = TreeNode(0, None, self)
        self.size = 1
        self.total_ever = 1
        self.topology_changes = 0
        self._listeners: List[TreeListener] = []
        self._index_hooks()

    # ------------------------------------------------------------------
    # Listener plumbing.
    # ------------------------------------------------------------------
    def add_listener(self, listener: TreeListener) -> None:
        self._listeners.append(listener)
        self._index_hooks()

    def remove_listener(self, listener: TreeListener) -> None:
        """Unregister ``listener``; a no-op if it is not registered.

        Discard semantics make every layered ``detach()`` idempotent
        by construction — a second detach finds the listener gone and
        does nothing, instead of raising out of the listener list.
        """
        try:
            self._listeners.remove(listener)
        except ValueError:
            return
        self._index_hooks()

    def _index_hooks(self) -> None:
        """Rebuild the per-hook dispatch tuples from the listener list.

        The tuples are replaced, never mutated, so a dispatch already
        running (a hook that registers or detaches a listener) finishes
        over the hooks it started with.
        """
        self._on_add_leaf = self._overriding("on_add_leaf")
        self._on_add_internal = self._overriding("on_add_internal")
        self._on_remove_leaf = self._overriding("on_remove_leaf")
        self._on_remove_internal = self._overriding("on_remove_internal")

    def _overriding(self, name: str) -> Tuple[Callable[..., None], ...]:
        """The bound hook ``name`` of every listener whose class
        overrides the :class:`TreeListener` no-op, in registration
        order."""
        base = getattr(TreeListener, name)
        return tuple(getattr(listener, name) for listener in self._listeners
                     if getattr(type(listener), name, base) is not base)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def __contains__(self, node: TreeNode) -> bool:
        return node.tree is self and node.alive

    def nodes(self) -> Iterator[TreeNode]:
        """Iterate over alive nodes in DFS (preorder) from the root."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            # Reversed so that iteration visits children left-to-right.
            stack.extend(reversed(node.children))

    # ------------------------------------------------------------------
    # Mutations (Section 2.1.2).  Each wires an edge as ``next_port``
    # at the parent end, then at the child end; a child end drawn while
    # the child still records its just-unbound ``port_to_parent``
    # avoids that number, as the assigners promise.
    # ------------------------------------------------------------------
    def add_leaf(self, parent: TreeNode) -> TreeNode:
        """Attach a new degree-one node below ``parent``."""
        if parent.tree is not self or not parent.alive:
            raise TopologyError(f"add_leaf parent {parent} is not in the tree")
        self.topology_changes += 1
        node = TreeNode(self.total_ever, parent, self)
        self.total_ever += 1
        parent.children.append(node)
        next_port = self._port_assigner.next_port
        down = next_port(parent)
        if parent._ports.setdefault(down, node) is not node:
            raise port_in_use(parent, down)
        up = next_port(node)
        if node._ports.setdefault(up, parent) is not parent:
            raise port_in_use(node, up)
        node.port_to_parent = up
        node.port_at_parent = down
        self.size += 1
        for hook in self._on_add_leaf:
            hook(node)
        return node

    def add_internal(self, parent: TreeNode, child: TreeNode) -> TreeNode:
        """Split tree edge ``(parent, child)`` with a new node.

        ``parent`` must currently be ``child``'s parent.  The new node
        takes ``child``'s position in ``parent.children`` so DFS order is
        preserved.
        """
        if parent.tree is not self or not parent.alive:
            raise TopologyError(
                f"add_internal parent {parent} is not in the tree")
        if child.tree is not self or not child.alive:
            raise TopologyError(
                f"add_internal child {child} is not in the tree")
        if child.parent is not parent:
            raise TopologyError(
                f"{parent} is not the parent of {child}; cannot split edge"
            )
        self.topology_changes += 1
        node = TreeNode(self.total_ever, parent, self)
        self.total_ever += 1
        siblings = parent.children
        siblings[siblings.index(child)] = node
        node.children.append(child)
        child.parent = node
        # The edge (parent, child) is unbound at both ends; node gets
        # fresh ports on both sides; child's parent port is new.
        down, up = child.port_at_parent, child.port_to_parent
        if down is None or parent._ports.pop(down, None) is None:
            raise port_not_bound(parent, down)
        if up is None or child._ports.pop(up, None) is None:
            raise port_not_bound(child, up)
        next_port = self._port_assigner.next_port
        down = next_port(parent)
        if parent._ports.setdefault(down, node) is not node:
            raise port_in_use(parent, down)
        up = next_port(node)
        if node._ports.setdefault(up, parent) is not parent:
            raise port_in_use(node, up)
        node.port_to_parent = up
        node.port_at_parent = down
        down = next_port(node)
        if node._ports.setdefault(down, child) is not child:
            raise port_in_use(node, down)
        up = next_port(child)
        if child._ports.setdefault(up, node) is not node:
            raise port_in_use(child, up)
        child.port_to_parent = up
        child.port_at_parent = down
        self.size += 1
        for hook in self._on_add_internal:
            hook(node, parent, child)
        return node

    def remove_leaf(self, node: TreeNode) -> None:
        """Delete a childless non-root node."""
        if node.tree is not self or not node.alive:
            raise TopologyError(
                f"remove_leaf target {node} is not in the tree")
        parent = node.parent
        if parent is None:
            raise TopologyError("the root is never deleted")
        if node.children:
            raise TopologyError(f"{node} has children; use remove_internal")
        self.topology_changes += 1
        parent.children.remove(node)
        down = node.port_at_parent
        if down is None or parent._ports.pop(down, None) is None:
            raise port_not_bound(parent, down)
        node.alive = False
        self.size -= 1
        for hook in self._on_remove_leaf:
            hook(node, parent)

    def remove_internal(self, node: TreeNode) -> None:
        """Delete a non-root node with children; children move to parent.

        The children are spliced into the parent's child list at the
        deleted node's position, preserving DFS order.
        """
        if node.tree is not self or not node.alive:
            raise TopologyError(
                f"remove_internal target {node} is not in the tree")
        parent = node.parent
        if parent is None:
            raise TopologyError("the root is never deleted")
        children = node.children
        if not children:
            raise TopologyError(f"{node} is a leaf; use remove_leaf")
        self.topology_changes += 1
        siblings = parent.children
        index = siblings.index(node)
        siblings[index:index + 1] = children
        down = node.port_at_parent
        if down is None or parent._ports.pop(down, None) is None:
            raise port_not_bound(parent, down)
        next_port = self._port_assigner.next_port
        for child in children:
            child.parent = parent
            up = child.port_to_parent
            if up is None or child._ports.pop(up, None) is None:
                raise port_not_bound(child, up)
            down = next_port(parent)
            if parent._ports.setdefault(down, child) is not child:
                raise port_in_use(parent, down)
            up = next_port(child)
            if child._ports.setdefault(up, parent) is not parent:
                raise port_in_use(child, up)
            child.port_to_parent = up
            child.port_at_parent = down
        node.children = []
        node.alive = False
        self.size -= 1
        for hook in self._on_remove_internal:
            hook(node, parent, children)

    # ------------------------------------------------------------------
    # Validation (tests call this after random mutation storms).
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structure, membership tags, the size counter and the
        port tables.

        Raises ``TopologyError`` on damage.
        """
        seen: Set[int] = set()
        stack: List[TreeNode] = [self.root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                raise TopologyError(f"cycle through {node}")
            seen.add(id(node))
            if not node.alive:
                raise TopologyError(f"dead node {node} still reachable")
            if node.tree is not self:
                raise TopologyError(
                    f"reachable node {node} is tagged with another tree")
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
                stack.append(child)
        if len(seen) != self.size:
            raise TopologyError(
                f"reachable set ({len(seen)}) != size ({self.size})")
