"""Tree node representation.

A :class:`TreeNode` carries only topology (parent pointer, ordered child
list) plus the port-number bookkeeping of Section 2.1.2.  Protocol state
(packages, whiteboards, locks) lives in the controller layers, keyed by
node object, so several protocols can share one tree — the unknown-U
distributed controller of Appendix A runs *two* controllers on the same
tree simultaneously and relies on this separation.
"""

from typing import Any, Dict, KeysView, List, Optional

from repro.errors import TopologyError


class TreeNode:
    """One vertex of the dynamic spanning tree.

    Attributes
    ----------
    node_id:
        A globally unique integer, assigned once and never reused.  It is
        *not* visible to the distributed algorithms (which are anonymous
        apart from port numbers); it exists for debugging, hashing and
        deterministic ordering in the simulator.
    parent:
        Parent node, ``None`` only for the root.
    children:
        Ordered list of children (order matters for DFS-based protocols
        such as the name-assignment traversals of Section 5.2).
    alive:
        Flips to ``False`` on deletion; layers use it to detect stale
        references (a deleted node may still appear in package *domains*,
        which is exactly what Case 5 of the domain rules prescribes).
    """

    __slots__ = (
        "node_id",
        "parent",
        "children",
        "alive",
        "port_to_parent",
        "port_at_parent",
        "_ports",
        "_anc_jumps",
        "_anc_epoch",
        "_store_owner",
        "_store",
    )

    def __init__(self, node_id: int,
                 parent: Optional["TreeNode"] = None) -> None:
        self.node_id = node_id
        self.parent = parent
        self.children: List["TreeNode"] = []
        self.alive = True
        # Port bookkeeping: every incident tree edge has a port number at
        # each endpoint; each node knows the port leading to its parent,
        # and the parent's port leading back to it (``port_at_parent``),
        # so the tree unbinds an edge with two keyed deletes instead of
        # scanning a hub's table.
        self.port_to_parent: Optional[int] = None
        self.port_at_parent: Optional[int] = None
        self._ports: Dict[int, "TreeNode"] = {}
        # Skip-pointer ancestry cache, owned by DynamicTree (see
        # ``DynamicTree.ancestor_at``): the jump table (``_anc_jumps[i]``
        # is the ancestor ``2^i`` hops up; depth is derived by climbing
        # the maximal jumps) plus the tree epoch it was built under —
        # the cache is fresh iff the epochs match (-1 = never built /
        # explicitly invalidated).  Simulation-local bookkeeping: the
        # distributed protocols never read it, so the memory bounds of
        # Section 4.4 are unaffected.
        self._anc_jumps: List["TreeNode"] = []
        self._anc_epoch = -1
        # Per-node state slot (see ``repro.core.packages.SlotMap``):
        # one controller at a time may pin its per-node state here (a
        # centralized engine's store, a distributed engine's
        # whiteboard) so hot loops replace dict probes (which pay a
        # Python-level ``__hash__`` call per hop) with two slot loads.
        # Identity-checked against the owner, so stale slots from
        # detached controllers are inert.
        self._store_owner: Optional[object] = None
        self._store: Any = None

    # ------------------------------------------------------------------
    # Port management (Section 2.1.2: adversarially assigned, distinct).
    # ------------------------------------------------------------------
    def attach_port(self, port: int, neighbor: "TreeNode") -> None:
        """Bind ``port`` to ``neighbor``; ports must be locally distinct."""
        if port in self._ports:
            raise TopologyError(
                f"port {port} already in use at node {self.node_id}")
        self._ports[port] = neighbor

    def detach_port(self, port: Optional[int]) -> None:
        """Unbind ``port`` in O(1); it must be bound."""
        if port is None or port not in self._ports:
            raise TopologyError(
                f"port {port} is not bound at node {self.node_id}")
        del self._ports[port]

    def port_of(self, neighbor: "TreeNode") -> Optional[int]:
        """Port number leading to ``neighbor``, or ``None``."""
        for port, other in self._ports.items():
            if other is neighbor:
                return port
        return None

    def neighbor_on(self, port: int) -> Optional["TreeNode"]:
        """Neighbor reached through ``port``, or ``None``."""
        return self._ports.get(port)

    def ports_in_use(self) -> KeysView[int]:
        """All port numbers currently bound at this node."""
        return self._ports.keys()

    # ------------------------------------------------------------------
    # Convenience topology queries.
    # ------------------------------------------------------------------
    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def child_degree(self) -> int:
        """Number of children (``deg(v)`` in Claim 4.8's memory bound)."""
        return len(self.children)

    def __repr__(self) -> str:
        status = "" if self.alive else ",dead"
        return f"<Node {self.node_id}{status}>"

    # Equality is object identity (the inherited ``object.__eq__``, which
    # keeps ``children.index``/``remove`` in C); the hash is the id so set
    # and dict behaviour never depends on memory addresses.
    def __hash__(self) -> int:
        return self.node_id
