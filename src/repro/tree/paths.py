"""Ancestor-path helpers.

The controller constantly reasons about ancestors at exact distances
(filler windows, the ``u_k`` targets of ``Proc``, domain membership).
These helpers centralize that arithmetic.  All of them walk parent
pointers, costing O(distance) *local* work — in the centralized setting
this work is free (only package moves are charged), and in the
distributed setting the walking is done by agents that are charged per
hop by the message counters, never through these helpers.
"""

from typing import Iterator, List, Optional

from repro.errors import TopologyError

from repro.tree.node import TreeNode


def ancestors(node: TreeNode) -> Iterator[TreeNode]:
    """Yield ``node`` and then each proper ancestor up to the root.

    The paper's ancestry relation is reflexive ("a node is its own
    ancestor", Section 2.1.2), hence the inclusive start.
    """
    current: Optional[TreeNode] = node
    while current is not None:
        yield current
        current = current.parent


def depth(node: TreeNode) -> int:
    """Hop distance from ``node`` to the root."""
    hops = 0
    current = node
    while current.parent is not None:
        current = current.parent
        hops += 1
    return hops


def ancestor_at(node: TreeNode, hops: int) -> TreeNode:
    """The ancestor exactly ``hops`` edges above ``node``.

    Raises :class:`~repro.errors.TopologyError` when ``hops`` is
    negative or the root is closer than ``hops``.
    """
    if hops < 0:
        raise TopologyError(f"negative hop count {hops}")
    current = node
    for _ in range(hops):
        if current.parent is None:
            raise TopologyError(f"{node} has no ancestor {hops} hops up")
        current = current.parent
    return current


def distance_to_ancestor(node: TreeNode, ancestor: TreeNode) -> int:
    """Hops from ``node`` up to ``ancestor``.

    Raises ``ValueError`` if ``ancestor`` is not actually an ancestor.
    """
    hops = 0
    current: Optional[TreeNode] = node
    while current is not None:
        if current is ancestor:
            return hops
        current = current.parent
        hops += 1
    raise TopologyError(f"{ancestor} is not an ancestor of {node}")


def is_ancestor(ancestor: TreeNode, node: TreeNode) -> bool:
    """True iff ``ancestor`` lies on the path from ``node`` to the root."""
    current: Optional[TreeNode] = node
    while current is not None:
        if current is ancestor:
            return True
        current = current.parent
    return False


def path_between(node: TreeNode, ancestor: TreeNode) -> List[TreeNode]:
    """Nodes on the path from ``node`` up to ``ancestor`` (inclusive)."""
    path = []
    current: Optional[TreeNode] = node
    while current is not None:
        path.append(current)
        if current is ancestor:
            return path
        current = current.parent
    raise TopologyError(f"{ancestor} is not an ancestor of {node}")
