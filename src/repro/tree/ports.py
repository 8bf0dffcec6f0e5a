"""Port-number assignment strategies.

Section 2.1.2: "we assume the relatively wasteful model in which the port
numbers are assigned by an adversary", encoded on O(log N) bits.  The
adversarial assigner therefore hands out scattered, non-consecutive
numbers (but keeps them within a polynomial range so the O(log N)-bit
assumption holds).  The sequential assigner exists for readable debugging
output and for the designer-port memory variant discussed in 4.4.2.

Both assigners treat the node's live port table as the source of truth,
so numbers stay locally distinct through any sequence of edge rewirings.
They also avoid ``port_to_parent``, which may be a just-unbound number
while a splice rewires the node's parent edge.  Each candidate is tested
against the live table in place (no copy), so a draw costs O(1) per
candidate whatever the node's degree.
"""

import random
from typing import TYPE_CHECKING, Protocol

from repro.errors import TopologyError

if TYPE_CHECKING:
    from repro.tree.node import TreeNode


class PortAssigner(Protocol):
    """Anything that can pick a fresh, locally distinct port for a node."""

    def next_port(self, node: "TreeNode") -> int: ...


class SequentialPortAssigner:
    """Ports numbered 0, 1, 2, ... per node (the designer-port model)."""

    def next_port(self, node: "TreeNode") -> int:
        used = node.ports_in_use()
        up = node.port_to_parent
        candidate = 0
        while candidate in used or candidate == up:
            candidate += 1
        return candidate


class AdversarialPortAssigner:
    """Ports drawn pseudo-randomly from a polynomial-size space.

    The draw is deterministic in the seed, and collisions at a node are
    re-drawn, so ports are always locally distinct as the model requires.
    """

    def __init__(self, seed: int = 0, space: int = 1 << 30) -> None:
        if space < 1:
            raise TopologyError(f"port space must be >= 1, got {space}")
        self._rng = random.Random(seed)
        self._space = space
        self._getrandbits = self._rng.getrandbits
        self._bits = space.bit_length()

    def next_port(self, node: "TreeNode") -> int:
        # ``randrange(space)`` inlined: the same rejection loop over
        # ``getrandbits(space.bit_length())`` on the same generator, so
        # the ports are bit-identical (the digests in
        # tests/tree/test_tree_property.py pin them) at one frame per
        # draw.  A draw outside the space and a port already bound at
        # the node are both re-drawn.
        getrandbits, bits, space = self._getrandbits, self._bits, self._space
        used = node._ports
        up = node.port_to_parent
        while True:
            candidate = getrandbits(bits)
            if candidate < space and candidate not in used \
                    and candidate != up:
                return candidate
