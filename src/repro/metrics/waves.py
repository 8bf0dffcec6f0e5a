"""Wave prices: what one tree-wide wave costs, named once.

Besides package moves and agent hops, the paper charges waves over the
spanning tree of ``n`` nodes:

* a broadcast from the root, or a convergecast (upcast) back to it,
  sends one message per edge: ``n - 1``;
* a DFS traversal sends two messages per edge (the relabels of
  Section 5);
* a per-node wave sends one message per node: Observation 2.1's
  termination pair (a broadcast and the confirming convergecast), the
  reject wave of Section 3.1, a structure reset between stages, and
  the fleet's reclaim.

Every layer charges its waves through these functions: centrally as
moves, event-driven as messages.  So a synchronous run and an
event-driven run of one stream pay the same for the same waves.
"""


def broadcast(n: int) -> int:
    """A root-to-all broadcast on ``n`` nodes: one message per edge."""
    return n - 1 if n > 1 else 0


def convergecast(n: int) -> int:
    """An all-to-root convergecast on ``n`` nodes: one message per
    edge, each node reporting once it has heard from its children."""
    return n - 1 if n > 1 else 0


def dfs_traversal(n: int) -> int:
    """A full DFS traversal on ``n`` nodes: two messages per edge."""
    return 2 * broadcast(n)


def node_wave(n: int) -> int:
    """A wave that visits every one of ``n`` nodes: one message each."""
    return n


def termination(n: int) -> int:
    """Observation 2.1's termination pair on ``n`` nodes: a per-node
    broadcast of the signal and the per-node convergecast confirming
    that every granted event has occurred.  The convergecast also
    carries what the next iteration or stage needs (``N_{i+1}``,
    ``L``, ``Y_i``, every node's subtree count), so a rollover after
    it pays only the broadcast that starts the next one."""
    return 2 * node_wave(n)
