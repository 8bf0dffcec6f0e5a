"""Property-based tests: random mutation storms keep the tree sound."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.tree import DynamicTree, paths
from repro.tree.ports import AdversarialPortAssigner, SequentialPortAssigner
from repro.workloads import build_random_tree


def apply_random_mutations(tree, rng, steps):
    """Apply feasible random mutations; returns counts by kind."""
    counts = {"add_leaf": 0, "add_internal": 0,
              "remove_leaf": 0, "remove_internal": 0}
    for _ in range(steps):
        nodes = list(tree.nodes())
        node = rng.choice(nodes)
        action = rng.randrange(4)
        if action == 0:
            tree.add_leaf(node)
            counts["add_leaf"] += 1
        elif action == 1 and node.children:
            child = rng.choice(node.children)
            tree.add_internal(node, child)
            counts["add_internal"] += 1
        elif action == 2 and not node.is_root and not node.children:
            tree.remove_leaf(node)
            counts["remove_leaf"] += 1
        elif action == 3 and not node.is_root and node.children:
            tree.remove_internal(node)
            counts["remove_internal"] += 1
    return counts


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 120))
def test_random_mutations_keep_tree_valid(seed, steps):
    rng = random.Random(seed)
    tree = DynamicTree()
    apply_random_mutations(tree, rng, steps)
    tree.validate()
    assert tree.size >= 1
    assert tree.root.alive


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 120))
def test_accounting_invariants(seed, steps):
    rng = random.Random(seed)
    tree = DynamicTree()
    counts = apply_random_mutations(tree, rng, steps)
    additions = counts["add_leaf"] + counts["add_internal"]
    removals = counts["remove_leaf"] + counts["remove_internal"]
    assert tree.total_ever == 1 + additions
    assert tree.size == 1 + additions - removals
    assert tree.topology_changes == sum(counts.values())


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 80))
def test_ports_stay_locally_distinct(seed, steps):
    rng = random.Random(seed)
    tree = DynamicTree(port_assigner=SequentialPortAssigner())
    apply_random_mutations(tree, rng, steps)
    for node in tree.nodes():
        ports = []
        if node.port_to_parent is not None:
            ports.append(node.port_to_parent)
        for child in node.children:
            port = node.port_of(child)
            assert port is not None
            ports.append(port)
        assert len(ports) == len(set(ports))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 80))
def test_depths_consistent_with_parent_chain(seed, steps):
    rng = random.Random(seed)
    tree = DynamicTree()
    apply_random_mutations(tree, rng, steps)
    for node in tree.nodes():
        if node.parent is not None:
            assert paths.depth(node) == paths.depth(node.parent) + 1


def _port_digest(tree):
    table = sorted((n.node_id, n.port_to_parent,
                    tuple(sorted(n.ports_in_use()))) for n in tree.nodes())
    return hashlib.sha1(repr(table).encode()).hexdigest()


@pytest.mark.parametrize("assigner, grown, stormed", [
    (AdversarialPortAssigner, "96b5cb5fb1c1bdf01db0e2e32bfcbab57b7d3562",
     "5088efb6dae0bb8b0d7ba59908c1e3d25c9971c9"),
    (SequentialPortAssigner, "50db770c5e0402320c0fe7b1286497d9b6129b18",
     "96e484b019073f91191fb3d230a13538bf904b86"),
], ids=["adversarial", "sequential"])
def test_port_numbers_are_pinned(assigner, grown, stormed):
    """Every port an assigner draws, through growth and a storm.

    Seeded runs replay these numbers, so a change to how the tree
    unbinds edges or tests candidates must leave them bit-identical.
    """
    tree = build_random_tree(500, seed=3, port_assigner=assigner())
    assert _port_digest(tree) == grown
    apply_random_mutations(tree, random.Random(11), 2000)
    assert (tree.size, tree.topology_changes) == (810, 1252)
    assert _port_digest(tree) == stormed
    tree.validate()


@pytest.mark.parametrize("space", [1, 3, 1000, 4096, 1 << 30])
def test_port_draws_are_randrange_draws(space):
    """The assigner's inlined rejection loop draws what
    ``randrange(space)`` on the same generator draws, for any space
    (on a node with no ports, each draw is taken as drawn)."""
    node = DynamicTree().root
    assigner = AdversarialPortAssigner(seed=9, space=space)
    reference = random.Random(9)
    assert ([assigner.next_port(node) for _ in range(200)]
            == [reference.randrange(space) for _ in range(200)])


@pytest.mark.parametrize("space", [0, -8])
def test_an_empty_port_space_is_rejected(space):
    """No port can be drawn from an empty space; the assigner refuses
    it when built instead of spinning in its draw loop."""
    with pytest.raises(TopologyError, match="port space"):
        AdversarialPortAssigner(space=space)


@pytest.mark.parametrize("assigner", [
    AdversarialPortAssigner,
    # A crowded space: the hub's draws collide often and are redrawn.
    lambda: AdversarialPortAssigner(space=4096),
    SequentialPortAssigner,
], ids=["adversarial", "crowded", "sequential"])
def test_hub_rewiring_keeps_port_tables_exact(assigner):
    """Splices and removals among the edges of a 2,000-child root."""
    tree = DynamicTree(port_assigner=assigner())
    hub = tree.root
    for _ in range(2000):
        tree.add_leaf(hub)
    tree.validate()
    rng = random.Random(5)
    for _ in range(20):
        mid = tree.add_internal(hub, rng.choice(hub.children))
        tree.validate()
        tree.add_leaf(mid)
        tree.validate()
        tree.remove_internal(mid)  # both children rejoin the hub
        tree.validate()
        tree.remove_leaf(rng.choice(hub.children))
        tree.validate()
    # A second hub dissolves into the first: 300 edges rewired at once.
    sub = hub.children[1000]
    for _ in range(300):
        tree.add_leaf(sub)
    tree.validate()
    tree.remove_internal(sub)
    tree.validate()
    assert hub.child_degree == 2299
    assert len(hub.ports_in_use()) == 2299
