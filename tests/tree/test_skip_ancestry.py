"""Property tests for the skip-pointer level-ancestor structure.

The contract: ``DynamicTree.depth`` / ``ancestor_at`` /
``ancestor_distance`` agree *exactly* with the naive parent-pointer
walks of :mod:`repro.tree.paths`, under arbitrary interleavings of all
four topology events — including the splice events that shift whole
subtrees and therefore invalidate cached tables.
"""

import random

import pytest

from repro.tree import DynamicTree, paths


def churn_step(tree, rng, nodes):
    """One random mutation; returns the new node (if any)."""
    alive = [n for n in nodes if n.alive]
    victim = rng.choice(alive)
    op = rng.random()
    if op < 0.40:
        return tree.add_leaf(victim)
    if op < 0.60 and victim.children:
        child = rng.choice(victim.children)
        return tree.add_internal(victim, child)
    if op < 0.80 and not victim.is_root and not victim.children:
        tree.remove_leaf(victim)
        return None
    if not victim.is_root and victim.children:
        tree.remove_internal(victim)
        return None
    return tree.add_leaf(victim)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_agrees_with_naive_walks_under_churn(seed):
    rng = random.Random(seed)
    tree = DynamicTree()
    nodes = [tree.root]
    for step in range(1500):
        new = churn_step(tree, rng, nodes)
        if new is not None:
            nodes.append(new)
        if step % 100 == 0:
            tree.validate()
            alive = [n for n in nodes if n.alive]
            for _ in range(30):
                node = rng.choice(alive)
                depth = tree.depth(node)
                assert depth == paths.depth(node)
                hops = rng.randrange(depth + 1)
                assert tree.ancestor_at(node, hops) \
                    is paths.ancestor_at(node, hops)
                other = rng.choice(alive)
                try:
                    expected = paths.distance_to_ancestor(node, other)
                except ValueError:
                    expected = None
                assert tree.ancestor_distance(node, other) == expected
    tree.validate()


def test_ancestor_at_error_semantics_match_naive():
    tree = DynamicTree()
    node = tree.root
    for _ in range(10):
        node = tree.add_leaf(node)
    assert tree.ancestor_at(node, 10) is tree.root
    with pytest.raises(ValueError):
        tree.ancestor_at(node, 11)
    with pytest.raises(ValueError):
        tree.ancestor_at(node, -1)
    with pytest.raises(ValueError):
        paths.ancestor_at(node, 11)


def test_depth_beyond_recursion_limit():
    """Stale-chain repair must be iterative: a path far deeper than the
    interpreter recursion limit, invalidated by a splice near the root,
    must still answer queries."""
    tree = DynamicTree()
    node = tree.root
    chain = [node]
    for _ in range(5000):
        node = tree.add_leaf(node)
        chain.append(node)
    assert tree.depth(node) == 5000
    # Splice just below the root: every cached table goes stale.
    tree.add_internal(tree.root, chain[1])
    assert tree.depth(node) == 5001
    assert tree.ancestor_at(node, 5001) is tree.root
    # The splice sits *above* chain[1]: its distance from the deep node
    # is unchanged, while its own depth grew by one.
    assert tree.ancestor_distance(node, chain[1]) == 4999
    assert tree.depth(chain[1]) == 2


def test_small_and_large_subtree_invalidation_paths():
    """Both invalidation strategies (budgeted walk and global epoch
    bump) must leave the structure exact."""
    tree = DynamicTree()
    spine = [tree.root]
    for _ in range(300):
        spine.append(tree.add_leaf(spine[-1]))
    # Warm every table.
    for node in spine:
        tree.depth(node)
    # Small subtree: splice near the bottom (budgeted walk path).
    tree.add_internal(spine[-2], spine[-1])
    assert tree.depth(spine[-1]) == 301
    # Large subtree: splice near the top (global epoch bump path).
    tree.add_internal(spine[0], spine[1])
    assert tree.depth(spine[-1]) == 302
    assert tree.ancestor_at(spine[-1], 302) is tree.root
    tree.validate()


def test_mark_budget_boundary_is_exact():
    """Subtrees right at the budget boundary stay correct."""
    budget = DynamicTree._ANC_MARK_BUDGET
    for extra in (-1, 0, 1):
        tree = DynamicTree()
        top = tree.add_leaf(tree.root)
        leaves = [tree.add_leaf(top) for _ in range(budget + extra)]
        for leaf in leaves:
            tree.depth(leaf)
        spliced = tree.add_internal(tree.root, top)
        assert tree.depth(leaves[0]) == 3
        assert tree.ancestor_at(leaves[0], 2) is spliced
        tree.validate()
