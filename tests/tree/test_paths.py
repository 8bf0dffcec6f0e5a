"""Tests for ancestor-path helpers."""

import pytest

from repro.errors import TopologyError
from repro.tree import (
    DynamicTree,
    ancestor_at,
    ancestors,
    depth,
    distance_to_ancestor,
    is_ancestor,
    path_between,
)


@pytest.fixture
def chain():
    tree = DynamicTree()
    nodes = [tree.root]
    for _ in range(5):
        nodes.append(tree.add_leaf(nodes[-1]))
    return tree, nodes


def test_ancestors_is_reflexive(chain):
    _, nodes = chain
    listed = list(ancestors(nodes[3]))
    assert listed == [nodes[3], nodes[2], nodes[1], nodes[0]]


def test_depth(chain):
    _, nodes = chain
    assert [depth(n) for n in nodes] == [0, 1, 2, 3, 4, 5]


def test_ancestor_at(chain):
    _, nodes = chain
    assert ancestor_at(nodes[5], 0) is nodes[5]
    assert ancestor_at(nodes[5], 3) is nodes[2]
    with pytest.raises(ValueError):
        ancestor_at(nodes[2], 5)


def test_distance_to_ancestor(chain):
    _, nodes = chain
    assert distance_to_ancestor(nodes[4], nodes[1]) == 3
    assert distance_to_ancestor(nodes[4], nodes[4]) == 0
    with pytest.raises(ValueError):
        distance_to_ancestor(nodes[1], nodes[4])  # wrong direction


def test_is_ancestor(chain):
    _, nodes = chain
    assert is_ancestor(nodes[0], nodes[5])
    assert is_ancestor(nodes[5], nodes[5])
    assert not is_ancestor(nodes[5], nodes[0])


def test_is_ancestor_across_branches():
    tree = DynamicTree()
    a = tree.add_leaf(tree.root)
    b = tree.add_leaf(tree.root)
    assert not is_ancestor(a, b)
    assert not is_ancestor(b, a)


def test_path_between(chain):
    _, nodes = chain
    assert path_between(nodes[4], nodes[2]) == [nodes[4], nodes[3], nodes[2]]
    assert path_between(nodes[3], nodes[3]) == [nodes[3]]
    with pytest.raises(ValueError):
        path_between(nodes[1], nodes[3])


def test_ancestor_at_error_semantics():
    tree = DynamicTree()
    node = tree.root
    for _ in range(10):
        node = tree.add_leaf(node)
    assert ancestor_at(node, 10) is tree.root
    with pytest.raises(TopologyError, match="no ancestor 11 hops up"):
        ancestor_at(node, 11)
    with pytest.raises(TopologyError, match="negative hop count"):
        ancestor_at(node, -1)


def test_walks_beyond_recursion_limit_after_a_root_splice():
    """The walks are iterative: a path far deeper than the interpreter
    recursion limit, spliced just below the root, still answers."""
    tree = DynamicTree()
    node = tree.root
    chain = [node]
    for _ in range(5000):
        node = tree.add_leaf(node)
        chain.append(node)
    assert depth(node) == 5000
    tree.add_internal(tree.root, chain[1])
    assert depth(node) == 5001
    assert ancestor_at(node, 5001) is tree.root
    # The splice sits *above* chain[1]: its distance from the deep node
    # is unchanged, while its own depth grew by one.
    assert distance_to_ancestor(node, chain[1]) == 4999
    assert depth(chain[1]) == 2
    tree.validate()
