"""Tests for TreeNode port bookkeeping and basic queries."""

import pytest

from repro.tree import DynamicTree, TreeNode


def test_port_attach_and_lookup():
    a, b = TreeNode(1), TreeNode(2)
    a.attach_port(17, b)
    assert a.port_of(b) == 17
    assert a.neighbor_on(17) is b
    assert a.neighbor_on(99) is None
    assert list(a.ports_in_use()) == [17]


def test_duplicate_port_rejected():
    a, b, c = TreeNode(1), TreeNode(2), TreeNode(3)
    a.attach_port(5, b)
    with pytest.raises(ValueError):
        a.attach_port(5, c)


def test_degree_and_flags():
    tree = DynamicTree()
    assert tree.root.is_root and tree.root.is_leaf
    child = tree.add_leaf(tree.root)
    assert tree.root.child_degree == 1
    assert not tree.root.is_leaf
    assert not child.is_root and child.is_leaf


def test_identity_semantics():
    a, b = TreeNode(1), TreeNode(1)
    assert a != b           # identity, not id equality
    assert a == a
    assert hash(a) == 1


def test_repr_marks_dead_nodes():
    tree = DynamicTree()
    child = tree.add_leaf(tree.root)
    tree.remove_leaf(child)
    assert "dead" in repr(child)
    assert "dead" not in repr(tree.root)
