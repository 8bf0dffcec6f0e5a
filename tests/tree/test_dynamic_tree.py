"""Tests for the dynamic tree substrate and its listener contract."""

import pytest

from repro.errors import TopologyError
from repro.tree import DynamicTree, TreeListener


class RecordingListener(TreeListener):
    def __init__(self):
        self.events = []

    def on_add_leaf(self, node):
        self.events.append(("add_leaf", node))

    def on_add_internal(self, node, parent, child):
        self.events.append(("add_internal", node, parent, child))

    def on_remove_leaf(self, node, parent):
        self.events.append(("remove_leaf", node, parent))

    def on_remove_internal(self, node, parent, children):
        self.events.append(("remove_internal", node, parent, tuple(children)))


def test_fresh_tree_is_just_the_root():
    tree = DynamicTree()
    assert tree.size == 1
    assert tree.root.is_root and tree.root.is_leaf
    assert tree.total_ever == 1


def test_add_leaf_basics():
    tree = DynamicTree()
    child = tree.add_leaf(tree.root)
    assert tree.size == 2
    assert child.parent is tree.root
    assert tree.root.children == [child]
    assert tree.depth(child) == 1
    tree.validate()


def test_add_internal_splits_edge_preserving_order():
    tree = DynamicTree()
    a = tree.add_leaf(tree.root)
    b = tree.add_leaf(tree.root)
    mid = tree.add_internal(tree.root, a)
    assert tree.root.children == [mid, b]
    assert mid.children == [a]
    assert a.parent is mid
    assert tree.depth(a) == 2
    tree.validate()


def test_add_internal_requires_parenthood():
    tree = DynamicTree()
    a = tree.add_leaf(tree.root)
    b = tree.add_leaf(a)
    with pytest.raises(TopologyError):
        tree.add_internal(tree.root, b)  # b is a grandchild


def test_remove_leaf():
    tree = DynamicTree()
    a = tree.add_leaf(tree.root)
    tree.remove_leaf(a)
    assert tree.size == 1
    assert not a.alive
    assert a not in tree
    tree.validate()


def test_remove_leaf_rejects_internal_nodes_and_root():
    tree = DynamicTree()
    a = tree.add_leaf(tree.root)
    tree.add_leaf(a)
    with pytest.raises(TopologyError):
        tree.remove_leaf(a)
    with pytest.raises(TopologyError):
        tree.remove_leaf(tree.root)


def test_remove_internal_reattaches_children_in_place():
    tree = DynamicTree()
    left = tree.add_leaf(tree.root)
    mid = tree.add_leaf(tree.root)
    right = tree.add_leaf(tree.root)
    c1 = tree.add_leaf(mid)
    c2 = tree.add_leaf(mid)
    tree.remove_internal(mid)
    assert tree.root.children == [left, c1, c2, right]
    assert c1.parent is tree.root and c2.parent is tree.root
    assert not mid.alive
    tree.validate()


def test_remove_internal_rejects_leaves_and_root():
    tree = DynamicTree()
    a = tree.add_leaf(tree.root)
    with pytest.raises(TopologyError):
        tree.remove_internal(a)
    tree.add_leaf(tree.root)
    with pytest.raises(TopologyError):
        tree.remove_internal(tree.root)


@pytest.mark.parametrize("plant", ["extra", "parent_side", "child_side"])
def test_validate_rejects_stale_port_bindings(plant):
    tree = DynamicTree()
    a = tree.add_leaf(tree.root)
    b = tree.add_leaf(a)
    gone = tree.add_leaf(a)
    port = gone.port_at_parent
    tree.remove_leaf(gone)
    tree.validate()
    if plant == "extra":
        # The removed leaf's edge is still bound at its former parent.
        a.attach_port(port, gone)
    elif plant == "parent_side":
        # The parent's port recorded on b leads elsewhere.
        a.detach_port(b.port_at_parent)
        a.attach_port(b.port_at_parent, gone)
    else:
        # b's own parent port leads elsewhere.
        b.detach_port(b.port_to_parent)
        b.attach_port(b.port_to_parent, gone)
    with pytest.raises(TopologyError, match="port"):
        tree.validate()


def test_detach_port_rejects_unbound_numbers():
    tree = DynamicTree()
    a = tree.add_leaf(tree.root)
    tree.root.detach_port(a.port_at_parent)
    assert tree.root.neighbor_on(a.port_at_parent) is None
    with pytest.raises(TopologyError, match="not bound"):
        tree.root.detach_port(a.port_at_parent)
    with pytest.raises(TopologyError, match="not bound"):
        tree.root.detach_port(tree.root.port_to_parent)  # the root's None


def test_operations_on_dead_nodes_rejected():
    tree = DynamicTree()
    a = tree.add_leaf(tree.root)
    tree.remove_leaf(a)
    with pytest.raises(TopologyError):
        tree.add_leaf(a)
    with pytest.raises(TopologyError):
        tree.remove_leaf(a)


def test_listeners_see_every_mutation():
    tree = DynamicTree()
    listener = RecordingListener()
    tree.add_listener(listener)
    a = tree.add_leaf(tree.root)
    b = tree.add_leaf(a)
    mid = tree.add_internal(a, b)
    tree.remove_leaf(b)
    tree.remove_internal(a)  # a's child mid moves to root
    tags = [e[0] for e in listener.events]
    assert tags == ["add_leaf", "add_leaf", "add_internal",
                    "remove_leaf", "remove_internal"]
    assert listener.events[2][1:] == (mid, a, b)
    assert listener.events[4][1:] == (a, tree.root, (mid,))


def test_listener_removal():
    tree = DynamicTree()
    listener = RecordingListener()
    tree.add_listener(listener)
    tree.add_leaf(tree.root)
    tree.remove_listener(listener)
    tree.add_leaf(tree.root)
    assert len(listener.events) == 1


def test_size_history_records_pre_change_sizes():
    tree = DynamicTree()
    a = tree.add_leaf(tree.root)       # size was 1
    tree.add_leaf(a)                   # size was 2
    tree.remove_leaf(tree.root.children[0].children[0])  # size was 3
    assert tree.size_history == [1, 2, 3]
    assert tree.topology_changes == 3


def test_total_ever_counts_deleted_nodes():
    tree = DynamicTree()
    a = tree.add_leaf(tree.root)
    tree.remove_leaf(a)
    b = tree.add_leaf(tree.root)
    assert tree.total_ever == 3
    assert tree.size == 2
    assert b.alive


def test_nodes_iterates_dfs_preorder():
    tree = DynamicTree()
    a = tree.add_leaf(tree.root)
    b = tree.add_leaf(tree.root)
    a1 = tree.add_leaf(a)
    order = list(tree.nodes())
    assert order == [tree.root, a, a1, b]


def test_ports_distinct_per_node():
    tree = DynamicTree()
    nodes = [tree.add_leaf(tree.root) for _ in range(20)]
    ports = [tree.root.port_of(child) for child in nodes]
    assert len(set(ports)) == 20
    for child in nodes:
        assert child.port_to_parent is not None
        assert child.neighbor_on(child.port_to_parent) is tree.root


def test_port_rewired_on_internal_insert():
    tree = DynamicTree()
    a = tree.add_leaf(tree.root)
    mid = tree.add_internal(tree.root, a)
    # Root's port now leads to mid, a's parent port leads to mid.
    assert tree.root.port_of(mid) is not None
    assert tree.root.port_of(a) is None
    assert a.neighbor_on(a.port_to_parent) is mid
