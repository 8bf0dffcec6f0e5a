"""Tests for the dynamic tree substrate and its listener contract."""

import gc
import sys
import weakref

import pytest

from repro.errors import TopologyError
from repro.tree import DynamicTree, TreeListener, TreeNode, paths


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
    assert paths.depth(child) == 1
    tree.validate()


def test_add_internal_splits_edge_preserving_order():
    tree = DynamicTree()
    a = tree.add_leaf(tree.root)
    b = tree.add_leaf(tree.root)
    mid = tree.add_internal(tree.root, a)
    assert tree.root.children == [mid, b]
    assert mid.children == [a]
    assert a.parent is mid
    assert paths.depth(a) == 2
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


# ----------------------------------------------------------------------
# Per-hook dispatch.
# ----------------------------------------------------------------------
def _every_mutation(tree):
    """One mutation of each kind, in hook order."""
    a = tree.add_leaf(tree.root)
    b = tree.add_leaf(a)
    tree.add_internal(a, b)
    tree.remove_leaf(b)
    tree.remove_internal(a)


def test_a_hook_the_class_does_not_override_is_never_called():
    class Births(TreeListener):
        def __init__(self):
            self.births = 0

        def on_add_leaf(self, node):
            self.births += 1

    base_hooks = {getattr(TreeListener, name).__code__ for name in (
        "on_add_leaf", "on_add_internal", "on_remove_leaf",
        "on_remove_internal")}
    called = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in base_hooks:
            called.append(frame.f_code.co_name)

    tree = DynamicTree()
    listener = Births()
    tree.add_listener(listener)
    sys.setprofile(profile)
    try:
        _every_mutation(tree)
    finally:
        sys.setprofile(None)
    assert listener.births == 2
    assert called == []


def test_hooks_run_in_registration_order_for_every_event():
    log = []

    class Logger(TreeListener):
        def __init__(self, tag):
            self.tag = tag

        def on_add_leaf(self, node):
            log.append(("add_leaf", self.tag))

        def on_add_internal(self, node, parent, child):
            log.append(("add_internal", self.tag))

        def on_remove_leaf(self, node, parent):
            log.append(("remove_leaf", self.tag))

        def on_remove_internal(self, node, parent, children):
            log.append(("remove_internal", self.tag))

    class LeafLogger(TreeListener):
        def on_add_leaf(self, node):
            log.append(("add_leaf", "leaf-only"))

    tree = DynamicTree()
    for listener in (Logger("first"), LeafLogger(), Logger("last")):
        tree.add_listener(listener)
    _every_mutation(tree)
    assert log == [
        ("add_leaf", "first"), ("add_leaf", "leaf-only"),
        ("add_leaf", "last"),
        ("add_leaf", "first"), ("add_leaf", "leaf-only"),
        ("add_leaf", "last"),
        ("add_internal", "first"), ("add_internal", "last"),
        ("remove_leaf", "first"), ("remove_leaf", "last"),
        ("remove_internal", "first"), ("remove_internal", "last")]


def test_a_listener_detaching_inside_a_hook_does_not_hide_the_event():
    class OneShot(TreeListener):
        def __init__(self, tree):
            self.tree = tree

        def on_add_leaf(self, node):
            self.tree.remove_listener(self)

    tree = DynamicTree()
    tree.add_listener(OneShot(tree))
    later = RecordingListener()
    tree.add_listener(later)
    leaf = tree.add_leaf(tree.root)
    assert later.events == [("add_leaf", leaf)]
    assert len(tree._listeners) == 1
    tree.add_leaf(tree.root)
    assert len(later.events) == 2


def test_a_removed_listener_is_not_referenced_by_the_tree():
    tree = DynamicTree()
    listener = RecordingListener()
    tree.add_listener(listener)
    tree.add_leaf(tree.root)
    ref = weakref.ref(listener)
    tree.remove_listener(listener)
    gc.disable()
    try:
        del listener
        assert ref() is None
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# Membership: the tree tag plus the alive flag.
# ----------------------------------------------------------------------
def test_membership_reads_the_tree_tag_and_the_alive_flag():
    tree, twin = DynamicTree(), DynamicTree()
    leaf, twin_leaf = tree.add_leaf(tree.root), twin.add_leaf(twin.root)
    assert leaf.node_id == twin_leaf.node_id
    assert leaf in tree and twin_leaf not in tree and tree.root in tree
    assert TreeNode(leaf.node_id) not in tree
    tree.remove_leaf(leaf)
    assert leaf not in tree
    assert leaf.tree is tree  # a removed node keeps its tag
    with pytest.raises(TopologyError, match="not in the tree"):
        tree.add_leaf(twin_leaf)


@pytest.mark.parametrize("damage", ["tag", "size"])
def test_validate_checks_tags_and_the_size_counter(damage):
    tree = DynamicTree()
    leaf = tree.add_leaf(tree.add_leaf(tree.root))
    tree.validate()
    if damage == "tag":
        leaf.tree = DynamicTree()
    else:
        tree.size += 1
    with pytest.raises(TopologyError, match=damage):
        tree.validate()
