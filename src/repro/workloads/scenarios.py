"""Dynamic-tree scenario generation.

The paper's bounds are worst-case over adversarial request streams; the
benches and property tests exercise several stream shapes:

* **default_mix** — balanced churn touching all four topological change
  types plus plain (non-topological) events;
* **grow_only_mix** — leaf insertions only (the AAPS model, used for the
  head-to-head comparison of bench E4);
* custom mixes — any weighting over the five request kinds.

Initial-topology builders cover the regimes that stress different parts
of the controller: random recursive trees (logarithmic depth — fillers
are always near), paths (linear depth — packages must travel far), stars
and caterpillars (high degree — deletion hand-over stress).
"""

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.tree.dynamic_tree import DynamicTree, TreeListener
from repro.tree.node import TreeNode
from repro.tree.ports import PortAssigner
from repro.core.requests import Outcome, OutcomeStatus, Request, RequestKind


# ----------------------------------------------------------------------
# Initial topologies.
# ----------------------------------------------------------------------
def build_random_tree(n: int, seed: int = 0,
                      port_assigner: Optional[PortAssigner] = None
                      ) -> DynamicTree:
    """Random recursive tree: node i attaches below a uniform earlier node.

    Expected depth is O(log n), the friendly regime for the controller.
    """
    rng = random.Random(seed)
    tree = DynamicTree(port_assigner=port_assigner)
    nodes = [tree.root]
    for _ in range(n - 1):
        parent = rng.choice(nodes)
        nodes.append(tree.add_leaf(parent))
    # The construction itself is not part of the measured scenario.
    tree.topology_changes = 0
    tree.size_history.clear()
    return tree


def build_path(n: int, port_assigner: Optional[PortAssigner] = None
               ) -> DynamicTree:
    """A path of n nodes hanging below the root (worst-case depth)."""
    tree = DynamicTree(port_assigner=port_assigner)
    current = tree.root
    for _ in range(n - 1):
        current = tree.add_leaf(current)
    tree.topology_changes = 0
    tree.size_history.clear()
    return tree


def build_star(n: int, port_assigner: Optional[PortAssigner] = None
               ) -> DynamicTree:
    """A star: n - 1 leaves below the root (worst-case degree)."""
    tree = DynamicTree(port_assigner=port_assigner)
    for _ in range(n - 1):
        tree.add_leaf(tree.root)
    tree.topology_changes = 0
    tree.size_history.clear()
    return tree


def build_caterpillar(n: int, legs_per_node: int = 2,
                      port_assigner: Optional[PortAssigner] = None
                      ) -> DynamicTree:
    """A spine with ``legs_per_node`` leaves at each spine node."""
    tree = DynamicTree(port_assigner=port_assigner)
    spine = tree.root
    built = 1
    while built < n:
        for _ in range(legs_per_node):
            if built >= n:
                break
            tree.add_leaf(spine)
            built += 1
        if built < n:
            spine = tree.add_leaf(spine)
            built += 1
    tree.topology_changes = 0
    tree.size_history.clear()
    return tree


# ----------------------------------------------------------------------
# Alive-node sampling with O(1) updates.
# ----------------------------------------------------------------------
class NodePicker(TreeListener):
    """Maintains an indexable list of alive nodes for O(1) random picks.

    The position index is keyed by ``id(node)``: every indexed node is
    held by the list, so its id is unique, and no update calls
    ``TreeNode.__hash__``.
    """

    def __init__(self, tree: DynamicTree) -> None:
        self._tree = tree
        self._nodes: List[TreeNode] = list(tree.nodes())
        self._index: Dict[int, int] = {
            id(node): i for i, node in enumerate(self._nodes)
        }
        tree.add_listener(self)

    def pick(self, rng: random.Random) -> TreeNode:
        return self._nodes[rng.randrange(len(self._nodes))]

    def on_add_internal(self, node: TreeNode,
                        parent: Optional[TreeNode] = None,
                        child: Optional[TreeNode] = None) -> None:
        self._index[id(node)] = len(self._nodes)
        self._nodes.append(node)

    def on_remove_internal(self, node: TreeNode,
                           parent: Optional[TreeNode] = None,
                           children: Optional[List[TreeNode]] = None
                           ) -> None:
        index = self._index.pop(id(node))
        last = self._nodes.pop()
        if last is not node:
            self._nodes[index] = last
            self._index[id(last)] = index

    on_add_leaf = on_add_internal
    on_remove_leaf = on_remove_internal

    def detach(self) -> None:
        self._tree.remove_listener(self)


# ----------------------------------------------------------------------
# Request mixes.
# ----------------------------------------------------------------------
def default_mix() -> Dict[RequestKind, float]:
    """Balanced churn over all request kinds.

    Additions slightly outweigh removals so trees do not collapse to the
    root over long scenarios.
    """
    return {
        RequestKind.ADD_LEAF: 0.30,
        RequestKind.ADD_INTERNAL: 0.15,
        RequestKind.REMOVE_LEAF: 0.20,
        RequestKind.REMOVE_INTERNAL: 0.10,
        RequestKind.PLAIN: 0.25,
    }


def grow_only_mix() -> Dict[RequestKind, float]:
    """The AAPS dynamic model: only leaf insertions (plus plain events)."""
    return {
        RequestKind.ADD_LEAF: 0.6,
        RequestKind.PLAIN: 0.4,
    }


def random_request(tree: DynamicTree, rng: random.Random,
                   mix: Optional[Dict[RequestKind, float]] = None,
                   picker: Optional[NodePicker] = None) -> Request:
    """Draw one feasible request from ``mix``.

    Kinds that turn out infeasible for the sampled node (e.g. removing
    the root, removing a leaf via REMOVE_INTERNAL) are retried a few
    times, then degrade to a PLAIN request — so the stream always makes
    progress, matching an environment that only submits meaningful
    requests.
    """
    mix = mix or default_mix()
    kinds = list(mix.keys())
    weights = [mix[k] for k in kinds]

    def sample_node() -> TreeNode:
        if picker is not None:
            return picker.pick(rng)
        nodes = list(tree.nodes())
        return nodes[rng.randrange(len(nodes))]

    for _ in range(8):
        kind = rng.choices(kinds, weights=weights)[0]
        node = sample_node()
        if kind is RequestKind.PLAIN or kind is RequestKind.ADD_LEAF:
            return Request(kind, node)
        if kind is RequestKind.ADD_INTERNAL:
            if node.children:
                child = node.children[rng.randrange(len(node.children))]
                return Request(kind, node, child=child)
        elif kind is RequestKind.REMOVE_LEAF:
            if not node.is_root and not node.children:
                return Request(kind, node)
        elif kind is RequestKind.REMOVE_INTERNAL:
            if not node.is_root and node.children:
                return Request(kind, node)
    return Request(RequestKind.PLAIN, sample_node())


# ----------------------------------------------------------------------
# Stream recording / replay (batch-equivalence harness).
# ----------------------------------------------------------------------
RequestSpec = Tuple[RequestKind, int, Optional[int]]


def request_spec(request: Request) -> RequestSpec:
    """A tree-independent description of ``request``: ``(kind, node_id,
    child_id)``.  Node ids are deterministic per construction order, so
    a spec recorded against one tree can be replayed against a twin
    tree built and driven identically."""
    return (request.kind, request.node.node_id,
            request.child.node_id if request.child is not None else None)


class TreeMirror(TreeListener):
    """Resolve recorded request specs against a twin tree.

    Keeps a ``node_id -> node`` map (updated via the listener hooks as
    grants create new nodes).  :meth:`requests` yields mirrored
    :class:`Request` objects *lazily*, so a batched consumer such as
    ``handle_batch`` — which walks its input one element at a time —
    resolves each spec only after the previous request was applied;
    ids created mid-batch are therefore present by the time they are
    looked up.
    """

    def __init__(self, tree: DynamicTree) -> None:
        self._tree = tree
        self._map: Dict[int, TreeNode] = {
            node.node_id: node for node in tree.nodes()
        }
        tree.add_listener(self)

    def on_add_internal(self, node: TreeNode,
                        parent: Optional[TreeNode] = None,
                        child: Optional[TreeNode] = None) -> None:
        self._map[node.node_id] = node

    on_add_leaf = on_add_internal

    def node(self, node_id: int) -> TreeNode:
        return self._map[node_id]

    def request(self, spec: RequestSpec) -> Request:
        kind, node_id, child_id = spec
        child = self._map[child_id] if child_id is not None else None
        return Request(kind, self._map[node_id], child=child)

    def requests(self, specs: Iterable[RequestSpec]) -> Iterator[Request]:
        """Lazily mirror an iterable of specs (see class docstring)."""
        return (self.request(spec) for spec in specs)

    def detach(self) -> None:
        self._tree.remove_listener(self)


# ----------------------------------------------------------------------
# Scenario driver.
# ----------------------------------------------------------------------
@dataclass
class ScenarioResult:
    """Tally of a scenario run."""

    granted: int = 0
    rejected: int = 0
    cancelled: int = 0
    pending: int = 0
    outcomes: List[Outcome] = field(default_factory=list)

    def record(self, outcome: Outcome, keep: bool) -> None:
        if outcome.status is OutcomeStatus.GRANTED:
            self.granted += 1
        elif outcome.status is OutcomeStatus.REJECTED:
            self.rejected += 1
        elif outcome.status is OutcomeStatus.CANCELLED:
            self.cancelled += 1
        else:
            self.pending += 1
        if keep:
            self.outcomes.append(outcome)


