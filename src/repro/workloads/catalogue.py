"""The adversarial scenario catalogue.

Named request-stream scenarios, each stressing a different part of the
controller's worst-case analysis:

* ``hot_spot`` — one subtree issues most requests (skewed demand: the
  same filler ancestors are drained over and over);
* ``deep_burst`` — bursts aimed at the deepest nodes of a path
  (packages must travel far, and concurrent agents pile onto one
  root path);
* ``grow_shrink`` — a growth wave followed by a removal wave
  (exercises graceful deletion hand-over after the tree fattened);
* ``near_exhaustion`` — a budget sized below the stream length, so the
  run drives storage to M and through the reject wave;
* ``mixed_flood`` — all five request kinds at full churn (the
  default-mix flood, the closest to "anything can happen").

A scenario's stream is **pre-generated** against the initial topology:
``spec.stream(tree, seed)`` touches only nodes present at time zero and
never mutates the tree.  This is what makes one stream replayable
everywhere — sequentially through any centralized controller, batched,
or injected concurrently into the distributed engine under any schedule
policy — so differential and metamorphic tests compare *identical*
inputs.  Requests whose targets vanish mid-replay resolve CANCELLED,
exactly the Section 4.2 "events may lose their meaning" semantics.

Node ids are deterministic per construction order, so a stream
generated against one tree replays against a twin (same spec, same
seed) via ``workloads.request_spec`` / ``TreeMirror``.
"""

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.core.requests import Request, RequestKind
from repro.tree import paths
from repro.tree.dynamic_tree import DynamicTree
from repro.tree.node import TreeNode
from repro.workloads.scenarios import (
    build_caterpillar,
    build_path,
    build_random_tree,
    build_star,
    default_mix,
)

_BUILDERS = {
    "random": build_random_tree,
    "path": build_path,
    "star": build_star,
    "caterpillar": build_caterpillar,
}


def build_tree(topology: str, n: int, seed: int) -> DynamicTree:
    """An ``n``-node tree of ``topology``; only ``random`` reads ``seed``."""
    if topology == "random":
        return build_random_tree(n, seed=seed)
    return _BUILDERS[topology](n)


def _feasible_request(node: TreeNode, rng: random.Random,
                      kinds: List[RequestKind],
                      weights: List[float]) -> Request:
    """One request at ``node``, degrading to PLAIN when the drawn kind
    is infeasible for the node (mirrors ``random_request``, but against
    a static snapshot)."""
    for _ in range(8):
        kind = rng.choices(kinds, weights=weights)[0]
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
    return Request(RequestKind.PLAIN, node)


def _mix_stream(nodes: List[TreeNode], rng: random.Random, steps: int,
                mix: Dict[RequestKind, float]) -> List[Request]:
    kinds = list(mix.keys())
    weights = [mix[k] for k in kinds]
    return [
        _feasible_request(nodes[rng.randrange(len(nodes))], rng,
                          kinds, weights)
        for _ in range(steps)
    ]


def _subtree_nodes(root: TreeNode) -> List[TreeNode]:
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


# ----------------------------------------------------------------------
# Stream generators (one per scenario).
# ----------------------------------------------------------------------
def _gen_hot_spot(spec: "ScenarioSpec", tree: DynamicTree,
                  rng: random.Random) -> List[Request]:
    nodes = list(tree.nodes())
    # The hottest subtree: the non-root node with the most descendants.
    hot_root = max((n for n in nodes if not n.is_root),
                   key=lambda n: (len(_subtree_nodes(n)), -n.node_id))
    hot_nodes = _subtree_nodes(hot_root)
    mix = default_mix()
    kinds = list(mix.keys())
    weights = [mix[k] for k in kinds]
    stream = []
    for _ in range(spec.steps):
        pool = hot_nodes if rng.random() < 0.85 else nodes
        node = pool[rng.randrange(len(pool))]
        stream.append(_feasible_request(node, rng, kinds, weights))
    return stream


def _gen_deep_burst(spec: "ScenarioSpec", tree: DynamicTree,
                    rng: random.Random) -> List[Request]:
    by_depth = sorted(tree.nodes(), key=lambda n: (paths.depth(n), n.node_id))
    deep = by_depth[-max(len(by_depth) // 4, 1):]
    nodes = list(by_depth)
    calm_mix = default_mix()
    burst_mix = {RequestKind.PLAIN: 0.7, RequestKind.ADD_LEAF: 0.3}
    stream: List[Request] = []
    burst_len, calm_len = 25, 15
    while len(stream) < spec.steps:
        take = min(burst_len, spec.steps - len(stream))
        stream.extend(_mix_stream(deep, rng, take, burst_mix))
        take = min(calm_len, spec.steps - len(stream))
        stream.extend(_mix_stream(nodes, rng, take, calm_mix))
    return stream


def _gen_grow_shrink(spec: "ScenarioSpec", tree: DynamicTree,
                     rng: random.Random) -> List[Request]:
    nodes = list(tree.nodes())
    grow_mix = {RequestKind.ADD_LEAF: 0.55, RequestKind.ADD_INTERNAL: 0.20,
                RequestKind.PLAIN: 0.25}
    shrink_mix = {RequestKind.REMOVE_LEAF: 0.45,
                  RequestKind.REMOVE_INTERNAL: 0.25,
                  RequestKind.PLAIN: 0.30}
    half = spec.steps // 2
    return (_mix_stream(nodes, rng, half, grow_mix)
            + _mix_stream(nodes, rng, spec.steps - half, shrink_mix))


def _gen_near_exhaustion(spec: "ScenarioSpec", tree: DynamicTree,
                         rng: random.Random) -> List[Request]:
    # Plain-heavy: almost every request consumes a permit, so the stream
    # (longer than M) walks the budget to the wall and through it.
    nodes = list(tree.nodes())
    mix = {RequestKind.PLAIN: 0.9, RequestKind.ADD_LEAF: 0.1}
    return _mix_stream(nodes, rng, spec.steps, mix)


def _gen_mixed_flood(spec: "ScenarioSpec", tree: DynamicTree,
                     rng: random.Random) -> List[Request]:
    return _mix_stream(list(tree.nodes()), rng, spec.steps, default_mix())


# ----------------------------------------------------------------------
# Specs.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """One named catalogue scenario: topology + budget + stream shape."""

    name: str
    description: str
    topology: str
    n: int
    steps: int
    m: int
    w: int
    u: int
    generator: Callable[["ScenarioSpec", DynamicTree, random.Random],
                        List[Request]]

    def build_tree(self, seed: int = 0) -> DynamicTree:
        """The scenario's initial topology (deterministic per seed)."""
        return build_tree(self.topology, self.n, seed)

    def stream(self, tree: DynamicTree, seed: int = 0) -> List[Request]:
        """The full pre-generated request stream (tree is not mutated)."""
        return self.generator(self, tree, random.Random(seed))

    def scaled(self, factor: float) -> "ScenarioSpec":
        """A smaller/larger twin (CI smoke runs use factor < 1).

        ``n``/``steps``/``m`` scale; ``w`` and ``u`` are re-derived the
        way the original spec derived them (proportionally).
        """
        def scale(value: int, floor: int = 1) -> int:
            return max(int(value * factor), floor)
        return ScenarioSpec(
            name=self.name, description=self.description,
            topology=self.topology, n=scale(self.n, 8),
            steps=scale(self.steps, 16), m=scale(self.m, 4),
            w=max(scale(self.w), 1), u=scale(self.u, 64),
            generator=self.generator)

    def params_json(self) -> Dict[str, object]:
        return {"name": self.name, "topology": self.topology, "n": self.n,
                "steps": self.steps, "m": self.m, "w": self.w, "u": self.u}


def _spec(name: str, description: str, topology: str, n: int, steps: int,
          m: int, w: int,
          generator: Callable[[ScenarioSpec, DynamicTree, random.Random],
                              List[Request]],
          u: Optional[int] = None) -> Tuple[str, ScenarioSpec]:
    # U bounds the nodes *ever to exist*: initial nodes plus every
    # possible addition (granted adds plus injected storm growth).
    u = u if u is not None else 4 * (n + steps)
    return name, ScenarioSpec(name=name, description=description,
                              topology=topology, n=n, steps=steps,
                              m=m, w=w, u=u, generator=generator)


CATALOGUE: Dict[str, ScenarioSpec] = dict([
    _spec("hot_spot",
          "one subtree issues 85% of the requests (skewed demand)",
          "random", n=120, steps=600, m=2400, w=30, generator=_gen_hot_spot),
    _spec("deep_burst",
          "request bursts aimed at the deepest quarter of a path",
          "path", n=150, steps=600, m=3000, w=40,
          generator=_gen_deep_burst),
    _spec("grow_shrink",
          "a growth wave followed by a removal wave",
          "random", n=40, steps=500, m=2000, w=25,
          generator=_gen_grow_shrink),
    _spec("near_exhaustion",
          "plain-heavy stream longer than the budget: drives storage "
          "to M and through the reject wave",
          "random", n=80, steps=500, m=260, w=40,
          generator=_gen_near_exhaustion),
    _spec("mixed_flood",
          "full default-mix churn over a random tree",
          "random", n=100, steps=700, m=2800, w=35,
          generator=_gen_mixed_flood),
])


def scenario_names() -> List[str]:
    return list(CATALOGUE)


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return CATALOGUE[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; known: {', '.join(CATALOGUE)}"
        ) from None
