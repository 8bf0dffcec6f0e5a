"""Hot-path hygiene rules for the fast-path modules.

The scheduler, the agent hop loop, the settlement outbox and the tree
mutations hold their speed by keeping the per-event (per-request) work
allocation-free: ``__slots__`` classes (no per-instance dict), no
closures or ``functools.partial`` objects built per call.
Those are conventions a profiler only re-discovers after they regress,
so the fast-path modules are enforced statically:

* ``hotpath/slots`` — every class defined in a fast-path module
  declares ``__slots__`` (enums/exceptions are exempt: they are not
  allocated per event);
* ``hotpath/closure-alloc`` — no ``lambda``, nested ``def`` or
  ``functools.partial`` inside functions of a fast-path module; bind
  state in slots (the ``resume_node`` idiom) or module-level helpers.
"""

import ast
from typing import FrozenSet, Iterator

from repro.analysis.astutil import dotted
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register
from repro.analysis.source import ModuleSource

#: The modules the fast-path contract covers.  Extend this set when a
#: new module joins the per-event hot loop (and expect the rules to
#: fire on day one).
FAST_PATH_MODULES: FrozenSet[str] = frozenset({
    "repro.sim.scheduler",
    "repro.distributed.agent",
    "repro.distributed.whiteboard",
    "repro.service.outbox",
    "repro.tree.dynamic_tree",
    "repro.tree.node",
})

#: Base-class names exempt from the slots requirement: not per-event
#: allocations (enums are singletons, exceptions are the failure path).
_SLOTS_EXEMPT_BASES: FrozenSet[str] = frozenset({
    "Enum", "IntEnum", "Flag", "IntFlag", "Protocol"})


def _base_names(cls: ast.ClassDef) -> Iterator[str]:
    for base in cls.bases:
        name = dotted(base)
        if name is not None:
            yield name.rsplit(".", 1)[-1]


def _declares_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        elif isinstance(stmt, ast.AnnAssign):
            if (isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__slots__"):
                return True
    return False


def _exempt(cls: ast.ClassDef) -> bool:
    for name in _base_names(cls):
        if name in _SLOTS_EXEMPT_BASES:
            return True
        if name.endswith(("Error", "Exception", "Warning")):
            return True
    return False


@register
class SlotsRule(Rule):
    rule_id = "hotpath/slots"
    family = "hotpath"
    description = ("classes in fast-path modules declare __slots__ "
                   "(enum/exception classes exempt)")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.module not in FAST_PATH_MODULES:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if _exempt(node) or _declares_slots(node):
                continue
            yield self.finding(
                module, node.lineno, node.col_offset,
                f"class {node.name} in a fast-path module has no "
                "__slots__; per-instance dicts cost allocation and cache "
                "misses on every event")


@register
class ClosureAllocRule(Rule):
    rule_id = "hotpath/closure-alloc"
    family = "hotpath"
    description = ("no lambda / nested def / functools.partial inside "
                   "fast-path functions; closures allocate per call")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.module not in FAST_PATH_MODULES:
            return
        yield from self._scan(module, module.tree, in_function=False)

    def _scan(self, module: ModuleSource, node: ast.AST,
              in_function: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if in_function:
                    yield self.finding(
                        module, child.lineno, child.col_offset,
                        f"nested def {child.name} inside a fast-path "
                        "function allocates a callable per call; hoist to "
                        "module level or bind state in slots")
                yield from self._scan(module, child, in_function=True)
                continue
            if in_function:
                if isinstance(child, ast.Lambda):
                    yield self.finding(
                        module, child.lineno, child.col_offset,
                        "lambda inside a fast-path function allocates a "
                        "callable per call; hoist to module level or bind "
                        "state in slots")
                elif isinstance(child, ast.Call):
                    name = dotted(child.func)
                    if name in ("partial", "functools.partial"):
                        yield self.finding(
                            module, child.lineno, child.col_offset,
                            "functools.partial inside a fast-path function "
                            "allocates a callable per call; hoist to module "
                            "level or bind state in slots")
            yield from self._scan(module, child, in_function)
