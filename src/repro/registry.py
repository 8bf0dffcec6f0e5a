"""The public controller registry: one factory for every flavour.

``make_controller(flavor, tree, m=..., w=..., u=...)`` builds any of the
eight controller flavours behind one call, so the bench CLI, the
scenario grid, examples, and tests share a single construction path
instead of private per-module factories.  Every product implements
:class:`repro.protocol.ControllerProtocol` (``handle`` /
``handle_batch`` / ``unused_permits`` / ``detach`` / ``introspect``).

Registered flavours:

========================  ====================================================
``centralized``           known-U reference engine (Section 3.1)
``iterated``              halving iterations, Observation 3.4 (incl. W = 0)
``adaptive``              unknown-U epochs, Theorem 3.5 (``u`` ignored)
``terminating``           Observation 2.1 terminating variant
``distributed``           agent-based engine, Sections 4.3-4.4
``distributed_iterated``  distributed halving stages, Theorem 4.7
``distributed_adaptive``  distributed unknown-U epochs, Appendix A
                          (``u`` ignored)
``trivial``               the Section 1 root-round-trip baseline
                          (``w``/``u`` ignored; exact (M, 0))
========================  ====================================================
"""

import inspect
from typing import Any, Callable, Dict, Tuple

from repro.errors import ConfigError
from repro.baselines.trivial import TrivialController
from repro.core.adaptive import AdaptiveController
from repro.core.centralized import CentralizedController
from repro.core.iterated import IteratedController
from repro.core.terminating import TerminatingController
from repro.distributed.adaptive import DistributedAdaptiveController
from repro.distributed.controller import DistributedController
from repro.distributed.iterated import DistributedIteratedController
from repro.protocol import ControllerProtocol
from repro.tree.dynamic_tree import DynamicTree

_Factory = Callable[..., ControllerProtocol]

_NEEDS_U = ("centralized", "iterated", "terminating", "distributed",
            "distributed_iterated")

CONTROLLER_REGISTRY: Dict[str, _Factory] = {
    "centralized": CentralizedController,
    "iterated": IteratedController,
    "adaptive": AdaptiveController,
    "terminating": TerminatingController,
    "distributed": DistributedController,
    "distributed_iterated": DistributedIteratedController,
    "distributed_adaptive": DistributedAdaptiveController,
    "trivial": TrivialController,
}

CONTROLLER_FLAVORS: Tuple[str, ...] = tuple(CONTROLLER_REGISTRY)

#: Per flavour, the constructor keywords beyond ``tree`` and the
#: ``(m, w, u)`` contract that :func:`make_controller` fills in.
CONTROLLER_OPTIONS: Dict[str, Tuple[str, ...]] = {
    flavor: tuple(name for name in inspect.signature(factory).parameters
                  if name not in ("tree", "m", "w", "u"))
    for flavor, factory in CONTROLLER_REGISTRY.items()
}


def controller_flavors() -> Tuple[str, ...]:
    """The registered flavour names, in registry order."""
    return CONTROLLER_FLAVORS


def resolve_flavor(flavor: str) -> str:
    """Normalize a flavour name (strip, hyphens to underscores) and
    check it against the registry.

    The single definition of what counts as a valid flavour spelling —
    shared by :func:`make_controller` and the session layer's
    ``ControllerSpec``.  Raises :class:`ConfigError` naming the
    registry for anything unknown.
    """
    key = flavor.strip().replace("-", "_")
    if key not in CONTROLLER_REGISTRY:
        raise ConfigError(
            f"unknown controller flavor {flavor!r}; registered: "
            f"{', '.join(CONTROLLER_FLAVORS)}")
    return key


def make_controller(flavor: str, tree: DynamicTree, *, m: int, w: int = 0,
                    u: int = 0, **kwargs: Any) -> ControllerProtocol:
    """Build a controller of the requested ``flavor`` on ``tree``.

    ``m``/``w`` are the (M, W) contract; ``u`` is the known node bound
    (required for every known-U flavour, ignored by the adaptive ones,
    which derive it per epoch).  Extra keyword arguments pass straight
    through to the flavour's constructor (``counters=``, ``scheduler=``,
    ``kernel_trace=``, ...).

    Raises :class:`repro.errors.ConfigError` for an unknown flavour
    (listing the registry) or a missing ``u`` where one is required —
    one exception type for every misconfiguration, whatever the flavour.
    """
    key = resolve_flavor(flavor)
    factory = CONTROLLER_REGISTRY[key]
    if key in _NEEDS_U and u <= 0:
        raise ConfigError(
            f"flavor {key!r} needs the node bound u (got {u!r}); only the "
            "adaptive flavours run without one "
            f"(registered: {', '.join(CONTROLLER_FLAVORS)})")
    if key == "trivial":
        return factory(tree, m=m, **kwargs)
    if key in ("adaptive", "distributed_adaptive"):
        return factory(tree, m=m, w=w, **kwargs)
    return factory(tree, m=m, w=w, u=u, **kwargs)
