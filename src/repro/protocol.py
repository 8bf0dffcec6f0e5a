"""The formal controller protocol and its introspection contract.

Every controller flavour in this repository — the four centralized
forms, the three distributed forms, and the trivial baseline — speaks
one interface, :class:`ControllerProtocol`:

* ``handle(request) -> Outcome`` — serve one request to completion
  (distributed engines run their scheduler to quiescence);
* ``handle_batch(requests) -> List[Outcome]`` — serve a batch, with
  the same per-request outcomes as sequential ``handle`` calls;
* ``unused_permits() -> int`` — permits not yet granted (root storage
  plus parked packages), the ``L`` the halving iterations re-budget
  with;
* ``detach() -> None`` — unregister from the tree and become inert;
  **idempotent** (a second call is a no-op);
* ``introspect() -> ControllerView`` — a structured, read-only view of
  the controller's auditable state.

``introspect()`` exists so that the invariant checker
(:mod:`repro.metrics.invariants`) can audit every flavour without
``hasattr`` probes on private attributes: a controller *declares* its
stores, its live budget split, and its nested controllers, and the
auditor walks that declaration.  The module is deliberately dependency-
free (``typing`` only), so :mod:`repro.metrics` can import it without
pulling in :mod:`repro.core`.  The serving surface's structural types
(``SessionProtocol``, ``AppProtocol``) live in
:mod:`repro.service.session`, which the gateway may import.
"""

from dataclasses import dataclass, field
from typing import (
    Any,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)


class StoreMapLike(Protocol):
    """What the auditor needs from a package-store map."""

    def items(self) -> Iterable[Tuple[Any, Any]]: ...

    def total_parked_permits(self) -> int: ...


@dataclass(frozen=True)
class BudgetSplit:
    """A wrapper's conservation ledger: permits already granted in
    finished stages/epochs plus the live stage's full budget must equal
    the wrapper's own ``M``."""

    prior_grants: int
    live_budget: int

    @property
    def total(self) -> int:
        return self.prior_grants + self.live_budget


@dataclass
class ControllerView:
    """Structured snapshot a controller returns from ``introspect()``.

    Only the fields a flavour actually has are filled in; the invariant
    checker keys its audits off which fields are present:

    * ``storage`` + ``stores`` -> centralized conservation & package
      shapes (``storage`` alone -> storage-only conservation, the
      trivial baseline);
    * ``boards`` (+ ``active_agents``, ``tree``) -> distributed
      conservation, package shapes, lock ordering, orphan detection;
    * ``budget`` -> wrapper conservation (prior grants + live budget
      == M);
    * ``children`` -> nested controllers to audit recursively, as
      ``(label, controller)`` pairs.

    ``waste_gate`` selects the liveness trigger: ``"rejection"`` checks
    the ``granted >= M - W`` bound once anything was rejected (the
    plain (M,W) contract); ``"termination"`` checks it once
    ``terminated`` is set (Observation 2.1's terminating analogue).
    """

    flavor: str
    m: int
    w: int
    granted: int
    rejected: int
    params: Optional[Any] = None          # ControllerParams when present
    storage: Optional[int] = None
    stores: Optional[StoreMapLike] = None
    boards: Optional[Any] = None          # WhiteboardMap when distributed
    tree: Optional[Any] = None
    active_agents: Optional[int] = None
    terminated: bool = False
    waste_gate: str = "rejection"
    budget: Optional[BudgetSplit] = None
    children: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)


@dataclass
class AppView:
    """Structured snapshot an application returns from ``app_view()``.

    The application analogue of :class:`ControllerView`: the app
    *declares* the state its Section 5 guarantee is about, and
    :func:`repro.metrics.invariants.audit_app` checks what the
    declaration contains —

    * ``estimate`` + ``beta`` -> the Theorem 5.1 sandwich
      ``n/beta <= estimate <= beta * n``;
    * ``ids`` -> Theorem 5.2 id-uniqueness and the ``[1, 4n]`` range;
    * ``grants_banked`` / ``granted_total`` -> permit conservation
      across iteration rollovers (grants banked by closed iterations
      plus the live controller's tally equal the app's own grant
      count);
    * ``controller`` -> the live iteration's engine, audited
      recursively through :func:`~repro.metrics.invariants.audit_controller`.
    """

    name: str
    iterations: int
    size: int
    beta: Optional[float] = None
    estimate: Optional[int] = None
    ids: Optional[Tuple[int, ...]] = None
    grants_banked: int = 0
    granted_total: int = 0
    controller: Optional[Any] = None


@runtime_checkable
class ControllerProtocol(Protocol):
    """The interface every controller flavour implements.

    Structural (PEP 544): any object with these methods conforms; the
    eight registry flavours (see :func:`repro.registry.make_controller`)
    are all checked against it in the test suite.
    """

    def handle(self, request: Any) -> Any: ...

    def handle_batch(self, requests: Iterable[Any]) -> List[Any]: ...

    def unused_permits(self) -> int: ...

    def detach(self) -> None: ...

    def introspect(self) -> ControllerView: ...
