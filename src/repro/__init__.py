"""repro — a reproduction of Korman & Kutten,
"Controller and estimator for dynamic networks" (PODC 2007 / I&C 2013).

The library provides:

* :mod:`repro.core` — centralized (M,W)-Controllers for dynamic trees
  (known-U, halving-iterated, unknown-U, terminating);
* :mod:`repro.distributed` — the distributed agent-based controller on a
  simulated asynchronous network;
* :mod:`repro.apps` — the Section 5 applications: size estimation, name
  assignment, heavy-child decomposition, dynamic ancestry labels,
  majority commitment;
* :mod:`repro.baselines` — the trivial controller and a reconstruction
  of the AAPS bin-hierarchy controller for growing trees;
* :mod:`repro.tree`, :mod:`repro.sim`, :mod:`repro.workloads`,
  :mod:`repro.metrics` — substrates and measurement utilities.

Quickstart::

    from repro import (
        ControllerSession, Request, RequestKind, SessionConfig,
    )

    session = ControllerSession(
        SessionConfig.of("centralized", m=100, w=20, u=256))
    ticket = session.submit(
        Request(RequestKind.ADD_LEAF, session.tree.root))
    record = ticket.result()
    assert record.granted and session.tree.size == 2

The session layer (:mod:`repro.service`) is the supported way to drive
an engine: one :class:`SessionConfig` describes the whole wiring
(flavour, (M, W, U), schedule policy, delay model, faults, admission
window), and the :class:`ControllerSession` serves requests through
tickets and records — non-blocking ``submit`` -> ``Ticket``, batched
``submit_many``, streaming ``drain()`` in settlement order, with
saturation reported as an explicit ``BACKPRESSURE`` verdict distinct
from the paper's permit reject.

Above the session sits :mod:`repro.gateway`: a concurrent ingestion
front door that multiplexes many client streams into batched session
feeds through a bounded leveling queue, a token-bucket throttle
(verdict ``SHED``), and a per-session circuit breaker, with health
probes and a machine-audited settle-exactly-once ledger
(:func:`repro.metrics.invariants.audit_gateway`).  ``Gateway`` serves
threads, ``AsyncGateway`` serves asyncio.

For scale-out, :mod:`repro.fleet` runs N sessions over a forest behind
a :class:`FleetRouter` that speaks the same session surface: a global
``(M_total, W_total)`` contract is carved into per-shard budgets by
:class:`FleetConfig`, rebalanced across shards through an explicit
:class:`BudgetTransfer` ledger, and machine-checked end to end by
:func:`repro.metrics.invariants.audit_fleet` (clients are only rejected
once the *global* budget is spent).

Below the session sits the controller registry: every flavour built by
:func:`make_controller` implements
:class:`repro.protocol.ControllerProtocol` — ``handle``,
``handle_batch``, ``unused_permits``, ``detach`` (idempotent), and
``introspect()`` for the protocol-based invariant auditor.  Direct
``handle`` wiring remains supported for library embedders; scenario
driving goes through :func:`repro.service.drive_scenario` (the legacy
``run_scenario`` callable driver was removed in 2.0, see
``docs/architecture.md`` §7).
"""

from repro.errors import (
    ConfigError,
    ControllerError,
    GatewayError,
    InvariantViolation,
    ProtocolError,
    ReproError,
    SimulationError,
    TopologyError,
)
from repro.gateway import (
    AsyncGateway,
    BreakerState,
    Gateway,
    GatewayConfig,
    GatewayStats,
    GatewayTicket,
    HealthReport,
)
from repro.protocol import (
    AppView,
    BudgetSplit,
    ControllerProtocol,
    ControllerView,
)
from repro.tree import DynamicTree, TreeNode
from repro.core import (
    AdaptiveController,
    CentralizedController,
    ControllerParams,
    IteratedController,
    KernelTrace,
    Outcome,
    OutcomeStatus,
    PermitLedger,
    Request,
    RequestKind,
    TerminatingController,
)
from repro.registry import (
    CONTROLLER_FLAVORS,
    controller_flavors,
    make_controller,
)
from repro.service import (
    APP_NAMES,
    AppProtocol,
    AppSpec,
    ControllerSession,
    ControllerSpec,
    IterationRecord,
    OutcomeRecord,
    SessionConfig,
    SessionProtocol,
    SessionVerdict,
    Ticket,
)
from repro.apps import AppSession, make_app
from repro.fleet import (
    BudgetTransfer,
    FleetConfig,
    FleetRouter,
)

__version__ = "1.5.0"

# The curated public surface, grouped the way README's public-API table
# documents it (tests/test_public_api.py asserts the two stay in sync).
__all__ = [
    # The session layer — the supported way to drive an engine.
    "ControllerSession",
    "SessionConfig",
    "ControllerSpec",
    "OutcomeRecord",
    "SessionVerdict",
    "Ticket",
    # The ingestion gateway — the concurrent front door.
    "Gateway",
    "AsyncGateway",
    "GatewayConfig",
    "GatewayStats",
    "GatewayTicket",
    "BreakerState",
    "HealthReport",
    # The fleet layer — N sessions over a forest behind one router.
    "FleetRouter",
    "FleetConfig",
    "BudgetTransfer",
    # The application layer — the Section 5 apps behind one spec.
    "AppSpec",
    "AppSession",
    "make_app",
    "APP_NAMES",
    "AppProtocol",
    "AppView",
    "IterationRecord",
    # Registry + protocol types.
    "make_controller",
    "controller_flavors",
    "CONTROLLER_FLAVORS",
    "ControllerProtocol",
    "SessionProtocol",
    "ControllerView",
    "BudgetSplit",
    # Requests and outcomes.
    "Request",
    "RequestKind",
    "Outcome",
    "OutcomeStatus",
    # Substrate and kernel.
    "DynamicTree",
    "TreeNode",
    "ControllerParams",
    "KernelTrace",
    "PermitLedger",
    # Controller classes (importable directly for embedders).
    "CentralizedController",
    "IteratedController",
    "AdaptiveController",
    "TerminatingController",
    # Errors.
    "ReproError",
    "ConfigError",
    "TopologyError",
    "ControllerError",
    "InvariantViolation",
    "SimulationError",
    "ProtocolError",
    "GatewayError",
    "__version__",
]
