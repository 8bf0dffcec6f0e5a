"""repro.service — the session-layer public API.

One object, :class:`ControllerSession`, owns the tree / controller /
scheduler / fault wiring (described by a frozen
:class:`SessionConfig`) and serves requests through tickets and records:
non-blocking :meth:`~ControllerSession.submit` returning a
:class:`Ticket`, batched :meth:`~ControllerSession.submit_many`, and a
streaming :meth:`~ControllerSession.drain` that yields
:class:`OutcomeRecord` objects in settlement order.  Saturation is an
explicit :attr:`SessionVerdict.BACKPRESSURE` verdict, distinct from the
paper's permit reject.  See ``docs/architecture.md`` §7.
"""

from repro.service.appspec import (
    APP_ENGINE_FLAVORS,
    APP_NAMES,
    APP_PARAMS,
    AppSpec,
    resolve_app,
)
from repro.service.config import (
    EVENT_DRIVEN_FLAVORS,
    SCHEDULED_FLAVORS,
    ControllerSpec,
    SessionConfig,
)
from repro.service.driver import drive_scenario
from repro.service.envelopes import (
    IterationRecord,
    OutcomeRecord,
    SessionVerdict,
    Ticket,
)
from repro.service.session import (
    AppProtocol,
    ControllerSession,
    SessionProtocol,
)

__all__ = [
    "ControllerSession",
    "SessionProtocol",
    "AppProtocol",
    "ControllerSpec",
    "SessionConfig",
    "AppSpec",
    "resolve_app",
    "APP_NAMES",
    "APP_PARAMS",
    "APP_ENGINE_FLAVORS",
    "OutcomeRecord",
    "IterationRecord",
    "SessionVerdict",
    "Ticket",
    "drive_scenario",
    "EVENT_DRIVEN_FLAVORS",
    "SCHEDULED_FLAVORS",
]
