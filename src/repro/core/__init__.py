"""The paper's primary contribution: (M,W)-Controllers for dynamic trees.

Centralized form (Section 3), used both directly (its *move complexity*
is the quantity Lemma 3.3 bounds) and as the reference semantics that the
distributed implementation (Section 4) is reduced to.

Public entry points:

* :mod:`repro.core.kernel` — the shared GrantOrReject/Proc kernel
  (:class:`PermitLedger`, level-windowed filler lookup, distribution plans,
  the reject wave, :class:`KernelTrace`), executed synchronously here
  and hop-by-hop by :mod:`repro.distributed`;
* :class:`CentralizedController` — known-U controller (Section 3.1);
* :class:`IteratedController` — halving iterations, Observation 3.4,
  including the W = 0 recipe;
* :class:`AdaptiveController` — unknown-U controller, Theorem 3.5;
* :class:`TerminatingController` — the terminating variant of
  Observation 2.1, the form the Section 5 applications consume.
"""

from repro.core.params import ControllerParams
from repro.core.requests import Request, RequestKind, Outcome, OutcomeStatus
from repro.core.packages import MobilePackage, NodeStore
from repro.core.kernel import (
    DistributionPlan,
    KernelTrace,
    PermitLedger,
    SplitStep,
)
from repro.core.centralized import CentralizedController
from repro.core.iterated import IteratedController
from repro.core.adaptive import AdaptiveController
from repro.core.terminating import TerminatingController

__all__ = [
    "ControllerParams",
    "Request",
    "RequestKind",
    "Outcome",
    "OutcomeStatus",
    "MobilePackage",
    "NodeStore",
    "DistributionPlan",
    "KernelTrace",
    "PermitLedger",
    "SplitStep",
    "CentralizedController",
    "IteratedController",
    "AdaptiveController",
    "TerminatingController",
]
