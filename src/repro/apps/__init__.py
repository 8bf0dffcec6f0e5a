"""The Section 5 applications of the controller.

Two surfaces live here:

**The app-session API (supported).**  :func:`make_app` builds any of
the seven applications from a frozen
:class:`~repro.service.appspec.AppSpec`; every product is an
:class:`~repro.apps.base.AppSession` implementing
:class:`repro.service.session.AppProtocol` — non-blocking ``submit`` ->
``Ticket``, streaming ``drain()`` interleaving outcome records with
:class:`~repro.service.envelopes.IterationRecord` boundary events, and
per-iteration controllers owned through
:class:`~repro.service.session.ControllerSession`, so every app runs
synchronously (flavour ``terminating``) or event-driven (flavour
``distributed`` under any schedule policy, delay model, and fault
plan):

* :class:`SizeEstimationApp` — every node holds a β-approximation of
  the current network size (Theorem 5.1);
* :class:`NameAssignmentApp` — unique ids in [1, 4n] at all times,
  interval mode (Theorem 5.2);
* :class:`SubtreeEstimatorApp` — β-approximate super-weights
  (Lemma 5.3);
* :class:`HeavyChildApp` — O(log n) light ancestors (Theorem 5.4);
* :class:`AncestryLabelsApp` — dynamic ancestry labels under
  controlled deletions (Corollary 5.7);
* :class:`RoutingLabelsApp` — exact interval tree routing under
  controlled deletions (Corollary 5.6);
* :class:`MajorityCommitApp` — majority commitment via size
  estimation (Section 1.3).

``AncestryLabeling`` and ``RoutingLabeling`` are the listener-layer
label structures the corresponding apps compose with the size
estimator.  The legacy hand-wired ``*Protocol`` constructors (and
``SubtreeEstimator`` / ``HeavyChildDecomposition``), deprecated since
1.4, were removed in 2.0 — ``make_app`` is the only construction path.
"""

from repro.apps.base import AppSession
from repro.apps.size_estimation import SizeEstimationApp
from repro.apps.name_assignment import NameAssignmentApp
from repro.apps.subtree_estimator import SubtreeEstimatorApp
from repro.apps.heavy_child import HeavyChildApp
from repro.apps.ancestry_labels import AncestryLabeling, AncestryLabelsApp
from repro.apps.majority_commit import MajorityCommitApp
from repro.apps.routing_labels import RoutingLabeling, RoutingLabelsApp
from repro.apps.registry import APP_REGISTRY, app_names, make_app

__all__ = [
    # The app-session surface.
    "AppSession",
    "make_app",
    "app_names",
    "APP_REGISTRY",
    "SizeEstimationApp",
    "NameAssignmentApp",
    "SubtreeEstimatorApp",
    "HeavyChildApp",
    "AncestryLabelsApp",
    "RoutingLabelsApp",
    "MajorityCommitApp",
    # Listener-layer label structures (composed by the apps).
    "AncestryLabeling",
    "RoutingLabeling",
]
