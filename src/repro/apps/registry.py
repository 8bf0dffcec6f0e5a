"""The public application registry: one factory for every Section 5 app.

``make_app(spec, tree=...)`` builds any of the seven applications
behind one call, exactly as :func:`repro.registry.make_controller`
does for the controller flavours.  Every product subclasses
:class:`repro.apps.base.AppSession` and implements
:class:`repro.service.session.AppProtocol` (the session surface plus
``iterations_run`` / ``introspect`` / ``app_view``).

Registered apps (the :data:`repro.service.appspec.APP_NAMES` catalogue):

=====================  ===============================================
``size_estimation``    β-approximate network size (Theorem 5.1)
``name_assignment``    unique ids in [1, 4n], interval mode
                       (Theorem 5.2)
``subtree_estimator``  β-approximate super-weights (Lemma 5.3)
``heavy_child``        O(log n) light ancestors (Theorem 5.4)
``ancestry_labels``    dynamic interval ancestry labels
                       (Corollary 5.7)
``routing_labels``     exact interval tree routing (Corollary 5.6)
``majority_commit``    majority commitment via size estimation
                       (Section 1.3)
=====================  ===============================================
"""

from typing import Dict, Optional, Tuple, Type

from repro.apps.ancestry_labels import AncestryLabelsApp
from repro.apps.base import AppSession
from repro.apps.heavy_child import HeavyChildApp
from repro.apps.majority_commit import MajorityCommitApp
from repro.apps.name_assignment import NameAssignmentApp
from repro.apps.routing_labels import RoutingLabelsApp
from repro.apps.size_estimation import SizeEstimationApp
from repro.apps.subtree_estimator import SubtreeEstimatorApp
from repro.service.appspec import APP_NAMES, AppSpec, resolve_app
from repro.tree.dynamic_tree import DynamicTree

APP_REGISTRY: Dict[str, Type[AppSession]] = {
    "size_estimation": SizeEstimationApp,
    "name_assignment": NameAssignmentApp,
    "subtree_estimator": SubtreeEstimatorApp,
    "heavy_child": HeavyChildApp,
    "ancestry_labels": AncestryLabelsApp,
    "routing_labels": RoutingLabelsApp,
    "majority_commit": MajorityCommitApp,
}

# The spec layer validates names without importing app classes; the two
# catalogues must describe the same set (also asserted in the tests).
assert tuple(APP_REGISTRY) == APP_NAMES, (
    "APP_REGISTRY out of sync with repro.service.appspec.APP_NAMES")


def app_names() -> Tuple[str, ...]:
    """The registered app names, in registry order."""
    return APP_NAMES


def make_app(spec: AppSpec, tree: Optional[DynamicTree] = None
             ) -> AppSession:
    """Build the application ``spec`` describes, on ``tree``.

    ``spec`` carries everything: the app name and its parameters, the
    per-iteration engine flavour, and the asynchrony knobs (schedule
    policy, delay model, fault plan).  ``tree=None`` builds a fresh
    single-root tree owned by the app.  Raises
    :class:`repro.errors.ConfigError` for unknown names (the spec
    already validated itself eagerly at construction).
    """
    return APP_REGISTRY[resolve_app(spec.app)](spec, tree=tree)
