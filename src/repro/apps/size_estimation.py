"""The size-estimation protocol (Theorem 5.1).

Every node maintains ``n_tilde`` with ``n/beta <= n_tilde <= beta*n``
at all times.  The protocol runs in iterations:

* at the start of iteration i the exact size ``N_i`` is broadcast
  (all nodes adopt ``n_tilde = N_i``).  A convergecast counts ``N_1``;
  every later ``N_i`` rides the convergecast that confirmed the
  previous iteration's termination (Observation 2.1), which completes
  only once every granted event has occurred;
* with ``alpha = 1 - 1/beta``, a terminating
  ``(alpha*N_i, alpha*N_i/2)``-controller guards all topological
  changes during the iteration;
* the iteration ends when the controller terminates, which caps the
  number of changes at ``alpha*N_i`` — hence
  ``N_i/beta <= n <= (2 - 1/beta) N_i <= beta*N_i`` throughout.

Because the controller grants at least ``alpha*N_i/2 = Omega(N_i)``
permits before terminating, each iteration's ``O(N_i log^2 N_i)``
messages amortize to ``O(log^2 n)`` per change — the Theorem 5.1 bound.

The protocol exposes ``submit`` for topological requests; requests that
arrive while an iteration rolls over are transparently resubmitted to
the next iteration (the queue of Observation 2.1).

The app is built via ``repro.apps.make_app`` (the legacy hand-wired
``SizeEstimationProtocol`` constructor was removed in 2.0).
"""

from dataclasses import replace
from typing import Any, ClassVar, Dict, Optional, Tuple

from repro.apps.base import AppSession
from repro.errors import ControllerError
from repro.metrics import waves
from repro.protocol import AppView
from repro.service.appspec import AppSpec
from repro.tree.dynamic_tree import DynamicTree
from repro.tree.node import TreeNode


class SizeEstimationApp(AppSession):
    """β-approximate size estimation behind the app-session API.

    Size estimation (Theorem
    5.1): the same iteration discipline — count and broadcast ``N_i``,
    guard the iteration with an ``(alpha*N_i, alpha*N_i/2)``-terminating
    controller, roll on exhaustion — but the per-iteration controller
    lives inside a :class:`~repro.service.session.ControllerSession`
    built from the app's :class:`~repro.service.appspec.AppSpec`, so
    the protocol runs synchronously or event-driven (schedule policies,
    delay models, fault plans) unchanged.  Parameters: ``beta`` (> 1,
    default 2.0).
    """

    name: ClassVar[str] = "size_estimation"
    _default_beta: ClassVar[float] = 2.0

    def __init__(self, spec: AppSpec,
                 tree: Optional[DynamicTree] = None) -> None:
        beta = float(spec.param("beta", self._default_beta))
        if beta <= 1.0:
            raise ControllerError(f"beta must exceed 1, got {beta}")
        self.beta = beta
        self.alpha = 1.0 - 1.0 / beta
        #: Every node's current estimate ``n_tilde`` (uniform: the
        #: iteration-start broadcast delivered it everywhere).
        self.estimate = 0
        super().__init__(spec, tree)

    # ------------------------------------------------------------------
    # Iteration hooks.
    # ------------------------------------------------------------------
    def _iteration_contract(self, n_i: int
                            ) -> Tuple[int, int, int, Dict[str, Any]]:
        m_i = max(int(self.alpha * n_i), 1)
        w_i = max(m_i // 2, 1)
        u_i = max(2 * n_i, 2)
        return m_i, w_i, u_i, {}

    def _on_iteration_start(self, n_i: int) -> None:
        super()._on_iteration_start(n_i)
        self.estimate = n_i
        # Broadcast N_i.  Only N_1 needs a convergecast of its own.
        self.counters.reset_moves += waves.broadcast(n_i)
        if self.iterations_run == 1:
            self.counters.reset_moves += waves.convergecast(n_i)

    # ------------------------------------------------------------------
    # Public queries (the Theorem 5.1 guarantee).
    # ------------------------------------------------------------------
    def estimate_at(self, node: TreeNode) -> int:
        """The estimate ``n_tilde(v)`` held at ``node`` (uniform; the
        per-node signature documents the distributed reading)."""
        return self.estimate

    def check_approximation(self) -> float:
        """Current ratio max(n_tilde/n, n/n_tilde); must stay <= beta."""
        n = self.tree.size
        if n == 0 or self.estimate == 0:
            raise ControllerError("degenerate size")
        return max(self.estimate / n, n / self.estimate)

    def app_view(self) -> AppView:
        return replace(super().app_view(),
                       beta=self.beta, estimate=self.estimate)
