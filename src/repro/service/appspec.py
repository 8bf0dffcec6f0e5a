"""Application specs: the declarative description of a whole app stack.

The Section 5 applications each run a *sequence* of per-iteration
(M,W)-controllers (Observation 2.1's resubmission discipline), with the
iteration contract (M_i, W_i, U_i) derived from the tree size at each
iteration start.  An :class:`AppSpec` therefore cannot carry one fixed
:class:`~repro.service.config.ControllerSpec`; instead it composes

* the **application**: a registered app name plus its app-level
  parameters (``beta``, ``slack``, ``total``, ...), and
* the **engine template**: everything a per-iteration
  :class:`~repro.service.config.SessionConfig` needs *except* the
  (M, W, U) contract — engine flavour, schedule policy, delay model,
  fault plan, seed, admission window, stagger, and extra controller
  options.

:meth:`AppSpec.config_for` stamps one iteration's contract into a full
``SessionConfig``; :func:`repro.apps.make_app` builds the app itself.
The spec is frozen and eagerly validated — unknown app names, unknown
app parameters, unknown policies/delay models, and fault plans on a
synchronous flavour all raise :class:`repro.errors.ConfigError` before
any engine state exists, mirroring ``SessionConfig``'s discipline.
"""

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.distributed.faults import FaultPlan, parse_fault_spec
from repro.errors import ConfigError
from repro.service.config import ControllerSpec, SessionConfig
from repro.sim.delays import DELAY_MODELS
from repro.sim.scheduler import SCHEDULE_POLICIES

#: The registered Section 5 applications, by spec name.  The class
#: registry lives in :mod:`repro.apps.registry` (which asserts it stays
#: in sync with this tuple); the names are duplicated here so AppSpec
#: can validate eagerly without importing the application classes.
APP_NAMES: Tuple[str, ...] = (
    "size_estimation",
    "name_assignment",
    "subtree_estimator",
    "heavy_child",
    "ancestry_labels",
    "routing_labels",
    "majority_commit",
)

#: Engine flavours an app's per-iteration controller may run on:
#: ``terminating`` (the synchronous Observation 2.1 wrapper) or
#: ``distributed`` (the event-driven agent engine, automatically run
#: with ``terminate_on_exhaustion=True`` so exhaustion surfaces as
#: PENDING instead of a reject wave).
APP_ENGINE_FLAVORS: Tuple[str, ...] = ("terminating", "distributed")

#: App-level parameters each application accepts (everything else is a
#: spelling mistake and fails eagerly).
APP_PARAMS: Dict[str, Tuple[str, ...]] = {
    "size_estimation": ("beta",),
    "name_assignment": (),
    "subtree_estimator": ("beta",),
    "heavy_child": (),
    "ancestry_labels": ("slack",),
    "routing_labels": (),
    "majority_commit": ("total", "beta"),
}


def resolve_app(name: str) -> str:
    """Normalize an app name (strip, hyphens to underscores) and check
    it against :data:`APP_NAMES`.  Raises :class:`ConfigError` naming
    the registry for anything unknown."""
    key = name.strip().replace("-", "_")
    if key not in APP_NAMES:
        raise ConfigError(
            f"unknown app {name!r}; registered: {', '.join(APP_NAMES)}")
    return key


@dataclass(frozen=True)
class AppSpec:
    """Which application to run, on which engine, under what asynchrony.

    Parameters
    ----------
    app:
        A registered app name (see :data:`APP_NAMES`).
    params:
        App-level parameters (``beta=``, ``slack=``, ``total=``, ...);
        validated against :data:`APP_PARAMS`.
    flavor:
        Per-iteration engine flavour, from :data:`APP_ENGINE_FLAVORS`.
    schedule_policy / delay_model / faults / seed / stagger:
        Asynchrony knobs for the event-driven engine, with
        :class:`~repro.service.config.SessionConfig` semantics (the
        per-iteration seed is ``seed + iterations_run`` so iterations
        do not replay each other's schedules).  A fault plan requires
        the ``distributed`` flavour, and one that schedules
        pauses/storms must carry an explicit horizon.
    max_in_flight:
        The *app-level* admission window: how many requests may be in
        flight across :meth:`~repro.apps.base.AppSession.submit` before
        tickets settle as ``BACKPRESSURE``.  The per-iteration engine
        session runs with its window wide open — saturation is answered
        once, at the app boundary, and never interacts with rollover.
    options:
        Extra controller constructor options forwarded to every
        iteration's :class:`~repro.service.config.ControllerSpec`
        (``permit_flow_observer=``, ...).
    """

    app: str
    params: Mapping[str, Any] = field(default_factory=dict)
    flavor: str = "terminating"
    schedule_policy: str = "fifo"
    delay_model: str = "uniform"
    faults: Optional[Union[FaultPlan, str]] = None
    seed: int = 0
    max_in_flight: int = 1024
    stagger: float = 0.0
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "app", resolve_app(self.app))
        flavor = self.flavor.strip().replace("-", "_")
        if flavor not in APP_ENGINE_FLAVORS:
            raise ConfigError(
                f"apps run on {', '.join(APP_ENGINE_FLAVORS)} engines, "
                f"not {self.flavor!r} (the Observation 2.1 iteration "
                "discipline needs terminating semantics)")
        object.__setattr__(self, "flavor", flavor)
        allowed = APP_PARAMS[self.app]
        unknown = sorted(set(self.params) - set(allowed))
        if unknown:
            raise ConfigError(
                f"unknown parameter(s) {', '.join(unknown)} for app "
                f"{self.app!r}; accepted: {', '.join(allowed) or '(none)'}")
        if self.schedule_policy not in SCHEDULE_POLICIES:
            raise ConfigError(
                f"unknown schedule policy {self.schedule_policy!r}; "
                f"known: {', '.join(SCHEDULE_POLICIES)}")
        if self.delay_model not in DELAY_MODELS:
            raise ConfigError(
                f"unknown delay model {self.delay_model!r}; "
                f"known: {', '.join(DELAY_MODELS)}")
        if self.max_in_flight < 1:
            raise ConfigError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}")
        if self.stagger < 0:
            raise ConfigError(f"stagger must be >= 0, got {self.stagger}")
        faults = self.faults
        if isinstance(faults, str):
            faults = parse_fault_spec(faults)
            object.__setattr__(self, "faults", faults)
        if faults is not None and not faults.is_noop:
            if self.flavor != "distributed":
                raise ConfigError(
                    "fault injection needs the event-driven engine "
                    f"(flavor 'distributed'), not {self.flavor!r}")
            if faults.needs_horizon and faults.horizon <= 0:
                raise ConfigError(
                    "this fault plan schedules pauses/storms but has no "
                    "horizon; set one explicitly (the app cannot infer "
                    "an iteration's span)")

    @property
    def event_driven(self) -> bool:
        """True when iterations run on the event-driven engine."""
        return self.flavor == "distributed"

    @property
    def fault_plan(self) -> FaultPlan:
        """The normalized fault plan (spec strings already parsed)."""
        if self.faults is None:
            return FaultPlan()
        assert isinstance(self.faults, FaultPlan)
        return self.faults

    def param(self, name: str, default: Any = None) -> Any:
        """One app-level parameter, with a default."""
        return self.params.get(name, default)

    def with_params(self, **params: Any) -> "AppSpec":
        """A copy with updated app-level parameters."""
        return replace(self, params={**dict(self.params), **params})

    def config_for(self, m: int, w: int, u: int, iteration: int = 1,
                   options: Optional[Mapping[str, Any]] = None
                   ) -> SessionConfig:
        """One iteration's full :class:`SessionConfig`.

        ``(m, w, u)`` is the iteration contract the app derived from
        the tree size; ``options`` are the app's per-iteration
        controller wirings (shared counters, interval mode, the permit
        flow observer) merged over the spec's own ``options``.  The
        event-driven flavour always runs ``terminate_on_exhaustion``:
        apps consume PENDING, never a reject wave.
        """
        merged: Dict[str, Any] = dict(self.options)
        if options:
            merged.update(options)
        if self.event_driven:
            merged.setdefault("terminate_on_exhaustion", True)
        return SessionConfig(
            controller=ControllerSpec(flavor=self.flavor, m=m, w=w, u=u,
                                      options=merged),
            schedule_policy=self.schedule_policy,
            delay_model=self.delay_model,
            faults=self.faults,
            seed=self.seed + (iteration - 1),
            max_in_flight=1 << 20,
            stagger=self.stagger,
        )

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable description of the full specification."""
        plan = self.fault_plan
        return {
            "app": self.app,
            "params": {key: value
                       for key, value in sorted(dict(self.params).items())},
            "flavor": self.flavor,
            "schedule_policy": self.schedule_policy,
            "delay_model": self.delay_model,
            "faults": plan.snapshot(),
            "seed": self.seed,
            "max_in_flight": self.max_in_flight,
            "stagger": self.stagger,
            "options": {key: repr(value)
                        for key, value in sorted(self.options.items())},
        }
