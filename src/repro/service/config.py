"""Session configuration: frozen, validated, serializable.

Before the session layer, every harness hand-wired its engine — a
``DynamicTree``, :func:`repro.registry.make_controller`, and (for the
distributed flavour) a ``Scheduler`` with a schedule policy, a delay
model, and possibly a ``FaultInjector`` — threading half a dozen
keyword arguments through each call site.  :class:`SessionConfig`
replaces that threading with one frozen value object:

* :class:`ControllerSpec` names the controller — flavour plus the
  ``(M, W, U)`` contract plus any flavour-specific constructor options;
* :class:`SessionConfig` adds the *session* knobs — schedule policy,
  delay model, fault plan, admission window, submit stagger, kernel
  tracing — and validates all of them eagerly (every mistake raises
  :class:`repro.errors.ConfigError` naming the valid choices, before
  any engine state exists).

Both are frozen dataclasses: a config can be shared between cells of a
bench grid, logged into a JSON report via :meth:`SessionConfig.snapshot`,
and never mutated behind a running session's back.
"""

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.distributed.faults import FaultPlan, parse_fault_spec
from repro.errors import ConfigError
from repro.registry import CONTROLLER_OPTIONS, resolve_flavor
from repro.sim.delays import DELAY_MODELS
from repro.sim.scheduler import SCHEDULE_POLICIES

#: Flavours whose engine settles requests event-by-event on a scheduler
#: (the session pumps the scheduler instead of calling ``handle``).
EVENT_DRIVEN_FLAVORS: Tuple[str, ...] = ("distributed",)

#: Flavours that accept ``scheduler=`` / ``delays=`` constructor wiring.
SCHEDULED_FLAVORS: Tuple[str, ...] = (
    "distributed", "distributed_iterated", "distributed_adaptive")

#: Flavours whose constructor accepts a ``kernel_trace=`` log.
TRACED_FLAVORS: Tuple[str, ...] = ("centralized", "distributed")

#: Constructor keywords the session wires itself; passing them through
#: ``ControllerSpec.options`` would silently fight the session's wiring.
SESSION_OWNED_OPTIONS: Tuple[str, ...] = (
    "scheduler", "delays", "faults", "kernel_trace")


def _require_int(name: str, value: Any) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an int (a bool is
    not: ``True`` would pass every range check as 1)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an int, got {value!r}")


def _require_stagger(value: Any) -> None:
    """Raise :class:`ConfigError` unless ``stagger`` is a finite real
    >= 0 (a bool is not a spacing)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < 0):
        raise ConfigError(
            f"stagger must be a finite number >= 0, got {value!r}")


@dataclass(frozen=True)
class ControllerSpec:
    """Which controller to build: flavour + (M, W, U) + extra options.

    ``options`` passes flavour-specific constructor keywords through
    (``track_intervals=``, ``apply_topology=``, ``variant=``, ...); the
    session layer adds its own wiring (scheduler, delays, faults) on
    top for the flavours that take it.  Option names are checked
    against the flavour's constructor here, so a typo raises
    :class:`ConfigError` naming the valid options; ``m``, ``w`` and
    ``u`` must be ints (bools excluded).
    """

    flavor: str
    m: int
    w: int = 0
    u: int = 0
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "flavor", resolve_flavor(self.flavor))
        for name in ("m", "w", "u"):
            _require_int(name, getattr(self, name))
        if self.m < 0 or self.w < 0:
            raise ConfigError(
                f"invalid (M, W) = ({self.m}, {self.w}); both must be >= 0")
        accepted = CONTROLLER_OPTIONS[self.flavor]
        for key in self.options:
            if key in SESSION_OWNED_OPTIONS:
                raise ConfigError(
                    f"option {key!r} is session-owned wiring; use the "
                    "SessionConfig knobs instead of ControllerSpec.options")
            if key not in accepted:
                valid = [name for name in accepted
                         if name not in SESSION_OWNED_OPTIONS]
                raise ConfigError(
                    f"unknown option {key!r} for flavor {self.flavor!r}; "
                    f"valid options: {', '.join(valid)}")

    @property
    def event_driven(self) -> bool:
        """True when the engine settles via scheduler events."""
        return self.flavor in EVENT_DRIVEN_FLAVORS

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable description (options stringified)."""
        return {
            "flavor": self.flavor, "m": self.m, "w": self.w, "u": self.u,
            "options": {key: repr(value)
                        for key, value in sorted(self.options.items())},
        }


@dataclass(frozen=True)
class SessionConfig:
    """Everything a :class:`~repro.service.session.ControllerSession`
    needs to wire its engine, in one validated frozen value.

    Parameters
    ----------
    controller:
        The :class:`ControllerSpec` to build.
    schedule_policy / delay_model / faults:
        Asynchrony knobs for the event-driven engine (ignored by the
        synchronous flavours, which have no scheduler to police):
        a :data:`repro.sim.SCHEDULE_POLICIES` name, a :mod:`repro.sim.delays`
        name, and an optional fault plan (a :class:`FaultPlan` or a
        ``"stall=0.05,storms=3"`` spec string).  A fault plan that
        needs a horizon must carry one explicitly — the session cannot
        guess the run's span.
    seed:
        Seeds the schedule policy and the delay model.
    max_in_flight:
        The admission window: how many requests may be in flight
        (submitted, not yet settled) before :meth:`ControllerSession.submit`
        answers ``BACKPRESSURE`` instead of reaching the controller.
    stagger:
        Default inter-request arrival spacing (simulated time units)
        for :meth:`ControllerSession.submit_many` on the event-driven
        engine.
    trace:
        Attach a :class:`repro.core.kernel.KernelTrace` to the engine
        (flavours in :data:`TRACED_FLAVORS`); every settled
        :class:`~repro.service.envelopes.OutcomeRecord` then carries a
        handle into the transition log.
    """

    controller: ControllerSpec
    schedule_policy: str = "fifo"
    delay_model: str = "uniform"
    faults: Optional[Union[FaultPlan, str]] = None
    seed: int = 0
    max_in_flight: int = 1024
    stagger: float = 0.0
    trace: bool = False

    def __post_init__(self) -> None:
        if self.schedule_policy not in SCHEDULE_POLICIES:
            raise ConfigError(
                f"unknown schedule policy {self.schedule_policy!r}; "
                f"known: {', '.join(SCHEDULE_POLICIES)}")
        if self.delay_model not in DELAY_MODELS:
            raise ConfigError(
                f"unknown delay model {self.delay_model!r}; "
                f"known: {', '.join(DELAY_MODELS)}")
        _require_int("seed", self.seed)
        _require_int("max_in_flight", self.max_in_flight)
        if self.max_in_flight < 1:
            raise ConfigError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}")
        _require_stagger(self.stagger)
        if isinstance(self.faults, str):
            object.__setattr__(self, "faults", parse_fault_spec(self.faults))
        plan = self.fault_plan
        if not plan.is_noop and not self.controller.event_driven:
            raise ConfigError(
                "fault injection needs the event-driven engine "
                f"(flavor 'distributed'), not {self.controller.flavor!r}")
        if plan.needs_horizon and plan.horizon <= 0:
            raise ConfigError(
                "this fault plan schedules pauses/storms but has no "
                "horizon; set one explicitly (the session cannot infer "
                "the run's span)")

    @classmethod
    def of(cls, flavor: str, *, m: int, w: int = 0, u: int = 0,
           options: Optional[Mapping[str, Any]] = None,
           **knobs: Any) -> "SessionConfig":
        """Shorthand: ``SessionConfig.of("iterated", m=100, w=10, u=256)``.

        ``options`` goes to the :class:`ControllerSpec`; every other
        keyword is a :class:`SessionConfig` field.
        """
        spec = ControllerSpec(flavor=flavor, m=m, w=w, u=u,
                              options=dict(options or {}))
        return cls(controller=spec, **knobs)

    @property
    def fault_plan(self) -> FaultPlan:
        """The normalized fault plan (spec strings already parsed)."""
        if self.faults is None:
            return FaultPlan()
        assert isinstance(self.faults, FaultPlan)
        return self.faults

    def with_window(self, max_in_flight: int) -> "SessionConfig":
        """A copy with a different admission window."""
        return replace(self, max_in_flight=max_in_flight)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable description of the full configuration."""
        return {
            "controller": self.controller.snapshot(),
            "schedule_policy": self.schedule_policy,
            "delay_model": self.delay_model,
            "faults": self.fault_plan.snapshot(),
            "seed": self.seed,
            "max_in_flight": self.max_in_flight,
            "stagger": self.stagger,
            "trace": self.trace,
        }
