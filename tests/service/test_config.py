"""SessionConfig / ControllerSpec validation (all errors are ConfigError)."""

import json

import pytest

from repro.distributed.faults import FaultPlan
from repro.errors import ConfigError
from repro.registry import CONTROLLER_FLAVORS
from repro.service import ControllerSession, ControllerSpec, SessionConfig


def test_spec_normalizes_dashes():
    spec = ControllerSpec("distributed-iterated", m=10, w=1, u=64)
    assert spec.flavor == "distributed_iterated"


def test_spec_unknown_flavor_is_config_error():
    with pytest.raises(ConfigError, match="registered:"):
        ControllerSpec("bogus", m=10)


def test_spec_negative_budget_is_config_error():
    with pytest.raises(ConfigError, match=r"\(M, W\)"):
        ControllerSpec("centralized", m=-1)


@pytest.mark.parametrize("value", [2.5, True, "3"])
@pytest.mark.parametrize("field", ["m", "w", "u"])
def test_spec_takes_ints_only(field, value):
    """A float budget would serve and then report fractional unused
    permits, a bool passes every range check as 0 or 1, and a string
    used to escape as a raw TypeError."""
    knobs = dict(m=3, w=1, u=10)
    knobs[field] = value
    with pytest.raises(ConfigError, match=f"{field} must be an int"):
        SessionConfig.of("terminating", **knobs)


@pytest.mark.parametrize("flavor", CONTROLLER_FLAVORS)
@pytest.mark.parametrize("options", [{"bogus": 1}, {"fast_path": True}])
def test_unknown_options_are_config_errors(flavor, options):
    """An option the flavour's constructor does not take fails when the
    spec is built, naming the valid options (never a raw TypeError from
    deep inside the session)."""
    (name,) = options
    with pytest.raises(ConfigError,
                       match=f"unknown option.*'{name}'.*valid options: "
                             ".*counters") as caught:
        ControllerSession(SessionConfig(controller=ControllerSpec(
            flavor, m=10, w=2, u=20, options=options)))
    # Session-owned wiring is not offered as a valid option.
    assert "scheduler" not in str(caught.value)


def test_known_options_still_pass_through():
    session = ControllerSession(SessionConfig.of(
        "distributed", m=10, w=2, u=20,
        options={"apply_topology": False, "track_intervals": True}))
    assert session.controller.track_intervals
    assert not session.controller._apply_topology
    session.close()


@pytest.mark.parametrize("knobs, match", [
    (dict(schedule_policy="wrong"), "schedule policy"),
    (dict(delay_model="wrong"), "delay model"),
    (dict(max_in_flight=0), "max_in_flight"),
    (dict(stagger=-1.0), "stagger"),
    # Count knobs take ints and ``stagger`` a finite real >= 0: a
    # bool, a string or a non-finite value is named, never a raw
    # TypeError or a session running on it.
    (dict(max_in_flight=2.5), "max_in_flight"),
    (dict(max_in_flight=True), "max_in_flight"),
    (dict(max_in_flight="8"), "max_in_flight"),
    (dict(seed="x"), "seed"),
    (dict(seed=1.5), "seed"),
    (dict(seed=False), "seed"),
    (dict(stagger=float("nan")), "stagger"),
    (dict(stagger=float("inf")), "stagger"),
    (dict(stagger="1"), "stagger"),
    (dict(stagger=True), "stagger"),
    (dict(stagger=None), "stagger"),
])
def test_session_knob_validation(knobs, match):
    with pytest.raises(ConfigError, match=match):
        SessionConfig.of("centralized", m=10, w=1, u=64, **knobs)


def test_integral_and_real_knobs_still_pass():
    config = SessionConfig.of("terminating", m=3, w=1, u=10, seed=-4,
                              max_in_flight=1, stagger=0)
    assert (config.seed, config.max_in_flight, config.stagger) == (-4, 1, 0)
    assert SessionConfig.of("distributed", m=3, w=1, u=10,
                            stagger=0.25).stagger == 0.25


def test_fault_spec_string_is_parsed():
    config = SessionConfig.of("distributed", m=10, w=1, u=64,
                              faults="stall=0.25")
    assert isinstance(config.faults, FaultPlan)
    assert config.fault_plan.stall_prob == 0.25


def test_faults_on_synchronous_flavor_rejected():
    with pytest.raises(ConfigError, match="event-driven"):
        SessionConfig.of("iterated", m=10, w=1, u=64, faults="stall=0.5")


def test_fault_plan_without_horizon_rejected():
    with pytest.raises(ConfigError, match="horizon"):
        SessionConfig.of("distributed", m=10, w=1, u=64,
                         faults="pauses=2")
    # ... and accepted once the horizon is explicit.
    config = SessionConfig.of("distributed", m=10, w=1, u=64,
                              faults="pauses=2,horizon=100")
    assert config.fault_plan.horizon == 100


def test_with_window_copies():
    config = SessionConfig.of("centralized", m=10, w=1, u=64)
    widened = config.with_window(7)
    assert widened.max_in_flight == 7
    assert config.max_in_flight != 7
    assert widened.controller is config.controller


def test_snapshot_is_json_serializable():
    config = SessionConfig.of(
        "distributed", m=10, w=1, u=64, faults="stall=0.1", seed=3,
        options={"apply_topology": False})
    document = json.dumps(config.snapshot())
    assert "apply_topology" in document and '"seed": 3' in document
