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
])
def test_session_knob_validation(knobs, match):
    with pytest.raises(ConfigError, match=match):
        SessionConfig.of("centralized", m=10, w=1, u=64, **knobs)


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
