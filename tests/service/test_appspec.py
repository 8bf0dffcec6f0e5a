"""AppSpec: eager validation, normalization, per-iteration configs."""

import json
from dataclasses import fields

import pytest

from repro.errors import ConfigError
from repro.service import (
    APP_ENGINE_FLAVORS,
    APP_NAMES,
    APP_PARAMS,
    AppSpec,
    SessionConfig,
    resolve_app,
)


def test_app_names_catalogue():
    assert set(APP_NAMES) == {
        "size_estimation", "name_assignment", "subtree_estimator",
        "heavy_child", "ancestry_labels", "routing_labels",
        "majority_commit"}
    assert set(APP_PARAMS) == set(APP_NAMES)
    assert APP_ENGINE_FLAVORS == ("terminating", "distributed")


def test_resolve_app_normalizes():
    assert resolve_app("  size-estimation ") == "size_estimation"
    with pytest.raises(ConfigError, match="registered"):
        resolve_app("estimator_3000")


def test_unknown_app_and_param_fail_eagerly():
    with pytest.raises(ConfigError, match="unknown app"):
        AppSpec("not_an_app")
    with pytest.raises(ConfigError, match="unknown parameter"):
        AppSpec("size_estimation", params={"betta": 2.0})
    # The error names the accepted parameters.
    with pytest.raises(ConfigError, match="beta"):
        AppSpec("size_estimation", params={"slack": 4})


def test_engine_flavour_is_restricted():
    AppSpec("size_estimation", flavor="terminating")
    AppSpec("size_estimation", flavor="distributed")
    with pytest.raises(ConfigError, match="terminating, distributed"):
        AppSpec("size_estimation", flavor="centralized")
    # Hyphen spelling normalizes like the controller registry's.
    assert AppSpec("size-estimation").app == "size_estimation"


def test_session_knob_validation():
    with pytest.raises(ConfigError, match="schedule policy"):
        AppSpec("size_estimation", schedule_policy="yolo")
    with pytest.raises(ConfigError, match="delay model"):
        AppSpec("size_estimation", delay_model="psychic")
    with pytest.raises(ConfigError, match="max_in_flight"):
        AppSpec("size_estimation", max_in_flight=0)
    with pytest.raises(ConfigError, match="stagger"):
        AppSpec.of("size_estimation", stagger=-1.0)


def test_of_refuses_unknown_knobs_naming_the_fields():
    """A misspelt or removed knob (``options``, ``stagger``) is a
    ConfigError naming the valid fields, not a raw TypeError."""
    valid = ("params, flavor, schedule_policy, delay_model, faults, "
             "seed, max_in_flight")
    for knob in ("options", "stagger", "bogus"):
        with pytest.raises(ConfigError, match=f"unknown AppSpec "
                           f"knob.*{knob}") as info:
            AppSpec.of("size_estimation", **{knob: {"bogus": 1}})
        assert str(info.value).endswith(f"(valid: {valid})")
    spec = AppSpec.of("size-estimation", flavor="distributed", seed=3)
    assert spec == AppSpec("size_estimation", flavor="distributed", seed=3)
    assert len(fields(AppSpec)) == 8


@pytest.mark.parametrize("field, value", [
    ("max_in_flight", 2.5),
    ("max_in_flight", True),
    ("seed", "x"),
    ("seed", 1.5),
    ("seed", True),
    ("stagger", float("nan")),
    ("stagger", float("inf")),
    ("stagger", "1"),
    ("stagger", False),
])
def test_app_knobs_take_the_types_they_document(field, value):
    """The app-level window and seed are ints, checked when the spec is
    built (a bad seed used to surface as a raw TypeError when the first
    iteration was wired); ``stagger`` is no knob at all."""
    with pytest.raises(ConfigError, match=field):
        AppSpec.of("size_estimation", **{field: value})


def test_faults_need_the_event_driven_engine():
    with pytest.raises(ConfigError, match="event-driven"):
        AppSpec("size_estimation", faults="stall=0.05")
    spec = AppSpec("size_estimation", flavor="distributed",
                   faults="stall=0.05")
    assert not spec.fault_plan.is_noop
    # Pauses/storms need an explicit horizon (the app cannot infer one).
    with pytest.raises(ConfigError, match="horizon"):
        AppSpec("size_estimation", flavor="distributed", faults="storms=3")


def test_config_for_stamps_the_iteration_contract():
    spec = AppSpec("name_assignment", flavor="distributed",
                   schedule_policy="random", delay_model="jitter",
                   seed=5)
    config = spec.config_for(40, 20, 160, iteration=3,
                             options={"track_intervals": True,
                                      "interval_base": 80})
    assert isinstance(config, SessionConfig)
    assert config.controller.flavor == "distributed"
    assert (config.controller.m, config.controller.w,
            config.controller.u) == (40, 20, 160)
    # The event-driven flavour always terminates instead of rejecting.
    assert config.controller.options["terminate_on_exhaustion"] is True
    assert config.controller.options["interval_base"] == 80
    assert config.schedule_policy == "random"
    assert config.delay_model == "jitter"
    # Iterations do not replay each other's schedules.
    assert config.seed == 5 + 2
    assert spec.config_for(40, 20, 160, iteration=1).seed == 5


def test_snapshot_is_json_serializable():
    spec = AppSpec("majority_commit", params={"total": 64})
    snapshot = spec.snapshot()
    json.dumps(snapshot)
    assert snapshot["app"] == "majority_commit"
    assert snapshot["params"] == {"total": 64}
    assert snapshot["flavor"] == "terminating"
