"""Fleet config validation and the budget carve."""

from dataclasses import fields

import pytest

from repro.errors import ConfigError
from repro.fleet import FleetConfig, ShardSpec, carve
from repro.service.config import ControllerSpec

pytestmark = pytest.mark.timeout(120)


def template(u=1024, **options):
    return ControllerSpec("terminating", m=0, w=0, u=u, options=options)


def test_carve_conserves_and_is_proportional():
    shares = carve(100, [1, 1, 1, 1])
    assert shares == (25, 25, 25, 25)
    shares = carve(10, [3, 1])
    assert sum(shares) == 10 and shares[0] > shares[1]
    # Remainders distribute without minting or burning.
    for total in (0, 1, 7, 97):
        for weights in ([1], [1, 2, 3], [5, 1, 1, 1]):
            assert sum(carve(total, weights)) == total


def test_carve_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        carve(-1, [1])
    with pytest.raises(ConfigError):
        carve(10, [])
    with pytest.raises(ConfigError):
        carve(10, [1, 0])


def test_shard_spec_validates_eagerly():
    with pytest.raises(ConfigError, match="non-empty"):
        ShardSpec(name="", template=template())
    with pytest.raises(ConfigError, match="weight"):
        ShardSpec(name="a", template=template(), weight=0)
    with pytest.raises(ConfigError, match="cannot shard"):
        ShardSpec(name="a", template=ControllerSpec(
            "centralized", m=0, w=0, u=64))
    with pytest.raises(ConfigError, match="m=0"):
        ShardSpec(name="a", template=ControllerSpec(
            "terminating", m=10, w=0, u=64))
    with pytest.raises(ConfigError, match="node bound u"):
        ShardSpec(name="a", template=ControllerSpec(
            "terminating", m=0, w=0, u=0))


def test_fleet_config_validates_eagerly():
    specs = (ShardSpec("a", template()), ShardSpec("b", template()))
    with pytest.raises(ConfigError, match="at least one shard"):
        FleetConfig(shards=(), m_total=10, w_total=2)
    with pytest.raises(ConfigError, match="unique"):
        FleetConfig(shards=(specs[0], specs[0]), m_total=10, w_total=2)
    with pytest.raises(ConfigError, match="w_total"):
        FleetConfig(shards=specs, m_total=10, w_total=1)
    with pytest.raises(ConfigError, match="tranche must be >= 1, got 0"):
        FleetConfig(shards=specs, m_total=10, w_total=2, tranche=0)
    with pytest.raises(ConfigError, match="max_in_flight"):
        FleetConfig(shards=specs, m_total=10, w_total=2, max_in_flight=0)


def test_budget_and_waste_shares_conserve():
    config = FleetConfig.of(shards=4, m_total=103, w_total=11, u=256,
                            weights=[4, 2, 1, 1])
    assert sum(config.budget_shares()) == 103
    shares = config.waste_shares()
    assert sum(shares) == 11
    assert all(share >= 1 for share in shares)
    # Weight skew reaches the carve.
    assert config.budget_shares()[0] > config.budget_shares()[3]


def test_of_builds_uniform_fleet_and_snapshot_roundtrips():
    config = FleetConfig.of(shards=3, m_total=60, w_total=6, u=512,
                            tranche=5)
    assert [spec.name for spec in config.shards] == [
        "shard-0", "shard-1", "shard-2"]
    snap = config.snapshot()
    assert sorted(snap) == sorted(field.name for field in fields(config))
    assert snap["m_total"] == 60 and snap["tranche"] == 5
    assert len(snap["shards"]) == 3
    with pytest.raises(ConfigError):
        FleetConfig.of(shards=0, m_total=1, w_total=1, u=8)
    with pytest.raises(ConfigError):
        FleetConfig.of(shards=2, m_total=1, w_total=2, u=8, weights=[1])


@pytest.mark.parametrize("field,value", [
    ("m_total", 1.5), ("m_total", True),
    ("w_total", "4"), ("w_total", True),
    ("tranche", 2.5), ("tranche", None),
    ("max_in_flight", "8"), ("max_in_flight", True),
    ("seed", 1.5), ("seed", False),
    ("shards", "2"), ("shards", True),
])
def test_fleet_config_rejects_non_int_fields(field, value):
    """A float would run shards with fractional budgets, a string or
    None would raise a raw TypeError from a comparison, and a bool
    passes every range check as 0 or 1."""
    knobs = dict(shards=2, m_total=10, w_total=4, u=64)
    knobs[field] = value
    with pytest.raises(ConfigError, match=f"{field} must be an int"):
        FleetConfig.of(**knobs)
    if field != "shards":
        specs = (ShardSpec("a", template()), ShardSpec("b", template()))
        fixed = dict(m_total=10, w_total=4)
        fixed[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be an int"):
            FleetConfig(shards=specs, **fixed)


def test_fleet_config_rejects_malformed_shard_inputs():
    with pytest.raises(ConfigError, match="sequence of ShardSpec"):
        FleetConfig(shards=2, m_total=10, w_total=4)
    with pytest.raises(ConfigError, match="sequence of ShardSpec"):
        FleetConfig(shards=("a", "b"), m_total=10, w_total=4)
    with pytest.raises(ConfigError, match="weight must be an int"):
        FleetConfig.of(shards=2, m_total=10, w_total=4, u=64,
                       weights=[1.5, 1])
    with pytest.raises(ConfigError, match="weights must be a sequence"):
        FleetConfig.of(shards=2, m_total=10, w_total=4, u=64, weights=2)
    with pytest.raises(ConfigError, match="template u must be an int"):
        FleetConfig.of(shards=2, m_total=10, w_total=4, u="64")


def test_fleet_config_fields_are_the_budget_and_the_window():
    assert [field.name for field in fields(FleetConfig)] == [
        "shards", "m_total", "w_total", "tranche", "max_in_flight", "seed"]
    assert FleetConfig.of(shards=2, m_total=10, w_total=4,
                          u=64).tranche == 1


def test_fleet_config_of_rejects_unknown_knobs_naming_the_valid_ones():
    for knob in ("bogus", "placement", "rebalance", "ring_replicas"):
        with pytest.raises(ConfigError, match=f"unknown FleetConfig "
                           f"knob.*{knob}") as info:
            FleetConfig.of(shards=2, m_total=10, w_total=4, u=64,
                           **{knob: 1})
        assert str(info.value).endswith(
            "(valid: tranche, max_in_flight, seed)")
