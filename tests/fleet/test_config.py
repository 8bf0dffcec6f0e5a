"""Fleet config validation, the budget carve and the ring it seeds."""

from dataclasses import fields
from zlib import crc32

import pytest

from repro.errors import ConfigError
from repro.fleet import FleetConfig, FleetRouter, carve

pytestmark = pytest.mark.timeout(120)

FIELDS = ["shards", "m_total", "w_total", "u", "weights", "tranche",
          "max_in_flight", "seed"]


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


def test_fleet_config_validates_eagerly():
    with pytest.raises(ConfigError, match="shards must be >= 1, got 0"):
        FleetConfig(shards=0, m_total=10, w_total=2, u=64)
    with pytest.raises(ConfigError, match="m_total must be >= 0"):
        FleetConfig(shards=2, m_total=-1, w_total=2, u=64)
    with pytest.raises(ConfigError, match="w_total"):
        FleetConfig(shards=2, m_total=10, w_total=1, u=64)
    with pytest.raises(ConfigError, match="tranche must be >= 1, got 0"):
        FleetConfig(shards=2, m_total=10, w_total=2, u=64, tranche=0)
    with pytest.raises(ConfigError, match="max_in_flight"):
        FleetConfig(shards=2, m_total=10, w_total=2, u=64, max_in_flight=0)


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
    assert config.weights == (1, 1, 1)
    assert config == FleetConfig(shards=3, m_total=60, w_total=6, u=512,
                                 weights=[1, 1, 1], tranche=5)
    with FleetRouter(config) as fleet:
        assert [shard.name for shard in fleet.shards] == [
            "shard-0", "shard-1", "shard-2"]
        assert all(shard.u == 512 for shard in fleet.shards)
    snap = config.snapshot()
    assert list(snap) == FIELDS
    assert snap["m_total"] == 60 and snap["tranche"] == 5
    assert list(snap["weights"]) == [1, 1, 1]


@pytest.mark.parametrize("field,value", [
    ("m_total", 1.5), ("m_total", True),
    ("w_total", "4"), ("w_total", True),
    ("tranche", 2.5), ("tranche", None),
    ("max_in_flight", "8"), ("max_in_flight", True),
    ("seed", 1.5), ("seed", False),
    ("shards", "2"), ("shards", True),
    ("u", "64"), ("u", True),
])
def test_fleet_config_rejects_non_int_fields(field, value):
    """A float would run shards with fractional budgets, a string or
    None would raise a raw TypeError from a comparison, and a bool
    passes every range check as 0 or 1."""
    knobs = dict(shards=2, m_total=10, w_total=4, u=64)
    knobs[field] = value
    with pytest.raises(ConfigError, match=f"{field} must be an int"):
        FleetConfig.of(**knobs)
    with pytest.raises(ConfigError, match=f"{field} must be an int"):
        FleetConfig(**knobs)


def test_fleet_config_rejects_malformed_shard_inputs():
    base = dict(shards=2, m_total=10, w_total=4, u=64)
    with pytest.raises(ConfigError, match="weight must be an int"):
        FleetConfig.of(**base, weights=[1.5, 1])
    with pytest.raises(ConfigError, match="weight must be an int"):
        FleetConfig.of(**base, weights=[True, 1])
    with pytest.raises(ConfigError, match="weight must be >= 1, got 0"):
        FleetConfig.of(**base, weights=[1, 0])
    with pytest.raises(ConfigError, match="weights must be a sequence"):
        FleetConfig.of(**base, weights=2)
    with pytest.raises(ConfigError, match="got 1 weights for 2 shards"):
        FleetConfig.of(**base, weights=[1])
    with pytest.raises(ConfigError, match="got 3 weights for 2 shards"):
        FleetConfig.of(**base, weights=(1, 1, 1))
    with pytest.raises(ConfigError, match="u must be >= 1, got 0"):
        FleetConfig.of(**dict(base, u=0))
    with pytest.raises(ConfigError, match="shards must be >= 1"):
        FleetConfig.of(**dict(base, shards=0))


def test_fleet_config_fields_are_the_budget_and_the_window():
    assert [field.name for field in fields(FleetConfig)] == FIELDS
    config = FleetConfig.of(shards=2, m_total=10, w_total=4, u=64)
    assert (config.weights, config.tranche, config.max_in_flight,
            config.seed) == ((1, 1), 1, 1024, 0)


def test_fleet_config_of_rejects_unknown_knobs_naming_the_valid_ones():
    for knob in ("bogus", "placement", "rebalance", "ring_replicas",
                 "flavor", "options"):
        with pytest.raises(ConfigError, match=f"unknown FleetConfig "
                           f"knob.*{knob}") as info:
            FleetConfig.of(shards=2, m_total=10, w_total=4, u=64,
                           **{knob: 1})
        assert str(info.value).endswith(f"(valid: {', '.join(FIELDS)})")


@pytest.mark.parametrize("shards,weights,digest", [
    (4, (), 4237919521),
    (2, (3, 1), 1375443494),
    (3, (1, 2, 5), 2865526825),
])
def test_ring_placement_is_pinned(shards, weights, digest):
    """The ring is a function of the shard names and weights only: the
    shard each of 256 clients places on hashes to a fixed digest."""
    config = FleetConfig.of(shards=shards, m_total=100,
                            w_total=2 * shards, u=64, weights=weights)
    with FleetRouter(config) as fleet:
        placed = bytes(fleet.ring_place(f"client-{index}")
                       for index in range(256))
    assert crc32(placed) == digest
