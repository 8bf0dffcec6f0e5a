"""Tests for the message-delay models."""

import pytest

from repro.errors import SimulationError
from repro.sim import HeavyTailDelay, UniformDelay, UnitDelay
from repro.sim.delays import BurstStallDelay, PerEdgeJitterDelay


def test_unit_delay_is_constant():
    model = UnitDelay()
    assert all(model.sample() == 1.0 for _ in range(10))


def test_uniform_delay_within_bounds():
    model = UniformDelay(seed=3, low=0.25, high=2.0)
    samples = [model.sample() for _ in range(500)]
    assert all(0.25 <= s <= 2.0 for s in samples)
    # Not degenerate.
    assert len(set(samples)) > 100


def test_uniform_delay_deterministic_per_seed():
    a = [UniformDelay(seed=7).sample() for _ in range(20)]
    b = [UniformDelay(seed=7).sample() for _ in range(20)]
    c = [UniformDelay(seed=8).sample() for _ in range(20)]
    assert a == b
    assert a != c


def test_uniform_delay_validates_bounds():
    with pytest.raises(SimulationError):
        UniformDelay(low=0.0, high=1.0)
    with pytest.raises(SimulationError):
        UniformDelay(low=2.0, high=1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("model,field,value", [
    (UniformDelay, "low", NAN),
    (UniformDelay, "high", INF),
    (HeavyTailDelay, "shape", NAN),
    (HeavyTailDelay, "cap", INF),
    (PerEdgeJitterDelay, "slow_factor", NAN),
    (PerEdgeJitterDelay, "jitter", INF),
    (BurstStallDelay, "factor", NAN),
])
def test_non_finite_parameters_are_rejected(model, field, value):
    """Section 2.1 requires finite delays; NaN passes every ``<`` check
    the constructors make, so each is rejected by name."""
    with pytest.raises(SimulationError, match=field):
        model(**{field: value})


def test_heavy_tail_is_positive_and_capped():
    model = HeavyTailDelay(seed=1, shape=1.2, cap=10.0)
    samples = [model.sample() for _ in range(1000)]
    assert all(0 < s <= 10.0 for s in samples)
    # The tail actually produces large values sometimes.
    assert max(samples) > 3.0


def test_heavy_tail_validates_parameters():
    with pytest.raises(SimulationError):
        HeavyTailDelay(shape=0)
    with pytest.raises(SimulationError):
        HeavyTailDelay(cap=-1)


def test_split_produces_independent_deterministic_models():
    base = UniformDelay(seed=5)
    a1 = base.split(1)
    a2 = UniformDelay(seed=5).split(1)
    b = base.split(2)
    series_a1 = [a1.sample() for _ in range(10)]
    series_a2 = [a2.sample() for _ in range(10)]
    series_b = [b.sample() for _ in range(10)]
    assert series_a1 == series_a2
    assert series_a1 != series_b


def test_unit_split_is_unit():
    assert UnitDelay().split(42).sample() == 1.0


def test_heavy_tail_split_deterministic():
    a = HeavyTailDelay(seed=9).split(3)
    b = HeavyTailDelay(seed=9).split(3)
    assert [a.sample() for _ in range(5)] == [b.sample() for _ in range(5)]
