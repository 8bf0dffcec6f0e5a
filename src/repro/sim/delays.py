"""Message-delay models for the asynchronous network simulation.

Section 2.1 of the paper assumes messages incur an *arbitrary but finite*
delay.  The correctness proofs quantify over all such delay assignments,
so exercising several delay distributions (including a heavy-tailed one
that creates long reorderings) gives the property tests real adversarial
power.  All models draw from a private ``random.Random`` so that a seed
fully determines the execution.

``sample`` takes an optional ``key`` (the distributed engine passes the
id of the node a hop departs from): the base distributions ignore it,
while :class:`PerEdgeJitterDelay` uses it to make *specific links*
persistently slow — the "one bad cable" regime — and
:class:`BurstStallDelay` models network-wide stall windows where every
in-flight message slows down at once.  Both wrap any base model, so the
adversarial regimes compose with the base distributions.

Each model class states whether its ``sample`` reads the key
(:attr:`DelayModel.reads_key`).  Computing the key costs the hop a few
attribute reads, so the engine computes it only for models that read
it; a model that ignores the key draws the same sequence either way.
"""

import random
import zlib
from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.errors import SimulationError


class DelayModel:
    """Base class: maps each message send to a positive finite delay."""

    #: Whether :meth:`sample` reads its ``key``: a fact of the model,
    #: fixed when it is built, not a setting.  Defaults to yes, and a
    #: subclass that overrides ``sample`` without restating it is
    #: assumed to read the key, so an unknown model always gets one.
    #: A wrapper (:class:`BurstStallDelay`) copies its base's answer.
    reads_key: bool = True

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "sample" in vars(cls) and "reads_key" not in vars(cls):
            cls.reads_key = True

    def sample(self, key: Optional[Hashable] = None) -> float:
        raise NotImplementedError

    def split(self, salt: int) -> "DelayModel":
        """Derive an independent model (used per-channel if desired)."""
        raise NotImplementedError


class UnitDelay(DelayModel):
    """Every message takes exactly one time unit (synchronous-like).

    Useful for debugging: with unit delays the execution is close to a
    round-based schedule.
    """

    reads_key = False

    def sample(self, key: Optional[Hashable] = None) -> float:
        return 1.0

    def split(self, salt: int) -> "UnitDelay":
        return UnitDelay()


class UniformDelay(DelayModel):
    """Delays drawn uniformly from ``[low, high]``."""

    reads_key = False

    def __init__(self, seed: int = 0, low: float = 0.5,
                 high: float = 1.5) -> None:
        if low <= 0 or high < low:
            raise SimulationError(f"invalid delay bounds [{low}, {high}]")
        self._rng = random.Random(seed)
        self._low = low
        self._high = high
        self._seed = seed
        # sample() below is random.Random.uniform inlined: the same
        # ``a + (b - a) * random()`` expression on the same generator,
        # so the draws are bit-identical — minus one method call per
        # hop on the simulator's hot path.
        self._width = high - low
        self._random = self._rng.random

    def sample(self, key: Optional[Hashable] = None) -> float:
        return self._low + self._width * self._random()

    def hot_sampler(self) -> Tuple[float, float, Callable[[], float]]:
        """``(low, width, random)`` for call-free inline sampling.

        Hot loops (the distributed agent hop) compute
        ``low + width * random()`` themselves, which is exactly
        :meth:`sample`'s expression on the same generator — the draw
        sequence is bit-identical, minus one method call per message.
        """
        return self._low, self._width, self._random

    def split(self, salt: int) -> "UniformDelay":
        return UniformDelay(self._seed ^ (salt * 0x9E3779B9), self._low, self._high)


class HeavyTailDelay(DelayModel):
    """Pareto-ish delays: mostly fast, occasionally very slow messages.

    This produces deep reorderings between concurrent agents, which is the
    adversarial regime the locking discipline of Section 4.3 must survive.
    ``cap`` keeps delays finite as the model requires.
    """

    reads_key = False

    def __init__(self, seed: int = 0, shape: float = 1.5,
                 cap: float = 50.0) -> None:
        if shape <= 0 or cap <= 0:
            raise SimulationError("shape and cap must be positive")
        self._rng = random.Random(seed)
        self._shape = shape
        self._cap = cap
        self._seed = seed

    def sample(self, key: Optional[Hashable] = None) -> float:
        value = self._rng.paretovariate(self._shape)
        return min(value, self._cap)

    def split(self, salt: int) -> "HeavyTailDelay":
        return HeavyTailDelay(self._seed ^ (salt * 0x9E3779B9), self._shape, self._cap)


class PerEdgeJitterDelay(DelayModel):
    """Per-link multipliers over a base model: a few links are slow.

    Each key (the distributed engine passes the departure node's id, so
    keys identify upward edges) is deterministically assigned a
    multiplier: with probability ``slow_fraction`` the link is slow
    (``slow_factor`` x base delay), otherwise a mild jitter in
    ``[1, 1 + jitter)``.  Assignments are memoized, so a slow link stays
    slow for the whole execution — persistent asymmetry that FIFO-ish
    schedules never produce on their own.
    """

    reads_key = True

    def __init__(self, base: Optional[DelayModel] = None, seed: int = 0,
                 slow_fraction: float = 0.1, slow_factor: float = 10.0,
                 jitter: float = 0.5) -> None:
        if not 0 <= slow_fraction <= 1:
            raise SimulationError(
                f"slow_fraction must be in [0, 1], got {slow_fraction}")
        if slow_factor < 1 or jitter < 0:
            raise SimulationError("slow_factor must be >= 1 and jitter >= 0")
        self._base = base if base is not None else UniformDelay(seed=seed)
        self._seed = seed
        self._slow_fraction = slow_fraction
        self._slow_factor = slow_factor
        self._jitter = jitter
        self._multipliers: Dict[Hashable, float] = {}

    def _multiplier(self, key: Hashable) -> float:
        factor = self._multipliers.get(key)
        if factor is None:
            # crc32, not hash(): str keys must map to the same link
            # multiplier in every process (PYTHONHASHSEED salts hash()).
            key_mix = zlib.crc32(repr(key).encode())
            rng = random.Random((self._seed * 0x9E3779B9) ^ key_mix)
            if rng.random() < self._slow_fraction:
                factor = self._slow_factor
            else:
                factor = 1.0 + rng.random() * self._jitter
            self._multipliers[key] = factor
        return factor

    def sample(self, key: Optional[Hashable] = None) -> float:
        value = self._base.sample(key)
        if key is None:
            return value
        return value * self._multiplier(key)

    def split(self, salt: int) -> "PerEdgeJitterDelay":
        return PerEdgeJitterDelay(
            self._base.split(salt), self._seed ^ (salt * 0x9E3779B9),
            self._slow_fraction, self._slow_factor, self._jitter)


class BurstStallDelay(DelayModel):
    """Periodic network-wide stall bursts over a base model.

    Samples cycle through windows of ``period`` draws; the last
    ``burst`` draws of each window are multiplied by ``factor``.  During
    a burst *every* message in the system slows down together — the
    correlated-stall regime (a GC pause, a congested uplink) that
    independent per-message draws cannot express.
    """

    def __init__(self, base: Optional[DelayModel] = None, seed: int = 0,
                 period: int = 100, burst: int = 15, factor: float = 20.0) -> None:
        if period <= 0 or not 0 <= burst <= period or factor < 1:
            raise SimulationError(
                f"invalid burst parameters (period={period}, burst={burst}, "
                f"factor={factor})")
        self._base = base if base is not None else UniformDelay(seed=seed)
        self._seed = seed
        self._period = period
        self._burst = burst
        self._factor = factor
        self._count = 0
        # The stall window ignores the key; the base decides.
        self.reads_key = self._base.reads_key

    def sample(self, key: Optional[Hashable] = None) -> float:
        value = self._base.sample(key)
        position = self._count % self._period
        self._count += 1
        if position >= self._period - self._burst:
            value *= self._factor
        return value

    def split(self, salt: int) -> "BurstStallDelay":
        return BurstStallDelay(
            self._base.split(salt), self._seed ^ (salt * 0x9E3779B9),
            self._period, self._burst, self._factor)


DELAY_MODELS = ("unit", "uniform", "heavytail", "jitter", "burst")


def make_delay_model(name: str, seed: int = 0) -> DelayModel:
    """Instantiate a delay model by registry name."""
    if name == "unit":
        return UnitDelay()
    if name == "uniform":
        return UniformDelay(seed=seed)
    if name == "heavytail":
        return HeavyTailDelay(seed=seed)
    if name == "jitter":
        return PerEdgeJitterDelay(UniformDelay(seed=seed), seed=seed)
    if name == "burst":
        return BurstStallDelay(UniformDelay(seed=seed), seed=seed)
    raise SimulationError(
        f"unknown delay model {name!r}; known: {', '.join(DELAY_MODELS)}")
