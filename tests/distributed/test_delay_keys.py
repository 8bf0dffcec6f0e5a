"""Key-free hops: a delay model that ignores the hop key never gets one.

Each delay model declares whether its ``sample`` reads the key
(``DelayModel.reads_key``); the distributed engine computes the hop's
departure-node key only for models that do.  Skipping the key must
change nothing: a model that ignores it draws the same sequence with
and without one, and a session run under every registered model gives
the same execution whether or not its hops compute keys.
"""

from dataclasses import replace

import pytest

from repro.service import ControllerSession, ControllerSpec, SessionConfig
from repro.service import session as session_module
from repro.sim.delays import (
    DELAY_MODELS,
    BurstStallDelay,
    DelayModel,
    PerEdgeJitterDelay,
    UniformDelay,
    UnitDelay,
    make_delay_model,
)
from repro.distributed.faults import parse_fault_spec
from repro.workloads import get_scenario

#: The stack benchmark's gateway_storm fault spec: 15% of hops stall,
#: three churn storms of six topology operations each.
STORM_FAULTS = "stall=0.15,storms=3,storm_size=6"


def _keyed(model, keys):
    """Make ``model`` report that it reads keys, recording every key its
    ``sample`` receives (the class swap keeps the instance's state, so
    the draws stay the model's own).  The flag is set on the instance:
    a burst model holds its base's answer there."""
    cls = type(model)

    def sample(self, key=None):
        keys.append(key)
        return cls.sample(self, key)

    model.__class__ = type(f"Keyed{cls.__name__}", (cls,),
                           {"sample": sample})
    model.reads_key = True
    return model


def _run(name, seed, keys=None):
    """One distributed session over a scaled mixed_flood stream under
    the storm fault plan; every artefact the engine's execution fixes.
    With ``keys``, the session's delay model is forced to read keys."""
    spec = get_scenario("mixed_flood").scaled(0.3)
    tree = spec.build_tree(seed=seed)
    requests = spec.stream(tree, seed=seed)
    span = len(requests) * 0.25 + 4 * spec.n
    plan = replace(parse_fault_spec(STORM_FAULTS).resolved(span), seed=seed)
    config = SessionConfig(
        controller=ControllerSpec("distributed", m=spec.m, w=spec.w,
                                  u=spec.u),
        delay_model=name, faults=plan, seed=seed,
        max_in_flight=len(requests), trace=True)
    with pytest.MonkeyPatch.context() as patch:
        if keys is not None:
            patch.setattr(
                session_module, "make_delay_model",
                lambda model, seed=0: _keyed(make_delay_model(model, seed),
                                             keys))
        session = ControllerSession(config, tree=tree)
    session.submit_many(requests, stagger=0.25)
    records = list(session.drain())
    report = session.audit()
    assert report.passed, report.violations[:3]
    result = {
        "tally": session.tally(),
        "verdicts": tuple(record.verdict.value for record in records),
        "counters": session.controller.counters.snapshot(),
        "executed": session.scheduler.executed,
        "faults": dict(session.controller.faults.stats),
        "trace": tuple(session.trace.events),
        "now": session.now,
    }
    session.close()
    return result


@pytest.mark.parametrize("name", DELAY_MODELS)
def test_key_free_hops_change_nothing(name):
    keys = []
    reference = _run(name, 3, keys=keys)
    declared = _run(name, 3)
    # The reference run really computed a key on every hop.
    assert len(keys) == reference["counters"]["agent_hops"] > 0
    assert None not in keys
    # The storm plan really stalled hops and mutated the tree.
    assert reference["faults"]["stalls"] > 0
    assert reference["faults"]["storm_ops"] > 0
    assert reference["trace"]
    assert declared == reference


@pytest.mark.parametrize("name", [name for name in DELAY_MODELS
                                  if not make_delay_model(name).reads_key])
def test_key_ignoring_models_draw_the_same_sequence(name):
    with_key, without_key = (make_delay_model(name, seed=11)
                             for _ in range(2))
    keys = [7, "n3", (1, 2), 0, None] * 40
    assert ([with_key.sample(key) for key in keys]
            == [without_key.sample() for _ in keys])


def test_reads_key_is_declared_per_class():
    declared = {name: make_delay_model(name).reads_key
                for name in DELAY_MODELS}
    assert declared == {"unit": False, "uniform": False,
                        "heavytail": False, "jitter": True,
                        "burst": False}
    # The stall window answers for its base model.
    assert BurstStallDelay(PerEdgeJitterDelay()).reads_key
    assert not BurstStallDelay(UnitDelay()).reads_key


def test_unknown_models_are_assumed_to_read_the_key():
    class Fixed(DelayModel):
        def sample(self, key=None):
            return 2.0

    class KeyedUniform(UniformDelay):
        def sample(self, key=None):
            return super().sample(key) * (2.0 if key == 0 else 1.0)

    class Relabelled(UniformDelay):
        pass

    assert DelayModel.reads_key and Fixed().reads_key
    # Overriding sample() without restating the declaration resets it.
    assert KeyedUniform().reads_key
    # A subclass that keeps the parent's sample() keeps its declaration.
    assert not Relabelled().reads_key
