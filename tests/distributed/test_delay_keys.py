"""Hop equivalence: key-free hops, and the compiled hop against its oracle.

Each delay model declares whether its ``sample`` reads the key
(``DelayModel.reads_key``); the distributed engine computes the hop's
departure-node key only for models that do.  Skipping the key must
change nothing: a model that ignores it draws the same sequence with
and without one, and a session run under every registered model gives
the same execution whether or not its hops compute keys.

The engine compiles each controller's delay model and fault plan into
its hop (``repro.distributed.hop``).  Under every registered model, on
every distributed flavour (and on the plain one under each fault plan),
the compiled hop must run the execution the oracle composition
(``hop_oracle``: ``sample`` then the fault perturbation) runs, draw for
draw.
"""

import contextlib
from dataclasses import replace

import pytest

from repro.distributed.controller import DistributedController
from repro.service import (
    TRACED_FLAVORS,
    ControllerSession,
    ControllerSpec,
    SessionConfig,
)
from repro.service import session as session_module
from repro.sim.delays import (
    DELAY_MODELS,
    BurstStallDelay,
    DelayModel,
    HeavyTailDelay,
    PerEdgeJitterDelay,
    UniformDelay,
    UnitDelay,
    make_delay_model,
)
from repro.distributed.faults import parse_fault_spec
from repro.sim.tracing import Tracer
from repro.workloads import get_scenario

from tests.distributed.hop_oracle import oracle_hops

#: The stack benchmark's gateway_storm fault spec: 15% of hops stall,
#: three churn storms of six topology operations each.
STORM_FAULTS = "stall=0.15,storms=3,storm_size=6"

#: The differential's fault plans: none, gateway_storm's, and stalls
#: with pause windows (the only plan whose hops run the pause clamp).
FAULT_PLANS = ("none", STORM_FAULTS, "stall=0.05,pauses=2,storms=3")

#: (flavour, fault plan) cells: every plan on the plain flavour; the
#: staged flavours take no fault plan (SessionConfig rejects one), and
#: their stages share one delay model.
CELLS = ([("distributed", plan) for plan in FAULT_PLANS]
         + [("distributed_iterated", "none"),
            ("distributed_adaptive", "none")])


class _Relabelled(UniformDelay):
    """A subclass the hop does not inline: drawn through ``sample``."""


#: Composite models the registry does not name, built per seed: a
#: burst window over a keyed base, over a heavy-tailed base and over an
#: unknown class, and a link multiplier over a heavy-tailed base.
COMPOSITE_MODELS = {
    "burst(jitter)": lambda seed: BurstStallDelay(
        PerEdgeJitterDelay(UniformDelay(seed=seed), seed=seed), seed=seed),
    "burst(heavytail)": lambda seed: BurstStallDelay(
        HeavyTailDelay(seed=seed), seed=seed),
    "burst(subclass)": lambda seed: BurstStallDelay(
        _Relabelled(seed=seed), seed=seed),
    "jitter(heavytail)": lambda seed: PerEdgeJitterDelay(
        HeavyTailDelay(seed=seed), seed=seed),
}


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


def _run(name, seed, keys=None, flavor="distributed", faults=STORM_FAULTS,
         oracle=False, decoy=False):
    """One session over a scaled mixed_flood stream under a fault plan
    (the gateway_storm one by default); every artefact the engine's
    execution fixes.  A ``name`` from :data:`COMPOSITE_MODELS` builds
    that composite instead of a registry model.  With ``keys``, the
    session's delay model is forced to read keys; with ``oracle``,
    every controller the run builds hops through the oracle
    composition; with ``decoy``, another controller holds the tree's
    node slots, so the session's controller reads its whiteboards
    through dict lookups."""
    spec = get_scenario("mixed_flood").scaled(0.3)
    tree = spec.build_tree(seed=seed)
    requests = spec.stream(tree, seed=seed)
    span = len(requests) * 0.25 + 4 * spec.n
    plan = replace(parse_fault_spec(faults).resolved(span), seed=seed)
    traced = flavor in TRACED_FLAVORS
    tracer = Tracer(enabled=True)
    # The staged flavours get a budget the stream exhausts, so they
    # roll over to stages and epochs that share the delay model.
    m = spec.m if flavor == "distributed" else 100
    config = SessionConfig(
        controller=ControllerSpec(flavor, m=m, w=spec.w, u=spec.u,
                                  options={"tracer": tracer} if traced
                                  else {}),
        delay_model=name if name in DELAY_MODELS else "uniform",
        faults=plan, seed=seed,
        max_in_flight=len(requests), trace=traced)
    if decoy:
        holder = DistributedController(tree, m=1, w=1, u=spec.u)
    with contextlib.ExitStack() as stack:
        if oracle:
            stack.enter_context(oracle_hops())
        patch = stack.enter_context(pytest.MonkeyPatch.context())
        if keys is not None:
            patch.setattr(
                session_module, "make_delay_model",
                lambda model, seed=0: _keyed(make_delay_model(model, seed),
                                             keys))
        if name in COMPOSITE_MODELS:
            patch.setattr(session_module, "make_delay_model",
                          lambda model, seed=0: COMPOSITE_MODELS[name](seed))
        session = ControllerSession(config, tree=tree)
        if decoy:
            assert not session.controller.boards.holds_slots
        session.submit_many(requests, stagger=0.25)
        records = list(session.drain())
    report = session.audit()
    assert report.passed, report.violations[:3]
    if decoy:
        assert tree.store_slot_owner is holder
        holder.detach()
    controller = session.controller
    injector = getattr(controller, "faults", None)
    result = {
        "stages": getattr(controller, "stages_run",
                          getattr(controller, "epochs_run", 1)),
        "tally": session.tally(),
        "verdicts": tuple(record.verdict.value for record in records),
        "counters": session.controller.counters.snapshot(),
        "executed": session.scheduler.executed,
        "faults": dict(injector.stats) if injector is not None else None,
        "trace": tuple(session.trace.events) if traced else (),
        "events": _renumbered(tracer.events),
        "now": session.now,
    }
    session.close()
    return result


def _renumbered(events):
    """Tracer events with agent ids (drawn from a process-wide counter)
    renumbered by first appearance, so two runs compare equal."""
    ids = {}
    renumbered = []
    for event in events:
        details = dict(event.details)
        if "agent" in details:
            details["agent"] = ids.setdefault(details["agent"], len(ids))
        renumbered.append((event.time, event.tag, details))
    return tuple(renumbered)


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


@pytest.mark.parametrize("flavor,faults", CELLS)
@pytest.mark.parametrize("name", DELAY_MODELS + tuple(COMPOSITE_MODELS))
def test_the_compiled_hop_runs_the_oracle_execution(name, flavor, faults):
    compiled = _run(name, 3, flavor=flavor, faults=faults)
    oracle = _run(name, 3, flavor=flavor, faults=faults, oracle=True)
    assert compiled == oracle
    assert compiled["counters"]["agent_hops"] > 0
    if flavor == "distributed":
        assert compiled["events"]
    else:
        assert compiled["stages"] > 1
    stats = compiled["faults"]
    if faults == "none":
        assert stats is None
    else:
        # The plan really stalled hops, and a plan with pauses really
        # pushed arrivals past a window.
        assert stats["stalls"] > 0 and stats["storm_ops"] > 0
        assert (stats["paused_deliveries"] > 0) == ("pauses" in faults)


@pytest.mark.parametrize("name", ["uniform", "jitter", "burst"])
def test_a_controller_beside_a_slot_holder_runs_the_same_execution(name):
    assert _run(name, 5, decoy=True) == _run(name, 5)
