"""Trace-identical equivalence of the engine and its oracle.

The distributed engine runs on :class:`repro.sim.Scheduler`, the record
queue; the reference scheduler it replaced survives as the oracle in
``tests/sim/oracle.py``.  The contract is not "statistically similar" —
it is *the same execution*: identical callback order means identical
RNG consumption, so outcome tallies, message counters, the kernel
trace's transition sequence, and the final simulated clock must all be
bit-identical to an oracle-wired run, under every schedule policy.
These tests drive both over the adversarial catalogue and the staged
wrappers and compare everything.
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kernel import KernelTrace
from repro.distributed.adaptive import DistributedAdaptiveController
from repro.distributed.iterated import DistributedIteratedController
from repro.errors import ConfigError
from repro.service import ControllerSession, ControllerSpec, SessionConfig
from repro.sim import SCHEDULE_POLICIES, Scheduler
from repro.workloads import get_scenario
from repro.workloads.catalogue import CATALOGUE
from repro.workloads.scenarios import TreeMirror, request_spec
from tests.sim.oracle import OracleScheduler, oracle_sessions


def _materialize(spec, seed):
    reference = spec.build_tree(seed=seed)
    return [request_spec(r) for r in spec.stream(reference, seed=seed)]


def _twin_requests(spec, seed, stream_specs):
    tree = spec.build_tree(seed=seed)
    mirror = TreeMirror(tree)
    requests = [mirror.request(s) for s in stream_specs]
    mirror.detach()
    return tree, requests


def _run_session_arm(spec, seed, stream_specs, *, oracle, policy="fifo"):
    """One session-driven run; returns every behavioural artefact the
    equivalence contract covers (plus the scheduler that ran it)."""
    tree, requests = _twin_requests(spec, seed, stream_specs)
    trace = KernelTrace()
    config = SessionConfig(
        controller=ControllerSpec("distributed", m=spec.m, w=spec.w,
                                  u=spec.u, options={"kernel_trace": trace}),
        schedule_policy=policy, seed=seed,
        max_in_flight=max(len(requests), 1))
    with oracle_sessions() if oracle else contextlib.nullcontext():
        session = ControllerSession(config, tree=tree)
    session.submit_many(requests, stagger=0.25)
    records = list(session.drain())
    report = session.audit()
    assert report.passed, report.violations[:3]
    verdicts = tuple(r.verdict.value for r in records)
    counters = tuple(sorted(session.controller.counters.snapshot().items()))
    trace_events = tuple(trace.events)
    now = session.now
    scheduler = session.scheduler
    session.close()
    return verdicts, counters, trace_events, now, scheduler


@given(name=st.sampled_from(sorted(CATALOGUE)),
       seed=st.integers(min_value=0, max_value=5),
       policy=st.sampled_from(SCHEDULE_POLICIES))
@settings(max_examples=16, deadline=None)
def test_fast_path_is_trace_identical_on_the_catalogue(name, seed, policy):
    spec = get_scenario(name).scaled(0.25)
    stream_specs = _materialize(spec, seed)
    reference = _run_session_arm(spec, seed, stream_specs, oracle=True,
                                 policy=policy)
    engine = _run_session_arm(spec, seed, stream_specs, oracle=False,
                              policy=policy)
    assert isinstance(reference[4], OracleScheduler)
    assert type(engine[4]) is Scheduler
    # Per-request verdict sequence, counters, the full kernel-trace
    # transition log, and the final simulated clock: all identical.
    assert engine[:4] == reference[:4]


def test_fast_path_kernel_trace_is_nonempty():
    """The equivalence assertion must compare real evidence: deep_burst
    at small scale still performs permit/package transitions."""
    spec = get_scenario("deep_burst").scaled(0.2)
    stream_specs = _materialize(spec, 0)
    _verdicts, _counters, trace_events, _now, _sched = _run_session_arm(
        spec, 0, stream_specs, oracle=False)
    assert len(trace_events) > 0


def test_fast_path_rejected_for_synchronous_flavours():
    """``fast_path`` is no option at all any more: naming it is an
    unknown-option error, raised when the spec is built."""
    spec = get_scenario("hot_spot").scaled(0.1)
    tree = spec.build_tree(seed=0)
    with pytest.raises(ConfigError, match="fast_path"):
        ControllerSession(SessionConfig(controller=ControllerSpec(
            "iterated", m=spec.m, w=spec.w, u=spec.u,
            options={"fast_path": True})), tree=tree)


# ----------------------------------------------------------------------
# Staged wrappers: every stage shares the wrapper's scheduler.
# ----------------------------------------------------------------------
def _drive_wrapper(make_controller, spec, seed, stream_specs):
    tree, requests = _twin_requests(spec, seed, stream_specs)
    controller = make_controller(tree)
    outcomes = controller.process(requests)
    verdicts = tuple(o.status.value for o in outcomes)
    counters = tuple(sorted(controller.counters.snapshot().items()))
    return verdicts, counters, type(controller.scheduler)


@pytest.mark.parametrize("seed", [0, 2])
def test_iterated_wrapper_fast_path_is_equivalent(seed):
    spec = get_scenario("grow_shrink").scaled(0.25)
    stream_specs = _materialize(spec, seed)
    reference = _drive_wrapper(
        lambda tree: DistributedIteratedController(
            tree, m=spec.m, w=spec.w, u=spec.u,
            scheduler=OracleScheduler()),
        spec, seed, stream_specs)
    engine = _drive_wrapper(
        lambda tree: DistributedIteratedController(
            tree, m=spec.m, w=spec.w, u=spec.u),
        spec, seed, stream_specs)
    assert reference[2] is OracleScheduler and engine[2] is Scheduler
    assert engine[:2] == reference[:2]


@pytest.mark.parametrize("seed", [1])
def test_adaptive_wrapper_fast_path_is_equivalent(seed):
    spec = get_scenario("grow_shrink").scaled(0.25)
    stream_specs = _materialize(spec, seed)
    reference = _drive_wrapper(
        lambda tree: DistributedAdaptiveController(
            tree, m=spec.m, w=spec.w, scheduler=OracleScheduler()),
        spec, seed, stream_specs)
    engine = _drive_wrapper(
        lambda tree: DistributedAdaptiveController(
            tree, m=spec.m, w=spec.w),
        spec, seed, stream_specs)
    assert reference[2] is OracleScheduler and engine[2] is Scheduler
    assert engine[:2] == reference[:2]
