"""Benchmark scenario implementations for ``python -m repro.bench``.

Each ``run_*`` function is pure measurement: it builds its workload,
runs it, and returns a JSON-serializable dict.  Wall-clock numbers are
the **minimum over ``repeats`` runs** (the standard way to suppress
scheduler noise); correctness-sensitive quantities (move counters,
outcome tallies) are additionally cross-checked between the engine and
legacy configurations, so a benchmark run doubles as an equivalence
check.

Every entry point constructs its engine through the session layer
(``SessionConfig``/``ControllerSession`` — see ``repro.service`` and
docs §7); the ``session`` scenario additionally measures the session
layer's own tax against direct protocol calls.
"""

import cProfile
import dataclasses
import gc
import math
import pstats
import random
import threading
import time
import zlib
from typing import Any, Dict, List, Optional

from repro.core import kernel as controller_kernel
from repro.core.packages import MobilePackage, NodeStore
from repro.core.params import ControllerParams
from repro.core.requests import Request, RequestKind
from repro.distributed.faults import parse_fault_spec
from repro.errors import ConfigError, InvariantViolation, ProtocolError
from repro.metrics.fitting import log_log_slope, observation_3_4_bound
from repro.gateway import Gateway, GatewayConfig
from repro.metrics.counters import MemoryAudit
from repro.metrics.invariants import (
    CounterWatch,
    InvariantReport,
    audit_gateway,
    tally_outcomes,
)
from repro.registry import CONTROLLER_FLAVORS, make_controller
from repro.service import (
    ControllerSession,
    ControllerSpec,
    SessionConfig,
    drive_scenario,
    replay_stream,
)
from repro.sim.scheduler import SCHEDULE_POLICIES
from repro.workloads.catalogue import CATALOGUE, get_scenario
from repro.workloads.scenarios import (
    NodePicker,
    TreeMirror,
    build_caterpillar,
    build_path,
    build_random_tree,
    build_star,
    default_mix,
    grow_only_mix,
    random_request,
    request_spec,
)

DEFAULT_SIZES = [200, 400, 800, 1600, 3200]  # the bench_e02 sweep

_TOPOLOGIES = {
    "path": build_path,
    "random": build_random_tree,
    "star": build_star,
    "caterpillar": build_caterpillar,
}

_MIXES = {
    "default": default_mix,
    "grow": grow_only_mix,
    "plain": lambda: {RequestKind.PLAIN: 1.0},
}


def _build(topology: str, n: int, seed: int, skip_ancestry: bool):
    builder = _TOPOLOGIES[topology]
    if builder is build_random_tree:
        tree = builder(n, seed=seed)
    else:
        tree = builder(n)
    tree.skip_ancestry = skip_ancestry
    return tree


def _session(kind: str, tree, m: int, w: int, u: int, *,
             window: int = 1 << 20, **knobs: Any) -> ControllerSession:
    """Session-backed construction: every bench entry point wires its
    engine through ``SessionConfig``/``ControllerSession`` (the window
    defaults wide open — benches measure the engine, not admission)."""
    config = SessionConfig.of(kind, m=m, w=w, u=u,
                              max_in_flight=window, **knobs)
    return ControllerSession(config, tree=tree)


# ----------------------------------------------------------------------
# ancestry — the acceptance benchmark of the request engine.
# ----------------------------------------------------------------------
def run_ancestry(sizes: Optional[List[int]] = None, repeats: int = 3,
                 seed: int = 0, steps_per_node: int = 2) -> Dict:
    """Deep-path request serving: engine vs legacy wall clock.

    A path of ``n`` nodes receives ``n * steps_per_node`` PLAIN requests
    at uniformly random nodes (a pre-generated stream — PLAIN requests
    leave the topology untouched, so the identical stream is replayed
    in both modes and only the controller is timed):

    * **legacy** — ``skip_ancestry=False``: the seed's data paths
      (naive parent-pointer walks, dict store probes, full filler
      climbs), driven one request at a time (``session.serve``);
    * **engine** — ``skip_ancestry=True``: skip-pointer jump tables,
      slot-pinned stores, the indexed filler scan, driven as one
      batch (``session.serve_stream``).

    Both modes run behind a :class:`ControllerSession`; move counters
    and grant tallies are asserted identical between them, and the
    headline is the wall-clock ratio on the deepest path.
    """
    sizes = sizes or DEFAULT_SIZES
    rows = []
    for n in sizes:
        steps = n * steps_per_node
        timings = {}
        checks = {}
        for label, skip in (("legacy", False), ("engine", True)):
            best = None
            for _ in range(max(repeats, 1)):
                tree = _build("path", n, seed, skip)
                nodes = list(tree.nodes())
                rng = random.Random(seed + n)
                requests = [
                    Request(RequestKind.PLAIN,
                            nodes[rng.randrange(len(nodes))])
                    for _ in range(steps)
                ]
                session = _session("iterated", tree,
                                   m=4 * n, w=n // 4, u=2 * n)
                start = time.perf_counter()
                if skip:
                    records = session.serve_stream(requests)
                else:
                    records = [session.serve(request)
                               for request in requests]
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
                checks[label] = (
                    session.controller.counters.total,
                    sum(1 for r in records if r.granted),
                )
            timings[label] = best
        if checks["legacy"] != checks["engine"]:
            raise InvariantViolation(
                f"engine diverged from legacy at n={n}: "
                f"{checks['engine']} != {checks['legacy']}"
            )
        rows.append({
            "n": n,
            "steps": steps,
            "legacy_ms": round(timings["legacy"] * 1000, 3),
            "engine_ms": round(timings["engine"] * 1000, 3),
            "speedup": round(timings["legacy"] / timings["engine"], 3),
            "moves": checks["engine"][0],
            "granted": checks["engine"][1],
        })
    return {
        "scenario": "ancestry",
        "params": {"sizes": sizes, "repeats": repeats, "seed": seed,
                   "steps_per_node": steps_per_node},
        "rows": rows,
        "deep_path_speedup": rows[-1]["speedup"],
        "max_speedup": max(r["speedup"] for r in rows),
    }


# ----------------------------------------------------------------------
# move_complexity — the bench_e02 sweep as a CLI one-liner.
# ----------------------------------------------------------------------
def run_move_complexity(sizes: Optional[List[int]] = None,
                        seed: int = 0) -> Dict:
    """Observation 3.4 on deep paths: moves vs ``O(U log^2 U log(M/W))``.

    Mirrors ``benchmarks/bench_e02_move_complexity.py``: sweep the path
    length under the default churn mix and report measured/bound ratios
    plus the log-log slope (near-linear growth expected).
    """
    sizes = sizes or DEFAULT_SIZES
    rows = []
    measured = []
    for n in sizes:
        tree = build_path(n)
        u, m, w = 2 * n, 4 * n, n // 4
        session = _session("iterated", tree, m=m, w=w, u=u)
        start = time.perf_counter()
        result = drive_scenario(session, steps=n, seed=n)
        elapsed = time.perf_counter() - start
        bound = observation_3_4_bound(u, m, w)
        moves = session.controller.counters.total
        measured.append(moves)
        rows.append({
            "n": n, "u": u, "m": m, "w": w,
            "moves": moves,
            "bound": int(bound),
            "ratio": round(moves / bound, 4),
            "granted": result.granted,
            "rejected": result.rejected,
            "wall_ms": round(elapsed * 1000, 3),
        })
    return {
        "scenario": "move_complexity",
        "params": {"sizes": sizes, "seed": seed},
        "rows": rows,
        "log_log_slope": round(log_log_slope(sizes, measured), 4),
        "max_ratio": max(r["ratio"] for r in rows),
    }


# ----------------------------------------------------------------------
# batch — handle_batch equivalence + throughput on a twin tree.
# ----------------------------------------------------------------------
def run_batch(n: int = 600, steps: int = 2000, batch_size: int = 64,
              topology: str = "random", mix: str = "default",
              seed: int = 0) -> Dict:
    """Sequential vs batched handling of the *same* request stream.

    Session A is driven one request at a time while the stream is
    recorded as tree-independent specs; session B (on a twin tree built
    identically) replays the stream in ``batch_size`` chunks through
    ``serve_stream`` via a lazily-resolved :class:`TreeMirror`.
    Outcomes, grant tallies and move counters must match exactly — that
    equality is the batch-semantics contract — and both wall clocks are
    reported.
    """
    mix_map = _MIXES[mix]()
    tree_a = _build(topology, n, seed, True)
    tree_b = _build(topology, n, seed, True)
    u, m, w = 4 * n, 4 * n, max(n // 4, 1)
    session_a = _session("iterated", tree_a, m=m, w=w, u=u)
    session_b = _session("iterated", tree_b, m=m, w=w, u=u)

    rng = random.Random(seed)
    picker = NodePicker(tree_a)
    mirror = TreeMirror(tree_b)
    records_a = []
    specs = []
    start = time.perf_counter()
    sequential_time = 0.0
    for _ in range(steps):
        request = random_request(tree_a, rng, mix=mix_map, picker=picker)
        specs.append(request_spec(request))
        t0 = time.perf_counter()
        records_a.append(session_a.serve(request))
        sequential_time += time.perf_counter() - t0
    generation_time = time.perf_counter() - start - sequential_time
    picker.detach()

    records_b = []
    start = time.perf_counter()
    for base in range(0, len(specs), batch_size):
        chunk = specs[base:base + batch_size]
        records_b.extend(session_b.serve_stream(mirror.requests(chunk)))
    batched_time = time.perf_counter() - start
    mirror.detach()

    status_a = [r.verdict.value for r in records_a]
    status_b = [r.verdict.value for r in records_b]
    if status_a != status_b:
        first = next(i for i, (a, b) in enumerate(zip(status_a, status_b))
                     if a != b)
        raise InvariantViolation(
            f"batched outcome diverged at step {first}: "
            f"{status_a[first]} != {status_b[first]}"
        )
    counters_a = session_a.controller.counters
    counters_b = session_b.controller.counters
    if counters_a.snapshot() != counters_b.snapshot():
        raise InvariantViolation(
            f"batched counters diverged: {counters_b.snapshot()} "
            f"!= {counters_a.snapshot()}"
        )
    tally = session_a.tally()
    return {
        "scenario": "batch",
        "params": {"n": n, "steps": steps, "batch_size": batch_size,
                   "topology": topology, "mix": mix, "seed": seed},
        "sequential_ms": round(sequential_time * 1000, 3),
        "batched_ms": round(batched_time * 1000, 3),
        "generation_ms": round(generation_time * 1000, 3),
        "granted": tally["granted"],
        "rejected": tally["rejected"],
        "moves": counters_a.total,
        "outcomes_identical": True,
        "counters_identical": True,
        "requests_per_sec_batched": round(
            steps / batched_time if batched_time > 0 else float("inf"), 1),
    }


# ----------------------------------------------------------------------
# scenario — the generic knob-driven run.
# ----------------------------------------------------------------------
def run_scenario_bench(topology: str = "random", controller: str = "iterated",
                       mix: str = "default", n: int = 500, steps: int = 1000,
                       batch_size: int = 1, seed: int = 0,
                       skip_ancestry: bool = True,
                       m_factor: int = 4, w_divisor: int = 4) -> Dict:
    """Run one controller/topology/mix combination at a given scale."""
    tree = _build(topology, n, seed, skip_ancestry)
    u = 4 * n
    m = m_factor * n
    w = max(n // w_divisor, 1)
    session = _session(controller, tree, m, w, u)
    start = time.perf_counter()
    result = drive_scenario(session, steps=steps, seed=seed,
                            mix=_MIXES[mix](), batch_size=batch_size)
    elapsed = time.perf_counter() - start
    counters = session.controller.counters.snapshot()
    return {
        "scenario": "scenario",
        "params": {"topology": topology, "controller": controller,
                   "mix": mix, "n": n, "steps": steps,
                   "batch_size": batch_size, "seed": seed,
                   "skip_ancestry": skip_ancestry, "m": m, "w": w, "u": u},
        "granted": result.granted,
        "rejected": result.rejected,
        "cancelled": result.cancelled,
        "pending": result.pending,
        "counters": counters,
        "tree_size": tree.size,
        "wall_ms": round(elapsed * 1000, 3),
        "requests_per_sec": round(
            steps / elapsed if elapsed > 0 else float("inf"), 1),
    }


# ----------------------------------------------------------------------
# distributed_batch — the request queue of the distributed engine.
# ----------------------------------------------------------------------
def run_distributed_batch(sizes: Optional[List[int]] = None,
                          requests_per_node: float = 0.5,
                          seed: int = 0) -> Dict:
    """Pipeline a concurrent batch through the distributed engine.

    All requests are injected up front (``submit_many`` on a
    distributed :class:`ControllerSession`); agents interleave under
    the locking discipline and the session drains the scheduler to
    quiescence.  Reported: grant tallies, message counters, and the
    simulated-time compression vs serving the batch one request at a
    time (sequential lower bound: the sum of per-request round trips).
    """
    sizes = sizes or [200, 400]
    rows = []
    for n in sizes:
        tree = build_random_tree(n, seed=seed)
        rng = random.Random(seed + n)
        nodes = list(tree.nodes())
        count = max(int(n * requests_per_node), 1)
        requests = [
            Request(RequestKind.PLAIN, nodes[rng.randrange(len(nodes))])
            for _ in range(count)
        ]
        session = _session("distributed", tree, m=4 * n, w=n, u=2 * n)
        start = time.perf_counter()
        records = replay_stream(session, requests)
        elapsed = time.perf_counter() - start
        rows.append({
            "n": n,
            "requests": count,
            "granted": sum(1 for r in records if r.granted),
            "rejected": session.controller.rejected,
            "messages": session.controller.counters.total,
            "simulated_time": round(session.now, 3),
            "wall_ms": round(elapsed * 1000, 3),
        })
    return {
        "scenario": "distributed_batch",
        "params": {"sizes": sizes, "requests_per_node": requests_per_node,
                   "seed": seed},
        "rows": rows,
    }


# ----------------------------------------------------------------------
# scenario_grid — the adversarial catalogue x policy x seed sweep.
# ----------------------------------------------------------------------
# One shared tally shape everywhere (bench cells, differential checks):
# the exported repro.metrics.tally_outcomes.
_tally = tally_outcomes


def _cell_seed(*parts) -> int:
    """Stable per-cell seed (crc32, immune to PYTHONHASHSEED)."""
    return zlib.crc32(":".join(str(p) for p in parts).encode()) & 0x7FFFFFFF


def _materialize(spec, seed: int):
    """Build the reference tree and record the stream as replayable specs."""
    tree = spec.build_tree(seed=seed)
    stream = spec.stream(tree, seed=seed)
    return [request_spec(r) for r in stream]


def _replay_requests(spec, seed: int, stream_specs):
    """A fresh twin tree plus the stream resolved against it."""
    tree = spec.build_tree(seed=seed)
    mirror = TreeMirror(tree)
    requests = [mirror.request(s) for s in stream_specs]
    mirror.detach()
    return tree, requests


def run_scenario_grid(name: str = "all",
                      policy: str = "fifo,random,adversary",
                      seeds: str = "0,1,2,3,4",
                      faults: Optional[str] = None,
                      engines: str = "iterated,distributed",
                      delays: str = "uniform",
                      stagger: float = 0.25,
                      scale: float = 1.0) -> Dict:
    """The adversarial grid: scenario x engine x schedule policy x seed.

    Every cell replays the *identical* pre-generated stream (recorded as
    tree-independent specs, resolved against a twin tree per cell).
    Centralized-family engines ignore the schedule policy (they are
    synchronous) and run once per scenario x seed; the distributed
    engine runs once per policy, optionally under a fault plan
    (``faults`` spec string, e.g. ``"stall=0.05,pauses=2,storms=3"``;
    an unset horizon auto-resolves per cell to the run's span).  The
    differential reference is the *first core engine listed* in
    ``engines`` (iterated by default); ``summary.differential_checks``
    records how many cross-checks actually ran — 0 when no core engine
    is in the list.

    Each cell is audited by the invariant checker (safety, waste,
    conservation, package shape, lock ordering) plus a streaming
    counter-monotonicity watch; cancellation-free scenarios additionally
    cross-check the distributed grant totals against the centralized
    reference (equal when nothing was rejected, both within the waste
    window otherwise).  The run **raises** on any violation — a bench
    invocation doubles as a correctness gate — and the JSON document
    records the full per-cell evidence.
    """
    names = list(CATALOGUE) if name == "all" else [
        part.strip() for part in name.split(",") if part.strip()]
    for scenario_name in names:
        get_scenario(scenario_name)  # fail fast on typos, before any cell
    policies = [part.strip() for part in policy.split(",") if part.strip()]
    for pol in policies:
        if pol not in SCHEDULE_POLICIES:
            raise ConfigError(
                f"unknown policy {pol!r}; known: {', '.join(SCHEDULE_POLICIES)}")
    seed_list = [int(part) for part in str(seeds).split(",") if part != ""]
    # Engines resolve against the public controller registry; ``all``
    # sweeps every registered flavour.  Validation is eager — before any
    # cell runs — so a typo fails in milliseconds, not mid-grid.
    if engines.strip() == "all":
        engine_list = list(CONTROLLER_FLAVORS)
    else:
        engine_list = [part.strip().replace("-", "_")
                       for part in engines.split(",") if part.strip()]
    for engine in engine_list:
        if engine not in CONTROLLER_FLAVORS:
            raise ConfigError(
                f"unknown engine {engine!r}; registered controller "
                f"flavors: {', '.join(CONTROLLER_FLAVORS)} (or 'all')")
    fault_plan = parse_fault_spec(faults)

    cells: List[Dict] = []
    grid_report = InvariantReport()
    start_all = time.perf_counter()
    for scenario_name in names:
        spec = get_scenario(scenario_name)
        if scale != 1.0:
            spec = spec.scaled(scale)
        for seed in seed_list:
            stream_specs = _materialize(spec, seed)
            reference: Optional[Dict] = None
            stream_cancel_free = all(
                kind in (RequestKind.PLAIN, RequestKind.ADD_LEAF)
                for kind, _node, _child in stream_specs)
            for engine in engine_list:
                if engine != "distributed":
                    cell = _run_core_cell(spec, seed, engine, stream_specs,
                                          grid_report)
                    if reference is None:
                        reference = cell
                    cells.append(cell)
                    continue
                for pol in policies:
                    cell = _run_distributed_cell(
                        spec, seed, pol, stream_specs, fault_plan, delays,
                        stagger, grid_report)
                    _cross_check(cell, spec, reference,
                                 stream_cancel_free, fault_plan, grid_report)
                    cells.append(cell)
    wall_s = time.perf_counter() - start_all

    document = {
        "scenario": "scenario_grid",
        "params": {
            "names": names, "policies": policies, "seeds": seed_list,
            "engines": engine_list, "faults": fault_plan.snapshot(),
            "delays": delays, "stagger": stagger, "scale": scale,
        },
        "cells": cells,
        "invariants": grid_report.to_json(),
        "summary": {
            "cells": len(cells),
            "checks_run": sum(grid_report.checks.values()),
            # Broken out so its *absence* is visible: without a core
            # engine in --engines (or with only cancellation-prone
            # streams) no differential check runs, and "passed" alone
            # would overstate what was certified.
            "differential_checks": grid_report.checks.get("differential", 0),
            "violations": len(grid_report.violations),
            "passed": grid_report.passed,
            "wall_s": round(wall_s, 3),
        },
    }
    if not grid_report.passed:
        first = grid_report.violations[0]
        error = InvariantViolation(
            f"invariant violations in scenario grid "
            f"({len(grid_report.violations)} total); first: "
            f"[{first.invariant}] {first.message}"
        )
        # The per-cell evidence matters most on failure: attach the full
        # document so the CLI can still honour --out before re-raising.
        error.document = document
        raise error
    return document


def _run_core_cell(spec, seed: int, engine: str, stream_specs,
                   grid_report: InvariantReport) -> Dict:
    tree, requests = _replay_requests(spec, seed, stream_specs)
    session = _session(engine, tree, m=spec.m, w=spec.w, u=spec.u)
    watch = CounterWatch(session.controller.counters, report=grid_report)
    start = time.perf_counter()
    outcomes = []
    for request in requests:
        outcomes.append(session.serve(request).outcome)
        watch.observe()
    wall = time.perf_counter() - start
    session.audit(grid_report)
    cell = {
        "scenario": spec.name, "seed": seed, "engine": engine,
        "policy": None, "cost": session.controller.counters.total,
        "wall_ms": round(wall * 1000, 3),
    }
    cell.update(_tally(outcomes))
    return cell


def _run_distributed_cell(spec, seed: int, policy: str, stream_specs,
                          fault_plan, delays: str, stagger: float,
                          grid_report: InvariantReport) -> Dict:
    cell_seed = _cell_seed(spec.name, seed, policy, "distributed")
    tree, requests = _replay_requests(spec, seed, stream_specs)
    plan = None
    if not fault_plan.is_noop:
        # Auto horizon: the submission window plus a flight-time margin,
        # so pauses/storms land while agents are actually mid-climb
        # rather than bunching into the first instants of a long run.
        span = len(requests) * stagger + 4 * spec.n
        plan = dataclasses.replace(
            fault_plan.resolved(span),
            seed=int(fault_plan.seed) ^ cell_seed)
    config = SessionConfig(
        controller=ControllerSpec(
            "distributed", m=spec.m, w=spec.w, u=spec.u),
        schedule_policy=policy, delay_model=delays, faults=plan,
        seed=cell_seed, max_in_flight=max(len(requests), 1))
    session = ControllerSession(config, tree=tree)
    watch = CounterWatch(session.controller.counters, report=grid_report)
    settled = []

    start = time.perf_counter()
    session.submit_many(requests, stagger=stagger)
    try:
        for record in session.drain():
            settled.append(record)
            watch.observe()
    except ProtocolError:
        # A lost agent surfaces as a liveness violation in the report
        # (the grid keeps running and records the evidence).
        pass
    wall = time.perf_counter() - start
    grid_report.expect(
        len(settled) == len(requests), "liveness",
        f"{spec.name}/{policy}/seed={seed}: "
        f"{len(requests) - len(settled)} requests never resolved",
        scenario=spec.name, policy=policy, seed=seed)
    session.audit(grid_report)
    cell = {
        "scenario": spec.name, "seed": seed, "engine": "distributed",
        "policy": policy, "cost": session.controller.counters.total,
        "simulated_time": round(session.now, 3),
        "wall_ms": round(wall * 1000, 3),
    }
    injector = getattr(session.controller, "faults", None)
    if injector is not None:
        cell["fault_stats"] = dict(injector.stats)
    cell.update(_tally(r.outcome for r in settled))
    return cell


def _cross_check(cell: Dict, spec, reference: Optional[Dict],
                 cancel_free: bool, fault_plan,
                 grid_report: InvariantReport) -> None:
    """Differential check against the centralized reference.

    Only the guarantees the paper actually makes are asserted: for
    cancellation-free streams (PLAIN/ADD_LEAF only, no event can lose
    its meaning) a pair of runs in which *neither* engine rejected must
    grant the identical count, and any rejecting run must sit inside
    the waste window ``[M - W, M]``.  Fault plans mutate the tree and
    the timing outside the request stream, so the equal-grants check is
    skipped there (the waste window still applies).
    """
    if reference is None or not cancel_free:
        return
    label = f"{spec.name}/{cell['policy']}/seed={cell['seed']}"
    if (cell["rejected"] == 0 and reference["rejected"] == 0
            and fault_plan.is_noop):
        grid_report.expect(
            cell["granted"] == reference["granted"], "differential",
            f"{label}: reject-free distributed run granted "
            f"{cell['granted']}, centralized reference "
            f"{reference['granted']}",
            scenario=spec.name, policy=cell["policy"], seed=cell["seed"])
    elif cell["rejected"] > 0:
        grid_report.expect(
            cell["granted"] >= spec.m - spec.w, "differential",
            f"{label}: rejecting run granted {cell['granted']}, below "
            f"waste window floor {spec.m - spec.w}",
            scenario=spec.name, policy=cell["policy"], seed=cell["seed"])


# ----------------------------------------------------------------------
# kernel — distributed filler lookup, before/after the level index.
# ----------------------------------------------------------------------
#: The kernel bench's arms: the legacy linear board scan and the
#: kernel's level index.
KERNEL_ARMS = (
    ("scan", {"indexed_stores": False}),
    ("indexed", {"indexed_stores": True}),
)


def run_kernel(scenario: str = "deep_burst", seeds: str = "0,1",
               repeats: int = 3, stagger: float = 0.25) -> Dict:
    """The distributed filler lookup, two ways: scan / indexed.

    Two measurements, both on the named catalogue scenario (deep_burst
    by default — deep paths, so agents climb far and whiteboards near
    the root accumulate parked packages):

    * **end-to-end**: the identical pre-generated stream is pushed
      through ``submit_batch`` twice per seed — the legacy linear
      board scan (``scan``) and the kernel's level-windowed lookup
      (``indexed``); outcome tallies and message counters are asserted
      identical across the arms — the index is a pure constant-factor
      change — and the wall clocks (min over ``repeats``) are
      compared;
    * **lookup microbench**: a store parked with one package per level
      answers a sweep of window queries through both lookup paths,
      which isolates the per-lookup cost from scheduler overhead.
    """
    spec = get_scenario(scenario)
    seed_list = [int(part) for part in str(seeds).split(",") if part != ""]
    cells: List[Dict] = []
    for seed in seed_list:
        stream_specs = _materialize(spec, seed)
        timings: Dict[str, float] = {}
        checks: Dict[str, object] = {}
        for label, options in KERNEL_ARMS:
            best: Optional[float] = None
            for _ in range(max(repeats, 1)):
                tree, requests = _replay_requests(spec, seed, stream_specs)
                session = _session(
                    "distributed", tree, m=spec.m, w=spec.w, u=spec.u,
                    options=dict(options))
                start = time.perf_counter()
                records = replay_stream(session, requests,
                                        stagger=stagger)
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
                checks[label] = (
                    tuple(sorted(
                        _tally(r.outcome for r in records).items())),
                    session.controller.counters.total)
                session.close()
            timings[label] = best or 0.0
        for label, _options in KERNEL_ARMS[1:]:
            if checks[label] != checks["scan"]:
                raise InvariantViolation(
                    f"{label} arm diverged from the scan at seed={seed}: "
                    f"{checks[label]} != {checks['scan']}")
        tally, messages = checks["indexed"]
        cells.append({
            "scenario": spec.name, "seed": seed,
            "scan_ms": round(timings["scan"] * 1000, 3),
            "indexed_ms": round(timings["indexed"] * 1000, 3),
            "speedup": round(timings["scan"] / timings["indexed"], 3)
            if timings["indexed"] > 0 else float("inf"),
            "messages": messages, "tally": dict(tally),
        })

    # Lookup microbench: every level parked, every window queried.
    params = ControllerParams(m=spec.m, w=spec.w, u=spec.u)
    store = NodeStore()
    for level in range(params.max_level + 1):
        controller_kernel.park(
            store, MobilePackage(level=level,
                                 size=params.mobile_size(level)))
    dists = []
    for level in range(params.max_level + 1):
        low = (1 << level) * params.psi
        dists.extend([low // 2 + 1, low + 1, 2 * low])
    rounds = max(50_000 // len(dists), 1)
    lookup = {}
    for label, fn in (("scan", controller_kernel.scan_filler),
                      ("indexed", controller_kernel.peek_filler)):
        start = time.perf_counter()
        for _ in range(rounds):
            for dist in dists:
                fn(store, dist, params)
        lookup[label] = time.perf_counter() - start
    queries = rounds * len(dists)
    for dist in dists:  # the two paths must agree query-for-query
        if (controller_kernel.scan_filler(store, dist, params)
                is not controller_kernel.peek_filler(store, dist, params)):
            raise InvariantViolation(f"lookup paths disagree at dist={dist}")

    return {
        "scenario": "kernel",
        "params": {"scenario": scenario, "seeds": seed_list,
                   "repeats": repeats, "stagger": stagger,
                   "m": spec.m, "w": spec.w, "u": spec.u, "n": spec.n},
        "cells": cells,
        "run_speedup_min": min(c["speedup"] for c in cells),
        "run_speedup_max": max(c["speedup"] for c in cells),
        "lookup": {
            "queries": queries,
            "parked_levels": params.max_level + 1,
            "scan_ms": round(lookup["scan"] * 1000, 3),
            "indexed_ms": round(lookup["indexed"] * 1000, 3),
            "speedup": round(lookup["scan"] / lookup["indexed"], 3)
            if lookup["indexed"] > 0 else float("inf"),
        },
        "equivalent": True,
    }


# ----------------------------------------------------------------------
# profile — where the wall clock goes on the distributed hot path.
# ----------------------------------------------------------------------
#: Self-time in these is "scheduler machinery" for the profile split:
#: the engine's own module plus the heapq primitives it leans on.
_SCHEDULER_FILES = ("sim/scheduler.py",)
_SCHEDULER_BUILTINS = frozenset(["heappush", "heappop"])


def _short_location(filename: str, lineno: int) -> str:
    marker = "repro/"
    index = filename.rfind(marker)
    if index >= 0:
        return f"{filename[index:]}:{lineno}"
    if filename.startswith("~"):
        return "builtin"
    return f"{filename.rsplit('/', 1)[-1]}:{lineno}"


def _is_scheduler_entry(filename: str, func: str) -> bool:
    if any(filename.endswith(part) for part in _SCHEDULER_FILES):
        return True
    return filename.startswith("~") and func in _SCHEDULER_BUILTINS


def run_profile(scenario: str = "deep_burst", seed: int = 0,
                stagger: float = 0.25, top: int = 12) -> Dict:
    """cProfile the distributed replay and report the hotspot table.

    Runs the named catalogue scenario once under ``cProfile`` and
    reports the top-``top`` functions by cumulative and by self time
    plus ``scheduler_self_pct`` — the share of total self time spent in
    scheduler machinery (the scheduler module and the ``heapq``
    primitives).  On deep_burst the ``top_self`` entry should be
    protocol work (the hop/lock handlers), not event dispatch.

    Profiled numbers are for *attribution only* — the tracer inflates
    every call, so wall-clock comparisons belong to ``run_kernel``.
    """
    spec = get_scenario(scenario)
    stream_specs = _materialize(spec, seed)
    tree, requests = _replay_requests(spec, seed, stream_specs)
    session = _session("distributed", tree, m=spec.m, w=spec.w, u=spec.u)
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    records = replay_stream(session, requests, stagger=stagger)
    profile.disable()
    wall = time.perf_counter() - start
    tally = _tally(r.outcome for r in records)
    messages = session.controller.counters.total
    session.close()

    entries = []
    scheduler_self = 0.0
    total_self = 0.0
    for (filename, lineno, func), (cc, nc, tt, ct, _callers) in (
            pstats.Stats(profile).stats.items()):
        total_self += tt
        if _is_scheduler_entry(filename, func):
            scheduler_self += tt
        entries.append({
            "function": func,
            "location": _short_location(filename, lineno),
            "ncalls": nc,
            "tottime_ms": round(tt * 1000, 3),
            "cumtime_ms": round(ct * 1000, 3),
        })
    by_self = sorted(entries, key=lambda e: e["tottime_ms"], reverse=True)
    by_cumulative = sorted(entries, key=lambda e: e["cumtime_ms"],
                           reverse=True)
    top_self = next(
        (e for e in by_self if e["location"].startswith("repro/")),
        by_self[0] if by_self else None)
    return {
        "scenario": "profile",
        "params": {"scenario": scenario, "seed": seed, "stagger": stagger,
                   "top": top,
                   "m": spec.m, "w": spec.w, "u": spec.u, "n": spec.n},
        "wall_ms": round(wall * 1000, 3),
        "messages": messages,
        "tally": tally,
        "scheduler_self_pct": round(
            scheduler_self / total_self * 100, 2) if total_self else 0.0,
        "top_self": top_self,
        "self_hotspots": by_self[:max(top, 1)],
        "hotspots": by_cumulative[:max(top, 1)],
    }


# ----------------------------------------------------------------------
# memory — Claim 4.8 node-state audit (the bench_e08 sweep).
# ----------------------------------------------------------------------
def _encoded_bits(board, log_n: float, log_u: float) -> float:
    """Bits to encode one whiteboard per the Claim 4.8 representation:
    per-level package counts, one merged static-pool integer, and one
    O(log N) record per queued agent (plus the two boolean flags)."""
    bits = 2.0  # lock flag + reject flag
    levels = {package.level for package in board.store.mobile}
    bits += len(levels) * log_u          # count per occupied level
    if board.store.static_permits:
        bits += 3 * log_n                # one O(log M) = O(log^3 N) integer
    bits += len(board.queue) * log_n     # queued agent records
    return bits


def _audit_boards(controller, audit: MemoryAudit,
                  log_n: float, log_u: float) -> None:
    for node, board in controller.boards.items():
        if node.alive:
            audit.record(node.node_id, node.child_degree,
                         _encoded_bits(board, log_n, log_u))


def run_memory(sizes: Optional[List[int]] = None,
               stagger: float = 0.25) -> Dict:
    """Per-node memory vs the Claim 4.8 bound, audited at peak load.

    Each size runs a concurrent distributed storm (``2n`` mixed-churn
    requests staggered ``stagger`` apart) and audits every live node's
    encoded whiteboard state — per-level package counts, the merged
    static pool, the agent queue — against
    ``deg(v) log N + log^3 N + log^2 U`` bits, once mid-flight (peak
    queueing) and once at quiescence.  The run **raises** if any node
    exceeds the bound or if the worst ratio grows with ``n`` (the bound
    would then be mis-stated); the JSON document records the per-size
    evidence.
    """
    sizes = sizes or [100, 400, 1600]
    rows = []
    for n in sizes:
        tree = build_random_tree(n, seed=n)
        u = 4 * n
        session = _session("distributed", tree, m=6 * n, w=n, u=u)
        audit = MemoryAudit()
        log_n, log_u = math.log2(2 * n), math.log2(u)
        rng = random.Random(n + 3)
        picker = NodePicker(tree)
        requests = [random_request(tree, rng, picker=picker)
                    for _ in range(2 * n)]
        picker.detach()
        start = time.perf_counter()
        session.submit_many(requests, stagger=stagger)
        # Audit mid-flight (peak queueing) and again at quiescence.
        session.scheduler.run(until=len(requests) * stagger / 2)
        _audit_boards(session.controller, audit, log_n, log_u)
        settled = list(session.drain())
        _audit_boards(session.controller, audit, log_n, log_u)
        wall = time.perf_counter() - start
        if len(settled) != len(requests):
            raise InvariantViolation(
                f"memory bench at n={n}: "
                f"{len(requests) - len(settled)} requests never resolved")
        worst = audit.worst_ratio(log_n, log_u)
        row = {
            "n": n, "u": u, "m": 6 * n, "w": n,
            "requests": len(requests),
            "samples": len(audit.samples),
            "worst_ratio": round(worst, 4),
            "within_bound": worst <= 1.0,
            "wall_ms": round(wall * 1000, 3),
        }
        row.update(_tally(r.outcome for r in settled))
        rows.append(row)
        session.close()
    ratios = [row["worst_ratio"] for row in rows]
    growth_ok = ratios[-1] <= 2.0 * max(ratios[0], 1e-6)
    document = {
        "scenario": "memory",
        "params": {"sizes": sizes, "stagger": stagger},
        "rows": rows,
        "worst_ratio": max(ratios),
        "within_bound": all(row["within_bound"] for row in rows),
        "ratio_growth_ok": growth_ok,
    }
    if not document["within_bound"] or not growth_ok:
        error = InvariantViolation(
            "Claim 4.8 memory audit failed: "
            + ("node state exceeded the bound"
               if not document["within_bound"]
               else "worst ratio grows with n"))
        error.document = document
        raise error
    return document


# ----------------------------------------------------------------------
# session — the session layer's own overhead, measured honestly.
# ----------------------------------------------------------------------
#: Flavours whose handle_batch consumes its input lazily (required by
#: the bench's TreeMirror replay; see run_session_overhead).
SESSION_BENCH_FLAVORS = ("centralized", "iterated", "adaptive",
                         "terminating", "trivial")


def run_session_overhead(n: int = 600, steps: int = 2000,
                         batch_size: int = 64, topology: str = "random",
                         mix: str = "default", seed: int = 0,
                         repeats: int = 3,
                         flavor: str = "iterated") -> Dict:
    """Session layer vs direct protocol calls on the batch workload.

    One request stream is recorded once (tree-independent specs), then
    replayed through two *paired* comparisons on identically-built twin
    trees:

    * **batch** — ``handle_batch`` (direct ``make_controller`` product)
      vs ``ControllerSession.serve_stream``, chunk by chunk;
    * **seq** — ``handle`` vs ``ControllerSession.serve``, block by
      block.

    The pairing is chunk-interleaved with alternating order (direct
    first on even chunks, session first on odd ones), so slow clock
    drift (CPU frequency, noisy CI neighbours) and warm-cache ordering
    bias hit both arms of a pair equally.  Both engines of a pair
    advance over the same stream in lockstep and must produce identical
    outcome sequences and move counters (asserted).  Because the
    replays are deterministic, chunk ``i`` does identical work in every
    repeat; each arm's wall clock is therefore the **sum of per-chunk
    minima** over ``repeats`` (the lower-envelope estimate, which
    converges far faster than min-of-totals under bursty noise).  The
    headline is ``overhead_batch_pct`` — the amortized session tax on
    the batched path, targeted at <= 5%.
    """
    if flavor not in SESSION_BENCH_FLAVORS:
        # The replay resolves each recorded spec lazily against a twin
        # tree, which needs a handle_batch that consumes its input
        # incrementally; the distributed engine and the wrappers
        # materialize batches up front, so specs that target mid-chunk
        # creations cannot resolve there.
        raise ConfigError(
            f"the session bench replays lazily and supports only the "
            f"synchronous flavours ({', '.join(SESSION_BENCH_FLAVORS)}); "
            f"got {flavor!r}")
    mix_map = _MIXES[mix]()
    u, m, w = 4 * n, 4 * n, max(n // 4, 1)

    # Record the stream once, sequentially, against a scratch engine.
    scratch = _build(topology, n, seed, True)
    recorder = _session(flavor, scratch, m=m, w=w, u=u)
    rng = random.Random(seed)
    picker = NodePicker(scratch)
    specs = []
    for _ in range(steps):
        request = random_request(scratch, rng, mix=mix_map, picker=picker)
        specs.append(request_spec(request))
        recorder.serve(request)
    picker.detach()

    def paired_replay(batched: bool):
        """One repeat: direct vs session over the same stream, timed
        chunk-against-chunk in alternating order.  Returns per-chunk
        time lists and the per-arm evidence (statuses + counters) for
        the equivalence assert."""
        tree_d = _build(topology, n, seed, True)
        tree_s = _build(topology, n, seed, True)
        mirror_d = TreeMirror(tree_d)
        mirror_s = TreeMirror(tree_s)
        controller = make_controller(flavor, tree_d, m=m, w=w, u=u)
        session = _session(flavor, tree_s, m=m, w=w, u=u)
        statuses_d: List[str] = []
        statuses_s: List[str] = []
        chunk_times_d: List[float] = []
        chunk_times_s: List[float] = []

        def run_direct(chunk) -> float:
            t0 = time.perf_counter()
            if batched:
                outcomes = controller.handle_batch(mirror_d.requests(chunk))
            else:
                outcomes = [controller.handle(mirror_d.request(spec))
                            for spec in chunk]
            elapsed = time.perf_counter() - t0
            statuses_d.extend(o.status.value for o in outcomes)
            return elapsed

        def run_session(chunk) -> float:
            t0 = time.perf_counter()
            if batched:
                records = session.serve_stream(mirror_s.requests(chunk))
            else:
                records = [session.serve(mirror_s.request(spec))
                           for spec in chunk]
            elapsed = time.perf_counter() - t0
            # Status read through the record's raw outcome — the same
            # enum access the direct arm pays, so the diff isolates
            # the session layer itself.
            statuses_s.extend(r.outcome.status.value for r in records)
            return elapsed

        for index, base in enumerate(range(0, len(specs), batch_size)):
            chunk = specs[base:base + batch_size]
            if index % 2 == 0:
                chunk_times_d.append(run_direct(chunk))
                chunk_times_s.append(run_session(chunk))
            else:
                chunk_times_s.append(run_session(chunk))
                chunk_times_d.append(run_direct(chunk))
        mirror_d.detach()
        mirror_s.detach()
        return (chunk_times_d, chunk_times_s,
                (statuses_d, tuple(sorted(
                    controller.counters.snapshot().items()))),
                (statuses_s, tuple(sorted(
                    session.controller.counters.snapshot().items()))))

    arm_chunks: Dict[str, List[float]] = {}
    evidence: Dict[str, object] = {}
    gc_was_enabled = gc.isenabled()
    try:
        gc.disable()
        for _ in range(max(repeats, 1)):
            for batched in (True, False):
                gc.collect()
                times_d, times_s, proof_d, proof_s = paired_replay(batched)
                kind = "batch" if batched else "seq"
                for label, times in ((f"direct_{kind}", times_d),
                                     (f"session_{kind}", times_s)):
                    if label in arm_chunks:
                        arm_chunks[label] = [
                            min(old, new) for old, new in
                            zip(arm_chunks[label], times)]
                    else:
                        arm_chunks[label] = times
                evidence[f"direct_{kind}"] = proof_d
                evidence[f"session_{kind}"] = proof_s
    finally:
        if gc_was_enabled:
            gc.enable()
    timings = {label: sum(times) for label, times in arm_chunks.items()}
    baseline = evidence["direct_batch"]
    for label in ("session_batch", "direct_seq", "session_seq"):
        if evidence[label] != baseline:
            raise InvariantViolation(
                f"arm {label} diverged from direct_batch "
                "(outcomes or counters differ)")

    def overhead(direct: float, session: float) -> float:
        return round((session - direct) / direct * 100, 2) if direct else 0.0

    overhead_batch = overhead(timings["direct_batch"],
                              timings["session_batch"])
    tally = _tally_statuses(baseline[0])
    return {
        "scenario": "session",
        "params": {"n": n, "steps": steps, "batch_size": batch_size,
                   "topology": topology, "mix": mix, "seed": seed,
                   "repeats": repeats, "flavor": flavor,
                   "m": m, "w": w, "u": u},
        "direct_batch_ms": round(timings["direct_batch"] * 1000, 3),
        "session_batch_ms": round(timings["session_batch"] * 1000, 3),
        "direct_seq_ms": round(timings["direct_seq"] * 1000, 3),
        "session_seq_ms": round(timings["session_seq"] * 1000, 3),
        "overhead_batch_pct": overhead_batch,
        "overhead_seq_pct": overhead(timings["direct_seq"],
                                     timings["session_seq"]),
        "target_pct": 5.0,
        "within_target": overhead_batch <= 5.0,
        "equivalent": True,
        **tally,
    }


def _tally_statuses(statuses: List[str]) -> Dict[str, int]:
    tally = {"granted": 0, "rejected": 0, "cancelled": 0, "pending": 0}
    for status in statuses:
        tally[status] += 1
    return tally


# ----------------------------------------------------------------------
# apps — the Section 5 application layer, measured honestly.
# ----------------------------------------------------------------------
#: The churn mix the estimator benches have always used (bench_e05..e07):
#: topological requests only, additions slightly outweighing removals.
APP_BENCH_MIX = {
    RequestKind.ADD_LEAF: 0.35,
    RequestKind.ADD_INTERNAL: 0.15,
    RequestKind.REMOVE_LEAF: 0.30,
    RequestKind.REMOVE_INTERNAL: 0.20,
}

def _app_spec_for(name: str, **knobs: Any):
    from repro.service import AppSpec
    params: Dict[str, Any] = {}
    if name == "size_estimation" or name == "subtree_estimator":
        params["beta"] = 2.0
    if name == "majority_commit":
        params["total"] = 1 << 20  # the universe bound never binds here
    return AppSpec(name, params=params, **knobs)


def _app_state(name: str, app: Any, tree) -> Any:
    """The app-level state the old/new equivalence compares: estimates,
    ids, mu pointers — whatever the app's theorem is about."""
    if name == "size_estimation":
        return ("estimate", app.estimate, app.iterations_run)
    if name == "name_assignment":
        return ("ids", tuple(sorted(app.ids[node]
                                    for node in tree.nodes())))
    if name == "subtree_estimator":
        probe = app.estimate_of if hasattr(app, "estimate_of") else app.estimate
        return ("sw", tuple(sorted(probe(node) for node in tree.nodes())))
    if name == "heavy_child":
        return ("mu", tuple(sorted(
            (k.node_id, v.node_id) for k, v in app._mu.items())))
    return ()


def _drive_app_overhead(name: str, n: int, steps: int, batch_size: int,
                        seed: int, repeats: int) -> Dict:
    """Per-request ``serve`` vs chunked ``serve_stream`` on identical
    churn, chunk-paired.

    The stream is recorded once (tree-independent specs) against a
    scratch run of the app, then replayed through two twin trees —
    the per-request path and the chunked streaming path — chunk
    against chunk in alternating order, exactly the
    ``run_session_overhead`` pairing discipline (per-chunk minima over
    ``repeats``).  Outcome sequences and the app-level state
    (estimates / ids / mu pointers) must match; the headline is the
    amortized per-request tax the streaming path removes.
    """
    from repro.apps import make_app

    # Record the stream once against a scratch run of the app itself.
    scratch = build_random_tree(n, seed=seed)
    recorder = make_app(_app_spec_for(name), tree=scratch)
    rng = random.Random(seed + 1)
    picker = NodePicker(scratch)
    specs = []
    for _ in range(steps):
        request = random_request(scratch, rng, mix=APP_BENCH_MIX,
                                 picker=picker)
        specs.append(request_spec(request))
        recorder.serve(request)
    picker.detach()
    recorder.close()

    def paired_replay():
        """Two arms on twin trees, timed chunk-against-chunk in
        alternating order: the app's per-request ``serve`` (baseline)
        and the app's chunked ``serve_stream`` (the <= 5% target arm,
        mirroring the session bench's batched comparison)."""
        trees = [build_random_tree(n, seed=seed) for _ in range(2)]
        mirrors = [TreeMirror(tree) for tree in trees]
        app_seq = make_app(_app_spec_for(name), tree=trees[0])
        app_batch = make_app(_app_spec_for(name), tree=trees[1])
        statuses: Dict[str, List[str]] = {"seq": [], "batch": []}
        chunk_times: Dict[str, List[float]] = {"seq": [], "batch": []}

        def run_seq(chunk) -> float:
            mirror = mirrors[0]
            t0 = time.perf_counter()
            records = [app_seq.serve(mirror.request(spec))
                       for spec in chunk]
            elapsed = time.perf_counter() - t0
            statuses["seq"].extend(
                r.outcome.status.value for r in records)
            return elapsed

        def run_batch(chunk) -> float:
            mirror = mirrors[1]
            t0 = time.perf_counter()
            records = app_batch.serve_stream(mirror.requests(chunk))
            elapsed = time.perf_counter() - t0
            statuses["batch"].extend(
                r.outcome.status.value for r in records)
            return elapsed

        arms = (("seq", run_seq), ("batch", run_batch))
        for index, base in enumerate(range(0, len(specs), batch_size)):
            chunk = specs[base:base + batch_size]
            for offset in range(2):  # alternate the arm order per chunk
                label, runner = arms[(index + offset) % 2]
                chunk_times[label].append(runner(chunk))
        for mirror in mirrors:
            mirror.detach()
        for app in (app_seq, app_batch):
            report = app.audit()
            if not report.passed:
                raise InvariantViolation(
                    f"app {name}: invariant audit failed in overhead "
                    f"bench: {report.violations[0].message}")
        evidence = {
            "seq": (statuses["seq"], _app_state(name, app_seq, trees[0])),
            "batch": (statuses["batch"],
                      _app_state(name, app_batch, trees[1])),
        }
        app_seq.close()
        app_batch.close()
        return chunk_times, evidence

    best: Dict[str, List[float]] = {}
    evidence: Dict[str, object] = {}
    gc_was_enabled = gc.isenabled()
    try:
        gc.disable()
        for _ in range(max(repeats, 1)):
            gc.collect()
            chunk_times, evidence = paired_replay()
            for label, times in chunk_times.items():
                best[label] = ([min(a, b) for a, b in
                                zip(best[label], times)]
                               if label in best else times)
    finally:
        if gc_was_enabled:
            gc.enable()
    if evidence["batch"] != evidence["seq"]:
        raise InvariantViolation(
            f"app {name}: batch path diverged from seq "
            "(outcomes or app state differ)")
    timings = {label: sum(times) for label, times in best.items()}
    baseline = timings["seq"]
    overhead_batch = (round((timings["batch"] - baseline) / baseline
                            * 100, 2) if baseline else 0.0)

    return {
        "app": name,
        "app_seq_ms": round(timings["seq"] * 1000, 3),
        "app_batch_ms": round(timings["batch"] * 1000, 3),
        "overhead_batch_pct": overhead_batch,
        "equivalent": True,
        **_tally_statuses(list(evidence["seq"][0])),
    }



def _drive_app_complexity(name: str, sizes: List[int],
                          steps_per_node: int, seed: int) -> Dict:
    """Messages-per-change sweep for one app on the new path: the
    bench_e05/e06/e07 measurement, CLI-shaped.  Reports the amortized
    cost per topological change, the ``12 log^2 n`` envelope ratio, a
    log-log slope of total messages against n (near 1 = near-linear
    totals = polylog amortized), and the app's guarantee statistic."""
    import math as _math

    from repro.apps import make_app

    rows = []
    totals = []
    for n in sizes:
        tree = build_random_tree(n, seed=seed + n)
        app = make_app(_app_spec_for(name), tree=tree)
        rng = random.Random(seed + n + 1)
        picker = NodePicker(tree)
        worst: float = 0.0
        for _ in range(steps_per_node * n):
            request = random_request(tree, rng, mix=APP_BENCH_MIX,
                                     picker=picker)
            app.serve(request)
        picker.detach()
        report = app.audit()
        if not report.passed:
            raise InvariantViolation(
                f"app {name}: invariant audit failed at n={n}: "
                f"{report.violations[0].message}")
        if name == "subtree_estimator":
            # The Lemma 5.3 guarantee is about super-weights, not the
            # root size estimate: worst over-approximation over nodes
            # (estimates never undercount — every addition below v
            # shipped its permit through v first).
            worst = max(app.estimate_of(node) / app.true_super_weight(node)
                        for node in tree.nodes())
        elif name in ("size_estimation", "majority_commit",
                      "ancestry_labels", "routing_labels"):
            worst = app.check_approximation()
        elif name == "name_assignment":
            app.check_invariants()
            worst = max(app.ids[v] for v in tree.nodes()) / tree.size
        elif name == "heavy_child":
            worst = app.max_light_depth()
        messages = app.counters.total
        changes = max(tree.topology_changes, 1)
        per_change = messages / changes
        envelope = 12 * _math.log2(max(tree.size, 4)) ** 2
        row = {
            "n": n, "final_n": tree.size, "changes": changes,
            "iterations": app.iterations_run,
            "messages": messages,
            "per_change": round(per_change, 2),
            "envelope_12log2": round(envelope, 2),
            "within_envelope": per_change <= envelope,
            "guarantee_stat": round(float(worst), 3),
        }
        if hasattr(app, "label_counters"):
            row["label_messages"] = app.label_counters.total
            row["label_per_change"] = round(
                app.label_counters.total / changes, 2)
        rows.append(row)
        totals.append(messages)
        app.close()
    return {
        "app": name,
        "rows": rows,
        # Total messages ~ n polylog(n): the log-log slope against n
        # stays near 1 when the amortized cost is polylog.  (None when
        # the sweep has a single size — a fit needs two points.)
        "log_log_slope": round(log_log_slope(sizes, totals), 4)
        if len(sizes) >= 2 else None,
        "polylog_envelope_held": all(r["within_envelope"] for r in rows),
    }


def _drive_app_grid_cell(name: str, policy: str, faults: Optional[str],
                         n: int, steps: int, seed: int,
                         grid_report: InvariantReport) -> Dict:
    """One event-driven cell: the app on the distributed engine under a
    schedule policy (and optionally a fault plan), invariant-audited."""
    from repro.apps import make_app
    from repro.service import IterationRecord

    cell_seed = _cell_seed("apps", name, policy, faults or "none", seed)
    tree = build_random_tree(n, seed=seed)
    spec = _app_spec_for(name, flavor="distributed",
                         schedule_policy=policy, faults=faults,
                         seed=cell_seed, max_in_flight=1 << 20)
    app = make_app(spec, tree=tree)
    # Pre-generated against the initial topology (catalogue style):
    # targets may vanish mid-run and resolve CANCELLED, which is the
    # Section 4.2 semantics, not an error.
    rng = random.Random(cell_seed)
    requests = [random_request(tree, rng, mix=APP_BENCH_MIX)
                for _ in range(steps)]
    start = time.perf_counter()
    app.submit_many(requests)
    stream = app.settle_all()
    wall = time.perf_counter() - start
    boundaries = sum(1 for r in stream if isinstance(r, IterationRecord))
    app.audit(grid_report)
    if name == "name_assignment":
        app.check_invariants()
    cell = {
        "app": name, "policy": policy, "faults": faults or "none",
        "iterations": app.iterations_run, "boundaries": boundaries,
        "engine_messages": app.engine_counters.total,
        "wall_ms": round(wall * 1000, 3),
    }
    cell.update(app.tally())
    if faults:
        # The whole-run view: banked per-iteration injector tallies
        # plus the live one (each rollover wires a fresh injector).
        cell["fault_stats"] = app.fault_stats
    app.close()
    return cell


def run_apps(apps: str = "all", sizes: Optional[List[int]] = None,
             steps_per_node: int = 3, overhead_n: int = 200,
             overhead_steps: int = 600, batch_size: int = 64,
             repeats: int = 3, seed: int = 0,
             policies: str = "fifo,random,adversary",
             faults: str = "stall=0.05",
             grid_n: int = 40, grid_steps: int = 120) -> Dict:
    """The application-layer bench: overhead + complexity + grid.

    Three sections, one JSON document (``BENCH_apps.json``):

    * **overhead** — the app's chunked ``serve_stream`` path vs its
      per-request ``serve`` path on identical churn (chunk-paired,
      per-chunk minima, equivalence-asserted); target <= 5% amortized
      across the apps;
    * **complexity** — the bench_e05/e06/e07 sweeps on the new path:
      messages per topological change against the ``12 log^2 n``
      polylog envelope, plus log-log fits of the totals
      (:mod:`repro.metrics.fitting`);
    * **grid** — every app event-driven on the distributed engine,
      per schedule policy, without and with a fault plan, audited by
      :func:`repro.metrics.invariants.audit_app`; the run **raises**
      on any violation.
    """
    from repro.service import APP_NAMES, resolve_app

    if apps == "all":
        names = list(APP_NAMES)
    else:
        # resolve_app applies the same spelling normalization every
        # other entry point accepts (hyphens, whitespace) and raises
        # ConfigError — a ValueError — naming the registry.
        names = [resolve_app(part)
                 for part in apps.split(",") if part.strip()]
    sizes = sizes or [100, 200, 400]
    policy_list = [p.strip() for p in policies.split(",") if p.strip()]
    for policy in policy_list:
        if policy not in SCHEDULE_POLICIES:
            raise ConfigError(
                f"unknown policy {policy!r}; known: "
                f"{', '.join(SCHEDULE_POLICIES)}")

    overhead_rows = [
        _drive_app_overhead(name, overhead_n, overhead_steps, batch_size,
                            seed, repeats)
        for name in names]
    seq_total = sum(r["app_seq_ms"] for r in overhead_rows)
    batch_total = sum(r["app_batch_ms"] for r in overhead_rows)
    amortized = (round((batch_total - seq_total) / seq_total * 100, 2)
                 if seq_total else 0.0)

    complexity = [_drive_app_complexity(name, sizes, steps_per_node, seed)
                  for name in names]

    grid_report = InvariantReport()
    cells = []
    for name in names:
        for policy in policy_list:
            for plan in (None, faults):
                cells.append(_drive_app_grid_cell(
                    name, policy, plan, grid_n, grid_steps, seed,
                    grid_report))

    document = {
        "scenario": "apps",
        "params": {
            "apps": names, "sizes": sizes,
            "steps_per_node": steps_per_node,
            "overhead_n": overhead_n, "overhead_steps": overhead_steps,
            "batch_size": batch_size, "repeats": repeats, "seed": seed,
            "policies": policy_list, "faults": faults,
            "grid_n": grid_n, "grid_steps": grid_steps,
        },
        "overhead": {
            "rows": overhead_rows,
            "amortized_pct": amortized,
            "target_pct": 5.0,
            "within_target": amortized <= 5.0,
        },
        "complexity": complexity,
        "grid": {
            "cells": cells,
            "invariants": grid_report.to_json(),
            "checks_run": sum(grid_report.checks.values()),
            "violations": len(grid_report.violations),
            "passed": grid_report.passed,
        },
    }
    if not grid_report.passed:
        first = grid_report.violations[0]
        error = InvariantViolation(
            f"invariant violations in the apps grid "
            f"({len(grid_report.violations)} total); first: "
            f"[{first.invariant}] {first.message}")
        error.document = document
        raise error
    return document


# ----------------------------------------------------------------------
# gateway — concurrent ingestion under churn (throughput + latency).
# ----------------------------------------------------------------------
def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def run_gateway(scenario: str = "mixed_flood", seeds: str = "0,1,2",
                clients: int = 4, wave: int = 10,
                batch_size: int = 8, queue_capacity: int = 256,
                policy: str = "fifo", delays: str = "burst",
                faults: str = "stall=0.15,storms=3,storm_size=6",
                breaker_latency: float = 300.0,
                breaker_failures: int = 2, breaker_cooldown: int = 2,
                breaker_probes: int = 1,
                scale: float = 0.5, stagger: float = 0.25) -> Dict:
    """Sustained ingestion through the gateway under a churn storm.

    Per seed: the catalogue scenario's pre-generated stream is split
    round-robin across ``clients`` real threads, each submitting
    chunked waves through a worker-pumped :class:`repro.gateway.
    Gateway` over the event-driven engine with bursty delays, stall
    faults, and churn storms — the fault regime the circuit breaker
    exists for.  Clients retry shed requests (which is what supplies
    HALF_OPEN with probes), so the breaker's full trip/recover cycle
    runs under measurement.

    Reported per cell: sustained engine throughput (settled requests
    per wall second), wall-clock p50/p99 settlement latency in
    milliseconds, simulated-clock p50/p99, the full
    :class:`~repro.gateway.GatewayStats` snapshot (trips, recoveries,
    sheds, probes), and the injector's fault tallies.  The grid then
    *asserts*: every cell's full-stack audit is clean (gateway
    conservation -> session envelopes -> controller invariants), no
    ticket was dropped or double-settled, and the breaker both tripped
    and recovered at least once across the grid — a bench run that
    never exercised the breaker is a configuration bug, not a result.
    Violations raise ``InvariantViolation`` with the JSON document
    attached (the bench CLI prints it before failing).
    """
    spec = get_scenario(scenario)
    if scale != 1.0:
        spec = spec.scaled(scale)
    seed_list = [int(part) for part in str(seeds).split(",") if part != ""]
    fault_plan = parse_fault_spec(faults)
    gateway_config = GatewayConfig(
        queue_capacity=queue_capacity, batch_size=batch_size,
        breaker_latency=breaker_latency,
        breaker_failures=breaker_failures,
        breaker_cooldown=breaker_cooldown,
        breaker_probes=breaker_probes)
    grid_report = InvariantReport()
    cells: List[Dict] = []
    total_trips = total_recoveries = 0

    for seed in seed_list:
        cell_seed = _cell_seed("gateway", spec.name, policy, seed)
        stream_specs = _materialize(spec, seed)
        tree, requests = _replay_requests(spec, seed, stream_specs)
        span = len(requests) * stagger + 4 * spec.n
        plan = dataclasses.replace(
            fault_plan.resolved(span),
            seed=int(fault_plan.seed) ^ cell_seed)
        config = SessionConfig(
            controller=ControllerSpec("distributed", m=spec.m, w=spec.w,
                                      u=spec.u),
            schedule_policy=policy, delay_model=delays, faults=plan,
            seed=cell_seed, max_in_flight=1 << 20)
        session = ControllerSession(config, tree=tree)
        gateway = Gateway(session, gateway_config)
        label = f"{spec.name}/{policy}/seed={seed}"
        settled_verdicts: List[str] = []
        client_errors: List[BaseException] = []

        def serve_slice(idx: int, gateway: Gateway = gateway,
                        requests: List[Request] = requests,
                        sink: List[str] = settled_verdicts,
                        errors: List[BaseException] = client_errors
                        ) -> None:
            try:
                mine = requests[idx::clients]
                for start in range(0, len(mine), wave):
                    chunk = mine[start:start + wave]
                    for _ in range(1000):  # shed-retry loop
                        tickets = [gateway.submit(r, client=f"c{idx}")
                                   for r in chunk]
                        for ticket in tickets:
                            ticket.result(timeout=120)
                        sink.extend(t.verdict.value for t in tickets
                                    if t.verdict.value != "shed")
                        chunk = [t.request for t in tickets
                                 if t.verdict.value == "shed"]
                        if not chunk:
                            break
                        time.sleep(0.0005)
            except BaseException as error:
                errors.append(error)

        gateway.start()
        threads = [threading.Thread(target=serve_slice, args=(idx,))
                   for idx in range(clients)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        drained = gateway.join(timeout=300)
        wall = time.perf_counter() - start
        gateway.stop()

        grid_report.expect(
            not client_errors and drained
            and not any(t.is_alive() for t in threads),
            "liveness",
            f"{label}: clients hung or errored: {client_errors[:2]}",
            scenario=spec.name, seed=seed)
        stats = gateway.stats
        grid_report.expect(
            len(settled_verdicts) == len(requests), "liveness",
            f"{label}: {len(requests) - len(settled_verdicts)} requests "
            "never reached a non-shed settlement",
            scenario=spec.name, seed=seed)
        audit_gateway(gateway, grid_report)
        total_trips += stats.breaker_trips
        total_recoveries += stats.breaker_recoveries
        lat_ms = [value * 1000.0 for value in gateway.latencies_wall]
        cells.append({
            "scenario": spec.name, "seed": seed, "policy": policy,
            "requests": len(requests), "clients": clients,
            "wall_s": round(wall, 4),
            "req_per_s": round(stats.settled / wall, 1) if wall else 0.0,
            "latency_wall_ms": {
                "p50": round(_percentile(lat_ms, 0.50), 3),
                "p99": round(_percentile(lat_ms, 0.99), 3),
            },
            "latency_sim": {
                "p50": round(_percentile(gateway.latencies_session,
                                         0.50), 3),
                "p99": round(_percentile(gateway.latencies_session,
                                         0.99), 3),
            },
            "stats": stats.snapshot(),
            "fault_stats": dict(getattr(session.controller, "faults").stats
                                if getattr(session.controller, "faults",
                                           None) is not None else {}),
            "simulated_time": round(session.now, 3),
        })
        session.close()

    grid_report.expect(
        total_trips >= 1 and total_recoveries >= 1, "breaker",
        f"the grid never exercised the breaker (trips={total_trips}, "
        f"recoveries={total_recoveries}); tighten breaker_latency or "
        "the fault plan",
        trips=total_trips, recoveries=total_recoveries)

    document = {
        "scenario": "gateway",
        "workload": spec.params_json(),
        "gateway_config": gateway_config.snapshot(),
        "faults": fault_plan.snapshot(),
        "cells": cells,
        "throughput": {
            "sustained_req_per_s": round(
                sum(c["req_per_s"] for c in cells) / max(len(cells), 1),
                1),
            "breaker_trips": total_trips,
            "breaker_recoveries": total_recoveries,
        },
        "invariants": grid_report.to_json(),
        "checks_run": sum(grid_report.checks.values()),
        "violations": len(grid_report.violations),
        "passed": grid_report.passed,
    }
    if not grid_report.passed:
        first = grid_report.violations[0]
        error = InvariantViolation(
            f"invariant violations in the gateway grid "
            f"({len(grid_report.violations)} total); first: "
            f"[{first.invariant}] {first.message}")
        error.document = document
        raise error
    return document


# ----------------------------------------------------------------------
# fleet — the sharded controller fleet (scale-out acceptance bench).
# ----------------------------------------------------------------------
def _drive_fleet_cell(shard_count: int, steps: int, clients: int,
                      seed: int, grid_report: "InvariantReport") -> Dict:
    """One scaling cell: mixed default-mix churn over ``shard_count``
    shards, ``clients`` sticky origins, budget sized to grant the whole
    stream (throughput is measured, not exhaustion).

    Throughput is *simulated*: each shard's busy time is its message
    moves plus one tick of per-request engine overhead (1 tick = 1 us);
    shards run in parallel, so the fleet's makespan is the busiest
    shard's total and sustained req/s = steps / makespan.  That makes
    the scaling number a property of the workload and the router —
    independent of host load — while wall clock is reported alongside.
    """
    from repro.fleet import FleetConfig, FleetRouter

    label = f"shards={shard_count}"
    config = FleetConfig.of(
        shards=shard_count, m_total=2 * steps + shard_count,
        w_total=2 * shard_count, u=4 * steps,
        seed=_cell_seed("fleet", shard_count, seed))
    fleet = FleetRouter(config)
    rng = random.Random(seed)
    mix = default_mix()
    pickers = [NodePicker(shard.tree) for shard in fleet.shards]
    start = time.perf_counter()
    for _ in range(steps):
        client = f"client-{rng.randrange(clients)}"
        index = fleet.place(client)
        request = random_request(fleet.shards[index].tree, rng, mix=mix,
                                 picker=pickers[index])
        fleet.serve(request, origin=client)
    wall = time.perf_counter() - start
    for picker in pickers:
        picker.detach()

    busy = [shard.served + shard.counters.total for shard in fleet.shards]
    makespan = max(busy)
    report = fleet.audit()
    grid_report.expect(report.passed, "fleet_audit",
                       f"{label}: {report.violations[:2]}",
                       shards=shard_count)
    tally = fleet.tally()
    grid_report.expect(tally.get("rejected", 0) == 0, "budget_sizing",
                       f"{label}: scaling cell hit the reject wave "
                       "(budget under-sized; timings would mix regimes)",
                       shards=shard_count)
    cell = {
        "shards": shard_count, "steps": steps, "clients": clients,
        "busy_ticks": busy, "makespan_ticks": makespan,
        "total_ticks": sum(busy),
        "sustained_req_per_s": round(steps * 1e6 / makespan, 1),
        "wall_s": round(wall, 4),
        "tally": tally,
        "transfers": len(fleet.ledger),
        "granted_total": fleet.granted_total,
        "audit_passed": report.passed,
    }
    fleet.close()
    return cell


def run_fleet(shards: str = "1,2,4,8", steps: int = 2000,
              clients: int = 256, seed: int = 7,
              scale: float = 0.25) -> Dict:
    """The fleet acceptance bench (``BENCH_fleet.json``).

    Three sections, every one invariant-audited:

    * **scaling** — mixed default-mix churn at each shard count;
      simulated sustained req/s (see :func:`_drive_fleet_cell`),
      speedup vs the 1-shard cell, and scaling efficiency
      (speedup / shards).  Asserts >= 3x sustained req/s at 4 shards.
    * **equivalence** — the 1-shard fleet replays the mixed_flood
      catalogue stream against a plain terminating
      :class:`~repro.service.session.ControllerSession` twin:
      tallies, move counters, and the verdict sequence must be
      bit-for-bit identical.
    * **stress** — skewed-weight fleets driven through exhaustion:
      must produce >= 1 cross-shard ``BudgetTransfer`` (including a
      live-session ``reclaim``), end in a global reject wave with
      fleet-level waste zero (granted == m_total before any client
      reject), and audit clean.

    Violations raise ``InvariantViolation`` with the JSON document
    attached (the bench CLI prints it before failing).
    """
    from repro.fleet import FleetConfig, FleetRouter

    shard_counts = [int(part) for part in str(shards).split(",")
                    if part != ""]
    grid_report = InvariantReport()
    cells = [_drive_fleet_cell(count, steps, clients, seed, grid_report)
             for count in shard_counts]

    baseline = next((c for c in cells if c["shards"] == 1), cells[0])
    scaling = []
    for cell in cells:
        speedup = (baseline["makespan_ticks"] / cell["makespan_ticks"]
                   if cell["makespan_ticks"] else 0.0)
        scaling.append({
            "shards": cell["shards"],
            "sustained_req_per_s": cell["sustained_req_per_s"],
            "speedup": round(speedup, 3),
            "efficiency": round(speedup / cell["shards"], 3),
        })
    four = next((s for s in scaling if s["shards"] == 4), None)
    if four is not None:
        grid_report.expect(
            four["speedup"] >= 3.0, "scaling",
            f"4-shard speedup {four['speedup']} below the 3x bar",
            speedup=four["speedup"])

    # Equivalence: 1-shard fleet == plain terminating session.
    spec = get_scenario("mixed_flood").scaled(scale)
    fleet_tree = spec.build_tree(seed=seed)
    stream_specs = [request_spec(r)
                    for r in spec.stream(fleet_tree, seed=seed + 1)]
    fleet = FleetRouter(
        FleetConfig.of(shards=1, m_total=spec.m, w_total=spec.w,
                       u=spec.u),
        trees=[fleet_tree])
    fleet_records = fleet.serve_stream(
        TreeMirror(fleet_tree).requests(stream_specs))

    plain_tree = spec.build_tree(seed=seed)
    plain = ControllerSession(
        SessionConfig(controller=ControllerSpec(
            "terminating", m=spec.m, w=spec.w, u=spec.u)),
        tree=plain_tree)
    plain_records = [plain.serve(r)
                     for r in TreeMirror(plain_tree).requests(stream_specs)]

    equivalent = (
        fleet.tally() == plain.tally()
        and fleet.shards[0].counters.snapshot()
        == plain.controller.counters.snapshot()
        and [r.outcome.status for r in fleet_records]
        == [r.outcome.status for r in plain_records])
    grid_report.expect(
        equivalent, "equivalence",
        "1-shard fleet diverged from the plain session on "
        f"{spec.name} (tallies {fleet.tally()} vs {plain.tally()})")
    audit_report = fleet.audit()
    grid_report.expect(audit_report.passed, "fleet_audit",
                       f"equivalence cell: {audit_report.violations[:2]}")
    equivalence = {
        "scenario": spec.name, "requests": len(stream_specs),
        "tally": fleet.tally(), "equivalent": equivalent,
    }
    fleet.close(), plain.close()

    # Stress: forced transfers, live reclaim, and the reject wave.
    stress = FleetRouter(FleetConfig.of(
        shards=2, m_total=60, w_total=8, u=2048, tranche=10,
        weights=[3, 1], seed=seed))
    rng = random.Random(seed)
    for _ in range(4 * 60):
        client = f"client-{rng.randrange(8)}"
        tree = stress.tree_of(client)
        node = rng.choice(list(tree.nodes()))
        stress.serve(Request(RequestKind.ADD_LEAF, node), origin=client)
    stress_tally = stress.tally()
    stress_report = stress.audit()
    grid_report.expect(stress_report.passed, "fleet_audit",
                       f"stress cell: {stress_report.violations[:2]}")
    grid_report.expect(
        len(stress.ledger) >= 1, "transfers",
        "the skewed stress cell produced no cross-shard transfer")
    grid_report.expect(
        stress.reject_wave
        and stress.granted_total == stress.config.m_total, "reject_wave",
        f"stress cell: granted {stress.granted_total} of "
        f"{stress.config.m_total} at the wave (fleet waste must be 0)")

    reclaim = FleetRouter(FleetConfig.of(
        shards=2, m_total=40, w_total=4, u=2048, weights=[39, 1],
        seed=seed))
    starved = reclaim.shards[1]
    for _ in range(10):
        reclaim.serve(Request(RequestKind.ADD_LEAF, starved.tree.root))
    reclaim_kinds = sorted({entry.kind
                            for entry in reclaim.ledger.entries})
    reclaim_report = reclaim.audit()
    grid_report.expect(reclaim_report.passed, "fleet_audit",
                       f"reclaim cell: {reclaim_report.violations[:2]}")
    grid_report.expect(
        "reclaim" in reclaim_kinds, "transfers",
        f"no live-session reclaim flowed (kinds: {reclaim_kinds})")

    stress_section = {
        "tranche_cell": {
            "tally": stress_tally,
            "transfers": [e.snapshot() for e in stress.ledger.entries],
            "reject_wave": stress.reject_wave,
            "granted_total": stress.granted_total,
            "m_total": stress.config.m_total,
        },
        "reclaim_cell": {
            "transfer_kinds": reclaim_kinds,
            "transfers": [e.snapshot() for e in reclaim.ledger.entries],
        },
    }
    stress.close(), reclaim.close()

    document = {
        "scenario": "fleet",
        "tick_model": "1 tick = 1 us; busy = served + moves; "
                      "makespan = busiest shard",
        "cells": cells,
        "scaling": scaling,
        "equivalence": equivalence,
        "stress": stress_section,
        "invariants": grid_report.to_json(),
        "checks_run": sum(grid_report.checks.values()),
        "violations": len(grid_report.violations),
        "passed": grid_report.passed,
    }
    if not grid_report.passed:
        first = grid_report.violations[0]
        error = InvariantViolation(
            f"invariant violations in the fleet bench "
            f"({len(grid_report.violations)} total); first: "
            f"[{first.invariant}] {first.message}")
        error.document = document
        raise error
    return document


SCENARIOS = {
    "ancestry": run_ancestry,
    "move_complexity": run_move_complexity,
    "batch": run_batch,
    "scenario": run_scenario_bench,
    "scenario_grid": run_scenario_grid,
    "distributed_batch": run_distributed_batch,
    "kernel": run_kernel,
    "profile": run_profile,
    "memory": run_memory,
    "session": run_session_overhead,
    "apps": run_apps,
    "gateway": run_gateway,
    "fleet": run_fleet,
}
