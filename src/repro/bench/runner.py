"""Benchmark scenario implementations for ``python -m repro.bench``.

Each ``run_*`` function builds its workload, runs it, and returns a
JSON-serializable dict.  The grid, apps, gateway, fleet and memory
runs audit every cell with the invariant checker and raise
``InvariantViolation`` (with the document attached) on any violation,
so a bench run doubles as a correctness gate.  Wall-clock numbers are
reported for reference; the repo's speed yardstick is ``stackbench/``.

Every entry point constructs its engine through the session layer
(``SessionConfig``/``ControllerSession`` — see ``repro.service`` and
docs §7).
"""

import cProfile
import dataclasses
import math
import pstats
import random
import threading
import time
import zlib
from typing import Any, Dict, List, Optional

from repro.core.requests import Request, RequestKind
from repro.distributed.faults import FaultPlan, parse_fault_spec
from repro.errors import (
    ConfigError,
    InvariantViolation,
    ProtocolError,
    SimulationError,
)
from repro.metrics.fitting import log_log_slope, observation_3_4_bound
from repro.gateway import Gateway, GatewayConfig
from repro.metrics.counters import MemoryAudit
from repro.metrics.invariants import (
    CounterWatch,
    InvariantReport,
    audit_gateway,
    tally_outcomes,
)
from repro.registry import CONTROLLER_FLAVORS
from repro.service import (
    ControllerSession,
    ControllerSpec,
    SessionConfig,
    drive_scenario,
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


def _build(topology: str, n: int, seed: int):
    builder = _TOPOLOGIES[topology]
    if builder is build_random_tree:
        return builder(n, seed=seed)
    return builder(n)


def _int_csv(text: object, name: str) -> List[int]:
    """``"0,1,2"`` as integers.  A non-integer item, or no item at all
    (a sweep over nothing would pass vacuously), is a ConfigError
    naming the valid form."""
    try:
        values = [int(part) for part in str(text).split(",") if part.strip()]
    except ValueError:
        values = []
    if not values:
        raise ConfigError(
            f"{name} must be one or more comma-separated integers, "
            f"e.g. '0,1,2'; got {text!r}")
    return values


def _at_least_one(**values: int) -> None:
    for name, value in values.items():
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")


def _audited(document: Dict, report: InvariantReport, where: str) -> Dict:
    """Return ``document`` if ``report`` passed; otherwise raise an
    ``InvariantViolation`` naming the first violation, with the document
    attached so the CLI can still honour ``--out`` before re-raising
    (the per-cell evidence matters most on failure)."""
    if report.passed:
        return document
    first = report.violations[0]
    error = InvariantViolation(
        f"invariant violations in {where} ({len(report.violations)} "
        f"total); first: [{first.invariant}] {first.message}")
    error.document = document
    raise error


def _fault_plan(faults: Optional[str]) -> FaultPlan:
    """:func:`parse_fault_spec`, with a malformed spec reported as the
    ConfigError a bad option value is."""
    try:
        return parse_fault_spec(faults)
    except SimulationError as error:
        raise ConfigError(f"bad faults spec {faults!r}: {error}") from None


def _session(kind: str, tree, m: int, w: int, u: int, *,
             window: int = 1 << 20, **knobs: Any) -> ControllerSession:
    """Session-backed construction: every bench entry point wires its
    engine through ``SessionConfig``/``ControllerSession`` (the window
    defaults wide open — benches measure the engine, not admission)."""
    config = SessionConfig.of(kind, m=m, w=w, u=u,
                              max_in_flight=window, **knobs)
    return ControllerSession(config, tree=tree)


# ----------------------------------------------------------------------
# move_complexity — the Observation 3.4 sweep on deep paths.
# ----------------------------------------------------------------------
def run_move_complexity(sizes: str = "200,400,800,1600,3200",
                        seed: int = 0) -> Dict:
    """Observation 3.4 on deep paths: moves vs ``O(U log^2 U log(M/W))``.

    Sweep the path length (``sizes``, comma-separated) under the
    default churn mix and report measured/bound ratios plus the log-log
    slope (near-linear growth expected; ``tests/test_paper_claims.py``
    gates both).
    """
    size_list = _int_csv(sizes, "sizes")
    _at_least_one(sizes=min(size_list))
    if len(set(size_list)) < 2:
        raise ConfigError(f"sizes needs two or more distinct sizes for "
                          f"the log-log slope, got {sizes!r}")
    rows = []
    measured = []
    for n in size_list:
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
        "params": {"sizes": size_list, "seed": seed},
        "rows": rows,
        "log_log_slope": round(log_log_slope(size_list, measured), 4),
        "max_ratio": max(r["ratio"] for r in rows),
    }


# ----------------------------------------------------------------------
# scenario — the generic knob-driven run.
# ----------------------------------------------------------------------
def run_scenario_bench(topology: str = "random", controller: str = "iterated",
                       mix: str = "default", n: int = 500, steps: int = 1000,
                       batch_size: int = 1, seed: int = 0,
                       m_factor: int = 4, w_divisor: int = 4) -> Dict:
    """Run one controller/topology/mix combination at a given scale."""
    _at_least_one(steps=steps)
    tree = _build(topology, n, seed)
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
                   "m": m, "w": w, "u": u},
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
    # Validation is eager — before any cell runs — so a typo fails in
    # milliseconds, not mid-grid, and an option that selects nothing
    # fails instead of passing an empty grid.
    names = list(CATALOGUE) if name == "all" else [
        part.strip() for part in name.split(",") if part.strip()]
    if not names:
        raise ConfigError(
            f"name must list one or more catalogue scenarios (or 'all'); "
            f"known: {', '.join(CATALOGUE)}")
    for scenario_name in names:
        get_scenario(scenario_name)
    seed_list = _int_csv(seeds, "seeds")
    # Engines resolve against the public controller registry; ``all``
    # sweeps every registered flavour.
    if engines.strip() == "all":
        engine_list = list(CONTROLLER_FLAVORS)
    else:
        engine_list = [part.strip().replace("-", "_")
                       for part in engines.split(",") if part.strip()]
    if not engine_list:
        raise ConfigError(
            f"engines must list one or more registered controller "
            f"flavors (or 'all'): {', '.join(CONTROLLER_FLAVORS)}")
    for engine in engine_list:
        if engine not in CONTROLLER_FLAVORS:
            raise ConfigError(
                f"unknown engine {engine!r}; registered controller "
                f"flavors: {', '.join(CONTROLLER_FLAVORS)} (or 'all')")
    policies = [part.strip() for part in policy.split(",") if part.strip()]
    if not policies and "distributed" in engine_list:
        raise ConfigError(
            f"policy must list one or more schedule policies for the "
            f"distributed engine: {', '.join(SCHEDULE_POLICIES)}")
    for pol in policies:
        if pol not in SCHEDULE_POLICIES:
            raise ConfigError(
                f"unknown policy {pol!r}; known: "
                f"{', '.join(SCHEDULE_POLICIES)}")
    fault_plan = _fault_plan(faults)

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
    return _audited(document, grid_report, "scenario grid")


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

    Profiled numbers are for *attribution only* — the profiler
    inflates every call, so wall-clock comparisons belong to
    ``stackbench/``.
    """
    spec = get_scenario(scenario)
    stream_specs = _materialize(spec, seed)
    tree, requests = _replay_requests(spec, seed, stream_specs)
    session = _session("distributed", tree, m=spec.m, w=spec.w, u=spec.u)
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    session.submit_many(requests, stagger=stagger)
    records = session.settle_all()
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
# memory — Claim 4.8 node-state audit.
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


def run_memory(sizes: str = "100,400,1600",
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
    size_list = _int_csv(sizes, "sizes")
    _at_least_one(sizes=min(size_list))
    rows = []
    for n in size_list:
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
        "params": {"sizes": size_list, "stagger": stagger},
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
# apps — the Section 5 application layer, measured honestly.
# ----------------------------------------------------------------------
#: The churn mix of the estimator sweeps: topological requests only,
#: additions slightly outweighing removals.
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


def _drive_app_complexity(name: str, sizes: List[int],
                          steps_per_node: int, seed: int) -> Dict:
    """Messages-per-change sweep for one app (the Theorem 5.1, 5.2 and
    5.4 cost claims).  Reports the amortized cost per topological
    change, the ``12 log^2 n`` envelope ratio, a log-log slope of total
    messages against n (near 1 = near-linear totals = polylog
    amortized), and the app's guarantee statistic."""
    import math as _math

    from repro.apps import make_app
    from repro.apps.subtree_estimator import SuperWeights

    rows = []
    totals = []
    for n in sizes:
        tree = build_random_tree(n, seed=seed + n)
        app = make_app(_app_spec_for(name), tree=tree)
        weights = SuperWeights(app) if name == "subtree_estimator" else None
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
        if weights is not None:
            # The Lemma 5.3 guarantee is about super-weights, not the
            # root size estimate: worst over-approximation over nodes
            # (estimates never undercount — every addition below v
            # shipped its permit through v first).
            worst = max(app.estimate_of(node) / weights.of(node)
                        for node in tree.nodes())
            weights.detach()
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


def run_apps(apps: str = "all", sizes: str = "100,200,400",
             steps_per_node: int = 3, seed: int = 0,
             policies: str = "fifo,random,adversary",
             faults: str = "stall=0.05",
             grid_n: int = 40, grid_steps: int = 120) -> Dict:
    """The application-layer bench: complexity + grid.

    Two sections, one JSON document (``BENCH_apps.json``):

    * **complexity** — one sweep per app: messages per topological
      change against the ``12 log^2 n`` polylog envelope, plus log-log
      fits of the totals (:mod:`repro.metrics.fitting`);
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
    if not names:
        raise ConfigError(
            f"apps must list one or more app names (or 'all'): "
            f"{', '.join(APP_NAMES)}")
    size_list = _int_csv(sizes, "sizes")
    _at_least_one(sizes=min(size_list), steps_per_node=steps_per_node,
                  grid_n=grid_n, grid_steps=grid_steps)
    policy_list = [p.strip() for p in policies.split(",") if p.strip()]
    if not policy_list:
        raise ConfigError(
            f"policies must list one or more schedule policies: "
            f"{', '.join(SCHEDULE_POLICIES)}")
    for policy in policy_list:
        if policy not in SCHEDULE_POLICIES:
            raise ConfigError(
                f"unknown policy {policy!r}; known: "
                f"{', '.join(SCHEDULE_POLICIES)}")
    _fault_plan(faults)  # fail before the sweeps, not at the grid

    complexity = [_drive_app_complexity(name, size_list, steps_per_node,
                                        seed)
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
            "apps": names, "sizes": size_list,
            "steps_per_node": steps_per_node, "seed": seed,
            "policies": policy_list, "faults": faults,
            "grid_n": grid_n, "grid_steps": grid_steps,
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
    return _audited(document, grid_report, "the apps grid")


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
    seed_list = _int_csv(seeds, "seeds")
    _at_least_one(clients=clients, wave=wave)
    fault_plan = _fault_plan(faults)
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
    return _audited(document, grid_report, "the gateway grid")


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
    * **stress** — fleets driven through exhaustion, each auditing
      clean.  The tranche cell (skewed weights) must produce >= 1
      cross-shard ``BudgetTransfer`` and end in a global reject wave
      with fleet-level waste zero (granted == m_total before any
      client reject); a shard funds its live session instead of
      rolling it over, so none spawns more than 2 sessions (the funded
      one and the mop-up).  The reclaim cell parks permits below one
      shard's root (one request at the foot of a 100-node path) and
      starves its sibling until root loans run dry, so a live-session
      ``reclaim`` must flow.  The staged cell drives one shard to its
      wave within both 2 sessions and Observation 3.4's stage count of
      ceil(log2(allocation / tranche)) + 2.

    Violations raise ``InvariantViolation`` with the JSON document
    attached (the bench CLI prints it before failing).
    """
    from repro.fleet import FleetConfig, FleetRouter

    shard_counts = _int_csv(shards, "shards")
    _at_least_one(steps=steps, clients=clients)
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
    most = max(shard.sessions_spawned for shard in stress.shards)
    grid_report.expect(
        most <= 2, "funding",
        f"stress cell: a shard spawned {most} sessions; a funded "
        "session and the mop-up need 2", sessions=most)

    # A package served at the foot of a path parks permits in the
    # static pools below shard 0's root, where no root loan reaches;
    # shard 1 then borrows until only a drain can pay it.
    parked_tree = build_path(100)
    reclaim = FleetRouter(FleetConfig.of(
        shards=2, m_total=40, w_total=1024, u=512, seed=seed),
        trees=[parked_tree, build_path(1)])
    foot = next(node for node in parked_tree.nodes() if node.is_leaf)
    reclaim.serve(Request(RequestKind.PLAIN, foot))
    starved = reclaim.shards[1]
    for _ in range(reclaim.config.m_total - 1):
        reclaim.serve(Request(RequestKind.ADD_LEAF, starved.tree.root))
    reclaim_kinds = sorted({entry.kind
                            for entry in reclaim.ledger.entries})
    reclaim_report = reclaim.audit()
    grid_report.expect(reclaim_report.passed, "fleet_audit",
                       f"reclaim cell: {reclaim_report.violations[:2]}")
    grid_report.expect(
        "reclaim" in reclaim_kinds, "transfers",
        f"no live-session reclaim flowed (kinds: {reclaim_kinds})")

    staged = FleetRouter(FleetConfig.of(
        shards=1, m_total=1000, w_total=4, u=4096, tranche=10,
        seed=seed))
    staged_shard = staged.shards[0]
    for _ in range(staged.config.m_total + 1):
        staged.serve(Request(RequestKind.PLAIN, staged_shard.tree.root))
    stage_bound = math.ceil(
        math.log2(staged_shard.allocation / staged.config.tranche)) + 2
    staged_report = staged.audit()
    grid_report.expect(staged_report.passed, "fleet_audit",
                       f"staged cell: {staged_report.violations[:2]}")
    grid_report.expect(
        staged.reject_wave
        and staged.granted_total == staged.config.m_total, "reject_wave",
        f"staged cell: granted {staged.granted_total} of "
        f"{staged.config.m_total} at the wave (fleet waste must be 0)")
    grid_report.expect(
        staged_shard.sessions_spawned <= stage_bound, "stage_bound",
        f"staged cell: {staged_shard.sessions_spawned} sessions for an "
        f"allocation of {staged_shard.allocation} at tranche "
        f"{staged.config.tranche}; Observation 3.4 stages allow "
        f"{stage_bound}", sessions=staged_shard.sessions_spawned,
        bound=stage_bound)
    grid_report.expect(
        staged_shard.sessions_spawned <= 2, "funding",
        f"staged cell: {staged_shard.sessions_spawned} sessions; a "
        "funded session and the mop-up need 2",
        sessions=staged_shard.sessions_spawned)

    stress_section = {
        "tranche_cell": {
            "tally": stress_tally,
            "transfers": [e.snapshot() for e in stress.ledger.entries],
            "sessions_spawned": [s.sessions_spawned for s in stress.shards],
            "reject_wave": stress.reject_wave,
            "granted_total": stress.granted_total,
            "m_total": stress.config.m_total,
        },
        "reclaim_cell": {
            "transfer_kinds": reclaim_kinds,
            "transfers": [e.snapshot() for e in reclaim.ledger.entries],
            "sessions_spawned": [s.sessions_spawned
                                 for s in reclaim.shards],
            "moves": [s.counters.snapshot() for s in reclaim.shards],
        },
        "staged_cell": {
            "m_total": staged.config.m_total,
            "tranche": staged.config.tranche,
            "tally": staged.tally(),
            "sessions_spawned": staged_shard.sessions_spawned,
            "session_bound": stage_bound,
            "reset_moves": staged_shard.counters.reset_moves,
            "reject_wave": staged.reject_wave,
            "granted_total": staged.granted_total,
        },
    }
    stress.close(), reclaim.close(), staged.close()

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
    return _audited(document, grid_report, "the fleet bench")


SCENARIOS = {
    "move_complexity": run_move_complexity,
    "scenario": run_scenario_bench,
    "scenario_grid": run_scenario_grid,
    "profile": run_profile,
    "memory": run_memory,
    "apps": run_apps,
    "gateway": run_gateway,
    "fleet": run_fleet,
}
