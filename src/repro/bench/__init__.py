"""``repro.bench`` — the experiment-runner CLI of the request engine.

One-liner reproduction of the perf trajectory::

    python -m repro.bench ancestry --sizes 200,400,800,1600,3200 --out BENCH_ancestry.json
    python -m repro.bench move_complexity
    python -m repro.bench batch --steps 2000 --batch-size 64
    python -m repro.bench scenario --topology path --controller iterated --steps 1000
    python -m repro.bench distributed_batch --sizes 200
    python -m repro.bench kernel --out BENCH_kernel.json
    python -m repro.bench profile
    python -m repro.bench memory
    python -m repro.bench session --out BENCH_session.json
    python -m repro.bench apps --out BENCH_apps.json
    python -m repro.bench gateway --out BENCH_gateway.json
    python -m repro.bench fleet --out BENCH_fleet.json

Every scenario returns (and prints) a JSON document: the parameters it
ran with, one row per configuration, and the derived headline numbers,
so ``BENCH_*.json`` files checked into the repo are reproducible from
the command line alone.  See :mod:`repro.bench.runner` for the scenario
implementations and ``docs/architecture.md`` for how the engine under
measurement works.
"""

from repro.bench.runner import (
    SCENARIOS,
    run_ancestry,
    run_apps,
    run_batch,
    run_distributed_batch,
    run_fleet,
    run_gateway,
    run_kernel,
    run_memory,
    run_move_complexity,
    run_profile,
    run_scenario_bench,
    run_session_overhead,
)

__all__ = [
    "SCENARIOS",
    "run_ancestry",
    "run_apps",
    "run_batch",
    "run_distributed_batch",
    "run_fleet",
    "run_gateway",
    "run_kernel",
    "run_memory",
    "run_move_complexity",
    "run_profile",
    "run_scenario_bench",
    "run_session_overhead",
]
