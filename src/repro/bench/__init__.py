"""``repro.bench`` — the experiment-runner CLI.

One-liners for the checked-in ``BENCH_*.json`` documents and the
paper-claim sweeps::

    python -m repro.bench move_complexity --out BENCH_move_complexity.json
    python -m repro.bench scenario --topology path --controller iterated --steps 1000
    python -m repro.bench scenario --name all --seeds 0,1
    python -m repro.bench profile
    python -m repro.bench memory
    python -m repro.bench apps --out BENCH_apps.json
    python -m repro.bench gateway --out BENCH_gateway.json
    python -m repro.bench fleet --out BENCH_fleet.json

Every scenario returns (and prints) a JSON document: the parameters it
ran with, one row or cell per configuration, and the derived headline
numbers, so ``BENCH_*.json`` files checked into the repo are
reproducible from the command line alone.  The speed yardstick for the
whole stack is ``stackbench/``, not these runs.  See
:mod:`repro.bench.runner` for the scenario implementations and
``docs/architecture.md`` for how the engine under measurement works.
"""

from repro.bench.runner import (
    SCENARIOS,
    run_apps,
    run_fleet,
    run_gateway,
    run_memory,
    run_move_complexity,
    run_profile,
    run_scenario_bench,
)

__all__ = [
    "SCENARIOS",
    "run_apps",
    "run_fleet",
    "run_gateway",
    "run_memory",
    "run_move_complexity",
    "run_profile",
    "run_scenario_bench",
]
