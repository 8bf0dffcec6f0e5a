"""The committed bench artifacts regenerate exactly from the code.

``BENCH_move_complexity.json``, the synchronous (``iterated``) cells
of ``BENCH_scenario_grid.json``, ``BENCH_apps.json`` and
``BENCH_fleet.json`` are exact protocol counts: moves, messages,
grants, rejects and cancellations of seeded streams, and the fleet's
transfers and sessions.  Regenerating them here turns any change to
what the protocol or the fleet lifecycle pays into a tier-1 failure
instead of a stale artifact.  Only wall-clock fields may move.

The two runs cover both grant paths of the centralized controller:
deep paths reach past ``2 psi`` and park packages (the kernel-planned
path), the catalogue trees are served mostly by the inline level-0
grant.
"""

import json
import os

from repro.bench.runner import (run_apps, run_fleet, run_move_complexity,
                                run_scenario_grid)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Fields that measure the host, not the protocol.
TIMINGS = frozenset(["wall_ms", "wall_s"])


def load(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as handle:
        return json.load(handle)


def exact(value):
    """``value`` with every timing field dropped, recursively."""
    if isinstance(value, dict):
        return {key: exact(item) for key, item in value.items()
                if key not in TIMINGS}
    if isinstance(value, list):
        return [exact(item) for item in value]
    return value


def test_move_complexity_regenerates():
    committed = load("BENCH_move_complexity.json")
    assert exact(run_move_complexity()) == exact(committed)


def test_the_grid_iterated_cells_regenerate():
    committed = load("BENCH_scenario_grid.json")
    params = committed["params"]
    document = run_scenario_grid(
        name=",".join(params["names"]),
        policy=",".join(params["policies"]),
        seeds=",".join(str(seed) for seed in params["seeds"]),
        engines="iterated")
    expected = [cell for cell in committed["cells"]
                if cell["engine"] == "iterated"]
    assert len(expected) == 25
    assert exact(document["cells"]) == exact(expected)


def test_apps_bench_regenerates():
    committed = load("BENCH_apps.json")
    params = committed["params"]
    document = run_apps(
        apps=",".join(params["apps"]),
        sizes=",".join(str(size) for size in params["sizes"]),
        steps_per_node=params["steps_per_node"], seed=params["seed"],
        policies=",".join(params["policies"]), faults=params["faults"],
        grid_n=params["grid_n"], grid_steps=params["grid_steps"])
    assert exact(document) == exact(committed)


def test_fleet_bench_regenerates():
    assert exact(run_fleet()) == exact(load("BENCH_fleet.json"))
