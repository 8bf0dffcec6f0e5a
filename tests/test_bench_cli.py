"""Smoke tests for the ``python -m repro.bench`` experiment runner."""

import json
import os
import subprocess
import sys

import pytest

from repro.bench import SCENARIOS, run_scenario_bench
from repro.bench.__main__ import build_parser, main


def test_registry_names():
    assert set(SCENARIOS) == {"move_complexity", "scenario",
                              "scenario_grid", "apps", "gateway",
                              "profile", "memory", "fleet"}


@pytest.mark.parametrize("controller", ["centralized", "iterated",
                                        "adaptive", "terminating"])
def test_generic_scenario_all_controllers(controller):
    result = run_scenario_bench(controller=controller, n=80, steps=160,
                                batch_size=8)
    assert result["granted"] + result["rejected"] + result["cancelled"] \
        + result["pending"] == 160
    json.dumps(result)


def test_gateway_bench_shape_and_audit():
    """A small ``gateway`` run: throughput + latency fields present,
    the breaker cycled, and the full-stack audit is clean.  (Absolute
    throughput is not asserted — the contract under test is shape +
    conservation + the trip/recover cycle.)"""
    from repro.bench import run_gateway
    result = run_gateway(scenario="mixed_flood", seeds="0,1", clients=3,
                         wave=8, batch_size=8, scale=0.4)
    json.dumps(result)
    assert result["passed"] and result["violations"] == 0
    assert result["throughput"]["breaker_trips"] >= 1
    assert result["throughput"]["breaker_recoveries"] >= 1
    assert result["throughput"]["sustained_req_per_s"] > 0
    for cell in result["cells"]:
        stats = cell["stats"]
        assert stats["double_settles"] == 0 and stats["aborted"] == 0
        assert stats["accepted"] == stats["settled"]
        assert cell["latency_wall_ms"]["p99"] >= \
            cell["latency_wall_ms"]["p50"]
        assert cell["fault_stats"].get("stalls", 0) > 0


def test_apps_bench_shape_and_equivalence():
    """A small ``apps`` run: the complexity sweeps hold their polylog
    envelope, the grid audits clean, and the document is
    JSON-serializable.  (The serve vs serve_stream equivalence lives in
    ``tests/apps/test_app_equivalence.py``.)"""
    from repro.bench import run_apps
    result = run_apps(apps="size_estimation,name_assignment",
                      sizes="48,96", steps_per_node=2,
                      policies="fifo,random", faults="stall=0.05",
                      grid_n=20, grid_steps=40)
    json.dumps(result)
    assert "overhead" not in result
    for fit in result["complexity"]:
        assert fit["polylog_envelope_held"] is True
        assert fit["log_log_slope"] is not None
    grid = result["grid"]
    # 2 apps x 2 policies x {no faults, stall plan}.
    assert len(grid["cells"]) == 8
    assert grid["passed"] and grid["violations"] == 0
    faulted = [c for c in grid["cells"] if c["faults"] != "none"]
    assert faulted and all("fault_stats" in c for c in faulted)
    # With a stall plan over whole runs, some cell must have stalled.
    assert any(c["fault_stats"].get("stalls", 0) > 0 for c in faulted)


def test_fleet_bench_shape_and_audit():
    """A small ``fleet`` run: every cell audits clean, the 1-shard arm
    is bit-for-bit equivalent to the plain session, the skewed stress
    cells produce cross-shard transfers (including a live reclaim) and
    end in the global reject wave, and the funded cells spend a hot
    shard's budget in one funded session plus the mop-up.  (The
    3x-at-4-shards bar is only asserted when a 4-shard cell runs — this
    scaled run stops at 2.)"""
    from repro.bench import run_fleet
    result = run_fleet(shards="1,2", steps=200, clients=32)
    json.dumps(result)
    assert result["passed"] and result["violations"] == 0
    assert result["equivalence"]["equivalent"] is True
    assert [c["shards"] for c in result["cells"]] == [1, 2]
    for cell in result["cells"]:
        assert cell["audit_passed"] is True
        assert cell["tally"].get("rejected", 0) == 0
        assert cell["sustained_req_per_s"] > 0
        assert cell["makespan_ticks"] <= cell["total_ticks"]
    baseline = result["scaling"][0]
    assert baseline["shards"] == 1 and baseline["speedup"] == 1.0
    stress = result["stress"]
    assert len(stress["tranche_cell"]["transfers"]) >= 1
    assert stress["tranche_cell"]["reject_wave"] is True
    assert stress["tranche_cell"]["granted_total"] == \
        stress["tranche_cell"]["m_total"]
    assert "reclaim" in stress["reclaim_cell"]["transfer_kinds"]
    for cell in ("tranche_cell", "reclaim_cell"):
        sessions = stress[cell]["sessions_spawned"]
        assert len(sessions) == 2 and all(n >= 1 for n in sessions)
    # The hot shard funds one live session, then mops up.
    assert max(stress["tranche_cell"]["sessions_spawned"]) <= 2
    staged = stress["staged_cell"]
    assert staged["tranche"] > 0 and staged["reject_wave"] is True
    assert staged["granted_total"] == staged["m_total"]
    assert staged["sessions_spawned"] <= 2
    assert staged["session_bound"] == 9
    assert staged["reset_moves"] > 0


def test_apps_bench_rejects_unknown_names():
    from repro.bench import run_apps
    with pytest.raises(ValueError, match="unknown app"):
        run_apps(apps="definitely_not_an_app")
    with pytest.raises(ValueError, match="unknown policy"):
        run_apps(apps="size_estimation", policies="yolo")


def test_cli_list_and_run(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
        env.get("PYTHONPATH", "")
    env_cmd = [sys.executable, "-m", "repro.bench"]
    listing = subprocess.run(env_cmd + ["list"], capture_output=True,
                             text=True, check=True, env=env)
    names = [line.split()[0] for line in listing.stdout.splitlines()]
    assert names == ["move_complexity", "scenario", "profile", "memory",
                     "apps", "gateway", "fleet"]
    # Every listed name is a command (the grid is ``scenario --name``).
    parser = build_parser()
    for name in names:
        assert parser.parse_args([name]).command == name
    out = tmp_path / "bench.json"
    run = subprocess.run(
        env_cmd + ["scenario", "--n", "60", "--steps", "120",
                   "--batch-size", "10", "--out", str(out)],
        capture_output=True, text=True, check=True, env=env,
    )
    document = json.loads(out.read_text())
    assert document["scenario"] == "scenario"
    assert json.loads(run.stdout) == document


def test_cli_reports_config_errors_like_argparse(capsys):
    """A bad value the parser cannot check exits 2 with one line."""
    assert main(["scenario", "--batch-size", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: batch_size must be >= 1, got 0\n"


@pytest.mark.parametrize("argv, names", [
    (["scenario", "--name", "all", "--seeds", "a"], "comma-separated"),
    (["gateway", "--seeds", "x"], "comma-separated"),
    (["fleet", "--shards", "a"], "comma-separated"),
    (["scenario", "--name", "hot_spot", "--seeds", "0",
      "--faults", "bogus=1"], "known: horizon"),
    (["apps", "--apps", "size_estimation", "--sizes", "8",
      "--faults", "bogus=1"], "known: horizon"),
    (["gateway", "--seeds", "0", "--clients", "0"], "clients must be >= 1"),
    # Options that select nothing would run zero cells and pass.
    (["scenario", "--name", "all", "--seeds", ""], "comma-separated"),
    (["scenario", "--name", "all", "--policy", "",
      "--engines", "distributed"], "fifo, random"),
    (["apps", "--apps", "size_estimation", "--sizes", "8",
      "--policies", ""], "fifo, random"),
    (["move_complexity", "--sizes", ""], "comma-separated"),
    (["move_complexity", "--sizes", ","], "comma-separated"),
    (["move_complexity", "--sizes", "a"], "comma-separated"),
    # One size leaves nothing to fit a slope to; rejected before any
    # path is built.
    (["move_complexity", "--sizes", "200"], "sizes needs two or more"),
    (["move_complexity", "--sizes", "200,200"], "sizes needs two or more"),
    (["memory", "--sizes", "0,100"], "sizes must be >= 1"),
    (["apps", "--sizes", "0", "--grid-n", "0", "--grid-steps", "0"],
     "sizes must be >= 1"),
    # Counts below 1 would run nothing, or report a negative rate.
    (["scenario", "--steps", "-3"], "steps must be >= 1"),
    (["apps", "--apps", "size_estimation", "--sizes", "8",
      "--steps-per-node", "0"], "steps_per_node must be >= 1"),
    (["apps", "--apps", "size_estimation", "--sizes", "8",
      "--grid-n", "0"], "grid_n must be >= 1"),
    (["apps", "--apps", "size_estimation", "--sizes", "8",
      "--grid-steps", "0"], "grid_steps must be >= 1"),
])
def test_cli_reports_bad_input_like_argparse(capsys, argv, names):
    """Malformed or empty values print one ``error:`` line naming the
    valid form and exit 2, never a traceback or a vacuous pass."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert names in lines[0]
