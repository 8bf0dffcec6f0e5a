"""Command-line entry point: ``python -m repro.bench``.

Each command's options are keyword parameters of its ``run_*``
function in :mod:`repro.bench.runner`; an option left unset is left
out of the call, so it takes that function's default, and an option
the selected runner does not take is an error.  Examples::

    python -m repro.bench list
    python -m repro.bench move_complexity --sizes 200,400,800
    python -m repro.bench scenario --topology star --controller terminating
    python -m repro.bench scenario --name all --policy fifo,random,adversary \\
        --seeds 0,1,2,3,4 --faults "stall=0.05,storms=3" --out grid.json
    python -m repro.bench apps --out BENCH_apps.json
    python -m repro.bench apps --apps name_assignment --policies adversary
    python -m repro.bench fleet --out BENCH_fleet.json
    python -m repro.bench profile --scenario deep_burst
    python -m repro.bench memory --sizes 100,400
"""

import argparse
import inspect
import json
import sys
from typing import Any, Dict, Tuple

from repro.bench.runner import SCENARIOS
from repro.errors import ConfigError, InvariantViolation
from repro.registry import CONTROLLER_FLAVORS
from repro.sim.scheduler import SCHEDULE_POLICIES

#: The catalogue grid runner, reached as ``scenario --name``.
_GRID = "scenario_grid"

#: How an error names the two modes of ``scenario``.
_MODES = {"scenario": "scenario without --name (the knob-driven run)",
          _GRID: "scenario --name (the catalogue grid)"}


def build_parser() -> argparse.ArgumentParser:
    """The CLI.  No option states a default: an unset option is left out
    of the call, so the ``run_*`` signature is the one place it lives."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Experiment runner for the (M,W)-Controller "
                    "reproduction (JSON output).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available scenarios")

    p = sub.add_parser("move_complexity",
                       help="Observation 3.4 move-complexity sweep on "
                            "deep paths")
    p.add_argument("--sizes", help="path lengths, comma-separated")

    p = sub.add_parser(
        "scenario",
        help="knob-driven run, or (with --name) the adversarial "
             "catalogue grid with invariant auditing")
    p.add_argument("--name",
                   help="catalogue scenario name(s), comma-separated, or "
                        "'all' — switches to grid mode (scenario x policy "
                        "x seed, invariant-checked)")
    p.add_argument("--policy",
                   help="grid mode: schedule policies, comma-separated "
                        f"({', '.join(SCHEDULE_POLICIES)}), or 'all'")
    p.add_argument("--faults",
                   help="grid mode: fault plan, e.g. "
                        "'stall=0.05,pauses=2,storms=3'")
    p.add_argument("--seeds", help="grid mode: seeds, comma-separated")
    p.add_argument("--engines",
                   help="grid mode: engines, comma-separated from the "
                        "controller registry "
                        f"({', '.join(CONTROLLER_FLAVORS)}), or 'all' for "
                        "every registered flavor; names are validated "
                        "before any cell runs")
    p.add_argument("--scale", type=float,
                   help="grid mode: scale the catalogue specs (CI smoke "
                        "uses e.g. 0.2)")
    p.add_argument("--topology",
                   choices=["random", "path", "star", "caterpillar"])
    p.add_argument("--controller", choices=list(CONTROLLER_FLAVORS))
    p.add_argument("--n", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", type=int)

    p = sub.add_parser("apps",
                       help="Section 5 application layer: msgs/change "
                            "polylog fits and the event-driven policy x "
                            "fault grid (invariant-audited)")
    p.add_argument("--apps", help="app name(s), comma-separated, or 'all'")
    p.add_argument("--sizes", help="complexity sweep sizes, comma-separated")
    p.add_argument("--steps-per-node", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--policies",
                   help="grid: schedule policies for the event-driven "
                        "cells")
    p.add_argument("--faults",
                   help="grid: fault plan for the faulted cells "
                        "(e.g. 'stall=0.05')")
    p.add_argument("--grid-n", type=int)
    p.add_argument("--grid-steps", type=int)

    p = sub.add_parser("gateway",
                       help="concurrent ingestion through the gateway "
                            "under churn-storm faults: sustained req/s, "
                            "p50/p99 latency, breaker trip/recover "
                            "cycle (invariant-audited)")
    p.add_argument("--scenario", help="catalogue scenario to stream")
    p.add_argument("--seeds", help="seeds, comma-separated")
    p.add_argument("--clients", type=int,
                   help="concurrent client threads per cell")
    p.add_argument("--wave", type=int,
                   help="requests per client submission burst")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--scale", type=float,
                   help="catalogue scenario scale factor")

    p = sub.add_parser("fleet",
                       help="sharded controller fleet: simulated "
                            "sustained req/s + scaling efficiency at "
                            "each shard count, 1-shard bit-for-bit "
                            "equivalence vs the plain session, forced "
                            "cross-shard transfers + the global reject "
                            "wave (invariant-audited)")
    p.add_argument("--shards",
                   help="comma-separated shard counts for the scaling "
                        "cells")
    p.add_argument("--steps", type=int, help="requests per scaling cell")
    p.add_argument("--clients", type=int,
                   help="distinct sticky client origins per cell")

    p = sub.add_parser("profile",
                       help="cProfile the distributed replay: hotspot "
                            "tables + the scheduler-vs-protocol self-time "
                            "split")
    p.add_argument("--scenario", help="catalogue scenario to profile")
    p.add_argument("--top", type=int, help="hotspot rows per table")

    p = sub.add_parser("memory",
                       help="Claim 4.8 per-node memory audit under a "
                            "concurrent storm (raises if any node "
                            "exceeds the bound)")
    p.add_argument("--sizes", help="tree sizes, comma-separated")

    for name, command in sub.choices.items():
        if name != "list":
            command.add_argument(
                "--out", help="write the JSON document to this path as well")
    return parser


def runner_call(args: argparse.Namespace) -> Tuple[str, Dict[str, Any]]:
    """The runner a parsed command selects, and its keyword arguments.

    ``scenario --name`` selects the grid runner.  Unset options are
    left out; a set option the runner does not take raises
    :class:`ConfigError` naming it and the mode that would ignore it.
    """
    command = args.command
    if command == "scenario" and args.name is not None:
        command = _GRID
    accepted = inspect.signature(SCENARIOS[command]).parameters
    kwargs = {key: value for key, value in vars(args).items()
              if value is not None and key not in ("command", "out")}
    ignored = [f"--{key.replace('_', '-')}" for key in sorted(kwargs)
               if key not in accepted]
    if ignored:
        raise ConfigError(
            f"{_MODES.get(command, command)} ignores {', '.join(ignored)}")
    return command, kwargs


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, fn in SCENARIOS.items():
            if name == _GRID:
                continue  # a mode of ``scenario``, not a command
            summary = (inspect.getdoc(fn) or "").splitlines()[0]
            print(f"{name:20s} {summary}")
        return 0
    failure = None
    try:
        command, kwargs = runner_call(args)
        result = SCENARIOS[command](**kwargs)
    except ConfigError as error:
        # Bad option values the parser cannot see (they are checked
        # where the run is configured): report them as argparse does.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except InvariantViolation as error:
        # The grid runner attaches the full report to the failure so the
        # violation evidence survives (and CI can upload it).
        result = getattr(error, "document", None)
        if result is None:
            raise
        failure = error
    document = json.dumps(result, indent=2)
    print(document)
    if getattr(args, "out", None):
        with open(args.out, "w") as handle:
            handle.write(document + "\n")
        print(f"# wrote {args.out}", file=sys.stderr)
    if failure is not None:
        raise failure
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
