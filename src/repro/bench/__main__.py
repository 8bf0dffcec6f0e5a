"""Command-line entry point: ``python -m repro.bench``.

Examples::

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

from repro.bench.runner import SCENARIOS
from repro.errors import ConfigError, InvariantViolation
from repro.registry import CONTROLLER_FLAVORS
from repro.sim.scheduler import SCHEDULE_POLICIES


def _int_list(text: str):
    return [int(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Experiment runner for the (M,W)-Controller "
                    "reproduction (JSON output).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available scenarios")

    common_out = dict(help="write the JSON document to this path as well")

    p = sub.add_parser("move_complexity",
                       help="Observation 3.4 move-complexity sweep on "
                            "deep paths")
    p.add_argument("--sizes", type=_int_list, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", **common_out)

    p = sub.add_parser(
        "scenario",
        help="knob-driven run, or (with --name) the adversarial "
             "catalogue grid with invariant auditing")
    p.add_argument("--name", default=None,
                   help="catalogue scenario name(s), comma-separated, or "
                        "'all' — switches to grid mode (scenario x policy "
                        "x seed, invariant-checked)")
    p.add_argument("--policy", default="fifo,random,adversary",
                   help="grid mode: schedule policies, comma-separated "
                        "(fifo, random, lifo, adversary)")
    p.add_argument("--faults", default=None,
                   help="grid mode: fault plan, e.g. "
                        "'stall=0.05,pauses=2,storms=3'")
    p.add_argument("--seeds", default="0,1,2,3,4",
                   help="grid mode: seeds, comma-separated")
    p.add_argument("--engines", default="iterated,distributed",
                   help="grid mode: engines, comma-separated from the "
                        f"controller registry ({', '.join(CONTROLLER_FLAVORS)})"
                        ", or 'all' for every registered flavor; names are "
                        "validated before any cell runs")
    p.add_argument("--delays", default="uniform",
                   help="grid mode: delay model (unit, uniform, heavytail, "
                        "jitter, burst)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="grid mode: scale the catalogue specs (CI smoke "
                        "uses e.g. 0.2)")
    p.add_argument("--topology", default="random",
                   choices=["random", "path", "star", "caterpillar"])
    p.add_argument("--controller", default="iterated",
                   choices=list(CONTROLLER_FLAVORS))
    p.add_argument("--mix", default="default",
                   choices=["default", "grow", "plain"])
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--batch-size", type=int, default=1, dest="batch_size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", **common_out)

    p = sub.add_parser("apps",
                       help="Section 5 application layer: msgs/change "
                            "polylog fits and the event-driven policy x "
                            "fault grid (invariant-audited)")
    p.add_argument("--apps", default="all",
                   help="app name(s), comma-separated, or 'all'")
    p.add_argument("--sizes", type=_int_list, default=None,
                   help="complexity sweep sizes (default: 100,200,400)")
    p.add_argument("--steps-per-node", type=int, default=3,
                   dest="steps_per_node")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policies", default="fifo,random,adversary",
                   help="grid: schedule policies for the event-driven "
                        "cells")
    p.add_argument("--faults", default="stall=0.05",
                   help="grid: fault plan for the faulted cells "
                        "(e.g. 'stall=0.05')")
    p.add_argument("--grid-n", type=int, default=40, dest="grid_n")
    p.add_argument("--grid-steps", type=int, default=120,
                   dest="grid_steps")
    p.add_argument("--out", **common_out)

    p = sub.add_parser("gateway",
                       help="concurrent ingestion through the gateway "
                            "under churn-storm faults: sustained req/s, "
                            "p50/p99 latency, breaker trip/recover "
                            "cycle (invariant-audited)")
    p.add_argument("--scenario", default="mixed_flood",
                   help="catalogue scenario to stream (default: "
                        "mixed_flood)")
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--clients", type=int, default=4,
                   help="concurrent client threads per cell")
    p.add_argument("--wave", type=int, default=10,
                   help="requests per client submission burst")
    p.add_argument("--batch-size", type=int, default=8, dest="batch_size")
    p.add_argument("--queue-capacity", type=int, default=256,
                   dest="queue_capacity")
    p.add_argument("--policy", default="fifo",
                   choices=list(SCHEDULE_POLICIES))
    p.add_argument("--delays", default="burst")
    p.add_argument("--faults", default="stall=0.15,storms=3,storm_size=6",
                   help="fault plan spec for the churn storm")
    p.add_argument("--breaker-latency", type=float, default=300.0,
                   dest="breaker_latency",
                   help="simulated-clock latency that counts as a "
                        "breaker failure")
    p.add_argument("--breaker-failures", type=int, default=2,
                   dest="breaker_failures")
    p.add_argument("--breaker-cooldown", type=int, default=2,
                   dest="breaker_cooldown")
    p.add_argument("--breaker-probes", type=int, default=1,
                   dest="breaker_probes")
    p.add_argument("--scale", type=float, default=0.5,
                   help="catalogue scenario scale factor")
    p.add_argument("--stagger", type=float, default=0.25)
    p.add_argument("--out", **common_out)

    p = sub.add_parser("fleet",
                       help="sharded controller fleet: simulated "
                            "sustained req/s + scaling efficiency at "
                            "each shard count, 1-shard bit-for-bit "
                            "equivalence vs the plain session, forced "
                            "cross-shard transfers + the global reject "
                            "wave (invariant-audited)")
    p.add_argument("--shards", default="1,2,4,8",
                   help="comma-separated shard counts for the scaling "
                        "cells")
    p.add_argument("--steps", type=int, default=2000,
                   help="requests per scaling cell")
    p.add_argument("--clients", type=int, default=256,
                   help="distinct sticky client origins per cell")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scale", type=float, default=0.25,
                   help="catalogue scale for the equivalence cell")
    p.add_argument("--out", **common_out)

    p = sub.add_parser("profile",
                       help="cProfile the distributed replay: hotspot "
                            "tables + the scheduler-vs-protocol self-time "
                            "split")
    p.add_argument("--scenario", default="deep_burst",
                   help="catalogue scenario to profile (default: "
                        "deep_burst)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stagger", type=float, default=0.25)
    p.add_argument("--top", type=int, default=12,
                   help="hotspot rows per table")
    p.add_argument("--out", **common_out)

    p = sub.add_parser("memory",
                       help="Claim 4.8 per-node memory audit under a "
                            "concurrent storm (raises if any node "
                            "exceeds the bound)")
    p.add_argument("--sizes", type=_int_list, default=None,
                   help="tree sizes (default: 100,400,1600)")
    p.add_argument("--stagger", type=float, default=0.25)
    p.add_argument("--out", **common_out)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, fn in SCENARIOS.items():
            summary = (inspect.getdoc(fn) or "").splitlines()[0]
            print(f"{name:20s} {summary}")
        return 0
    command = args.command
    if command == "scenario" and getattr(args, "name", None):
        command = "scenario_grid"
    runner = SCENARIOS[command]
    accepted = set(inspect.signature(runner).parameters)
    kwargs = {k: v for k, v in vars(args).items()
              if k in accepted and v is not None}
    failure = None
    try:
        result = runner(**kwargs)
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
