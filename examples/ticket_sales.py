"""Bounded resource control: distributed ticket sales.

Section 2.2: "a controller may also control and count any type of
non-topological event (e.g., sales of tickets by different nodes)".
Here a network of box offices sells a global stock of M tickets.  Every
sale is a PLAIN request to the distributed (M,W)-Controller running on
the simulated asynchronous network — wired through the session layer:
one frozen :class:`repro.SessionConfig` describes the engine (flavour,
budget, heavy-tailed delay model), ``submit`` returns non-blocking
tickets, and ``drain()`` streams the settled outcome records.  No
office ever oversells, offices with steady demand are served from
their local static pool (no message to headquarters per ticket!), and
when the stock runs out at most W tickets are left unsold.

Run:  python examples/ticket_sales.py
"""

import random

from repro import ControllerSession, Request, RequestKind, SessionConfig
from repro.tree.paths import depth
from repro.workloads import build_random_tree


def main():
    offices = build_random_tree(150, seed=3)
    tickets, waste = 10_000, 1_000
    session = ControllerSession(
        SessionConfig.of("distributed", m=tickets, w=waste, u=200,
                         delay_model="heavytail", seed=4,  # network weather
                         max_in_flight=20_000),
        tree=offices)

    # Demand: a few hot offices, a long tail of cold ones.
    rng = random.Random(5)
    nodes = list(offices.nodes())
    hot = nodes[:10]

    for position in range(12_000):
        office = (hot[rng.randrange(len(hot))] if rng.random() < 0.7
                  else nodes[rng.randrange(len(nodes))])
        session.submit(Request(RequestKind.PLAIN, office),
                       delay=position * 0.05)  # overlapping purchases
    sold = refused = 0
    for record in session.drain():
        if record.granted:
            sold += 1
        elif record.outcome is not None and record.outcome.rejected:
            refused += 1

    print(f"stock: {tickets} tickets, waste allowance W = {waste}")
    print(f"sold: {sold}, refused: {refused}")
    print(f"never oversold: {sold <= tickets}")
    if refused:
        print(f"liveness (sold >= M - W = {tickets - waste}): "
              f"{sold >= tickets - waste}")
    msgs = session.controller.counters.total
    print(f"messages: {msgs} ({msgs / 12_000:.2f} per purchase; "
          f"a root round-trip per purchase would cost "
          f"~{2 * sum(depth(n) for n in nodes) / len(nodes):.1f})")
    report = session.audit()
    print(f"invariant audit passed={report.passed}")
    session.close()


if __name__ == "__main__":
    main()
