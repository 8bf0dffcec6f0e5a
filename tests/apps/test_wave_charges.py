"""Wave charges per iteration rollover, synchronous against event-driven.

Observation 2.1 confirms a termination with a convergecast that
completes only once every granted event has occurred, so it carries
the next iteration's ``N_i`` (Theorem 5.1).  A rollover therefore pays
the termination pair ``2|T|`` and the one broadcast ``n - 1`` that
starts the next iteration, plus the app's own relabel; only the first
iteration counts its ``N_1`` with a convergecast of its own.

Both engines must charge exactly that, for the same rollovers, on one
seeded stream served a request at a time: with one agent in flight the
tree the termination wave covers is the tree the next iteration counts.
The synchronous engine charges every wave to the app's ``reset_moves``;
the event-driven one charges the termination pair to its engine's
``broadcast_messages`` and the rest to the app's ``reset_moves``.
"""

import random

import pytest

from repro import AppSpec, make_app
from repro.service.envelopes import IterationRecord
from repro.workloads import NodePicker, build_random_tree, random_request

#: Each app's own relabel at a rollover on ``n`` nodes: none, or the
#: two DFS traversals of Section 5.2.  The heavy-child refresh reads
#: the subtree counts the counting convergecast already delivered.
RELABEL = {"size_estimation": lambda n: 0,
           "name_assignment": lambda n: 4 * (n - 1),
           "heavy_child": lambda n: 0}


def wave_charges(app) -> int:
    """Every wave the app and its engine have charged so far."""
    charged = app.counters.reset_moves
    if app.engine_counters is not app.counters:
        charged += app.engine_counters.broadcast_messages
    return charged


def serve_one_at_a_time(name, flavor, steps=400, seed=3):
    """Serve a seeded churn stream request by request.

    Returns the outcome statuses, the iteration boundaries, the waves
    charged before the first request, and per request the iterations
    it opened and the waves it charged."""
    tree = build_random_tree(40, seed=seed)
    app = make_app(AppSpec(name, flavor=flavor), tree=tree)
    rng = random.Random(seed)
    picker = NodePicker(tree)
    initial = charged = wave_charges(app)
    statuses, rollovers = [], []
    for _ in range(steps):
        opened = app.iterations_run
        statuses.append(app.serve(
            random_request(tree, rng, picker=picker)).outcome.status)
        rollovers.append((range(opened + 1, app.iterations_run + 1),
                          wave_charges(app) - charged))
        charged = wave_charges(app)
    picker.detach()
    boundaries = [(record.index, record.size, record.m, record.w,
                   record.u) for record in app.settle_all()
                  if isinstance(record, IterationRecord)]
    assert app.audit().passed
    app.close()
    return statuses, boundaries, initial, rollovers


@pytest.mark.parametrize("name", sorted(RELABEL))
def test_a_rollover_pays_the_termination_pair_and_one_broadcast(name):
    sync = serve_one_at_a_time(name, "terminating")
    event_driven = serve_one_at_a_time(name, "distributed")
    assert sync == event_driven
    _, boundaries, initial, rollovers = sync
    sizes = {index: size for index, size, _, _, _ in boundaries}
    assert len(sizes) >= 5
    # N_1: a convergecast counts it and a broadcast delivers it.
    assert initial == 2 * (sizes[1] - 1)
    for opened, charged in rollovers:
        assert charged == sum(2 * sizes[index] + (sizes[index] - 1)
                              + RELABEL[name](sizes[index])
                              for index in opened)
    assert sum(len(opened) for opened, _ in rollovers) == len(sizes) - 1
