"""Opt-in city-scale chaos: 10k nodes, crash plan, lossy links.

The satellite check for the spatial-index rework: run a district-sized
``RandomTopology`` (10k nodes — every query and graph build goes
through the grid-hash/CSR path) under a scheduled crash/brownout plan
*and* a lossy/corrupting link-fault model, push mixed unicast +
lossy-fallback bulk traffic through it, and then assert
:meth:`Network.telemetry_drift` reconciles — the three tally views
(node counters, aggregate stats, drop causes) must agree exactly even
while the epoch caches churn under mid-run topology mutations.

Too heavy for tier-1: opt in with ``REPRO_CITY_CHAOS=1`` (runs in
roughly half a minute)::

    REPRO_CITY_CHAOS=1 PYTHONPATH=src python -m pytest \
        tests/test_chaos_city.py -m chaos -q
"""

import os

import numpy as np
import pytest

from repro.faults import (
    FaultPlan,
    FaultTrace,
    LinkFaultModel,
    NodeStateTracker,
    schedule_plan,
)
from repro.sim.engine import Simulator
from repro.wsn import Message, Network, RandomTopology

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(
        not os.environ.get("REPRO_CITY_CHAOS"),
        reason="city-scale chaos run; set REPRO_CITY_CHAOS=1 to enable",
    ),
]

N_NODES = 10_000
SIDE = 1_000.0
COMM_RANGE = 15.0
SEED = 424242


@pytest.fixture(scope="module")
def city():
    rng = np.random.default_rng(SEED)
    topo = RandomTopology(N_NODES, SIDE, SIDE, COMM_RANGE, rng)
    return topo, rng


def test_city_chaos_reconciles(city):
    topo, rng = city
    epoch0 = topo.epoch

    # Crash/brownout plan over a random district slice, interleaved
    # with the traffic phases below via simulator virtual time.
    victims = rng.choice(topo.ids_view(), size=60, replace=False).tolist()
    plan = FaultPlan(seed=SEED)
    for k, node in enumerate(victims[:40]):
        plan.crash(0.5 + 0.1 * k, int(node))
    for k, node in enumerate(victims[40:]):
        plan.brownout(1.0 + 0.1 * k, int(node), duration=2.0)
    for node in victims[:10]:
        plan.recover(9.0, int(node))

    trace = FaultTrace()
    sim = Simulator()
    tracker = NodeStateTracker(topo, trace, lambda: sim.now)
    schedule_plan(plan, sim, tracker)

    link_faults = LinkFaultModel(
        loss_rate=0.02,
        corrupt_rate=0.01,
        duplicate_rate=0.01,
        seed=SEED + 1,
        trace=trace,
        clock=lambda: sim.now,
    )
    net = Network(
        topo,
        loss_probability=0.05,
        rng=np.random.default_rng(SEED + 2),
        link_faults=link_faults,
    )

    ids = topo.ids_view()

    def traffic_burst(n_messages):
        for __ in range(n_messages):
            src = int(rng.choice(ids))
            dst = int(rng.choice(ids))
            net.unicast(Message(src, dst, n_values=int(rng.integers(1, 9))))
        # Lossy links make a multi-copy unicast sample copy by copy —
        # exactly the reconciliation surface the chaos suite is meant
        # to stress.
        src = int(rng.choice(ids))
        dst = int(rng.choice(ids))
        net.unicast(Message(src, dst, n_values=3), copies=5)

    # Interleave fault phases and traffic so routes are resolved
    # against several distinct epochs of the cached graph.
    traffic_burst(40)
    sim.run(until=2.0)
    traffic_burst(40)
    sim.run(until=6.0)
    traffic_burst(40)
    sim.run()
    traffic_burst(40)

    # Faults actually landed and mutated the topology mid-run.
    assert tracker.down_nodes()
    assert topo.epoch > epoch0
    assert len([n for n in topo if not n.alive]) == len(tracker.down_nodes())
    assert net.stats.sent == 4 * 45
    assert net.stats.delivered > 0
    assert net.stats.dropped > 0

    # The point of the exercise: all tally views agree byte-for-byte
    # even though every route/neighbor query ran on the sparse path
    # while crashes churned the epoch caches.
    assert net.telemetry_drift() == []

    # And the sparse structures stayed coherent with node state: the
    # cached graph never contains a down node.
    g = topo.cached_graph()
    assert not (set(g.nodes) & tracker.down_nodes())
    assert g.number_of_nodes() == len(topo.alive_nodes())
