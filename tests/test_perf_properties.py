"""Property tests (``-m perf``) for the vectorized hot paths.

Randomized placements, topologies, and event schedules check the
*invariants* the vectorization must conserve, rather than specific
values: aggregated traffic replay keeps the transfer multiset and its
layer ordering, and ``run_batch`` is observationally identical to
repeated ``step()`` / sliced ``run()``.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core import (
    DistributedExecutor,
    UnitGraph,
    centralized_assignment,
    grid_correspondence_assignment,
    random_assignment,
    round_robin_assignment,
)
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.perf import replay_traffic_reference
from repro.sim import Simulator
from repro.wsn import GridTopology, Network

pytestmark = pytest.mark.perf


class SpyNetwork(Network):
    """Network that records every (src, dst, n_values, kind, copies)."""

    def __init__(self, topology):
        super().__init__(topology)
        self.log = []

    def unicast(self, message, copies=1):
        self.log.append(
            (message.src, message.dst, message.n_values, message.kind, copies)
        )
        return super().unicast(message, copies=copies)


def build_case(rng, input_hw=(8, 8)):
    """A random placed model over a random topology."""
    model = Sequential([
        Conv2D(int(rng.integers(1, 3)), 3), ReLU(), MaxPool2D(2), Flatten(),
        Dense(int(rng.integers(4, 10))), ReLU(), Dense(2),
    ])
    model.build((1,) + input_hw, np.random.default_rng(int(rng.integers(1e6))))
    graph = UnitGraph(model)
    # Placement strategies map input cells through the grid geometry,
    # so topologies vary by random grid shape (and sink choice).
    topo = GridTopology(int(rng.integers(3, 7)), int(rng.integers(3, 7)))
    strategies = [
        lambda g, t: grid_correspondence_assignment(g, t),
        lambda g, t: centralized_assignment(g, t),
        lambda g, t: centralized_assignment(g, t, sink=min(t.nodes)),
        lambda g, t: round_robin_assignment(g, t),
        lambda g, t: random_assignment(
            g, t, np.random.default_rng(int(rng.integers(1e6)))
        ),
    ]
    strategy = strategies[int(rng.integers(len(strategies)))]
    placement = strategy(graph, topo)
    return model, graph, topo, placement


class TestReplayConservation:
    @pytest.mark.parametrize("trial", range(8))
    def test_aggregation_conserves_transfer_multiset(self, trial):
        """Sum over multi-copy sends == the per-transfer, per-element
        multiset, for any random placement/topology/batch."""
        rng = np.random.default_rng(1000 + trial)
        model, graph, topo, placement = build_case(rng)
        batch = int(rng.integers(1, 9))

        spy_fast = SpyNetwork(topo)
        ex = DistributedExecutor(model, graph, placement, spy_fast)
        ex.replay_traffic(batch)

        spy_ref = SpyNetwork(topo)
        ex_ref = DistributedExecutor(model, graph, placement, spy_ref)
        replay_traffic_reference(ex_ref, batch)

        def multiset(log):
            counts = Counter()
            for src, dst, n_values, kind, copies in log:
                counts[(src, dst, n_values, kind)] += copies
            return counts

        assert multiset(spy_fast.log) == multiset(spy_ref.log)
        # Total values moved is conserved too.
        fast_total = sum(n * c for __, __, n, __, c in spy_fast.log)
        ref_total = sum(n * c for __, __, n, __, c in spy_ref.log)
        assert fast_total == ref_total

    @pytest.mark.parametrize("trial", range(8))
    def test_aggregation_conserves_per_node_stats(self, trial):
        rng = np.random.default_rng(2000 + trial)
        model, graph, topo, placement = build_case(rng)
        batch = int(rng.integers(1, 9))

        net_fast = Network(topo)
        DistributedExecutor(model, graph, placement, net_fast).replay_traffic(
            batch
        )
        net_ref = Network(topo)
        replay_traffic_reference(
            DistributedExecutor(model, graph, placement, net_ref), batch
        )
        assert dict(net_fast.stats.per_node_rx_values) == (
            dict(net_ref.stats.per_node_rx_values)
        )
        assert dict(net_fast.stats.per_node_tx_values) == (
            dict(net_ref.stats.per_node_tx_values)
        )
        assert net_fast.stats.sent == net_ref.stats.sent
        assert net_fast.stats.delivered == net_ref.stats.delivered
        assert net_fast.stats.total_hops == net_ref.stats.total_hops

    @pytest.mark.parametrize("trial", range(4))
    def test_replay_layer_order_non_decreasing(self, trial):
        """Aggregation must not reorder layers: the replayed kind
        sequence stays non-decreasing like the flat transfer list."""
        rng = np.random.default_rng(3000 + trial)
        model, graph, topo, placement = build_case(rng)
        spy = SpyNetwork(topo)
        DistributedExecutor(model, graph, placement, spy).replay_traffic(2)
        layers = [int(kind[len("layer"):]) for __, __, __, kind, __ in spy.log]
        assert layers == sorted(layers)


def record(trace, tag):
    def handler():
        trace.append(tag)
    return handler


def schedule_random_workload(sim, rng, trace, n=60):
    """Random times with heavy ties, priorities, and cancellations."""
    events = []
    for i in range(n):
        delay = float(rng.integers(0, 10)) / 2.0
        priority = int(rng.integers(-2, 3))
        events.append(
            sim.schedule(delay, record(trace, i), priority=priority)
        )
    for i in rng.choice(n, size=n // 5, replace=False):
        sim.cancel(events[int(i)])
    return events


class TestRunBatchEquivalence:
    @pytest.mark.parametrize("trial", range(10))
    def test_drain_all_matches_step_loop(self, trial):
        rng_a = np.random.default_rng(4000 + trial)
        rng_b = np.random.default_rng(4000 + trial)
        sim_a, sim_b = Simulator(), Simulator()
        trace_a, trace_b = [], []
        schedule_random_workload(sim_a, rng_a, trace_a)
        schedule_random_workload(sim_b, rng_b, trace_b)

        sim_a.run_batch()
        while sim_b.step():
            pass

        assert trace_a == trace_b
        assert sim_a.now == sim_b.now
        assert sim_a.processed == sim_b.processed
        assert sim_a.pending == sim_b.pending == 0

    @pytest.mark.parametrize("trial", range(10))
    def test_sliced_drain_matches_run(self, trial):
        """run_batch(until=...) == run(until=...) slice for slice,
        including boundaries landing exactly on event times."""
        rng_a = np.random.default_rng(5000 + trial)
        rng_b = np.random.default_rng(5000 + trial)
        sim_a, sim_b = Simulator(), Simulator()
        trace_a, trace_b = [], []
        schedule_random_workload(sim_a, rng_a, trace_a)
        schedule_random_workload(sim_b, rng_b, trace_b)

        # Half-unit boundaries coincide exactly with event times.
        cuts = [0.0, 0.5, 1.0, 2.5, 2.5, 3.0, 4.75, 6.0]
        for until in cuts:
            assert sim_a.run_batch(until=until) == sim_b.run(until=until)
            assert trace_a == trace_b
            assert sim_a.now == sim_b.now
            assert sim_a.processed == sim_b.processed
            assert sim_a.pending == sim_b.pending
        sim_a.run_batch()
        sim_b.run()
        assert trace_a == trace_b
        assert sim_a.pending == sim_b.pending == 0

    def test_until_before_first_event_requeues_cleanly(self):
        sim = Simulator()
        trace = []
        sim.schedule(5.0, record(trace, "late"))
        assert sim.run_batch(until=1.0) == 1.0
        assert trace == []
        assert sim.pending == 1
        # The requeued event keeps its slot and still fires in order.
        sim.schedule(3.0, record(trace, "early"))  # fires at t=4.0 < 5.0
        sim.run_batch()
        assert trace == ["early", "late"]

    def test_requeued_event_keeps_insertion_order_on_tie(self):
        """Two same-time same-priority events: the first is popped,
        requeued past an until horizon, and must still fire first."""
        sim = Simulator()
        trace = []
        sim.schedule(2.0, record(trace, "first"))
        sim.schedule(2.0, record(trace, "second"))
        sim.run_batch(until=1.0)  # pops "first", requeues it
        sim.run_batch()
        assert trace == ["first", "second"]

    def test_run_batch_max_events(self):
        sim = Simulator()
        trace = []
        for i in range(5):
            sim.schedule(float(i), record(trace, i))
        sim.run_batch(max_events=2)
        assert trace == [0, 1]
        assert sim.pending == 3
        sim.run_batch()
        assert trace == [0, 1, 2, 3, 4]

    def test_run_batch_reentrancy_guarded(self):
        from repro.sim import SimulationError
        sim = Simulator()

        def reenter():
            with pytest.raises(SimulationError):
                sim.run_batch()

        sim.schedule(0.0, reenter)
        sim.run_batch()

    def test_run_batch_resumable_after_handler_raises(self):
        sim = Simulator()
        trace = []

        def boom():
            raise RuntimeError("handler failure")

        sim.schedule(1.0, boom)
        sim.schedule(2.0, record(trace, "after"))
        with pytest.raises(RuntimeError):
            sim.run_batch()
        assert sim.now == 1.0
        assert sim.processed == 1
        sim.run_batch()
        assert trace == ["after"]

    def test_handler_scheduling_new_events_matches_run(self):
        def build(sim, trace):
            def chain(depth):
                trace.append(depth)
                if depth < 4:
                    sim.schedule(0.5, chain, depth + 1)
            sim.schedule(0.0, chain, 0)

        sim_a, sim_b = Simulator(), Simulator()
        trace_a, trace_b = [], []
        build(sim_a, trace_a)
        build(sim_b, trace_b)
        assert sim_a.run_batch(until=1.2) == sim_b.run(until=1.2)
        sim_a.run_batch()
        sim_b.run()
        assert trace_a == trace_b == [0, 1, 2, 3, 4]
        assert sim_a.now == sim_b.now
