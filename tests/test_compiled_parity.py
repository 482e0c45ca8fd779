"""Differential parity harness: compiled plans vs. the event-driven
oracle.

The compiled fast path (:mod:`repro.core.compiled`) must be
*indistinguishable* from the event-driven executor wherever it is
allowed to run: byte-identical logits and exactly equal traffic
counters — every global and per-node counter the network keeps — across
placements, model shapes, batch sizes, and topology changes (crashes,
recoveries, node moves: the plan is recompiled once per topology
epoch).  Where it is not allowed to run (lossy links, an installed
link-fault model), it must either refuse with the typed
:class:`~repro.core.PlanNotCompilable` or fall back to the oracle —
never be silently wrong.

Digest pins follow the oracle pattern of the vectorized-training suite:
the reference path is run twice to prove it stable, then the compiled
digest is required to equal the oracle's.
"""

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.core import (
    CompiledPlan,
    DistributedExecutor,
    PlanNotCompilable,
    UnitGraph,
    centralized_assignment,
    compile_plan,
    grid_correspondence_assignment,
    random_assignment,
    round_robin_assignment,
)
from repro.faults.links import LinkFaultModel
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.wsn import GridTopology, Network

RNG = np.random.default_rng(608)

#: Model shapes the differential suite sweeps: dense-only (no spatial
#: layers past the input grid) and the paper's conv+pool stack.
MODELS = {
    "dense_only": (
        lambda: [Flatten(), Dense(10), ReLU(), Dense(3)],
        (1, 6, 6),
        (3, 3),
    ),
    "conv_pool": (
        lambda: [Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(),
                 Dense(8), ReLU(), Dense(2)],
        (1, 10, 10),
        (4, 4),
    ),
}

STRATEGIES = [
    grid_correspondence_assignment,
    lambda g, t: centralized_assignment(g, t),
    round_robin_assignment,
    lambda g, t: random_assignment(g, t, np.random.default_rng(5)),
]


def make(kind, seed=0):
    layers, input_shape, node_grid = MODELS[kind]
    model = Sequential(layers())
    model.build(input_shape, np.random.default_rng(seed))
    graph = UnitGraph(model)
    topo = GridTopology(*node_grid)
    return model, graph, topo


def make_batch(kind, batch, seed=1):
    input_shape = MODELS[kind][1]
    return np.random.default_rng(seed).normal(
        size=(batch,) + tuple(input_shape)
    )


def stats_snapshot(net):
    """Every counter the network keeps, node counters included."""
    s = net.stats
    return {
        "sent": s.sent,
        "delivered": s.delivered,
        "dropped": s.dropped,
        "corrupted": s.corrupted,
        "duplicated": s.duplicated,
        "total_hops": s.total_hops,
        "rx": dict(s.per_node_rx_values),
        "tx": dict(s.per_node_tx_values),
        "node_rx_count": {n.node_id: n.rx_count for n in net.topology},
        "node_tx_count": {n.node_id: n.tx_count for n in net.topology},
        "node_rx_values": {n.node_id: n.rx_values for n in net.topology},
        "node_tx_values": {n.node_id: n.tx_values for n in net.topology},
    }


def digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class TestCompiledParity:
    @pytest.mark.parametrize("kind", sorted(MODELS))
    @pytest.mark.parametrize("batch", [1, 8, 32])
    def test_logits_and_all_counters_identical(self, kind, batch):
        """The headline differential: same bytes out, same traffic in
        every counter, for every placement strategy."""
        model, graph, topo = make(kind)
        x = make_batch(kind, batch)
        for strategy in STRATEGIES:
            placement = strategy(graph, topo)
            net_plan = Network(topo)
            ex_plan = DistributedExecutor(model, graph, placement, net_plan)
            out_plan = ex_plan.forward(x)
            assert ex_plan._compiled_plan is not None  # plan actually ran
            plan_stats = stats_snapshot(net_plan)
            net_plan.reset_stats()  # node counters are shared via topo

            net_ref = Network(topo)
            ex_ref = DistributedExecutor(model, graph, placement, net_ref)
            out_ref = ex_ref.forward(x, plan=None)

            assert out_plan.tobytes() == out_ref.tobytes()
            assert plan_stats == stats_snapshot(net_ref)
            net_ref.reset_stats()

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_repeated_runs_accumulate_identically(self, kind):
        """Counters after N compiled forwards == after N oracle
        forwards (accumulation, not just one-shot equality)."""
        model, graph, topo = make(kind)
        placement = grid_correspondence_assignment(graph, topo)
        net_plan = Network(topo)
        ex_plan = DistributedExecutor(model, graph, placement, net_plan)
        for batch in (1, 8, 3):
            ex_plan.forward(make_batch(kind, batch, seed=batch))
        plan_stats = stats_snapshot(net_plan)
        net_plan.reset_stats()  # node counters are shared via topo
        net_ref = Network(topo)
        ex_ref = DistributedExecutor(model, graph, placement, net_ref)
        for batch in (1, 8, 3):
            ex_ref.forward(make_batch(kind, batch, seed=batch), plan=None)
        assert plan_stats == stats_snapshot(net_ref)

    def test_count_traffic_false_moves_no_traffic(self):
        model, graph, topo = make("conv_pool")
        placement = grid_correspondence_assignment(graph, topo)
        net = Network(topo)
        ex = DistributedExecutor(model, graph, placement, net)
        x = make_batch("conv_pool", 4)
        out = ex.forward(x, count_traffic=False)
        assert ex._compiled_plan is not None
        assert net.stats.sent == 0
        assert stats_snapshot(net) == stats_snapshot(Network(topo))
        ref = ex.forward(x, count_traffic=False, plan=None)
        assert out.tobytes() == ref.tobytes()

    def test_plan_object_rejected(self):
        """``plan`` selects a strategy; a plan object is not one."""
        model, graph, topo = make("conv_pool")
        placement = grid_correspondence_assignment(graph, topo)
        net = Network(topo)
        ex = DistributedExecutor(model, graph, placement, net)
        plan = ex.compiled_plan()
        assert isinstance(plan, CompiledPlan)
        with pytest.raises(ValueError, match="'auto' or None"):
            ex.forward(make_batch("conv_pool", 1), plan=plan)
        assert net.stats.sent == 0

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_oracle_digest_stable_and_compiled_matches(self, kind):
        """The PR-oracle digest pin: run the event-driven reference
        twice (must not drift), then require the compiled digest to
        equal it — logits and the canonical counter repr both."""
        x = make_batch(kind, 8)
        oracle_digests = []
        for __ in range(2):
            model, graph, topo = make(kind)
            placement = grid_correspondence_assignment(graph, topo)
            net = Network(topo)
            ex = DistributedExecutor(model, graph, placement, net)
            out = ex.forward(x, plan=None)
            blob = digest(out) + repr(sorted(stats_snapshot(net).items()))
            oracle_digests.append(
                hashlib.sha256(blob.encode()).hexdigest()
            )
        assert oracle_digests[0] == oracle_digests[1]

        model, graph, topo = make(kind)
        placement = grid_correspondence_assignment(graph, topo)
        net = Network(topo)
        ex = DistributedExecutor(model, graph, placement, net)
        out = ex.forward(x)
        assert ex._compiled_plan is not None
        blob = digest(out) + repr(sorted(stats_snapshot(net).items()))
        compiled_digest = hashlib.sha256(blob.encode()).hexdigest()
        assert compiled_digest == oracle_digests[0]


class TestFallbackTriggers:
    """A lossy link model or an installed LinkFaultModel must route
    :meth:`forward` back to the event-driven path — observable in the
    trace as ``exec.forward`` spans instead of ``exec.plan`` — and
    produce results identical to a never-compiled run."""

    def _setup(self, tel=None, **net_kwargs):
        model, graph, topo = make("conv_pool")
        placement = grid_correspondence_assignment(graph, topo)
        net = Network(topo, telemetry=tel, **net_kwargs)
        ex = DistributedExecutor(model, graph, placement, net,
                                 telemetry=tel)
        return model, graph, topo, placement, net, ex

    def _span_names(self, tel):
        return [e.name for e in tel.tracer.events]

    def test_lossy_network_never_compiles(self):
        __, __, __, __, net, ex = self._setup(
            loss_probability=0.3, rng=np.random.default_rng(0)
        )
        with pytest.raises(PlanNotCompilable) as err:
            compile_plan(ex)
        assert err.value.reason == "lossy-links"
        x = make_batch("conv_pool", 2)
        out = ex.forward(x)  # auto must fall back, not raise
        assert ex._compiled_plan is None
        ref_model, ref_graph, ref_topo = make("conv_pool")
        ref_net = Network(ref_topo, loss_probability=0.3,
                          rng=np.random.default_rng(0))
        ref_ex = DistributedExecutor(
            ref_model, ref_graph,
            grid_correspondence_assignment(ref_graph, ref_topo), ref_net
        )
        ref = ref_ex.forward(x, plan=None)
        assert out.tobytes() == ref.tobytes()
        assert stats_snapshot(net) == stats_snapshot(ref_net)

    def test_link_faults_attached_mid_session(self):
        from repro.obs.runtime import session

        x = make_batch("conv_pool", 2)
        with session() as tel:
            __, __, __, __, net, ex = self._setup(tel=tel)
            ex.forward(x)
            assert "exec.plan" in self._span_names(tel)
            net.link_faults = LinkFaultModel(loss_rate=0.5, seed=3)
            before = len(tel.tracer.events)
            ex.forward(x)
            tail = [e.name for e in tel.tracer.events[before:]]
            assert "exec.forward" in tail
            assert "exec.plan" not in tail
            assert "exec.plan-fallback" in tail  # a working plan existed
            # Detach: the existing plan serves again.
            net.link_faults = None
            before = len(tel.tracer.events)
            ex.forward(x)
            tail = [e.name for e in tel.tracer.events[before:]]
            assert "exec.plan" in tail

    def test_down_node_stats_match_never_compiled_run(self):
        """Counters accumulated across a compiled -> down -> recovered
        session equal those of an oracle-only run of the same
        sequence."""
        x = make_batch("conv_pool", 2)

        def run(plan):
            model, graph, topo = make("conv_pool")
            placement = grid_correspondence_assignment(graph, topo)
            net = Network(topo)
            ex = DistributedExecutor(model, graph, placement, net)
            victim = sorted(topo.nodes)[5]
            ex.forward(x, plan=plan)
            topo.node(victim).alive = False
            ex.forward(x, plan=plan)
            topo.node(victim).alive = True
            ex.forward(x, plan=plan)
            return stats_snapshot(net)

        assert run("auto") == run(None)

    def test_fallback_counter_carries_reason(self):
        from repro.obs.runtime import session

        x = make_batch("conv_pool", 1)
        with session() as tel:
            __, __, __, __, net, ex = self._setup(tel=tel)
            ex.forward(x)
            net.link_faults = LinkFaultModel(loss_rate=0.1, seed=2)
            ex.forward(x)
            rows = {
                (name, tuple(map(tuple, labels))): value
                for name, labels, kind, value in tel.metrics.snapshot()
                if name.startswith("exec.plan")
            }
            assert rows[("exec.plan_runs", ())] == 1.0
            assert rows[
                ("exec.plan_fallbacks", (("reason", "link-faults"),))
            ] == 1.0


class TestTopologyEpochs:
    """Crashes, brownouts, recoveries and moves change the routes, not
    whether a plan serves: the executor recompiles once per topology
    epoch, and a transfer with no route is dropped as ``unroutable``
    exactly like the oracle drops it."""

    def _setup(self, tel=None):
        model, graph, topo = make("conv_pool")
        placement = grid_correspondence_assignment(graph, topo)
        net = Network(topo, telemetry=tel)
        ex = DistributedExecutor(model, graph, placement, net,
                                 telemetry=tel)
        return topo, net, ex

    def test_brownout_served_by_plan_and_recovers(self):
        from repro.obs.runtime import session

        x = make_batch("conv_pool", 2)
        with session() as tel:
            topo, net, ex = self._setup(tel=tel)
            out_plan = ex.forward(x)
            victim = sorted(topo.nodes)[5]
            topo.node(victim).alive = False  # brownout
            before = len(tel.tracer.events)
            out_down = ex.forward(x)
            tail = [e.name for e in tel.tracer.events[before:]]
            assert "exec.plan" in tail and "exec.forward" not in tail
            assert "exec.plan-fallback" not in tail
            topo.node(victim).alive = True
            before = len(tel.tracer.events)
            out_up = ex.forward(x)
            tail = [e.name for e in tel.tracer.events[before:]]
            assert "exec.plan" in tail
            assert tel.metrics.value("exec.plan_runs") == 3.0
        # The arithmetic is the same in every state (traffic is what
        # degrades, not the logits of forward()).
        assert out_plan.tobytes() == out_down.tobytes() == out_up.tobytes()

    def test_brownout_plan_counters_match_oracle(self):
        """A browned-out topology compiles: ``compiled_plan()`` serves
        it, and its counters — unroutable drops included — equal a
        fresh oracle run's."""
        x = make_batch("conv_pool", 4)
        results = []
        for plan in ("auto", None):
            topo, net, ex = self._setup()
            topo.node(sorted(topo.nodes)[5]).alive = False
            if plan == "auto":
                compiled = ex.compiled_plan()
                assert compiled.epoch == topo.epoch
                assert compiled.hops.unroutable > 0
            out = ex.forward(x, plan=plan)
            results.append((out.tobytes(), stats_snapshot(net),
                            dict(net.stats.dropped_causes)))
            net.reset_stats()  # node counters are shared via topo
        assert results[0] == results[1]
        assert results[0][2]["unroutable"] > 0

    def test_same_value_alive_does_not_recompile(self, monkeypatch):
        """Reviving every node (what each fault injection does) leaves
        the plan of an all-alive topology in place."""
        import repro.core.executor as executor_module

        compiles = []
        real_compile = executor_module.compile_plan

        def counting_compile(ex):
            compiles.append(ex.network.topology.epoch)
            return real_compile(ex)

        monkeypatch.setattr(executor_module, "compile_plan",
                            counting_compile)
        topo, net, ex = self._setup()
        x = make_batch("conv_pool", 2)
        ex.forward(x)
        plan = ex._compiled_plan
        for node in topo:
            node.alive = True
        ex.forward(x)
        assert ex._compiled_plan is plan
        assert len(compiles) == 1

    def test_move_after_compile_recompiles_per_epoch(self, monkeypatch):
        """A relay moves, then moves out of range: the compiled
        counters equal the oracle's after every step, with exactly
        one compilation per topology epoch (not per call)."""
        import repro.core.executor as executor_module

        compiles = []
        real_compile = executor_module.compile_plan

        def counting_compile(ex):
            compiles.append(ex.network.topology.epoch)
            return real_compile(ex)

        monkeypatch.setattr(executor_module, "compile_plan",
                            counting_compile)
        x = make_batch("conv_pool", 8)
        moves = [(5, (3.0, 3.0)), (5, (40.0, 40.0))]

        def run(plan):
            topo, net, ex = self._setup()
            steps = []
            for move in [None] + moves:
                if move is not None:
                    node, position = move
                    topo.node(node).position = position
                for __ in range(2):
                    ex.forward(x, plan=plan)
                steps.append((stats_snapshot(net),
                              dict(net.stats.dropped_causes)))
            net.reset_stats()  # node counters are shared via topo
            return steps, topo

        compiled_steps, topo = run("auto")
        assert len(compiles) == 3 == len(set(compiles))
        oracle_steps, __ = run(None)
        assert len(compiles) == 3  # the oracle never compiles
        assert compiled_steps == oracle_steps
        assert oracle_steps[-1][1].get("unroutable", 0) > 0


@pytest.mark.perf
class TestCompiledProperties:
    """Seeded fuzz over random topologies and placements: compilation
    either round-trips the oracle exactly or refuses with the typed
    error — never silently wrong — and the hop program conserves the
    transfer multiset the network accounts."""

    def _random_case(self, rng):
        model = Sequential([
            Conv2D(int(rng.integers(1, 3)), 3), ReLU(), MaxPool2D(2),
            Flatten(), Dense(int(rng.integers(4, 10))), ReLU(), Dense(2),
        ])
        model.build(
            (1, 8, 8), np.random.default_rng(int(rng.integers(1e6)))
        )
        graph = UnitGraph(model)
        # Random radio range: 1.5 reaches the 8-neighbourhood, 1.0
        # only the 4-neighbourhood, 0.8 disconnects the mesh entirely
        # (every cross-node transfer unroutable).
        comm_range = float(rng.choice([0.8, 1.0, 1.5]))
        topo = GridTopology(int(rng.integers(3, 6)),
                            int(rng.integers(3, 6)),
                            comm_range=comm_range)
        if rng.random() < 0.25:  # occasional pre-existing brownout
            victims = rng.choice(sorted(topo.nodes),
                                 size=int(rng.integers(1, 3)),
                                 replace=False)
            for victim in victims:
                topo.node(int(victim)).alive = False
        strategies = [
            grid_correspondence_assignment,
            lambda g, t: centralized_assignment(g, t),
            round_robin_assignment,
            lambda g, t: random_assignment(
                g, t, np.random.default_rng(int(rng.integers(1e6)))
            ),
        ]
        strategy = strategies[int(rng.integers(len(strategies)))]
        return model, graph, topo, strategy(graph, topo)

    @pytest.mark.parametrize("trial", range(12))
    def test_compile_round_trips_or_raises_typed(self, trial):
        """Every case on ideal links compiles — dead nodes and
        disconnected meshes included — and round-trips the oracle;
        only per-message randomness refuses, with a typed reason, and
        ``auto`` then serves the oracle's exact results."""
        rng = np.random.default_rng(7000 + trial)
        model, graph, topo, placement = self._random_case(rng)
        batch = int(rng.integers(1, 9))
        x = rng.normal(size=(batch, 1, 8, 8))
        lossy = trial % 4 == 3  # trials 3, 7, 11

        def network():
            if not lossy:
                return Network(topo)
            if trial == 7:
                return Network(topo, loss_probability=0.2,
                               rng=np.random.default_rng(trial))
            return Network(topo, link_faults=LinkFaultModel(
                loss_rate=0.2, seed=trial))

        net = network()
        ex = DistributedExecutor(model, graph, placement, net)
        try:
            plan = compile_plan(ex)
        except PlanNotCompilable as err:
            assert lossy, f"an ideal-link case refused: {err}"
            assert err.reason in {"lossy-links", "link-faults"}
            # auto still serves the forward via the oracle.
            out = ex.forward(x)
            assert ex._compiled_plan is None
        else:
            assert not lossy
            out = plan.run(x)
        got_stats = (stats_snapshot(net), dict(net.stats.dropped_causes))
        net.reset_stats()  # node counters are shared via topo
        net_ref = network()
        ref = DistributedExecutor(
            model, graph, placement, net_ref
        ).forward(x, plan=None)
        assert out.tobytes() == ref.tobytes()
        assert got_stats == (stats_snapshot(net_ref),
                             dict(net_ref.stats.dropped_causes))

    @pytest.mark.parametrize("trial", range(8))
    def test_hop_program_conserves_transfer_multiset(self, trial):
        """The compiled tallies are exactly the per-hop multiset of the
        aggregated transfer list: per-link, per-node, and in total —
        and they reconcile with the Network counters they produce."""
        rng = np.random.default_rng(8000 + trial)
        model, graph, topo, placement = self._random_case(rng)
        net = Network(topo)
        ex = DistributedExecutor(model, graph, placement, net)
        hops = compile_plan(ex).hops

        # Independent reconstruction from the transfer list + routes.
        from repro.wsn.routing import shortest_path_route
        link_packets = Counter()
        link_values = Counter()
        sent = 0
        unroutable = 0
        for (layer, src, dst, n_values), mult in ex._aggregated_transfers():
            route = shortest_path_route(topo, src, dst)
            if route is None:
                unroutable += mult
                continue
            sent += mult
            for a, b in zip(route, route[1:]):
                link_packets[(a, b)] += mult
                link_values[(a, b)] += mult * n_values
        got_packets = dict(zip(
            zip(hops.link_src.tolist(), hops.link_dst.tolist()),
            hops.link_packets.tolist(),
        ))
        got_values = dict(zip(
            zip(hops.link_src.tolist(), hops.link_dst.tolist()),
            hops.link_values.tolist(),
        ))
        assert got_packets == dict(link_packets)
        assert got_values == dict(link_values)
        assert hops.sent == sent
        assert hops.unroutable == unroutable
        assert hops.hops == sum(link_packets.values())
        # Node tallies are the per-link tallies folded by endpoint.
        tx = Counter()
        rx = Counter()
        for (a, b), v in link_values.items():
            tx[a] += v
            rx[b] += v
        assert dict(zip(hops.tx_nodes.tolist(),
                        hops.tx_values.tolist())) == dict(tx)
        assert dict(zip(hops.rx_nodes.tolist(),
                        hops.rx_values.tolist())) == dict(rx)
        assert hops.total_values() == sum(link_values.values())

        # And the accounting the program drives reproduces itself in
        # the network counters, scaled by the batch.
        batch = int(rng.integers(1, 6))
        net.reset_stats()
        net.account_compiled(hops, copies=batch)
        assert net.stats.sent == (sent + unroutable) * batch
        assert net.stats.delivered == sent * batch
        assert net.stats.dropped_causes.get("unroutable", 0) == \
            unroutable * batch
        assert net.stats.total_hops == sum(link_packets.values()) * batch
        assert dict(net.stats.per_node_rx_values) == {
            n: v * batch for n, v in rx.items()
        }
        assert dict(net.stats.per_node_tx_values) == {
            n: v * batch for n, v in tx.items()
        }
