"""Contracts of the network layer's traffic counters.

These pin what callers can observe of the per-node and per-link
counters — key sets, sharing between networks, setter persistence,
pickling, and the metrics the registry mirrors — independently of how
the counters are stored.
"""

import pickle

import numpy as np
import pytest

from repro import obs
from repro.wsn import GridTopology, Message, Network


def _line():
    """Three nodes in a line: 0 - 1 - 2."""
    return GridTopology(1, 3, comm_range=1.0)


class TestPerNodeKeys:
    def test_zero_value_message_creates_keys_holding_zero(self):
        net = Network(_line())
        assert net.unicast(Message(0, 2, 0))
        assert dict(net.stats.per_node_tx_values) == {0: 0, 1: 0}
        assert dict(net.stats.per_node_rx_values) == {1: 0, 2: 0}
        assert net.stats.total_hops == 2

    def test_zero_value_bulk_creates_keys_holding_zero(self):
        net = Network(_line())
        assert net.unicast(Message(2, 1, 0), copies=3) == 3
        assert dict(net.stats.per_node_tx_values) == {2: 0}
        assert dict(net.stats.per_node_rx_values) == {1: 0}
        assert net.topology.node(1).rx_count == 3

    def test_untouched_nodes_have_no_key(self):
        net = Network(GridTopology(3, 3))
        net.unicast(Message(0, 1, 4))
        assert dict(net.stats.per_node_rx_values) == {1: 4}
        assert net.stats.rx_values_of(8) == 0
        assert 8 not in net.stats.per_node_rx_values
        assert net.stats.max_rx_values() == 4

    def test_stats_mapping_equals_a_plain_dict(self):
        net = Network(_line())
        net.unicast(Message(0, 2, 5))
        assert net.stats.per_node_rx_values == {1: 5, 2: 5}
        assert net.stats.per_node_rx_values != {1: 5}
        assert sorted(net.stats.per_node_tx_values.items()) == [
            (0, 5), (1, 5)
        ]


class TestSharedTopology:
    def test_node_counters_are_cumulative_across_networks(self):
        topo = _line()
        a, b = Network(topo), Network(topo)
        a.unicast(Message(0, 2, 5))
        b.unicast(Message(2, 1, 3))
        assert topo.node(1).rx_values == 5 + 3
        assert topo.node(1).rx_count == 2
        assert topo.node(2).tx_values == 3
        assert topo.node(0).tx_count == 1

    def test_each_network_sees_only_its_own_traffic(self):
        topo = _line()
        a, b = Network(topo), Network(topo)
        a.unicast(Message(0, 2, 5))
        b.unicast(Message(2, 1, 3))
        a.unicast(Message(0, 1, 1))
        assert dict(a.stats.per_node_rx_values) == {1: 6, 2: 5}
        assert dict(b.stats.per_node_rx_values) == {1: 3}
        assert dict(b.stats.per_node_tx_values) == {2: 3}
        b.reset_stats()  # zeroes the node counters, not a's stats
        assert topo.node(1).rx_values == 0
        assert dict(a.stats.per_node_rx_values) == {1: 6, 2: 5}
        a.unicast(Message(1, 2, 2))
        assert a.stats.per_node_rx_values == {1: 6, 2: 7}
        assert topo.node(2).rx_values == 2

    def test_shared_registry_does_not_double_count(self):
        topo = _line()
        with obs.session() as tel:
            a, b = Network(topo), Network(topo)
            a.unicast(Message(0, 2, 5))
            b.unicast(Message(2, 1, 3))
            tel.metrics.collect()
            tel.metrics.collect()  # collects are idempotent
            registry = tel.metrics
            for node in topo:
                assert registry.value("net.rx_values", node=node.node_id) \
                    == node.rx_values
                assert registry.value("net.tx_values", node=node.node_id) \
                    == node.tx_values
            assert registry.value("net.sent") == 2
            assert registry.value("net.hops") == 3
            assert registry.total("net.link_values") == \
                sum(n.rx_values for n in topo)

    def test_reset_stats_retracts_from_the_registry(self):
        topo = _line()
        with obs.session() as tel:
            net = Network(topo)
            net.unicast(Message(0, 2, 5))
            tel.metrics.collect()
            assert tel.metrics.value("net.rx_values", node=2) == 5
            net.reset_stats()
            tel.metrics.collect()
            assert tel.metrics.value("net.rx_values", node=2) == 0
            assert tel.metrics.value("net.link_values", src=1, dst=2) == 0
            net.unicast(Message(0, 1, 2))
            tel.metrics.collect()
            assert tel.metrics.value("net.rx_values", node=1) == 2
            assert net.telemetry_drift() == []

    def test_a_new_network_counts_from_its_creation(self):
        topo = _line()
        Network(topo).unicast(Message(0, 2, 5))
        later = Network(topo)
        assert dict(later.stats.per_node_rx_values) == {}
        later.unicast(Message(2, 1, 3))
        assert dict(later.stats.per_node_rx_values) == {1: 3}
        assert topo.node(1).rx_values == 8

    def test_stats_taken_before_a_reset_keep_their_values(self):
        topo = _line()
        net = Network(topo)
        net.unicast(Message(0, 2, 5))
        before = net.stats
        net.reset_stats()
        net.unicast(Message(0, 1, 1))
        assert dict(before.per_node_rx_values) == {1: 5, 2: 5}
        assert dict(net.stats.per_node_rx_values) == {1: 1}
        assert topo.node(2).rx_values == 0

    def test_registry_mirrors_traffic_after_it_attached(self):
        topo = _line()
        Network(topo).unicast(Message(0, 2, 5))  # before any session
        with obs.session() as tel:
            net = Network(topo)
            net.unicast(Message(0, 2, 2))
            assert net.telemetry_drift() == []
            assert tel.metrics.value("net.rx_values", node=2) == 2
            tel.metrics.clear()
            net.unicast(Message(0, 2, 1))
            tel.metrics.collect()
            assert tel.metrics.value("net.rx_values", node=2) == 1


    def test_uncollected_traffic_survives_a_ledger_reset(self):
        """A ledger reset between runs (as fault injection does) keeps
        the registry's totals; a later reset_stats takes back only the
        resetting network's traffic."""
        topo = _line()
        with obs.session() as tel:
            first = Network(topo)
            first.unicast(Message(0, 2, 5))
            tel.metrics.collect()
            first.unicast(Message(0, 2, 1))  # not collected yet
            topo.ledger.reset()
            second = Network(topo)
            second.unicast(Message(0, 2, 2))
            tel.metrics.collect()
            assert tel.metrics.value("net.rx_values", node=2) == 8
            second.reset_stats()
            tel.metrics.collect()
            assert tel.metrics.value("net.rx_values", node=2) == 6
            assert tel.metrics.value("net.link_values", src=1, dst=2) == 6


class TestNodeCounterSetters:
    def test_setters_persist(self):
        topo = _line()
        node = topo.node(1)
        node.tx_values += 7
        node.rx_count = 4
        assert node.tx_values == 7
        assert topo.node(1).rx_count == 4
        assert node.tx_count == 0 and node.rx_values == 0

    def test_traffic_adds_on_top_of_written_values(self):
        topo = _line()
        topo.node(1).rx_values += 100
        Network(topo).unicast(Message(0, 2, 5))
        assert topo.node(1).rx_values == 105
        assert topo.node(1).tx_values == 5

    def test_reset_counters_zeroes_one_node(self):
        topo = _line()
        Network(topo).unicast(Message(0, 2, 5))
        topo.node(1).reset_counters()
        assert (topo.node(1).rx_values, topo.node(1).tx_count) == (0, 0)
        assert topo.node(2).rx_values == 5

    def test_reset_counters_keeps_stats_and_registry(self):
        topo = _line()
        with obs.session() as tel:
            net = Network(topo)
            net.unicast(Message(0, 2, 5))
            topo.node(1).reset_counters()  # before any collect
            net.unicast(Message(0, 1, 1))
            assert net.telemetry_drift() == []  # links into 1 zeroed too
            assert tel.metrics.value("net.rx_values", node=1) == 6
            assert tel.metrics.value("net.link_values", src=0, dst=1) == 6
        assert dict(net.stats.per_node_rx_values) == {1: 6, 2: 5}
        assert topo.node(1).rx_values == 1

    def test_counters_are_plain_ints(self):
        topo = _line()
        Network(topo).unicast(Message(0, 2, 5))
        for node in topo:
            for attr in ("tx_count", "rx_count", "tx_values", "rx_values"):
                assert type(getattr(node, attr)) is int


class TestPickle:
    def _mid_run(self):
        topo = GridTopology(3, 3)
        net = Network(topo)
        net.unicast(Message(0, 8, 4))
        net.unicast(Message(2, 6, 3), copies=2)
        return topo, net

    def test_round_trip_preserves_counters(self):
        topo, net = self._mid_run()
        topo2, net2 = pickle.loads(pickle.dumps((topo, net)))
        assert net2.topology is topo2
        assert dict(net2.stats.per_node_rx_values) == \
            dict(net.stats.per_node_rx_values)
        assert [n.rx_values for n in topo2] == [n.rx_values for n in topo]
        assert [n.tx_count for n in topo2] == [n.tx_count for n in topo]
        assert net2.stats.sent == net.stats.sent

    def test_writes_work_after_unpickling(self):
        topo, net = self._mid_run()
        before = topo.node(8).rx_values
        topo2, net2 = pickle.loads(pickle.dumps((topo, net)))
        assert net2.unicast(Message(0, 8, 10))
        net2.unicast(Message(0, 8, 1), copies=3)
        assert topo2.node(8).rx_values == before + 13
        assert net2.stats.rx_values_of(8) == before + 13
        topo2.node(8).rx_values += 1
        assert topo2.node(8).rx_values == before + 14
        assert topo.node(8).rx_values == before  # original untouched


def test_compiled_accounting_matches_bulk_replay():
    """account_compiled and per-message replay agree on every counter,
    zero-value keys included."""
    from repro.core.compiled.plan import HopProgram

    program = HopProgram(
        link_src=np.array([0, 1], dtype=np.int64),
        link_dst=np.array([1, 2], dtype=np.int64),
        link_packets=np.array([1, 1], dtype=np.int64),
        link_values=np.array([0, 0], dtype=np.int64),
        tx_nodes=np.array([0, 1], dtype=np.int64),
        tx_packets=np.array([1, 1], dtype=np.int64),
        tx_values=np.array([0, 0], dtype=np.int64),
        rx_nodes=np.array([1, 2], dtype=np.int64),
        rx_packets=np.array([1, 1], dtype=np.int64),
        rx_values=np.array([0, 0], dtype=np.int64),
        sent=1,
        unroutable=0,
        hops=2,
        n_transfer_groups=1,
    )
    compiled, replayed = Network(_line()), Network(_line())
    assert compiled.account_compiled(program, 3) == 3
    replayed.unicast(Message(0, 2, 0), copies=3)
    for attr in ("per_node_rx_values", "per_node_tx_values"):
        assert dict(getattr(compiled.stats, attr)) == \
            dict(getattr(replayed.stats, attr))
    assert [n.rx_count for n in compiled.topology] == \
        [n.rx_count for n in replayed.topology]


@pytest.mark.parametrize("copies", [0, 1, 5])
def test_bulk_equals_repeated_unicast(copies):
    bulk, loop = Network(GridTopology(3, 3)), Network(GridTopology(3, 3))
    bulk.unicast(Message(0, 8, 3), copies=copies)
    for __ in range(copies):
        loop.unicast(Message(0, 8, 3))
    assert dict(bulk.stats.per_node_rx_values) == \
        dict(loop.stats.per_node_rx_values)
    assert bulk.stats.sent == loop.stats.sent == copies


def _program():
    """One inference sending 4 values 0 -> 1 -> 2 over the line."""
    from repro.core.compiled.plan import HopProgram

    def arr(*values):
        return np.array(values, dtype=np.int64)

    return HopProgram(
        link_src=arr(0, 1), link_dst=arr(1, 2), link_packets=arr(1, 1),
        link_values=arr(4, 4), tx_nodes=arr(0, 1), tx_packets=arr(1, 1),
        tx_values=arr(4, 4), rx_nodes=arr(1, 2), rx_packets=arr(1, 1),
        rx_values=arr(4, 4), sent=1, unroutable=0, hops=2,
        n_transfer_groups=1,
    )


def _untouched(net):
    return (net.stats.sent == 0
            and all(n.tx_count == n.rx_count == 0 for n in net.topology))


class TestNValuesValidation:
    @pytest.mark.parametrize("bad", [-3, 2.5, "4", None, True])
    def test_message_rejects_bad_n_values(self, bad):
        with pytest.raises(ValueError, match="n_values.*Message"):
            Message(0, 2, bad)

    def test_numpy_integer_n_values_becomes_int(self):
        msg = Message(0, 2, np.int64(3))
        assert msg.n_values == 3 and type(msg.n_values) is int

    def test_unicast_rejects_negative_n_values(self):
        net = Network(_line())
        with pytest.raises(ValueError, match="n_values"):
            net.unicast(Message(0, 2, -3))
        msg = Message(0, 2, 1)
        msg.n_values = -3  # mutated after construction
        with pytest.raises(ValueError, match="n_values.*src=0, dst=2"):
            net.unicast(msg)
        assert _untouched(net)

    def test_unicast_bulk_rejects_negative_n_values(self):
        net = Network(_line())
        msg = Message(0, 2, 1)
        msg.n_values = -3
        with pytest.raises(ValueError, match="n_values"):
            net.unicast(msg, copies=2)
        msg.n_values = 1.5
        with pytest.raises(ValueError, match="n_values"):
            net.unicast(msg, copies=2)
        assert _untouched(net)

    def test_lossy_unicast_bulk_rejects_negative_n_values(self):
        net = Network(_line(), loss_probability=0.1,
                      rng=np.random.default_rng(0))
        msg = Message(0, 2, 1)
        msg.n_values = -3
        with pytest.raises(ValueError, match="n_values"):
            net.unicast(msg, copies=2)
        assert _untouched(net)

    def test_broadcast_rejects_negative_n_values(self):
        net = Network(_line())
        with pytest.raises(ValueError, match="n_values"):
            net.broadcast_from(0, -3)
        assert _untouched(net)


class TestCopiesValidation:
    def test_unicast_bulk_rejects_fractional_copies(self):
        net = Network(_line())
        with pytest.raises(TypeError):
            net.unicast(Message(0, 2, 1), copies=2.5)
        assert _untouched(net)

    def test_unicast_bulk_rejects_negative_copies(self):
        net = Network(_line())
        with pytest.raises(ValueError, match="non-negative"):
            net.unicast(Message(0, 2, 1), copies=-1)
        assert _untouched(net)

    def test_unicast_bulk_accepts_numpy_integer_copies(self):
        net = Network(_line())
        assert net.unicast(Message(0, 2, 1), copies=np.int64(2)) == 2
        assert type(net.stats.sent) is int and net.stats.sent == 2

    def test_account_compiled_rejects_fractional_copies(self):
        net = Network(_line())
        with pytest.raises(TypeError):
            net.account_compiled(_program(), 2.5)
        assert _untouched(net)

    def test_account_compiled_rejects_negative_copies(self):
        net = Network(_line())
        with pytest.raises(ValueError, match="non-negative"):
            net.account_compiled(_program(), -1)
        assert _untouched(net)

    def test_account_compiled_scales_by_copies(self):
        net = Network(_line())
        assert net.account_compiled(_program(), np.int64(3)) == 3
        assert type(net.stats.sent) is int
        assert dict(net.stats.per_node_rx_values) == {1: 12, 2: 12}
        assert net.topology.node(1).tx_count == 3
