"""Network layer with per-node traffic accounting.

MicroDeep's communication cost is "the number of unit-output values a
sensor node receives per inference" (Fig. 10's y-axis).  This layer
counts both packets and values at every hop so the distributed
executor's measured costs can be checked against the static cost model
(a property the test suite enforces).

Every per-node and per-link tally lives in the topology's columnar
:class:`~repro.wsn.ledger.TrafficLedger`, written by two send engines
only: :meth:`Network.unicast` (per hop) and
:meth:`Network.account_compiled` (per batch); node counters and the
per-node :class:`TrafficStats` values are views of it.  Drops are
attributed to a cause (``fault`` / ``loss`` / ``unroutable``).  Under a telemetry session (:mod:`repro.obs`) pull
collectors mirror the scalars and the ledger into the metrics registry
with zero hot-path overhead, and :meth:`telemetry_drift` reconciles
them (the chaos suite runs it over a lossy replay).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.wsn.ledger import (
    RX_PACKETS,
    RX_VALUES,
    TX_PACKETS,
    TX_VALUES,
    CounterView,
    TrafficWindow,
)
from repro.wsn.routing import shortest_path_route
from repro.wsn.topology import Topology


@dataclass
class Message:
    """A unicast application message; ``n_values`` must be a
    non-negative integer (``ValueError`` otherwise)."""

    src: int
    dst: int
    n_values: int  # number of scalar values carried (MicroDeep's unit)
    kind: str = "data"

    def __post_init__(self) -> None:
        n = self.n_values
        if n.__class__ is not int or n < 0:
            if not isinstance(n, (int, bool)) and hasattr(n, "__index__"):
                self.n_values = operator.index(n)  # numpy integers
            _check_values(self)


def _check_values(message: Message) -> None:
    """Raise unless ``message.n_values`` is a non-negative ``int`` (the
    send paths re-check: a message may be mutated after construction)."""
    n = message.n_values
    if n.__class__ is not int or n < 0:
        raise ValueError(
            f"n_values must be a non-negative integer, got {message!r}"
        )


def _copies(copies) -> int:
    """Validate a send's message count (``TypeError`` unless an
    integer)."""
    copies = operator.index(copies)
    if copies < 0:
        raise ValueError(f"copies must be non-negative, got {copies}")
    return copies


@dataclass
class TrafficStats:
    """Aggregated traffic counters for one run."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    corrupted: int = 0
    duplicated: int = 0
    total_hops: int = 0
    #: node id -> values received / sent.  A network's stats hold live
    #: views of its own share of the topology's ledger (a node is a key
    #: iff it received / sent at least one packet through the network).
    per_node_rx_values: Mapping[int, int] = field(default_factory=dict)
    per_node_tx_values: Mapping[int, int] = field(default_factory=dict)
    #: Drops attributed to why they happened: ``"fault"`` (injected
    #: link fault), ``"loss"`` (random loss after retries), or
    #: ``"unroutable"`` (no route).  Sums to :attr:`dropped`.
    dropped_causes: Dict[str, int] = field(default_factory=dict)

    def max_rx_values(self) -> int:
        """Peak per-node received values — the paper's 'maximal
        communication cost of the sensor nodes'."""
        return max(self.per_node_rx_values.values(), default=0)

    def rx_values_of(self, node_id: int) -> int:
        return self.per_node_rx_values.get(node_id, 0)


class Network:
    """Multi-hop unicast over a topology with optional loss.

    Args:
        topology: node placement / connectivity.
        loss_probability: per-hop drop probability (0 = ideal links);
            retransmissions are modelled by ``max_retries``.
        rng: randomness source for losses; required when lossy.
        link_faults: optional fault model (see
            :class:`repro.faults.LinkFaultModel`) consulted once per
            hop; it may drop the hop, corrupt the message (airtime is
            paid but delivery fails), or duplicate it (the receiving
            side of the hop pays twice).
        telemetry: explicit :class:`repro.obs.Telemetry` override; by
            default the currently installed session (the null backend
            when none) is resolved lazily.
        router: route resolver ``(topology, src, dst) -> path | None``;
            defaults to the memoized
            :func:`~repro.wsn.routing.shortest_path_route`.  The perf
            suite passes ``shortest_path_route_reference`` here to
            drive an identically-accounted network over the brute-force
            path for parity/speedup comparison.
    """

    def __init__(
        self,
        topology: Topology,
        loss_probability: float = 0.0,
        max_retries: int = 3,
        rng: Optional[np.random.Generator] = None,
        link_faults=None,
        telemetry=None,
        router=None,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError(
                f"loss_probability must be in [0, 1), got {loss_probability}"
            )
        if loss_probability > 0.0 and rng is None:
            raise ValueError("rng is required when links are lossy")
        self.topology = topology
        self.router = shortest_path_route if router is None else router
        self.loss_probability = loss_probability
        self.max_retries = max_retries
        self._rng = rng
        self.link_faults = link_faults
        #: The topology's traffic ledger: every per-node and per-link
        #: counter, shared by all networks over the topology.
        self.ledger = topology.ledger
        self.stats = self._fresh_stats()
        if telemetry is None:
            from repro.obs.runtime import current

            telemetry = current()
        self._telemetry = telemetry
        #: Scalar metric values this network has pushed into the
        #: registry so far; the collector pushes deltas, making repeated
        #: collects idempotent and :meth:`reset_stats` retractable.
        self._pushed: Dict[tuple, float] = {}
        if telemetry.enabled:
            telemetry.metrics.register_collector(self._sync_metrics)
            self.ledger.attach(telemetry.metrics)

    def _fresh_stats(self) -> TrafficStats:
        """Empty stats whose per-node values are views of this
        network's share of the ledger (its :class:`TrafficWindow`)."""
        window = self._window = TrafficWindow(self.ledger)
        return TrafficStats(
            per_node_rx_values=CounterView(window, RX_PACKETS, RX_VALUES),
            per_node_tx_values=CounterView(window, TX_PACKETS, TX_VALUES),
        )

    def reset_stats(self) -> None:
        """Zero this network's stats and every traffic counter of the
        topology, retracting both from this network's registry."""
        tel = self._telemetry
        if tel.enabled and self._pushed:
            for key, value in self._pushed.items():
                name = key[0]
                labels = dict(key[1:])
                tel.metrics.counter(name, **labels).value -= value
        self._pushed = {}
        self._window.close()  # the old stats object keeps its values
        self.ledger.reset(retract_from=tel.metrics if tel.enabled else None)
        self.stats = self._fresh_stats()

    def _hop_succeeds(self) -> bool:
        if self.loss_probability == 0.0:
            return True
        for __ in range(self.max_retries + 1):
            if self._rng.random() >= self.loss_probability:
                return True
        return False

    # -- accounting choke points --------------------------------------------
    def _account_hop(
        self, hop_src: int, hop_dst: int, n_packets: int, n_values: int
    ) -> None:
        """The single place event-path hops are tallied: the ledger
        (node and link counters) and the hop total."""
        self.ledger.add_hop(
            self._window, hop_src, hop_dst, n_packets, n_values
        )
        self.stats.total_hops += n_packets

    def _drop(self, cause: str, count: int = 1) -> None:
        """Account ``count`` dropped messages attributed to ``cause``."""
        stats = self.stats
        stats.dropped += count
        stats.dropped_causes[cause] = (
            stats.dropped_causes.get(cause, 0) + count
        )

    def unicast(self, message: Message, copies: int = 1) -> int:
        """Route ``copies`` identical messages hop by hop; returns how
        many were delivered.

        Counters: every transmitting node's ``tx_*`` and every
        receiving node's ``rx_*`` increase at each hop, so relays pay
        for forwarded traffic — the effect MicroDeep's assignment is
        designed to balance.  The route is resolved once; on ideal
        links every counter advances by ``copies`` messages' worth in
        one pass over it (``O(hops)``), while lossy or fault-injected
        links sample each copy hop by hop, so the RNG stream is that
        of ``copies`` single sends.  ``message.n_values`` and
        ``copies`` must be non-negative integers (``ValueError`` /
        ``TypeError``).
        """
        n = message.n_values
        if n.__class__ is not int or n < 0:
            _check_values(message)
        if copies.__class__ is not int or copies < 1:
            copies = _copies(copies)
            if copies == 0:
                return 0
        stats = self.stats
        stats.sent += copies
        route = self.router(self.topology, message.src, message.dst)
        if route is None:
            # Covers no-path *and* dead/unknown endpoints (including a
            # self-send addressed to a dead node) — see the routing
            # contract in :func:`~repro.wsn.routing.shortest_path_route`.
            self._drop("unroutable", copies)
            return 0
        if self.loss_probability == 0.0 and self.link_faults is None:
            values = n * copies
            for hop_src, hop_dst in zip(route, route[1:]):
                self._account_hop(hop_src, hop_dst, copies, values)
            stats.delivered += copies
            return copies
        delivered = 0
        for __ in range(copies):
            corrupted = False
            for hop_src, hop_dst in zip(route, route[1:]):
                verdict = "deliver"
                if self.link_faults is not None:
                    verdict = self.link_faults.hop_verdict(
                        hop_src, hop_dst, message.kind
                    )
                if verdict == "drop":
                    self._drop("fault")
                    break
                if not self._hop_succeeds():
                    self._drop("loss")
                    break
                repeats = 2 if verdict == "duplicate" else 1
                if verdict == "duplicate":
                    stats.duplicated += 1
                if verdict == "corrupt":
                    corrupted = True
                self._account_hop(hop_src, hop_dst, repeats, repeats * n)
            else:
                # A corrupted copy paid airtime on every hop, but its
                # payload fails the integrity check at the destination.
                if corrupted:
                    stats.corrupted += 1
                else:
                    stats.delivered += 1
                    delivered += 1
        return delivered

    def account_compiled(self, program, copies: int) -> int:
        """Bulk accounting hook for compiled inference plans.

        ``program`` is a :class:`repro.core.compiled.HopProgram`
        holding one inference's traffic pre-aggregated per directed
        link and per node; this applies ``copies`` inferences' worth
        in one batched update per tally — :meth:`unicast`'s scaled
        ideal-link accounting generalized to the whole forward.  Every
        counter ends up exactly where replaying the transfer list
        through :meth:`unicast` would put it (the compiled parity
        suite pins this), while the Python cost drops from
        ``O(transfer groups x hops)`` route walks to ``O(nodes)``.
        The program's ``unroutable`` messages are counted as sent and
        dropped with cause ``"unroutable"``, as :meth:`unicast` drops
        a message with no route.

        Plans are only compiled for ideal links, so there is no
        sampled path here — calling this on a lossy or fault-injected
        network is a programming error and raises.
        """
        copies = _copies(copies)
        if copies == 0:
            return 0
        if self.loss_probability > 0.0 or self.link_faults is not None:
            raise RuntimeError(
                "compiled accounting requires ideal links; lossy or "
                "fault-injected networks must replay per message"
            )
        stats = self.stats
        delivered = program.sent * copies
        unroutable = program.unroutable * copies
        stats.sent += delivered + unroutable
        stats.delivered += delivered
        stats.total_hops += program.hops * copies
        if unroutable:
            self._drop("unroutable", unroutable)
        self.ledger.add_program(self._window, program, copies)
        return delivered

    def broadcast_from(self, src: int, n_values: int) -> int:
        """Deliver to every alive node (via unicast routes); returns
        the number of nodes reached."""
        reached = 0
        for node in self.topology.alive_nodes():
            if node.node_id == src:
                continue
            if self.unicast(Message(src, node.node_id, n_values, kind="bcast")):
                reached += 1
        return reached

    # -- telemetry ----------------------------------------------------------
    def _sync_metrics(self, registry) -> None:
        """Pull collector: mirror this network's scalar stats into the
        metrics registry by pushing deltas since the previous collect
        (summed across networks sharing the session).  Per-node and
        per-link series come from the ledger's own collector
        (:class:`~repro.wsn.ledger.LedgerSync`), registered once per
        ledger per registry."""
        stats = self.stats
        pushed = self._pushed

        def push(name: str, value, **labels) -> None:
            key = (name,) + tuple(sorted(labels.items()))
            delta = value - pushed.get(key, 0.0)
            if delta:
                registry.counter(name, **labels).inc(delta)
                pushed[key] = float(value)

        push("net.sent", stats.sent)
        push("net.delivered", stats.delivered)
        push("net.dropped", stats.dropped)
        push("net.corrupted", stats.corrupted)
        push("net.duplicated", stats.duplicated)
        push("net.hops", stats.total_hops)
        for cause, value in stats.dropped_causes.items():
            push("net.dropped_causes", value, cause=cause)

    def telemetry_drift(self) -> List[str]:
        """Reconciliation assertion: check the outcome partition, the
        drop-cause sum and per-link value conservation, and (when a
        session is installed and this topology is its only traffic
        source) that the metrics registry mirrors the counters.
        Returns ``[]`` when everything agrees, which the chaos suite
        asserts over a lossy replay."""
        problems: List[str] = []
        stats = self.stats
        ledger = self.ledger
        link_total = int(ledger.links().sum())
        rx_total = int(ledger.nodes[RX_VALUES].sum())
        if link_total != rx_total:
            problems.append(
                f"per-link values {link_total} != per-node rx total "
                f"{rx_total}"
            )
        if stats.sent != stats.delivered + stats.dropped + stats.corrupted:
            problems.append(
                f"outcomes do not partition sends: sent {stats.sent} != "
                f"delivered {stats.delivered} + dropped {stats.dropped} + "
                f"corrupted {stats.corrupted}"
            )
        if stats.dropped != sum(stats.dropped_causes.values()):
            problems.append(
                f"drop causes do not sum: dropped {stats.dropped} != "
                f"{stats.dropped_causes}"
            )
        tel = self._telemetry
        if tel.enabled:
            tel.metrics.collect()
            registry = tel.metrics
            scalar_checks = (
                ("net.sent", stats.sent),
                ("net.delivered", stats.delivered),
                ("net.dropped", stats.dropped),
                ("net.corrupted", stats.corrupted),
                ("net.duplicated", stats.duplicated),
                ("net.hops", stats.total_hops),
            )
            for name, want in scalar_checks:
                have = registry.value(name)
                if have != want:
                    problems.append(
                        f"registry {name}: {have} != stats {want}"
                    )
            for name, per_node in (
                ("net.rx_values", stats.per_node_rx_values),
                ("net.tx_values", stats.per_node_tx_values),
            ):
                for node, want in per_node.items():
                    have = registry.value(name, node=node)
                    if have != want:
                        problems.append(
                            f"registry {name} node {node}: {have} != "
                            f"stats {want}"
                        )
        return problems
