"""Topologies: node placement and connectivity graphs.

City-scale rework: a :class:`Topology` keeps cached structure-of-arrays
views of its node state (``positions: (n, 2) float64``, ``alive: (n,)
bool``) guarded by an **epoch counter** that
:class:`~repro.wsn.node.SensorNode` bumps whenever a node's ``alive``
flag or position mutates.  Neighborhood queries and connectivity-graph
construction run on a grid-hash spatial index
(:mod:`repro.wsn.spatial`) with cell size ``comm_range``, so a query
inspects the 3x3 cell neighborhood instead of all n nodes and the
graph is assembled from CSR-style sparse adjacency built in one
vectorized cell-pair pass instead of the O(n^2) double loop.  The
nodes' traffic counters live beside those arrays in the topology's
:class:`~repro.wsn.ledger.TrafficLedger` (counter writes never touch
the epoch).

The pre-optimization brute-force implementations are kept verbatim as
``*_reference`` parity oracles (the repo's established idiom); the
property suite asserts the index-backed paths are **byte-equal** to
them — same element order, bitwise-identical distances.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.wsn.ledger import TrafficLedger
from repro.wsn.node import SensorNode
from repro.wsn.spatial import GridHashIndex, SparseAdjacency, build_adjacency


class Topology:
    """A set of sensor nodes plus a communication radius.

    Connectivity is geometric: two alive nodes are linked when their
    distance is at most ``comm_range``.

    Cache/epoch contract: :attr:`epoch` increments every time a node's
    ``alive`` flag or position changes (node mutations notify the
    owning topology).  Every derived structure — the SoA views, the
    spatial index, the sparse adjacency, and :meth:`cached_graph` — is
    memoized keyed on the epoch, so mutations invalidate lazily and
    un-mutated steady state pays zero rebuild cost.  The node *set* is
    fixed at construction; do not add or remove entries from
    :attr:`nodes` directly.
    """

    def __init__(self, nodes: List[SensorNode], comm_range: float) -> None:
        if not (np.isfinite(comm_range) and comm_range > 0):
            raise ValueError(
                f"comm_range must be positive and finite, got {comm_range}"
            )
        ids = [n.node_id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("node ids must be unique")
        bad = [
            n.node_id
            for n in nodes
            if not np.all(np.isfinite(np.asarray(n.position, dtype=np.float64)))
        ]
        if bad:
            raise ValueError(
                "node positions must be finite (no NaN/inf); offending "
                f"node ids: {bad}"
            )
        self.nodes: Dict[int, SensorNode] = {n.node_id: n for n in nodes}
        self.comm_range = comm_range
        self._epoch = 0
        self._nodes_list: List[SensorNode] = list(self.nodes.values())
        self._index_of: Dict[int, int] = {
            n.node_id: i for i, n in enumerate(self._nodes_list)
        }
        self._ids = np.fromiter(
            (n.node_id for n in self._nodes_list), dtype=np.int64,
            count=len(self._nodes_list),
        )
        self._soa_epoch = -1
        self._positions: Optional[np.ndarray] = None
        self._alive: Optional[np.ndarray] = None
        self._index_epoch = -1
        self._index: Optional[GridHashIndex] = None
        self._adjacency_epoch = -1
        self._adjacency: Optional[SparseAdjacency] = None
        self._graph_epoch = -1
        self._graph: Optional[nx.Graph] = None
        #: Every traffic counter of these nodes (see
        #: :mod:`repro.wsn.ledger`), seeded from the nodes' own counts.
        self.ledger = TrafficLedger(
            self._ids, self._index_of,
            np.array([[n.tx_count, n.tx_values, n.rx_count, n.rx_values]
                      for n in self._nodes_list],
                     dtype=np.int64).reshape(-1, 4).T,
        )
        for slot, n in enumerate(self._nodes_list):
            n._topology, n._ledger, n._slot = self, self.ledger, slot

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[SensorNode]:
        return iter(self.nodes.values())

    def node(self, node_id: int) -> SensorNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise KeyError(f"no node with id {node_id}") from None

    # -- epoch / cached SoA views -------------------------------------------
    @property
    def epoch(self) -> int:
        """Mutation counter: bumps on any alive/position change."""
        return self._epoch

    def _invalidate(self) -> None:
        """Called by owned nodes when their geometry state mutates."""
        self._epoch += 1

    def invalidate_caches(self) -> None:
        """Force every epoch-keyed cache to rebuild on next use (the
        benchmarks use this to time cold-path construction)."""
        self._invalidate()

    def _soa(self) -> Tuple[np.ndarray, np.ndarray]:
        """Current ``(positions, alive)`` arrays in insertion order."""
        if self._soa_epoch != self._epoch:
            n = len(self._nodes_list)
            positions = np.empty((n, 2), dtype=np.float64)
            alive = np.empty(n, dtype=bool)
            for i, node in enumerate(self._nodes_list):
                positions[i, 0], positions[i, 1] = node.position
                alive[i] = node.alive
            positions.setflags(write=False)
            alive.setflags(write=False)
            self._positions, self._alive = positions, alive
            self._soa_epoch = self._epoch
        return self._positions, self._alive

    def positions_view(self) -> np.ndarray:
        """Read-only ``(n, 2)`` float64 positions, insertion order."""
        return self._soa()[0]

    def alive_view(self) -> np.ndarray:
        """Read-only ``(n,)`` bool alive mask, insertion order."""
        return self._soa()[1]

    def ids_view(self) -> np.ndarray:
        """``(n,)`` int64 node ids, insertion order (immutable set)."""
        return self._ids

    def spatial_index(self) -> GridHashIndex:
        """Epoch-memoized grid-hash index over the alive nodes."""
        if self._index_epoch != self._epoch:
            positions, alive = self._soa()
            self._index = GridHashIndex(positions, alive, self.comm_range)
            self._index_epoch = self._epoch
        return self._index

    def sparse_adjacency(self) -> SparseAdjacency:
        """Epoch-memoized CSR connectivity (one cell-pair pass)."""
        if self._adjacency_epoch != self._epoch:
            positions, alive = self._soa()
            self._adjacency = build_adjacency(
                positions, alive, self.comm_range, index=self.spatial_index()
            )
            self._adjacency_epoch = self._epoch
        return self._adjacency

    # -- queries ------------------------------------------------------------
    def alive_nodes(self) -> List[SensorNode]:
        alive = self._soa()[1]
        nodes = self._nodes_list
        return [nodes[i] for i in np.flatnonzero(alive)]

    def alive_nodes_reference(self) -> List[SensorNode]:
        """Brute-force oracle for :meth:`alive_nodes`."""
        return [n for n in self.nodes.values() if n.alive]

    def neighbors(self, node_id: int) -> List[SensorNode]:
        """Alive nodes within communication range of ``node_id``.

        Index-backed: checks the 3x3 cell neighborhood of the node's
        grid cell.  The result is byte-equal to
        :meth:`neighbors_reference` (same nodes, same order).
        """
        center = self.node(node_id)
        idx, __ = self.spatial_index().query(
            center.position,
            radius=self.comm_range,
            exclude=self._index_of[node_id],
        )
        nodes = self._nodes_list
        return [nodes[i] for i in idx]

    def neighbors_with_distances(
        self, node_id: int
    ) -> List[Tuple[SensorNode, float]]:
        """Like :meth:`neighbors`, with the link distance attached —
        bitwise identical to ``center.distance_to(neighbor)``."""
        center = self.node(node_id)
        idx, dist = self.spatial_index().query(
            center.position,
            radius=self.comm_range,
            exclude=self._index_of[node_id],
        )
        nodes = self._nodes_list
        return [
            (nodes[i], d) for i, d in zip(idx.tolist(), dist.tolist())
        ]

    def neighbors_reference(self, node_id: int) -> List[SensorNode]:
        """Brute-force oracle for :meth:`neighbors` (linear scan)."""
        center = self.node(node_id)
        return [
            n
            for n in self.nodes.values()
            if n.node_id != node_id
            and n.alive
            and center.distance_to(n) <= self.comm_range
        ]

    # -- connectivity graphs ------------------------------------------------
    def _build_graph(self) -> nx.Graph:
        """Assemble the networkx graph from the sparse adjacency.

        Nodes are inserted in alive order and edges in the exact
        lexicographic ``(i, j)`` order the brute-force double loop
        uses, so traversal (BFS tie-breaking included) is identical to
        :meth:`graph_reference`.
        """
        g = nx.Graph()
        for node in self.alive_nodes():
            g.add_node(node.node_id, pos=node.position)
        adjacency = self.sparse_adjacency()
        ids = self._ids
        for i, j, d in adjacency.undirected_edges():
            g.add_edge(int(ids[i]), int(ids[j]), weight=d)
        return g

    def graph(self) -> nx.Graph:
        """Connectivity graph over alive nodes (edge weight = distance).

        Returns a **fresh** graph each call (callers may mutate it —
        the planner prunes obstacle-blocked links); use
        :meth:`cached_graph` for shared read-only access.
        """
        return self._build_graph()

    def cached_graph(self) -> nx.Graph:
        """Epoch-memoized connectivity graph, shared and **read-only**.

        Routing (:func:`repro.wsn.routing.shortest_path_route`,
        :func:`~repro.wsn.routing.sink_tree`) resolves against this
        instance so replay/compile loops stop rebuilding the graph per
        call; any alive/position mutation invalidates it via the
        epoch.  Callers must never mutate the returned graph.
        """
        if self._graph_epoch != self._epoch:
            self._graph = self._build_graph()
            self._graph_epoch = self._epoch
        return self._graph

    def graph_reference(self) -> nx.Graph:
        """Brute-force O(n^2) oracle for :meth:`graph`."""
        g = nx.Graph()
        alive = self.alive_nodes_reference()
        for n in alive:
            g.add_node(n.node_id, pos=n.position)
        for i, a in enumerate(alive):
            for b in alive[i + 1 :]:
                d = a.distance_to(b)
                if d <= self.comm_range:
                    g.add_edge(a.node_id, b.node_id, weight=d)
        return g

    def is_connected(self) -> bool:
        g = self.cached_graph()
        return len(g) > 0 and nx.is_connected(g)


class GridTopology(Topology):
    """Nodes on a regular rows x cols grid with given spacing.

    This is the paper's canonical deployment (Fig. 8: CNN assigned to
    XY-coordinates of a mesh-like network).  ``node_at(row, col)``
    converts grid indices to nodes; node ids are row-major.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        spacing: float = 1.0,
        comm_range: Optional[float] = None,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        if comm_range is None:
            # Reaches the 8-neighbourhood by default.
            comm_range = spacing * 1.5
        nodes = [
            SensorNode(node_id=r * cols + c, position=(c * spacing, r * spacing))
            for r in range(rows)
            for c in range(cols)
        ]
        super().__init__(nodes, comm_range)
        self.rows = rows
        self.cols = cols
        self.spacing = spacing

    def node_at(self, row: int, col: int) -> SensorNode:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"grid position ({row}, {col}) out of bounds")
        return self.node(row * self.cols + col)

    def grid_position(self, node_id: int) -> Tuple[int, int]:
        """Inverse of :meth:`node_at`: ``(row, col)`` of a node id."""
        if node_id not in self.nodes:
            raise KeyError(f"no node with id {node_id}")
        return divmod(node_id, self.cols)


class RandomTopology(Topology):
    """Uniformly random placement in a rectangle."""

    def __init__(
        self,
        n_nodes: int,
        width: float,
        height: float,
        comm_range: float,
        rng: np.random.Generator,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        nodes = [
            SensorNode(
                node_id=i,
                position=(float(rng.uniform(0, width)), float(rng.uniform(0, height))),
            )
            for i in range(n_nodes)
        ]
        super().__init__(nodes, comm_range)
        self.width = width
        self.height = height
