"""Sensor node model."""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.energy.capacitor import Capacitor
from repro.wsn.ledger import (
    RX_PACKETS,
    RX_VALUES,
    TX_PACKETS,
    TX_VALUES,
    UnboundCounts,
    cell_property,
)


class SensorNode:
    """A tiny IoT device placed at XY-coordinates.

    MicroDeep assigns CNN units to these nodes; the WSN network layer
    accounts traffic per node.  The optional capacitor turns the node
    into a harvested zero-energy device (experiment E8).

    The traffic counters (``tx_count``, ``rx_count``, ``tx_values``,
    ``rx_values``) read and write cells of the owning topology's
    :class:`~repro.wsn.ledger.TrafficLedger`.

    ``alive`` and ``position`` are properties: changing either bumps
    the owning :class:`~repro.wsn.topology.Topology`'s epoch counter so
    its cached structure-of-arrays views, spatial index, and
    connectivity graph are invalidated exactly when the geometry
    changes — never on a same-value assignment, and never on the hot
    traffic-counter updates.  A node belongs to the topology that bound
    it last.
    """

    def __init__(
        self,
        node_id: int,
        position: Tuple[float, float],
        capacitor: Optional[Capacitor] = None,
        alive: bool = True,
        tx_count: int = 0,
        rx_count: int = 0,
        tx_values: int = 0,
        rx_values: int = 0,
    ) -> None:
        self._topology = None
        self._ledger = UnboundCounts(
            (tx_count, tx_values, rx_count, rx_values)
        )
        self._slot = 0
        self.node_id = node_id
        self.position = position
        self.capacitor = capacitor
        self.alive = alive

    # -- traffic counters (cells of the topology's ledger) ------------------
    tx_count = cell_property(TX_PACKETS, "Packets this node transmitted.")
    tx_values = cell_property(TX_VALUES, "Values this node transmitted.")
    rx_count = cell_property(RX_PACKETS, "Packets this node received.")
    rx_values = cell_property(RX_VALUES, "Values this node received.")

    # -- geometry-mutating fields (epoch-invalidating) ----------------------
    @property
    def position(self) -> Tuple[float, float]:
        return self._position

    @position.setter
    def position(self, value: Tuple[float, float]) -> None:
        x, y = value
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(
                f"node {self.node_id} position must be finite, got {value!r}"
            )
        position = (x, y)
        if self._topology is not None and position != self._position:
            self._topology._invalidate()
        self._position = position

    @property
    def alive(self) -> bool:
        return self._alive

    @alive.setter
    def alive(self, value: bool) -> None:
        alive = bool(value)
        if self._topology is not None and alive != self._alive:
            self._topology._invalidate()
        self._alive = alive

    # -- dataclass-compatible surface ---------------------------------------
    def __repr__(self) -> str:
        return (
            f"SensorNode(node_id={self.node_id!r}, "
            f"position={self.position!r}, capacitor={self.capacitor!r}, "
            f"alive={self.alive!r}, tx_count={self.tx_count!r}, "
            f"rx_count={self.rx_count!r}, tx_values={self.tx_values!r}, "
            f"rx_values={self.rx_values!r})"
        )

    def _fields(self):
        return (
            self.node_id, self.position, self.capacitor, self.alive,
            self.tx_count, self.rx_count, self.tx_values, self.rx_values,
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not SensorNode:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable value type, same as the former dataclass

    def distance_to(self, other: "SensorNode") -> float:
        dx = self.position[0] - other.position[0]
        dy = self.position[1] - other.position[1]
        # Correctly rounded sqrt (not pow) so scalar and vectorized
        # distance computations agree bitwise everywhere.
        return math.sqrt(dx * dx + dy * dy)

    def fail(self) -> None:
        """Mark the node broken (paper §V: resilient ML with broken devices)."""
        self.alive = False

    def reset_counters(self) -> None:
        self._ledger.reset_node(self._slot)
