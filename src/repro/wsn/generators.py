"""Deterministic topology generators and the real-map importer.

The ROADMAP's city-scale item calls for a generator suite beyond the
grid/random placements: canonical graph shapes (clique, chain, ring,
star) for protocol edge-case testing, plus a JSON importer for real
deployment maps.  Every generator emits node ids and positions
deterministically — same parameters, same topology, byte for byte —
so benches and golden tests can rely on them.

All shapes here are *geometric*: connectivity still comes from node
positions and ``comm_range``, never from an explicit edge list, so the
generated topologies exercise the exact same spatial-index path as
every other :class:`~repro.wsn.topology.Topology`.

Map JSON schema (see ``maps/district_sample.json``)::

    {
      "name": "shibuya-district-sample",
      "comm_range": 45.0,
      "nodes": [{"id": 0, "pos": [12.5, 30.0]}, ...]
    }

``comm_range`` in the file is a default; callers can override it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Union

from repro.wsn.node import SensorNode
from repro.wsn.topology import Topology


class CliqueTopology(Topology):
    """All ``n`` nodes mutually in range: nodes evenly spaced on a
    circle of ``radius``, ``comm_range`` defaulting to the diameter.

    Node ``i`` sits at angle ``2*pi*i/n`` starting from the +x axis;
    ids are 0..n-1 in that order.
    """

    def __init__(
        self,
        n_nodes: int,
        radius: float = 1.0,
        comm_range: Optional[float] = None,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        if comm_range is None:
            comm_range = 2.0 * radius
        nodes = [
            SensorNode(node_id=i, position=_circle_point(i, n_nodes, radius))
            for i in range(n_nodes)
        ]
        super().__init__(nodes, comm_range)
        self.radius = radius


class ChainTopology(Topology):
    """A line: node ``i`` at ``(i * spacing, 0)``.

    The default ``comm_range`` equals ``spacing``, so each node links
    only to its immediate predecessor/successor — a path graph.
    """

    def __init__(
        self,
        n_nodes: int,
        spacing: float = 1.0,
        comm_range: Optional[float] = None,
    ) -> None:
        if n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive, got {n_nodes}")
        if spacing <= 0:
            raise ValueError(f"spacing must be positive, got {spacing}")
        if comm_range is None:
            comm_range = spacing
        nodes = [
            SensorNode(node_id=i, position=(i * spacing, 0.0))
            for i in range(n_nodes)
        ]
        super().__init__(nodes, comm_range)
        self.spacing = spacing


class RingTopology(Topology):
    """A cycle: ``n`` nodes evenly spaced on a circle whose adjacent
    chord length is ``spacing``.

    The default ``comm_range`` is ``1.2 * spacing``: safely above the
    adjacent chord (which floating-point reconstruction can put an ulp
    over ``spacing``) and below the two-step chord
    (``2*cos(pi/n) * spacing``, at least ``1.41 * spacing`` for
    ``n >= 4``), so each node links to exactly its two ring
    neighbours.  With ``n == 3`` the ring is a triangle, i.e. also a
    clique.
    """

    def __init__(
        self,
        n_nodes: int,
        spacing: float = 1.0,
        comm_range: Optional[float] = None,
    ) -> None:
        if n_nodes < 3:
            raise ValueError(f"a ring needs at least 3 nodes, got {n_nodes}")
        if spacing <= 0:
            raise ValueError(f"spacing must be positive, got {spacing}")
        # Circumradius from the adjacent chord length.
        radius = spacing / (2.0 * math.sin(math.pi / n_nodes))
        if comm_range is None:
            comm_range = 1.2 * spacing
        nodes = [
            SensorNode(node_id=i, position=_circle_point(i, n_nodes, radius))
            for i in range(n_nodes)
        ]
        super().__init__(nodes, comm_range)
        self.spacing = spacing
        self.radius = radius


class StarTopology(Topology):
    """A hub (id 0, at the origin) with ``n_leaves`` leaves on a circle
    of ``radius``; default ``comm_range`` equals ``radius``.

    Geometric caveat: a *pure* star (no leaf-leaf links) is only
    possible for ``n_leaves <= 5`` — with 6 or more leaves the
    adjacent leaf-leaf chord ``2*radius*sin(pi/n_leaves)`` falls
    within ``radius``, so neighbouring leaves also connect and the
    shape is a wheel (hub + ring).  This is inherent to disk-graph
    connectivity, not a bug; tests that need a strict star use at most
    5 leaves.
    """

    def __init__(
        self,
        n_leaves: int,
        radius: float = 1.0,
        comm_range: Optional[float] = None,
    ) -> None:
        if n_leaves <= 0:
            raise ValueError(f"n_leaves must be positive, got {n_leaves}")
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        if comm_range is None:
            comm_range = radius
        nodes = [SensorNode(node_id=0, position=(0.0, 0.0))]
        nodes.extend(
            SensorNode(node_id=i + 1, position=_circle_point(i, n_leaves, radius))
            for i in range(n_leaves)
        )
        super().__init__(nodes, comm_range)
        self.hub_id = 0
        self.n_leaves = n_leaves
        self.radius = radius


def _circle_point(i: int, n: int, radius: float) -> tuple:
    angle = 2.0 * math.pi * i / n
    return (radius * math.cos(angle), radius * math.sin(angle))


def sample_map_path() -> Path:
    """Path of the committed sample district map."""
    return Path(__file__).resolve().parent / "maps" / "district_sample.json"


def load_map_topology(
    path: Union[str, Path], comm_range: Optional[float] = None
) -> Topology:
    """Build a :class:`Topology` from a JSON deployment map.

    Node order (and therefore every derived insertion-order structure)
    follows the file's ``nodes`` array exactly.  ``comm_range``
    overrides the file's default when given.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"map file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise ValueError(f"map file {path} must be an object with a 'nodes' list")
    if comm_range is None:
        if "comm_range" not in doc:
            raise ValueError(
                f"map file {path} has no 'comm_range' and none was given"
            )
        try:
            comm_range = float(doc["comm_range"])
        except (TypeError, ValueError):
            raise ValueError(
                f"map file {path} field 'comm_range' must be a number, "
                f"got {doc['comm_range']!r}"
            ) from None
    if not isinstance(doc["nodes"], list):
        raise ValueError(
            f"map file {path} field 'nodes' must be a list, got "
            f"{doc['nodes']!r}"
        )
    nodes = []
    for i, entry in enumerate(doc["nodes"]):
        try:
            node_id = int(entry["id"])
            x, y = entry["pos"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"map file {path} node #{i} is malformed "
                f"(need 'id' and 'pos': [x, y]): {exc}"
            ) from None
        try:
            position = (float(x), float(y))
        except (TypeError, ValueError):
            raise ValueError(
                f"map file {path} node #{i} (id {node_id}) field 'pos' "
                f"must be two numbers, got {entry['pos']!r}"
            ) from None
        nodes.append(SensorNode(node_id=node_id, position=position))
    topo = Topology(nodes, comm_range=comm_range)
    topo.map_name = doc.get("name", path.stem)
    return topo


#: Generator registry for the CLI / factory: kind -> constructor.
GENERATORS = {
    "clique": CliqueTopology,
    "chain": ChainTopology,
    "ring": RingTopology,
    "star": StarTopology,
}


def make_topology(kind: str, **params) -> Topology:
    """Factory over :data:`GENERATORS` plus ``map`` (pass ``path=``)."""
    if kind == "map":
        return load_map_topology(**params)
    try:
        ctor = GENERATORS[kind]
    except KeyError:
        known = ", ".join(sorted(GENERATORS) + ["map"])
        raise ValueError(f"unknown topology kind {kind!r}; known: {known}") from None
    return ctor(**params)
