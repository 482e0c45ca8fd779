"""Planner pass: placement + network schedule -> flat ndarray program.

:func:`compile_plan` folds the executor's aggregated transfer list
through the (static) routes into per-link and per-node integer
tallies, and flattens the per-layer owner maps into gather/scatter
index arrays.  Compilation either round-trips the event-driven
semantics exactly or raises the typed :class:`PlanNotCompilable` —
never a silently-wrong plan.

This module must never import :mod:`repro.sim` (lint-enforced).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.core.compiled.plan import CompiledPlan, HopProgram, LayerMask


class PlanNotCompilable(RuntimeError):
    """The placement/network cannot be compiled to a static plan.

    Attributes:
        reason: machine-readable cause — one of ``"lossy-links"``,
            ``"link-faults"``, ``"node-down"``, ``"fault-adapter"``,
            ``"unroutable"``.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        message = f"plan not compilable ({reason})"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


def _check_compilable(executor) -> None:
    """Raise unless the executor is in the static steady state."""
    blocked = plan_blocked(executor)
    if blocked is not None:
        reason, detail = blocked
        raise PlanNotCompilable(reason, detail)


def plan_blocked(executor) -> Optional[Tuple[str, str]]:
    """Why a compiled plan cannot (currently) serve this executor, as
    ``(reason, detail)`` — or None when the steady state holds.  The
    executor runs this cheap check before every compiled forward, so
    a fault adapter, lossy link model, or active brownout routes the
    call back to the event-driven oracle the moment it appears."""
    if getattr(executor, "fault_adapter", None) is not None:
        return ("fault-adapter", "a fault adapter is attached")
    network = executor.network
    if network.loss_probability > 0.0:
        return (
            "lossy-links",
            f"loss_probability={network.loss_probability} draws "
            "per-message randomness",
        )
    if network.link_faults is not None:
        return ("link-faults", "a LinkFaultModel is installed")
    alive = network.topology.alive_view()
    if not alive.all():
        down = network.topology.ids_view()[~alive].tolist()
        return ("node-down", f"nodes down: {down}")
    return None


def _routes(topology):
    """Route resolver over one connectivity snapshot.

    The graph is built once (the event-driven path rebuilds it per
    unicast — exactly the cost compilation amortizes away); with every
    node alive it matches what
    :func:`repro.wsn.routing.shortest_path_route` would return call by
    call, so the compiled traffic equals the oracle's.
    """
    g = topology.graph()

    def route(src: int, dst: int) -> Optional[List[int]]:
        if src == dst:
            return [src]
        if src not in g or dst not in g:
            return None
        try:
            return nx.shortest_path(g, src, dst)
        except nx.NetworkXNoPath:
            return None

    return route


def _spatial_mask(index_map: Dict) -> LayerMask:
    nodes = sorted(index_map)
    if not nodes:
        empty = np.empty(0, dtype=np.intp)
        return LayerMask(spatial=True, pos_node=empty, rows=empty, cols=empty)
    return LayerMask(
        spatial=True,
        pos_node=np.concatenate([
            np.full(index_map[n][0].shape[0], n, dtype=np.intp)
            for n in nodes
        ]),
        rows=np.concatenate([index_map[n][0] for n in nodes]),
        cols=np.concatenate([index_map[n][1] for n in nodes]),
    )


def _flat_mask(index_map: Dict) -> LayerMask:
    nodes = sorted(index_map)
    if not nodes:
        empty = np.empty(0, dtype=np.intp)
        return LayerMask(spatial=False, pos_node=empty, flat=empty)
    return LayerMask(
        spatial=False,
        pos_node=np.concatenate([
            np.full(index_map[n].shape[0], n, dtype=np.intp) for n in nodes
        ]),
        flat=np.concatenate([index_map[n] for n in nodes]),
    )


def _build_masks(executor) -> List[Optional[LayerMask]]:
    """Flatten the executor's per-node owner maps into aligned
    gather/scatter arrays (element 0 = input grid, then one per
    layer, None for flatten)."""
    maps = executor._owner_indices()
    masks: List[Optional[LayerMask]] = [_spatial_mask(maps[0])]
    for entry, index_map in zip(executor.graph.layers, maps[1:]):
        if index_map is None:
            masks.append(None)
        elif entry.kind == "spatial":
            masks.append(_spatial_mask(index_map))
        else:
            masks.append(_flat_mask(index_map))
    return masks


def _build_hop_program(executor) -> HopProgram:
    """Fold the aggregated transfer list through the routes into one
    integer tally per link and per node — the whole forward's traffic
    as a handful of arrays."""
    route_of = _routes(executor.network.topology)
    link_acc: Dict[Tuple[int, int], List[int]] = {}
    tx_acc: Dict[int, List[int]] = {}
    rx_acc: Dict[int, List[int]] = {}
    sent = 0
    hops = 0
    groups = executor._aggregated_transfers()
    for (layer_index, src, dst, n_values), multiplicity in groups:
        route = route_of(src, dst)
        if route is None:
            raise PlanNotCompilable(
                "unroutable",
                f"layer {layer_index} transfer {src}->{dst} has no route",
            )
        sent += multiplicity
        values = multiplicity * n_values
        for hop_src, hop_dst in zip(route, route[1:]):
            hops += multiplicity
            link = link_acc.setdefault((hop_src, hop_dst), [0, 0])
            link[0] += multiplicity
            link[1] += values
            tx = tx_acc.setdefault(hop_src, [0, 0])
            tx[0] += multiplicity
            tx[1] += values
            rx = rx_acc.setdefault(hop_dst, [0, 0])
            rx[0] += multiplicity
            rx[1] += values

    def _cols(acc, index):
        return np.array([pair[index] for pair in acc.values()], dtype=np.int64)

    return HopProgram(
        link_src=np.array([s for s, __ in link_acc], dtype=np.intp),
        link_dst=np.array([d for __, d in link_acc], dtype=np.intp),
        link_packets=_cols(link_acc, 0),
        link_values=_cols(link_acc, 1),
        tx_nodes=np.array(list(tx_acc), dtype=np.intp),
        tx_packets=_cols(tx_acc, 0),
        tx_values=_cols(tx_acc, 1),
        rx_nodes=np.array(list(rx_acc), dtype=np.intp),
        rx_packets=_cols(rx_acc, 0),
        rx_values=_cols(rx_acc, 1),
        sent=sent,
        hops=hops,
        n_transfer_groups=len(groups),
    )


def compile_plan(executor) -> CompiledPlan:
    """Compile a :class:`repro.core.DistributedExecutor`'s placement +
    network schedule into a :class:`CompiledPlan`.

    Raises:
        PlanNotCompilable: when the executor is not in the static
            steady state (lossy links, an installed link-fault model,
            a fault adapter, a node down) or any transfer is
            unroutable.  The caller falls back to the event-driven
            path in that case — compilation is never silently wrong.
    """
    _check_compilable(executor)
    return CompiledPlan(
        network=executor.network,
        layers=executor.graph.layers,
        hops=_build_hop_program(executor),
        masks=_build_masks(executor),
    )
