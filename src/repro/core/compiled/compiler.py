"""Planner pass: placement + network schedule -> flat ndarray program.

:func:`compile_plan` folds the executor's aggregated transfer list
through the network's own router (:attr:`repro.wsn.Network.router`,
the resolver the event-driven path uses) into per-link and per-node
integer tallies.  A transfer group with no route — a dead endpoint, a
disconnected mesh — becomes a per-inference ``unroutable`` tally that
the accounting hook drops exactly like the oracle does, so a crashed,
browned-out or moved node changes the program, never whether there is
one.  The plan records the topology epoch it was compiled at; the
executor recompiles once the epoch moves.

Only per-message randomness blocks compilation (the typed
:class:`PlanNotCompilable`): lossy links and an installed link-fault
model draw RNG per hop, which no static program can replay.

This module must never import :mod:`repro.sim` or ``networkx``
(lint-enforced): routes come from the router alone, so the plan and
the oracle cannot diverge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.compiled.plan import CompiledPlan, HopProgram


class PlanNotCompilable(RuntimeError):
    """The network draws per-message randomness, so no static plan
    can reproduce its accounting.

    Attributes:
        reason: machine-readable cause — ``"lossy-links"`` or
            ``"link-faults"``.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        message = f"plan not compilable ({reason})"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


def plan_blocked(executor) -> Optional[Tuple[str, str]]:
    """Why a compiled plan cannot (currently) serve this executor, as
    ``(reason, detail)`` — or None when it can.  O(1): the executor
    runs it before every compiled forward, so installing a lossy link
    model or a link-fault model routes the call back to the
    event-driven oracle the moment it appears."""
    network = executor.network
    if network.loss_probability > 0.0:
        return (
            "lossy-links",
            f"loss_probability={network.loss_probability} draws "
            "per-message randomness",
        )
    if network.link_faults is not None:
        return ("link-faults", "a LinkFaultModel is installed")
    return None


def _build_hop_program(executor) -> HopProgram:
    """Fold the aggregated transfer list through the routes into one
    integer tally per link and per node — the whole forward's traffic
    as a handful of arrays."""
    network = executor.network
    router, topology = network.router, network.topology
    link_acc: Dict[Tuple[int, int], List[int]] = {}
    tx_acc: Dict[int, List[int]] = {}
    rx_acc: Dict[int, List[int]] = {}
    sent = 0
    unroutable = 0
    hops = 0
    groups = executor._aggregated_transfers()
    for (__, src, dst, n_values), multiplicity in groups:
        route = router(topology, src, dst)
        if route is None:
            unroutable += multiplicity
            continue
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
        unroutable=unroutable,
        hops=hops,
        n_transfer_groups=len(groups),
    )


def compile_plan(executor) -> CompiledPlan:
    """Compile a :class:`repro.core.DistributedExecutor`'s placement +
    network schedule, at the topology's current epoch, into a
    :class:`CompiledPlan`.

    Raises:
        PlanNotCompilable: when the network draws per-message
            randomness (lossy links or an installed link-fault
            model).  The caller falls back to the event-driven path in
            that case — compilation is never silently wrong.
    """
    blocked = plan_blocked(executor)
    if blocked is not None:
        raise PlanNotCompilable(*blocked)
    network = executor.network
    return CompiledPlan(
        network=network,
        layers=executor.graph.layers,
        hops=_build_hop_program(executor),
        epoch=network.topology.epoch,
    )
