"""The flat ndarray program a compiled plan executes.

A :class:`CompiledPlan` holds three precomputed pieces:

- the model's layer sequence (the arithmetic is identical to the
  centralized forward, so logits stay byte-for-byte equal to the
  event-driven oracle);
- a :class:`HopProgram` — every directed link's per-inference packet
  and value tallies, already aggregated over all transfer groups and
  route hops, which :meth:`repro.wsn.Network.account_compiled` applies
  as one batched accounting update;
- per-layer gather/scatter index arrays (:class:`LayerMask`) mapping
  owner nodes to output positions, so failure masking is a boolean
  gather plus one fancy-indexed zeroing per layer.

This module must never import :mod:`repro.sim` (lint-enforced): the
compiled hot path owes its speed to never entering the event loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class HopProgram:
    """One inference's traffic, aggregated per directed link and node.

    All arrays are per *single* inference; the accounting hook scales
    them by the batch size (exact integer arithmetic, so the resulting
    counters equal the event-driven replay's to the last value).

    Attributes:
        link_src / link_dst / link_packets / link_values: one entry
            per directed link carrying traffic (first-use order).
        tx_nodes / tx_packets / tx_values: per transmitting node.
        rx_nodes / rx_packets / rx_values: per receiving node.
        sent: application messages per inference (each is delivered —
            plans only compile on ideal links).
        hops: packet-hops per inference.
        n_transfer_groups: aggregated ``(layer, src, dst, n_values)``
            groups the program was folded from.
    """

    link_src: np.ndarray
    link_dst: np.ndarray
    link_packets: np.ndarray
    link_values: np.ndarray
    tx_nodes: np.ndarray
    tx_packets: np.ndarray
    tx_values: np.ndarray
    rx_nodes: np.ndarray
    rx_packets: np.ndarray
    rx_values: np.ndarray
    sent: int
    hops: int
    n_transfer_groups: int
    #: ``(ledger, index)`` of the last ledger this program was applied
    #: to; see :meth:`ledger_index`.
    _ledger_cache: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def ledger_index(self, ledger):
        """The program's node cells and link slots in ``ledger``
        (:meth:`repro.wsn.ledger.TrafficLedger.program_index`), built
        once per ledger."""
        cache = self._ledger_cache
        if cache is None or cache[0] is not ledger:
            cache = (ledger, ledger.program_index(self))
            object.__setattr__(self, "_ledger_cache", cache)
        return cache[1]

    @property
    def n_links(self) -> int:
        return int(self.link_src.shape[0])

    def total_values(self) -> int:
        """Values received network-wide per inference (conservation
        pin: equals the sum of the per-node rx tallies and the sum of
        the per-link tallies)."""
        return int(self.link_values.sum())


@dataclass(frozen=True)
class LayerMask:
    """Owner map of one layer's output positions, flattened.

    ``pos_node[i]`` is the node hosting position ``i``; ``rows``/
    ``cols`` (spatial) or ``flat`` (dense) are the aligned index
    arrays.  Masking a dead set is ``np.isin(pos_node, dead)`` and one
    fancy-indexed assignment — no per-position Python.
    """

    spatial: bool
    pos_node: np.ndarray
    rows: Optional[np.ndarray] = None
    cols: Optional[np.ndarray] = None
    flat: Optional[np.ndarray] = None

    def dead_index(self, dead: np.ndarray):
        """Index arrays of the positions owned by ``dead`` nodes
        (None when the layer has none)."""
        sel = np.isin(self.pos_node, dead)
        if not sel.any():
            return None
        if self.spatial:
            return self.rows[sel], self.cols[sel]
        return self.flat[sel]


class CompiledPlan:
    """A placement + network schedule compiled to straight-line code.

    Built by :func:`repro.core.compiled.compile_plan`; executed by
    :meth:`run` (and :meth:`run_masked` for the node-failure scenario)
    without consulting routing, the simulator, or any per-transfer
    Python loop.  The plan is only sound under the conditions it was
    compiled for — ideal links, every node alive — which the executor
    re-checks before each use (falling back to the event-driven oracle
    otherwise).

    Args:
        network: the network whose counters the plan advances.
        layers: the unit-graph layer entries, in forward order.
        hops: the aggregated traffic program.
        masks: per-layer :class:`LayerMask` maps — element 0 is the
            input grid, element ``1 + i`` belongs to ``layers[i]``
            (None for flatten layers, which move no data).
    """

    def __init__(self, network, layers, hops: HopProgram, masks) -> None:
        self.network = network
        self.hops = hops
        self.masks = list(masks)
        self._entries = list(layers)
        #: Bound forward callables, one per layer — the whole
        #: arithmetic program, flattened.
        self._ops = [entry.layer.forward for entry in self._entries]

    @property
    def n_layers(self) -> int:
        return len(self._ops)

    def describe(self) -> Dict[str, int]:
        """Small summary for spans, logs, and the CLI."""
        return {
            "layers": self.n_layers,
            "links": self.hops.n_links,
            "transfer_groups": self.hops.n_transfer_groups,
            "values_per_inference": self.hops.total_values(),
        }

    # -- execution ----------------------------------------------------------
    def run(self, x: np.ndarray, count_traffic: bool = True) -> np.ndarray:
        """One compiled forward pass.

        Traffic for the whole batch is accounted in one bulk update
        before the math (the event-driven oracle also replays traffic
        first); the layer arithmetic is the exact sequence
        ``model.forward`` runs, so the logits are byte-identical.
        """
        if count_traffic:
            self.network.account_compiled(self.hops, copies=int(x.shape[0]))
        out = x
        for op in self._ops:
            out = op(out, training=False)
        return out

    def run_masked(
        self, x: np.ndarray, dead_nodes: Iterable[int]
    ) -> np.ndarray:
        """Compiled twin of
        :meth:`repro.core.DistributedExecutor.forward_masked`: units
        hosted on dead nodes output zero, input cells measured by dead
        sensors read zero.  Uses the precomputed gather/scatter maps —
        one boolean gather and at most one zeroing per layer."""
        dead = np.array(sorted(set(int(n) for n in dead_nodes)), dtype=np.intp)
        if dead.size == 0:
            out = x
            for op in self._ops:
                out = op(out, training=False)
            return out
        x = np.array(x, copy=True)
        input_index = self.masks[0].dead_index(dead)
        if input_index is not None:
            x[:, :, input_index[0], input_index[1]] = 0.0
        out = x
        for entry, mask, op in zip(self._entries, self.masks[1:], self._ops):
            out = op(out, training=False)
            if mask is None:
                continue
            span = mask.dead_index(dead)
            if span is None:
                continue
            if mask.spatial:
                out[:, :, span[0], span[1]] = 0.0
            else:
                out[:, span] = 0.0
        return out
