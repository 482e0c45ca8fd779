"""Distributed forward execution.

The executor runs the CNN's real arithmetic (distribution does not
change the math) while replaying the placement's cross-node transfers
over a :class:`repro.wsn.Network`, so per-node traffic is *measured*,
not just modelled.  It also supports node-failure masking: units
hosted on dead nodes produce zeros, the behaviour the resilience
experiment (E8) quantifies.

Hot paths are vectorized (see README "Performance"):

- on ideal links the whole forward is served by a **compiled plan**
  (:mod:`repro.core.compiled`): routes resolved by the network's own
  router folded into one batched traffic-accounting update, plus the
  unchanged layer arithmetic — no per-transfer Python, no route
  lookups, no event loop.  The plan is keyed on the topology epoch, so
  a crash, brownout, recovery or move costs one recompile and messages
  with no route are dropped as ``unroutable`` exactly like the oracle
  drops them.  The ``plan=`` switch controls it (``"auto"`` by
  default); the event-driven path below stays as the parity oracle
  and is re-selected only while a lossy link model or an installed
  link-fault model draws per-message randomness;
- the event-driven traffic replay aggregates the transfer list per
  ``(layer, src, dst, n_values)`` and sends each group with one
  :meth:`repro.wsn.Network.unicast` of ``batch x multiplicity``
  copies, which the network scales on ideal links and samples copy by
  copy on lossy ones;
- failure masking zeroes each layer with one fancy-indexed assignment
  built from precomputed per-node index maps, instead of a Python loop
  over positions.

The per-position masking reference (:meth:`forward_masked_reference`)
stays callable so the parity tests can prove the fast path
behavior-identical; the per-transfer, per-inference replay reference
lives in :mod:`repro.perf`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.assignment import Placement
from repro.core.compiled import CompiledPlan, PlanNotCompilable, compile_plan
from repro.core.compiled.compiler import plan_blocked
from repro.core.costmodel import CommunicationCostModel
from repro.core.unitgraph import UnitGraph
from repro.nn.model import Sequential
from repro.wsn.network import Message, Network

#: node -> (row indices, col indices) for spatial layers, or
#: node -> unit indices for flat layers.
SpatialIndex = Dict[int, Tuple[np.ndarray, np.ndarray]]
FlatIndex = Dict[int, np.ndarray]


class DistributedExecutor:
    """Executes a placed CNN over a sensor network.

    Args:
        model: built Sequential model.
        graph: its unit graph.
        placement: unit-to-node mapping.
        network: the WSN network layer carrying the messages.
    """

    def __init__(
        self,
        model: Sequential,
        graph: UnitGraph,
        placement: Placement,
        network: Network,
        telemetry=None,
    ) -> None:
        if graph.model is not model:
            raise ValueError("graph was not extracted from this model")
        self.model = model
        self.graph = graph
        self.placement = placement
        self.network = network
        self._cost_model = CommunicationCostModel(graph, network.topology)
        self._transfer_list = None
        self._aggregated_list = None
        self._owner_index = None
        self._dead_index_cache: Dict[frozenset, list] = {}
        self._compiled_plan: Optional[CompiledPlan] = None
        if telemetry is None:
            from repro.obs.runtime import current

            telemetry = current()
        self._telemetry = telemetry

    def _transfers(self):
        if self._transfer_list is None:
            self._transfer_list = self._cost_model.transfers(self.placement)
        return self._transfer_list

    def _aggregated_transfers(self):
        """Transfer list grouped by ``(layer, src, dst, n_values)``.

        Returns ``[(key, multiplicity), ...]`` in first-occurrence
        order, which keeps the replayed layer sequence non-decreasing
        exactly like the flat list.
        """
        if self._aggregated_list is None:
            counts: Dict[Tuple[int, int, int, int], int] = {}
            order: List[Tuple[int, int, int, int]] = []
            for key in self._transfers():
                if key in counts:
                    counts[key] += 1
                else:
                    counts[key] = 1
                    order.append(key)
            self._aggregated_list = [(key, counts[key]) for key in order]
        return self._aggregated_list

    def forward(
        self,
        x: np.ndarray,
        count_traffic: bool = True,
        plan="auto",
    ) -> np.ndarray:
        """Distributed forward pass.

        When ``count_traffic`` is set, every cross-node transfer of one
        inference is accounted through the network layer **once per
        batch element** (each inference pays its own traffic).

        ``plan`` selects the execution strategy:

        - ``"auto"`` (default): serve the forward from the
          executor's :class:`repro.core.compiled.CompiledPlan`,
          compiled on first use and recompiled whenever the topology
          epoch has moved (a crash, brownout, recovery or move) —
          unless a lossy link model or an installed
          :class:`~repro.wsn.network.LinkFaultModel` draws per-message
          randomness, in which case the call falls back to the
          event-driven path below.
        - ``None``: always take the event-driven path — the parity
          oracle the differential suite pins the compiled path against.

        Any other ``plan`` raises ``ValueError``.  The event-driven
        path aggregates identical transfers and replays each group with
        one multi-copy :meth:`~repro.wsn.Network.unicast`.

        Returns:
            The model logits (identical to the centralized forward).
        """
        if plan is not None:
            if plan != "auto":
                raise ValueError(f"plan must be 'auto' or None, got {plan!r}")
            blocked = plan_blocked(self)
            if blocked is None:
                return self._forward_compiled(
                    self._ensure_plan(), x, count_traffic
                )
            self._note_fallback(blocked[0])
        if count_traffic:
            self.replay_traffic(x.shape[0])
        tel = self._telemetry
        if not tel.enabled:
            return self.model.forward(x, training=False)
        return self._forward_traced(x, tel)

    # -- compiled fast path --------------------------------------------------
    def compiled_plan(self) -> CompiledPlan:
        """The executor's compiled plan for the current topology
        epoch, building it if needed.

        Raises:
            PlanNotCompilable: while links draw per-message randomness
                (``forward(plan="auto")`` falls back instead; this
                accessor surfaces it).
        """
        blocked = plan_blocked(self)
        if blocked is not None:
            raise PlanNotCompilable(*blocked)
        return self._ensure_plan()

    def _ensure_plan(self) -> CompiledPlan:
        """Memoized compilation, keyed on the topology epoch: one
        recompile per topology change, none in steady state."""
        compiled = self._compiled_plan
        if compiled is None or compiled.epoch != self.network.topology.epoch:
            compiled = self._compiled_plan = compile_plan(self)
        return compiled

    def _forward_compiled(
        self, compiled: CompiledPlan, x: np.ndarray, count_traffic: bool
    ) -> np.ndarray:
        tel = self._telemetry
        if not tel.enabled:
            return compiled.run(x, count_traffic=count_traffic)
        hops = compiled.hops
        with tel.tracer.span(
            "exec.plan",
            batch=int(x.shape[0]),
            links=hops.n_links,
            transfer_groups=hops.n_transfer_groups,
        ):
            tel.metrics.counter("exec.plan_runs").inc()
            return compiled.run(x, count_traffic=count_traffic)

    def _note_fallback(self, reason: str) -> None:
        """Record that a planned forward was served by the event-driven
        oracle instead.  The ``exec.plan-fallback`` instant fires only
        when a working plan existed before (steady state lost), so
        traces distinguish "never compiled" from "degraded"."""
        tel = self._telemetry
        if not tel.enabled:
            return
        tel.metrics.counter("exec.plan_fallbacks", reason=reason).inc()
        if self._compiled_plan is not None:
            tel.tracer.instant("exec.plan-fallback", reason=reason)

    def _forward_traced(self, x: np.ndarray, tel) -> np.ndarray:
        """The traced twin of ``model.forward``: same layer sequence
        (so logits are byte-identical), with one ``exec.layer`` span
        per unit-graph layer nested in an ``exec.forward`` span."""
        with tel.tracer.span("exec.forward", batch=int(x.shape[0])):
            out = x
            for entry in self.graph.layers:
                with tel.tracer.span(
                    "exec.layer", layer=entry.index, kind=entry.kind
                ):
                    out = entry.layer.forward(out, training=False)
            return out

    def replay_traffic(self, batch: int) -> None:
        """Account ``batch`` inferences' cross-node transfers on the
        network layer (the traffic half of :meth:`forward`, exposed so
        the perf harness can benchmark the replay in isolation)."""
        tel = self._telemetry
        if tel.enabled:
            with tel.tracer.span("exec.replay", batch=batch):
                self._replay_traffic_inner(batch)
        else:
            self._replay_traffic_inner(batch)

    def _replay_traffic_inner(self, batch: int) -> None:
        for key, multiplicity in self._aggregated_transfers():
            layer_index, src, dst, n_values = key
            self.network.unicast(
                Message(src=src, dst=dst, n_values=n_values,
                        kind=f"layer{layer_index}"),
                copies=batch * multiplicity,
            )

    def predict(self, x: np.ndarray, count_traffic: bool = False) -> np.ndarray:
        """Class predictions from the distributed forward pass."""
        return self.forward(x, count_traffic=count_traffic).argmax(axis=-1)

    def measured_cost_report(self):
        """Static cost for comparison with the measured network stats."""
        return self._cost_model.inference_cost(self.placement)

    # -- fault injection ----------------------------------------------------
    def forward_hooked(
        self,
        x: np.ndarray,
        input_hook: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        layer_hook: Optional[Callable] = None,
    ) -> np.ndarray:
        """Layer-by-layer forward pass with substitution hooks.

        This is the executor-side choke point the fault layer plugs
        into: ``input_hook(x)`` may rewrite the input field (the
        executor hands it a private copy), and ``layer_hook(entry,
        out)`` runs after every unit-graph layer and may rewrite (or
        replace) its activations — e.g. to zero dead units or
        substitute stale values.  Flatten layers, which move no data,
        are not hooked.  Without an ``input_hook`` the input is not
        copied: every layer allocates its own output, so the caller's
        array is never written to.
        """
        if input_hook is not None:
            x = input_hook(np.array(x, copy=True))
        out = x
        for entry in self.graph.layers:
            out = entry.layer.forward(out, training=False)
            if layer_hook is not None and entry.kind != "flatten":
                replacement = layer_hook(entry, out)
                if replacement is not None:
                    out = replacement
        return out

    def _owner_indices(self):
        """Precomputed node -> output-index arrays, one map per layer.

        Element 0 is the input grid's map; element ``1 + i`` belongs to
        ``graph.layers[i]`` (None for flatten layers).  Spatial maps
        hold ``(rows, cols)`` index-array pairs, flat maps hold unit
        index arrays — ready for one fancy-indexed zeroing per layer.
        """
        if self._owner_index is None:
            maps: List[Optional[dict]] = []
            input_pos: Dict[int, List] = {}
            for pos, node in self.placement.input_node.items():
                input_pos.setdefault(node, []).append(pos)
            maps.append({
                node: (
                    np.array([p[0] for p in sorted(pos)], dtype=np.intp),
                    np.array([p[1] for p in sorted(pos)], dtype=np.intp),
                )
                for node, pos in input_pos.items()
            })
            for entry in self.graph.layers:
                if entry.kind == "flatten":
                    maps.append(None)
                    continue
                owned: Dict[int, List] = {}
                for pos in entry.output_positions():
                    node = self.placement.node_of(entry.index, pos)
                    owned.setdefault(node, []).append(pos)
                if entry.kind == "spatial":
                    maps.append({
                        node: (
                            np.array([p[0] for p in pos], dtype=np.intp),
                            np.array([p[1] for p in pos], dtype=np.intp),
                        )
                        for node, pos in owned.items()
                    })
                else:
                    maps.append({
                        node: np.array(pos, dtype=np.intp)
                        for node, pos in owned.items()
                    })
            self._owner_index = maps
        return self._owner_index

    @staticmethod
    def _dead_spatial_index(
        index_map: SpatialIndex, dead: Set[int]
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        picks = [index_map[node] for node in sorted(dead) if node in index_map]
        if not picks:
            return None
        return (
            np.concatenate([p[0] for p in picks]),
            np.concatenate([p[1] for p in picks]),
        )

    def forward_masked(
        self, x: np.ndarray, dead_nodes: Iterable[int]
    ) -> np.ndarray:
        """Forward pass with the given nodes failed.

        Input cells measured by dead sensors read zero, and every unit
        hosted on a dead node outputs zero — its value never reaches
        the downstream consumers.  This is the paper's §V scenario:
        "a part of tiny IoT devices may be broken".

        Masking is vectorized: the dead positions of each layer are
        gathered from precomputed per-node index maps and zeroed with
        one assignment (:meth:`forward_masked_reference` is the
        per-position original, kept for the parity tests).
        """
        dead: Set[int] = set(dead_nodes)
        if not dead:
            return self.model.forward(x, training=False)
        tel = self._telemetry
        if tel.enabled:
            tel.tracer.instant(
                "exec.dead_set", nodes=sorted(dead), batch=int(x.shape[0])
            )
        input_index, layer_spans = self._dead_indices(frozenset(dead))
        x = np.array(x, copy=True)
        if input_index is not None:
            x[:, :, input_index[0], input_index[1]] = 0.0
        out = x
        for entry, span in zip(self.graph.layers, layer_spans):
            out = entry.layer.forward(out, training=False)
            if span is None:
                continue
            if entry.kind == "spatial":
                out[:, :, span[0], span[1]] = 0.0
            else:
                out[:, span] = 0.0
        return out

    def _dead_indices(self, dead: frozenset):
        """Concatenated dead-position indices, memoized per dead set
        (a failure scenario is typically evaluated over many batches,
        so the concatenation is paid once)."""
        cached = self._dead_index_cache.get(dead)
        if cached is not None:
            return cached
        maps = self._owner_indices()
        input_index = self._dead_spatial_index(maps[0], dead)
        layer_spans = []
        for entry, index_map in zip(self.graph.layers, maps[1:]):
            if index_map is None:
                layer_spans.append(None)
            elif entry.kind == "spatial":
                layer_spans.append(self._dead_spatial_index(index_map, dead))
            else:
                picks = [index_map[n] for n in sorted(dead) if n in index_map]
                layer_spans.append(
                    np.concatenate(picks) if picks else None
                )
        if len(self._dead_index_cache) >= 64:
            self._dead_index_cache.clear()
        cached = (input_index, layer_spans)
        self._dead_index_cache[dead] = cached
        return cached

    def forward_masked_reference(
        self, x: np.ndarray, dead_nodes: Iterable[int]
    ) -> np.ndarray:
        """Pre-optimization :meth:`forward_masked`: hook-based, one
        Python iteration per unit position.  Kept callable so the test
        suite can prove the vectorized path byte-identical."""
        dead: Set[int] = set(dead_nodes)
        if not dead:
            return self.model.forward(x, training=False)

        def input_hook(arr: np.ndarray) -> np.ndarray:
            for (iy, ix), node in self.placement.input_node.items():
                if node in dead:
                    arr[:, :, iy, ix] = 0.0
            return arr

        def layer_hook(entry, out: np.ndarray):
            if entry.kind == "spatial":
                for pos in entry.output_positions():
                    if self.placement.node_of(entry.index, pos) in dead:
                        out[:, :, pos[0], pos[1]] = 0.0
            elif entry.kind == "flat":
                for unit in entry.output_positions():
                    if self.placement.node_of(entry.index, unit) in dead:
                        out[:, unit] = 0.0
            return out

        return self.forward_hooked(x, input_hook=input_hook,
                                   layer_hook=layer_hook)

    def accuracy_under_faults(
        self,
        x: np.ndarray,
        y: np.ndarray,
        dead_nodes: Iterable[int],
    ) -> float:
        """Classification accuracy with the given nodes failed."""
        preds = self.forward_masked(x, dead_nodes).argmax(axis=-1)
        return float((preds == np.asarray(y)).mean())
