"""district: offline recognition on a 1,024-node deployment.

Batches of 8 fields go through the compiled-plan forward with traffic
counted and telemetry on; every 32 batches the flight recorder takes
one sample over the whole registry, as a live per-node and per-link
cost view.  Costs that grow with node count dominate here: traffic
accounting, the soundness scan before each planned forward, and the
recorder tick with the metric sync behind it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from common import Outcome, Phase, Speedometer, Workload

GRID = (32, 32)
FIELD = (32, 32)
BATCH = 8
RECORDER_EVERY = 32
#: samples the recorder keeps: a live view needs only the recent ones,
#: and a full ring keeps memory flat however fast the loop runs.
RECORDER_CAPACITY = 16
#: distinct input batches, cycled; each has a reference forward.
INPUT_BATCHES = 16
WARMUP_BATCHES = 4


def _model(seed: int):
    from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential

    model = Sequential([
        Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(),
        Dense(8), ReLU(), Dense(2),
    ])
    model.build((1,) + FIELD, np.random.default_rng(seed))
    return model


@dataclass
class State:
    model: object
    graph: object
    placement: object
    network: object
    executor: object
    recorder: object
    inputs: np.ndarray


class District(Workload):
    name = "district"
    rate_name = "district_inferences_per_s"
    rate_unit = "inf/s"
    op = "batch-8 forward"
    shape = {
        "grid": "32x32 GridTopology (1,024 nodes)",
        "field": "32x32",
        "model": "Conv2D-ReLU-MaxPool-Dense-ReLU-Dense",
        "placement": "grid_correspondence_assignment",
        "batch": BATCH,
        "recorder": f"one sample per {RECORDER_EVERY} batches, "
                    f"capacity {RECORDER_CAPACITY}",
        "telemetry": "on",
        "sized_for_nproc": 2,
    }

    def setup(self, seed: int, traced: bool) -> State:
        from repro.core import (
            DistributedExecutor,
            UnitGraph,
            grid_correspondence_assignment,
        )
        from repro.obs.runtime import Telemetry
        from repro.obs.timeline import FlightRecorder
        from repro.wsn import GridTopology, Network

        model = _model(seed)
        graph = UnitGraph(model)
        topology = GridTopology(*GRID)
        placement = grid_correspondence_assignment(graph, topology)
        telemetry = Telemetry()
        network = Network(topology, telemetry=telemetry)
        executor = DistributedExecutor(
            model, graph, placement, network, telemetry=telemetry
        )
        executor.compiled_plan()
        inputs = np.random.default_rng([seed, 1]).normal(
            size=(INPUT_BATCHES, BATCH, 1) + FIELD
        )
        return State(model, graph, placement, network, executor,
                     FlightRecorder(telemetry, capacity=RECORDER_CAPACITY),
                     inputs)

    def loop(self, state: State, seconds: float) -> Phase:
        executor, recorder, inputs = state.executor, state.recorder, state.inputs
        # Untimed warm-up fills first-call caches; its outputs and
        # traffic are checked like the rest.
        outputs = [executor.forward(inputs[i]) for i in range(WARMUP_BATCHES)]
        clock = time.perf_counter
        speed = Speedometer()
        latencies, starts = [], []
        failed = 0
        batches = WARMUP_BATCHES
        speed.measure()
        speed.resume()
        deadline = clock() + seconds
        while True:
            speed.tick()
            x = inputs[batches % INPUT_BATCHES]
            t0 = clock()
            try:
                logits = executor.forward(x)
                ok = True
            except Exception as exc:  # counted as a failed operation
                logits, ok = exc, False
            t1 = clock()
            latencies.append(t1 - t0 if ok else float("inf"))
            starts.append(t0)
            failed += not ok
            outputs.append(logits)
            batches += 1
            if batches % RECORDER_EVERY == 0:
                recorder.sample()
            if t1 >= deadline:
                break
        speed.pause()
        speed.measure()
        timed = batches - WARMUP_BATCHES
        return Phase(units=timed * BATCH, latencies_s=latencies,
                     starts_s=starts, speed=speed,
                     attempted=timed, failed=failed,
                     data={"outputs": outputs})

    def verify(self, state: State, phase: Phase, out: Outcome) -> None:
        from repro.core import DistributedExecutor
        from repro.wsn import GridTopology, Network

        outputs = phase.data["outputs"]
        refs = [state.model.forward(x, training=False).tobytes()
                for x in state.inputs]
        bad = [i for i, got in enumerate(outputs)
               if not isinstance(got, np.ndarray)
               or got.tobytes() != refs[i % INPUT_BATCHES]]
        out.check("district.logits_equal_centralized", not bad,
                  f"{len(bad)} of {len(outputs)} batches differ")

        oracle_net = Network(GridTopology(*GRID))
        oracle = DistributedExecutor(
            state.model, state.graph, state.placement, oracle_net
        )
        logits = oracle.forward(state.inputs[0], plan=None)
        out.check("district.oracle_logits_equal",
                  logits.tobytes() == refs[0])
        out.check("district.traffic_matches_oracle",
                  *traffic_mismatch(state.network, oracle_net, len(outputs)))
        drift = state.network.telemetry_drift()
        out.check("district.telemetry_reconciles", not drift,
                  "; ".join(drift[:3]))


def traffic_mismatch(network, oracle_net, batches: int):
    """``(ok, detail)``: every counter of ``network`` equals the
    one-batch oracle's counter times ``batches``."""
    got, want = network.stats, oracle_net.stats
    problems = []
    for name in ("sent", "delivered", "dropped", "total_hops"):
        if getattr(got, name) != batches * getattr(want, name):
            problems.append(f"{name} {getattr(got, name)} != "
                            f"{batches} x {getattr(want, name)}")
    for name in ("per_node_tx_values", "per_node_rx_values"):
        scaled = {k: v * batches for k, v in getattr(want, name).items()}
        if getattr(got, name) != scaled:
            problems.append(f"{name} differs")
    for node, ref in zip(network.topology, oracle_net.topology):
        for attr in ("tx_count", "rx_count", "tx_values", "rx_values"):
            if getattr(node, attr) != batches * getattr(ref, attr):
                problems.append(f"node {node.node_id} {attr} differs")
                break
    return not problems, "; ".join(problems[:3])
