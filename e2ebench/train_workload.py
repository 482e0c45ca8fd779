"""train: distributed training steps on the ``repro train`` model.

One operation is one ``MicroDeepTrainer.fit`` call over one batch of 8
(one step): forward, the vectorized local backward and the SGD update.
It runs the same ``nn`` layers as serve and district, but forward,
backward and update instead of forward only, so a change to im2col or
padding that helps inference and hurts training shows here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from common import Outcome, Phase, Speedometer, Workload

FIELD = (10, 10)
GRID = (4, 4)
BATCH = 8
SAMPLES = 256
#: untimed first steps whose weights are compared with the reference
#: backward.
PARITY_STEPS = 4
#: the test suite's pinned tolerance between the vectorized and the
#: reference backward (conv weight updates differ by GEMM grouping).
PARITY_ATOL = 1e-9


def _trainer(seed: int, backward_impl: str):
    from repro.core import (
        MicroDeepTrainer,
        UnitGraph,
        grid_correspondence_assignment,
    )
    from repro.nn import (
        SGD, Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential,
    )
    from repro.wsn import GridTopology

    model = Sequential([
        Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(),
        Dense(8), ReLU(), Dense(2),
    ])
    model.build((1,) + FIELD, np.random.default_rng(seed))
    graph = UnitGraph(model)
    placement = grid_correspondence_assignment(graph, GridTopology(*GRID))
    return MicroDeepTrainer(graph, placement, SGD(lr=0.05),
                            update_mode="local",
                            backward_impl=backward_impl)


@dataclass
class State:
    seed: int
    trainer: object
    x: np.ndarray
    y: np.ndarray


class Train(Workload):
    name = "train"
    rate_name = "train_examples_per_s"
    rate_unit = "ex/s"
    op = "training step (fit over one batch of 8)"
    shape = {
        "model": "Conv2D-ReLU-MaxPool-Dense-ReLU-Dense (repro train)",
        "field": "10x10",
        "grid": "4x4",
        "batch": BATCH,
        "update_mode": "local, vectorized backward, SGD(lr=0.05)",
        "data": f"toy_field_task, {SAMPLES} samples cycled",
        "sized_for_nproc": 2,
    }

    def setup(self, seed: int, traced: bool) -> State:
        from repro.faults.scenario import toy_field_task

        x, y = toy_field_task(SAMPLES, FIELD, np.random.default_rng(seed))
        return State(seed, _trainer(seed, "vectorized"), x, y)

    @staticmethod
    def _batch(state: State, step: int):
        start = (step * BATCH) % SAMPLES
        return (state.x[start:start + BATCH], state.y[start:start + BATCH],
                np.random.default_rng([state.seed, step]))

    def loop(self, state: State, seconds: float) -> Phase:
        fit = state.trainer.fit
        # The first steps are an untimed warm-up whose weights the
        # checks compare with the reference backward.
        for step in range(PARITY_STEPS):
            xb, yb, rng = self._batch(state, step)
            fit(xb, yb, epochs=1, batch_size=BATCH, rng=rng)
        early = state.trainer.model.get_weights()
        clock = time.perf_counter
        speed = Speedometer()
        latencies, starts = [], []
        failed = 0
        step = PARITY_STEPS
        speed.measure()
        speed.resume()
        deadline = clock() + seconds
        while True:
            speed.tick()
            xb, yb, rng = self._batch(state, step)
            t0 = clock()
            try:
                history = fit(xb, yb, epochs=1, batch_size=BATCH, rng=rng)
                ok = math.isfinite(history.train_loss[0])
            except Exception:  # counted as a failed operation
                ok = False
            t1 = clock()
            latencies.append(t1 - t0 if ok else float("inf"))
            starts.append(t0)
            failed += not ok
            step += 1
            if t1 >= deadline:
                break
        speed.pause()
        speed.measure()
        timed = step - PARITY_STEPS
        return Phase(units=timed * BATCH, latencies_s=latencies,
                     starts_s=starts, speed=speed,
                     attempted=timed, failed=failed,
                     data={"early_weights": early})

    def verify(self, state: State, phase: Phase, out: Outcome) -> None:
        reference = _trainer(state.seed, "reference")
        for step in range(PARITY_STEPS):
            xb, yb, rng = self._batch(state, step)
            reference.fit(xb, yb, epochs=1, batch_size=BATCH, rng=rng)
        worst = max(
            float(np.max(np.abs(a - b)))
            for a, b in zip(phase.data["early_weights"],
                            reference.model.get_weights())
        )
        out.check("train.weights_match_reference", worst <= PARITY_ATOL,
                  f"max |diff| {worst:.3g} after {PARITY_STEPS} steps")
