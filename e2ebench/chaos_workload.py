"""chaos: a fault-injection sweep over the process pool.

Each sweep is ``run_sweep(chaos_curve_point, seeds 0..N-1, jobs=2,
shared=build_chaos_shared(seed))``; sweeps repeat until the time is up
and every one must give the same report digest.  Every inference
takes the event-driven path under lossy links, crashes and brownouts,
so the simulator, the link-fault draws, the resilient executor's
retries and the spawn pool do the work.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time
from dataclasses import dataclass
from typing import List

from common import Outcome, Phase, Speedometer, Workload, calibration_kernel

POINTS = 24
JOBS = 2
#: calibrations before each sweep and after the last one, taken in
#: turn on each core the pool's workers may run on.
CALIBRATIONS = 4


def _calibrate(speed: Speedometer) -> None:
    """``CALIBRATIONS`` calibrations, in turn on each core this process
    may use (the host slows each core on its own).  The affinity is
    restored after, since the pool's workers inherit it."""
    allowed = os.sched_getaffinity(0)
    cores = sorted(allowed)
    try:
        for i in range(CALIBRATIONS):
            os.sched_setaffinity(0, {cores[i % len(cores)]})
            calibration_kernel()  # the first run after a move is cold
            speed.measure()
    finally:
        os.sched_setaffinity(0, allowed)


@dataclass
class Sweep:
    """One sweep's report digest and timings."""

    digest: str
    walls_s: List[float]
    elapsed_s: float
    jobs: int


@dataclass
class State:
    shared: dict
    points: list
    jobs: int


class Chaos(Workload):
    name = "chaos"
    rate_name = "chaos_points_per_s"
    rate_unit = "points/s"
    op = "sweep point (worker wall time)"
    #: sweeps repeat the same 24 points, so quantiles above p75 fall
    #: among the few slowest fault plans; p75 keeps 6 points of every
    #: sweep beyond it.
    tail_q = 0.75
    #: two whole sweeps per window, so every window holds the same
    #: points.
    tail_window = 2 * POINTS
    children_weight = JOBS
    shape = {
        "task": "chaos_curve_point (loss rates 0, 0.15, 0.3, 0.5)",
        "points": f"seeds 0..{POINTS - 1} per sweep, repeated",
        "shared": "build_chaos_shared(seed): 3x3 grid, 8x8 field",
        "jobs": f"{JOBS} (spawn pool; the traced phase uses jobs=1)",
        "sized_for_nproc": 2,
    }

    def setup(self, seed: int, traced: bool) -> State:
        from repro.faults.sweeps import build_chaos_shared
        from repro.par import make_points

        return State(build_chaos_shared(seed),
                     make_points(seeds=list(range(POINTS))),
                     1 if traced else JOBS)

    def loop(self, state: State, seconds: float) -> Phase:
        from repro.faults.sweeps import chaos_curve_point
        from repro.par import run_sweep

        clock = time.perf_counter
        # The pool keeps both cores busy, so calibrations run between
        # sweeps only, a few on each core; each sweep is one stretch.
        speed = Speedometer()
        speed.window = CALIBRATIONS // 2
        sweeps, latencies, starts = [], [], []
        failed = attempted = 0
        deadline = clock() + seconds
        while True:
            _calibrate(speed)
            speed.resume()
            begun = clock()
            report = run_sweep(chaos_curve_point, state.points,
                               jobs=state.jobs, shared=state.shared)
            speed.pause()
            # Only what the checks and the par.* metrics need: whole
            # reports would grow this process by about 1 MB per sweep,
            # so its peak memory would follow the machine's speed.
            sweeps.append(Sweep(report.digest(),
                                [r.wall_s for r in report.results],
                                report.elapsed_s, report.jobs))
            for result in report.results:
                ok = all(result.value["invariants"].values())
                latencies.append(result.wall_s if ok else float("inf"))
                failed += not ok
            attempted += len(state.points)
            missing = len(state.points) - len(report.results)
            failed += missing
            latencies.extend([float("inf")] * missing)
            starts.extend([begun] * len(state.points))
            if clock() >= deadline:
                break
        _calibrate(speed)
        return Phase(units=attempted, latencies_s=latencies,
                     starts_s=starts, speed=speed,
                     attempted=attempted, failed=failed,
                     data={"sweeps": sweeps})

    def verify(self, state: State, phase: Phase, out: Outcome) -> None:
        from repro.faults.sweeps import chaos_curve_point
        from repro.par import run_sweep

        digests = [sweep.digest for sweep in phase.data["sweeps"]]
        phase.data["serial"] = run_sweep(chaos_curve_point, state.points,
                                         jobs=1, shared=state.shared)
        serial = phase.data["serial"].digest()
        out.check("chaos.digest_equals_serial",
                  all(d == serial for d in digests),
                  f"{sum(d != serial for d in digests)} of {len(digests)} "
                  f"sweep digests differ from the jobs=1 digest")

    def finish(self, state: State) -> dict:
        """The spawn pool leaves multiprocessing's resource tracker
        running until this process exits; stop and reap it here."""
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
        return {}

    def untraced_latencies(self, base: Phase):
        """The traced loop runs at jobs=1, so its reference is the
        untraced jobs=1 sweep the checks ran, not the pool's points."""
        slowdown = base.speed.slowdown()
        return [r.wall_s / slowdown for r in base.data["serial"].results]

    def layers(self, state, base, traced, finished) -> dict:
        """The ``par.*`` metrics, from the untraced phase's sweeps."""
        walls, overheads, efficiencies = [], [], []
        for sweep in base.data["sweeps"]:
            busy = sum(sweep.walls_s)
            walls.extend(sweep.walls_s)
            overheads.append(sweep.elapsed_s - busy / sweep.jobs)
            efficiencies.append(busy / (sweep.jobs * sweep.elapsed_s))
        return {
            "par.sweep.point_ms": statistics.median(walls) * 1e3,
            "par.sweep.overhead_s": statistics.mean(overheads),
            "par.sweep.efficiency": statistics.mean(efficiencies),
            "par.sweep.shared_bytes": float(len(pickle.dumps(state.shared))),
        }
