"""What every workload shares: the outcome record, quantiles, memory,
and the speedometer that scales times to a reference machine speed.

Why scale: on a shared 2-core virtual machine each core switches every
few seconds between a fast and a slow mode about 1.6 times apart, and
CPU time slows with wall time (the core itself is slower, nothing is
waiting).  Run to run, raw times then spread by 10-40 %.  A fixed
calibration kernel, timed every 100 ms between operations, measures
how much slower than the reference the machine ran around each stretch
of work; each stretch is divided by its own slowdown.  The kernel is
the benchmark's own code, so a change to the program moves the scaled
times exactly as it moves the raw ones.  Raw values are printed beside
the scaled ones.
"""

from __future__ import annotations

import bisect
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Calibration kernel time at the reference speed, in seconds; scaled
#: times are what the machine would show if the kernel took this long.
REFERENCE_S = 1e-3
#: Seconds of work between two calibrations.
CALIBRATION_INTERVAL_S = 0.1
#: Calibrations before each set-up; their median scales its time.
SETUP_CALIBRATIONS = 9

_KERNEL_X = np.random.default_rng(0).normal(size=(8, 8))
_KERNEL_ROWS = np.arange(0, 8, 2)


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work and small-array
    calls, the two kinds of work every workload is made of."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for j in range(3000):
        table[j % 97] = table.get(j % 97, 0) + j
    for __ in range(120):
        np.maximum(_KERNEL_X * 2.0 + 1.0, 0.0)[_KERNEL_ROWS].sum()
    return time.perf_counter() - start


class Speedometer:
    """Calibration samples taken between the stretches of work of one
    loop.  A loop calls :meth:`resume` when its work starts and
    :meth:`pause` when it stops; :meth:`tick` calibrates in between
    when one is due.

    The host switches between a fast and a slow mode (about 1.6 times
    apart) every few seconds, so one slowdown for a whole loop (the
    median of a two-mode mix) would jump with the share of time spent
    in each mode.  Each stretch of work is instead scaled by the
    calibrations nearest to it (:attr:`window` on each side)."""

    #: calibrations on each side of a stretch whose median scales it.
    window = 3

    def __init__(self) -> None:
        self.durations: List[float] = []
        #: ``(start, end, calibrations before it)`` of each stretch.
        self.stretches: List[Tuple[float, float, int]] = []
        self._due = 0.0
        self._mark = None
        self._slowdowns = None

    def resume(self) -> None:
        """Work starts now."""
        self._mark = time.perf_counter()
        self._due = self._mark + CALIBRATION_INTERVAL_S

    def pause(self) -> None:
        """Work stops now; closes the open stretch."""
        if self._mark is not None:
            self.stretches.append(
                (self._mark, time.perf_counter(), len(self.durations))
            )
            self._mark = None
            self._slowdowns = None

    def tick(self) -> None:
        """Calibrate between two operations if the interval has passed."""
        if time.perf_counter() >= self._due:
            self.pause()
            self.measure()
            self.resume()

    def measure(self) -> None:
        self.durations.append(calibration_kernel())

    def slowdown(self) -> float:
        """Median kernel time of the whole loop over :data:`REFERENCE_S`
        (printed for people; scaling is per stretch)."""
        return statistics.median(self.durations) / REFERENCE_S

    def stretch_slowdowns(self) -> List[float]:
        """Per stretch: the median of the :attr:`window` calibrations
        before it and the :attr:`window` after it, over
        :data:`REFERENCE_S`."""
        if self._slowdowns is None:
            k = self.window
            self._slowdowns = [
                statistics.median(self.durations[max(0, j - k):j + k])
                / REFERENCE_S
                for __, ___, j in self.stretches
            ]
        return self._slowdowns

    def elapsed_s(self) -> float:
        """Wall seconds of work, calibrations excluded."""
        return sum(end - start for start, end, __ in self.stretches)

    def reference_s(self) -> float:
        """Seconds the work would have taken at the reference speed."""
        return sum((end - start) / slowdown for (start, end, __), slowdown
                   in zip(self.stretches, self.stretch_slowdowns()))


@dataclass
class Phase:
    """One timed loop: ``units`` of work (requests, inferences, points
    or examples), one latency per operation (``inf`` for a failed one)
    with the ``perf_counter`` time it started, the loop's speedometer,
    plus whatever the checks need."""

    units: int
    latencies_s: List[float]
    starts_s: List[float]
    speed: Speedometer
    attempted: int
    failed: int
    data: Dict = field(default_factory=dict)

    def raw_rate(self) -> float:
        return self.units / self.speed.elapsed_s()

    def scaled_rate(self) -> float:
        return self.units / self.speed.reference_s()

    def slowdowns(self) -> List[float]:
        """Per operation: the slowdown of the stretch it started in."""
        slowdowns = self.speed.stretch_slowdowns()
        starts = [start for start, __, ___ in self.speed.stretches]
        return [slowdowns[max(0, bisect.bisect_right(starts, t) - 1)]
                for t in self.starts_s]

    def scaled_latencies(self) -> List[float]:
        return [lat / slowdown for lat, slowdown
                in zip(self.latencies_s, self.slowdowns())]


@dataclass
class Outcome:
    """One workload run: counts, checks and metrics.

    ``metrics`` maps a name to ``(value, unit)``.  ``shown_metrics``
    holds the workload's own names for the same figures (``serve_rps``,
    ``train_examples_per_s``...) and the raw figures, printed for
    people, not parsed.
    """

    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    shown_metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for __, ok, ___ in self.checks)


class Workload:
    """One workload of the benchmark.  Subclasses set the attributes
    and implement :meth:`setup`, :meth:`loop` and :meth:`verify`."""

    name: str
    #: the workload's own name and unit for ``ops_per_s``.
    rate_name: str
    rate_unit: str
    #: what one operation is, for the notes.
    op: str
    #: the tail latency quantile and the operations per window it is
    #: taken over (see :func:`latency_metrics`).
    tail_q = 0.95
    tail_window = 200
    #: worker processes whose peak memory counts (see :func:`peak_rss_mb`).
    children_weight = 0
    #: the fixed shape, printed with every result.
    shape: Dict[str, object] = {}

    def setup(self, seed: int, traced: bool):
        """Build everything the loop needs; returns its state."""
        raise NotImplementedError

    def loop(self, state, seconds: float) -> Phase:
        raise NotImplementedError

    def verify(self, state, phase: Phase, out: Outcome) -> None:
        """Add the untimed correctness checks to ``out``."""
        raise NotImplementedError

    def discard(self, state) -> None:
        """Release a set-up that will not be measured."""

    def calibrate_setup(self, speed: Speedometer) -> None:
        """The calibrations before one set-up, on the core it runs on."""
        for __ in range(SETUP_CALIBRATIONS):
            speed.measure()

    def finish(self, state) -> dict:
        """Stop what the set-up started; may report ``peak_rss_mb``
        and, for a traced run, a ``daemon`` layer summary."""
        return {}

    def layers(self, state, base: Phase, traced: Phase,
               finished: dict) -> Dict[str, float]:
        """Per-layer metrics beyond what the spans give."""
        return {}

    def untraced_latencies(self, base: Phase) -> List[float]:
        """Scaled latencies the traced loop's are compared with."""
        return base.scaled_latencies()


def timed_setups(build: Callable[[], object], discard: Callable,
                 calibrate: Callable[[Speedometer], None],
                 repeats: int = SETUP_REPEATS):
    """Run ``build`` ``repeats`` times; returns the last result, the
    median raw time and the median scaled time (each build's time over
    the slowdown ``calibrate`` measured just before and just after it).
    Each earlier result is passed to ``discard``, untimed, before the
    next build, so one set-up is alive at a time."""
    raw, adjusted = [], []
    result = None
    for __ in range(repeats):
        if result is not None:
            discard(result)
            result = None
        speed = Speedometer()
        calibrate(speed)
        start = time.perf_counter()
        result = build()
        raw.append(time.perf_counter() - start)
        calibrate(speed)
        adjusted.append(raw[-1] / speed.slowdown())
    return result, statistics.median(raw), statistics.median(adjusted)


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile; ``inf`` entries (failed operations) sort
    last, so a failure counts as exceeding every limit."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def window_tail(latencies: List[float], slowdowns: List[float], q: float,
                size: int) -> float:
    """The ``q`` quantile of each window of ``size`` consecutive
    operations, median over the windows (a last short window joins the
    one before), so a stall in one stretch of the loop moves one window
    only.

    Each window's quantile is picked on the raw latencies and divided
    by the mean slowdown of the operations at or beyond it.  Picking on
    scaled latencies would pick the operations whose slowdown was most
    underestimated."""
    count = max(1, len(latencies) // size)
    bounds = [i * size for i in range(count)] + [len(latencies)]
    tails = []
    for lo, hi in zip(bounds, bounds[1:]):
        order = sorted(range(lo, hi), key=latencies.__getitem__)
        rank = min(len(order) - 1, max(0, math.ceil(q * len(order)) - 1))
        beyond = order[rank:]
        tails.append(latencies[order[rank]] * len(beyond)
                     / sum(slowdowns[i] for i in beyond))
    return statistics.median(tails)


def latency_metrics(out: Outcome, phase: Phase, tail_q: float,
                    window: int, label: str) -> None:
    """Median and tail latency of one operation, in ms, scaled, with
    the raw figures beside them.  The median is over the whole loop;
    the tail is the ``tail_q`` quantile per window of ``window``
    consecutive operations (ten of them beyond it), median over the
    windows (see :func:`window_tail`)."""
    raw = phase.latencies_s
    n = len(raw)
    tail = f"p{round(tail_q * 100)}"
    out.metrics["latency_p50_ms"] = (
        quantile(phase.scaled_latencies(), 0.5) * 1e3, "ms"
    )
    out.metrics["latency_tail_ms"] = (
        window_tail(raw, phase.slowdowns(), tail_q, window) * 1e3, "ms"
    )
    out.shown_metrics["raw_latency_p50_ms"] = (quantile(raw, 0.5) * 1e3, "ms")
    out.shown_metrics[f"raw_latency_{tail}_ms"] = (
        window_tail(raw, [1.0] * n, tail_q, window) * 1e3, "ms"
    )
    if n - math.ceil(0.99 * n) >= 10 and tail_q < 0.99:
        # p99 over the whole loop, for people: it spreads too much from
        # run to run on a shared host to be the gated tail.
        out.shown_metrics["latency_p99_ms"] = (
            window_tail(raw, phase.slowdowns(), 0.99, n) * 1e3, "ms"
        )
    windows = max(1, n // window)
    beyond = min(window, n) - math.ceil(tail_q * min(window, n))
    out.notes.append(
        f"latency of one {label}: p50 over {n} samples; {tail} per "
        f"window of {window}, median over {windows} windows "
        f"({beyond} samples beyond {tail} per window)"
    )
    if beyond < 10:
        out.notes.append(f"WARNING: only {beyond} samples beyond {tail}")
    if windows < 5:
        out.notes.append(f"WARNING: only {windows} windows for {tail}")


def peak_rss_mb(children_weight: int = 0) -> float:
    """Peak resident memory in MB of this process, plus
    ``children_weight`` times the largest finished child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children_weight * kids) / 1024.0
