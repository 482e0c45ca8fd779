"""End-to-end benchmark of the repro package: one workload per call.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload serve --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` runs it twice in one process, first untraced
and then with spans recorded around each layer's public functions
(half of ``--seconds`` each), and reports the per-layer metrics plus
the tracing overhead.  Either way the outputs are checked; a failed
check makes the result ``"correct": false`` and the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are for people.  See ``README.md`` beside this file for what each
workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: end-to-end metric names and units (the JSON of a ``--trace 0`` run).
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}


def workloads():
    from chaos_workload import Chaos
    from district_workload import District
    from serve_workload import Serve
    from train_workload import Train

    return {wl.name: wl for wl in (Serve(), District(), Chaos(), Train())}


def _loop(wl, state, seconds: float):
    """One timed loop from a collected heap, so garbage left by the
    set-up is not collected on the loop's time."""
    gc.collect()
    return wl.loop(state, seconds)


def run_workload(wl, seed: int, seconds: float, traced: bool):
    from common import Outcome, latency_metrics, peak_rss_mb, timed_setups

    out = Outcome()
    if not traced:
        state, setup_raw, setup_s = timed_setups(
            lambda: wl.setup(seed, traced=False), wl.discard,
            wl.calibrate_setup,
        )
        try:
            phase = _loop(wl, state, seconds)
        finally:
            finished = wl.finish(state)
        wl.verify(state, phase, out)
        _count(out, phase)
        rate = phase.scaled_rate()
        out.metrics["setup_s"] = (setup_s, "s")
        out.metrics["peak_rss_mb"] = (
            finished.get("peak_rss_mb", peak_rss_mb(wl.children_weight)),
            "MB",
        )
        out.metrics["ops_per_s"] = (rate, "1/s")
        latency_metrics(out, phase, wl.tail_q, wl.tail_window, wl.op)
        out.shown_metrics[wl.rate_name] = (rate, wl.rate_unit)
        out.shown_metrics[f"raw_{wl.rate_name}"] = (
            phase.raw_rate(), wl.rate_unit
        )
        out.shown_metrics["raw_setup_s"] = (setup_raw, "s")
        out.shown_metrics["slowdown"] = (phase.speed.slowdown(), "x")
        out.shown_metrics["error_rate"] = (
            out.failed / max(out.attempted, 1), "ratio"
        )
        out.metrics = {name: out.metrics[name] for name in E2E_UNITS}
        return out

    from tracing import LAYER_UNITS, Tracer, install, layer_metrics

    half = seconds / 2.0
    # The first loop in a process runs about 10 % slower than later
    # ones; a throwaway loop first makes the two compared loops alike.
    state = wl.setup(seed, traced=False)
    try:
        _loop(wl, state, min(1.0, half))
    finally:
        wl.finish(state)
    state = wl.setup(seed, traced=False)
    try:
        base = _loop(wl, state, half)
    finally:
        base_finished = wl.finish(state)
    wl.verify(state, base, out)
    _count(out, base)
    out.checks = [(f"untraced {name}", ok, detail)
                  for name, ok, detail in out.checks]
    del state

    tracer = Tracer()
    install(tracer)
    state = wl.setup(seed, traced=True)
    tracer.reset()
    try:
        phase = _loop(wl, state, half)
    finally:
        finished = wl.finish(state)
    layers = layer_metrics(tracer, phase.attempted)
    layers.update(wl.layers(state, base, phase,
                            {**base_finished, **finished}))
    checked = len(out.checks)
    wl.verify(state, phase, out)
    out.checks[checked:] = [(f"traced {name}", ok, detail)
                            for name, ok, detail in out.checks[checked:]]
    _count(out, phase)
    base_ms = _mean_ms(wl.untraced_latencies(base))
    layers["trace.overhead_ms"] = _mean_ms(phase.scaled_latencies()) - base_ms
    layers["trace.overhead_pct"] = (
        100.0 * layers["trace.overhead_ms"] / base_ms if base_ms else 0.0
    )
    out.metrics = {name: (layers[name], unit)
                   for name, unit in LAYER_UNITS.items()}
    return out


def _count(out, phase) -> None:
    out.attempted += phase.attempted
    out.failed += phase.failed


def _mean_ms(latencies_s) -> float:
    finite = [t for t in latencies_s if math.isfinite(t)]
    return 1e3 * sum(finite) / len(finite) if finite else 0.0


def report(wl, out, seed: int, traced: bool) -> dict:
    """Print the human-readable lines; return the JSON result."""
    print(f"workload {wl.name} seed {seed} "
          f"({'traced' if traced else 'untraced'})")
    for key, value in wl.shape.items():
        print(f"  shape  {key}: {value}")
    for note in out.notes:
        print(f"  note   {note}")
    print(f"  counts attempted={out.attempted} "
          f"succeeded={out.attempted - out.failed} failed={out.failed}")
    for name, ok, detail in out.checks:
        print(f"  check  {'ok  ' if ok else 'FAIL'} {name}"
              f"{' - ' + detail if detail and not ok else ''}")
    for name, (value, unit) in {**out.shown_metrics, **out.metrics}.items():
        print(f"  metric {name} = {value:.6g} {unit}")
    return {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in out.metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro").is_dir():
        print(f"no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    table = workloads()
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(table)}")
    wl = table[args.workload]
    traced = bool(args.trace)
    out = run_workload(wl, args.seed, args.seconds, traced)
    result = report(wl, out, args.seed, traced)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
