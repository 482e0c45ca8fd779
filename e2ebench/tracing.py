"""Span recording around the public functions of each repro layer.

Nothing here edits ``repro``: :func:`install` replaces selected
functions and methods with wrappers that time each call and then call
the original.  Install before the workload builds its objects, because
some callers bind a method once (a compiled plan keeps each layer's
``forward`` bound at compile time).

A span records ``(name, start, end, parent, request)``.  A span opened
while no other span is open is a root and starts a new request id; its
descendants share that id.  Spans stay in memory; :meth:`Tracer.summary`
folds them into per-layer totals and self times when the run ends.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Tuple


class Tracer:
    """In-memory span store with a parent stack (single-threaded)."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1, request id)
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}
        self._request = 0
        #: objects registered by constructor wrappers, by kind.
        self.objects: Dict[str, list] = {}
        #: reason -> count of plan_blocked calls that found a block.
        self.blocked: Dict[str, int] = {}
        #: (real rows, rows computed) over Tenant.infer calls.
        self.rows = [0, 0]
        #: series recorded over all FlightRecorder.sample calls.
        self.series = 0

    def reset(self) -> None:
        """Forget the spans and counts recorded so far (the set-up's),
        so the metrics cover the timed loop only.  Registered objects
        stay: a network built in set-up carries the loop's traffic."""
        self.spans.clear()
        self.blocked.clear()
        self.rows[:] = [0, 0]
        self.series = 0

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each outermost call records one span."""
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_.get(name):
                # Re-entered (a subclass calling its base): the outer
                # span already covers this call.
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1]
                request = spans[parent][4]
            else:
                parent = -1
                self._request += 1
                request = self._request
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent, request))
            stack.append(index)
            open_[name] = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_[name] = 0
                stack.pop()
                spans[index] = (name, start, end, parent, request)

        return wrapper

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s`` (the
        duration minus the part its child spans cover)."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, __ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, __, ___) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_s[i]
        return out


def _patch(owner, attr: str, wrapper_factory) -> None:
    setattr(owner, attr, wrapper_factory(getattr(owner, attr)))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import repro.core.compiled.compiler as compiler
    import repro.core.executor as executor
    import repro.faults.sweeps as sweeps
    import repro.nn.layers as layers
    import repro.nn.layers.conv as conv
    import repro.nn.layers.pool as pool
    import repro.serve.tenants as tenants
    from repro.core.compiled.plan import CompiledPlan
    from repro.core.training import MicroDeepTrainer
    from repro.faults.runtime import ResilientExecutor
    from repro.nn import optimizers
    from repro.nn.layers.base import Layer
    from repro.obs.timeline import FlightRecorder
    from repro.serve.dispatch import Dispatcher
    from repro.wsn.network import Network

    span = tracer.span
    _patch(Dispatcher, "submit", lambda f: span("serve.dispatch", f))
    _patch(tenants.Tenant, "infer", lambda f: span("serve.tenants", f))
    _patch(executor.DistributedExecutor, "forward",
           lambda f: span("core.executor.forward", f))
    _patch(CompiledPlan, "run", lambda f: span("core.compiled.run", f))
    _patch(Network, "account_compiled",
           lambda f: span("wsn.network.account", f))
    _patch(Network, "unicast", lambda f: span("wsn.network.unicast", f))
    _patch(ResilientExecutor, "infer",
           lambda f: span("faults.runtime.infer", f))
    _patch(MicroDeepTrainer, "_train_step",
           lambda f: span("core.training.step", f))
    for cls in (optimizers.SGD, optimizers.Adam):
        _patch(cls, "step", lambda f: span("nn.optimizer", f))
    for module in (conv, pool):
        _patch(module, "im2col_cached", lambda f: span("nn.im2col", f))
    for name in layers.__all__:
        cls = getattr(layers, name)
        if not (isinstance(cls, type) and issubclass(cls, Layer)):
            continue
        for attr, label in (("forward", "nn.forward"),
                            ("backward", "nn.backward"),
                            ("backward_nodes", "nn.backward")):
            if attr in vars(cls):
                _patch(cls, attr, lambda f, label=label: span(label, f))

    blocked_span = span("core.compiled.plan_blocked", compiler.plan_blocked)

    def plan_blocked(ex):
        result = blocked_span(ex)
        if result is not None:
            tracer.blocked[result[0]] = tracer.blocked.get(result[0], 0) + 1
        return result

    for module in (compiler, executor, tenants):
        module.plan_blocked = plan_blocked

    def register(kind: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.objects.setdefault(kind, []).append(
                args[0] if out is None else out
            )
            return out
        return wrapper

    _patch(Network, "__init__", lambda f: register("network", f))
    _patch(sweeps, "inject", lambda f: register("injection", f))

    serve_batch = tenants.SERVE_BATCH
    infer = tenants.Tenant.infer

    @functools.wraps(infer)
    def counted_infer(self, x):
        k = int(x.shape[0])
        tracer.rows[0] += k
        tracer.rows[1] += -(-k // serve_batch) * serve_batch
        return infer(self, x)

    tenants.Tenant.infer = counted_infer

    sample = span("obs.timeline.sample", FlightRecorder.sample)

    @functools.wraps(sample)
    def counted_sample(self):
        out = sample(self)
        tracer.series += len(out.points)
        return out

    FlightRecorder.sample = counted_sample


#: Per-layer metrics every traced run reports, with their units.  A
#: layer the workload never calls reports 0.
LAYER_UNITS: Dict[str, str] = {
    "serve.http.self_ms": "ms",
    "serve.http.body_bytes": "B",
    "serve.dispatch.self_ms": "ms",
    "serve.dispatch.batch_size": "count",
    "serve.dispatch.latency_ms": "ms",
    "serve.tenants.infer_ms": "ms",
    "serve.tenants.useful_row_ratio": "ratio",
    "serve.plan_ratio": "ratio",
    "core.executor.forward_ms": "ms",
    "core.compiled.run_ms": "ms",
    "core.compiled.plan_blocked_us": "us",
    "core.executor.fallbacks.fault-adapter": "count/op",
    "core.executor.fallbacks.lossy-links": "count/op",
    "core.executor.fallbacks.link-faults": "count/op",
    "core.executor.fallbacks.node-down": "count/op",
    "core.training.step_ms": "ms",
    "core.training.self_ms": "ms",
    "nn.forward_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.optimizer_ms": "ms",
    "nn.im2col_ms": "ms",
    "wsn.network.account_ms": "ms",
    "wsn.network.unicast_calls": "count/op",
    "wsn.network.unicast_ms": "ms",
    "wsn.network.delivery_ratio": "ratio",
    "wsn.network.drops.fault": "count/op",
    "wsn.network.drops.loss": "count/op",
    "wsn.network.drops.unroutable": "count/op",
    "obs.timeline.sample_ms": "ms",
    "obs.timeline.series": "count",
    "obs.timeline.samples": "count",
    "faults.runtime.infer_ms": "ms",
    "faults.runtime.retries": "count/op",
    "faults.runtime.exhausted": "count/op",
    "sim.engine.events": "count/op",
    "par.sweep.point_ms": "ms",
    "par.sweep.overhead_s": "s",
    "par.sweep.efficiency": "ratio",
    "par.sweep.shared_bytes": "B",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count/op",
}

#: span name -> per-layer metric holding its total time per operation.
_TOTAL_MS = {
    "serve.tenants": "serve.tenants.infer_ms",
    "core.executor.forward": "core.executor.forward_ms",
    "core.compiled.run": "core.compiled.run_ms",
    "core.training.step": "core.training.step_ms",
    "nn.forward": "nn.forward_ms",
    "nn.backward": "nn.backward_ms",
    "nn.optimizer": "nn.optimizer_ms",
    "nn.im2col": "nn.im2col_ms",
    "wsn.network.account": "wsn.network.account_ms",
    "wsn.network.unicast": "wsn.network.unicast_ms",
    "faults.runtime.infer": "faults.runtime.infer_ms",
}


def layer_metrics(tracer: Tracer, ops: int) -> Dict[str, float]:
    """The per-layer metrics the spans and registered objects give,
    with times and counts per operation of the workload."""
    ops = max(ops, 1)
    summary = tracer.summary()
    out = {name: 0.0 for name in LAYER_UNITS}

    def row(name: str) -> Dict[str, float]:
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    for span_name, metric in _TOTAL_MS.items():
        out[metric] = row(span_name)["total_s"] * 1e3 / ops
    out["serve.dispatch.self_ms"] = row("serve.dispatch")["self_s"] * 1e3 / ops
    out["core.training.self_ms"] = (
        row("core.training.step")["self_s"] * 1e3 / ops
    )
    blocked = row("core.compiled.plan_blocked")
    if blocked["calls"]:
        out["core.compiled.plan_blocked_us"] = (
            blocked["total_s"] * 1e6 / blocked["calls"]
        )
    for reason, count in tracer.blocked.items():
        key = f"core.executor.fallbacks.{reason}"
        if key in out:
            out[key] = count / ops
    if tracer.rows[1]:
        out["serve.tenants.useful_row_ratio"] = tracer.rows[0] / tracer.rows[1]
    out["wsn.network.unicast_calls"] = row("wsn.network.unicast")["calls"] / ops
    sample = row("obs.timeline.sample")
    out["obs.timeline.samples"] = float(sample["calls"])
    if sample["calls"]:
        out["obs.timeline.sample_ms"] = sample["total_s"] * 1e3 / sample["calls"]
        out["obs.timeline.series"] = tracer.series / sample["calls"]

    sent = delivered = 0
    drops: Dict[str, int] = {}
    for network in tracer.objects.get("network", []):
        stats = network.stats
        sent += stats.sent
        delivered += stats.delivered
        for cause, count in stats.dropped_causes.items():
            drops[cause] = drops.get(cause, 0) + count
    if sent:
        out["wsn.network.delivery_ratio"] = delivered / sent
    for cause, count in drops.items():
        key = f"wsn.network.drops.{cause}"
        if key in out:
            out[key] = count / ops

    retries = exhausted = events = 0
    for run in tracer.objects.get("injection", []):
        events += run.sim.processed
        for record in run.trace.of_kind("retry.recovered"):
            retries += record.detail["attempts"] - 1
        for record in run.trace.of_kind("degrade.transfer-failed"):
            retries += record.detail["attempts"] - 1
            exhausted += 1
    out["faults.runtime.retries"] = retries / ops
    out["faults.runtime.exhausted"] = exhausted / ops
    out["sim.engine.events"] = events / ops
    out["trace.spans"] = len(tracer.spans) / ops
    return out
