"""Compiled inference plans: the forward path on ideal links.

On ideal links the per-layer communication pattern of a placed CNN is
fully static between topology changes, so nothing about a forward pass
needs to be decided at run time: the routes and the per-link traffic
are functions of the placement and the topology alone.  This package
"compiles" that structure, once per topology epoch, into a flat
ndarray program — hop groups with one batched traffic-accounting
update each (the ``traffic_replay_batched`` trick generalized to the
whole forward), unroutable messages included — which
:meth:`CompiledPlan.run` then executes without touching the event
loop.  A crash, brownout, recovery or move costs one recompile.

The event-driven :class:`repro.core.DistributedExecutor` path stays
as the parity oracle (the differential suite pins byte-identical
logits and exactly equal traffic counters), and the executor falls
back to it only while a lossy link model or an installed link-fault
model draws per-message randomness.

Import discipline: nothing in this package may import
:mod:`repro.sim` or ``networkx`` — the hot path can never regress into
the event loop, and routes come only from the network's router, so the
plan and the oracle cannot diverge.  An AST lint in the test suite
enforces it.
"""

from repro.core.compiled.plan import CompiledPlan, HopProgram
from repro.core.compiled.compiler import PlanNotCompilable, compile_plan

__all__ = [
    "CompiledPlan",
    "HopProgram",
    "PlanNotCompilable",
    "compile_plan",
]
