"""Property test: serving is interleaving-invariant.

For any seeded interleaving of N concurrent requests — random tenant
choice, random clock advances between submits, random batching knobs —
the multiset of returned logits equals the serial baseline (a direct
fixed-shape forward of the same inputs), and the accounting invariant
``serve.requests == sum of serve.batch_size histogram mass`` holds.
Everything runs on the fake clock: hundreds of schedules, zero real
sleeps.
"""

import numpy as np
import pytest

from repro.faults.links import LinkFaultModel
from repro.serve import BatchPolicy
from repro.serve.testing import ServeHarness

TENANTS = ("fall", "hvac")


def random_policy(rng) -> BatchPolicy:
    return BatchPolicy(
        max_batch=int(rng.integers(1, 6)),
        # Include the synchronous fast path (max_delay=0) in the space.
        max_delay=float(rng.choice([0.0, 0.001, 0.005, 0.02])),
        max_pending=256,
    )


def run_interleaving(seed: int, n_requests: int = 24):
    """One seeded schedule: returns (harness, submitted, futures)."""
    rng = np.random.default_rng(seed)
    harness = ServeHarness(tenants=TENANTS, policy=random_policy(rng))
    submitted = {name: [] for name in TENANTS}
    futures = []
    for __ in range(n_requests):
        name = TENANTS[int(rng.integers(len(TENANTS)))]
        x = harness.make_input(name)
        submitted[name].append(x)
        futures.append((name, harness.submit(name, x)))
        # Sometimes let time pass (maybe past the window), sometimes
        # submit back-to-back within the same instant.
        if rng.random() < 0.5:
            harness.advance(float(rng.choice([0.0005, 0.002, 0.01, 0.05])))
    harness.drain()  # serve whatever is still pending
    return harness, submitted, futures


@pytest.mark.parametrize("seed", range(12))
def test_any_interleaving_matches_the_serial_baseline(seed):
    harness, submitted, futures = run_interleaving(seed)
    # Every accepted request resolved with a result.
    assert all(future.done() for __, future in futures)

    # Multiset of served logits == multiset of the serial baseline.
    served = {name: [] for name in TENANTS}
    for name, future in futures:
        served[name].append(future.result().logits.tobytes())
    for name in TENANTS:
        if not submitted[name]:
            continue
        baseline = harness.direct(name, submitted[name])
        expected = [baseline[i].tobytes()
                    for i in range(baseline.shape[0])]
        assert sorted(served[name]) == sorted(expected), (
            f"seed {seed}: served logits multiset diverged for {name}"
        )

    # Accounting invariant: every request observed in exactly one batch.
    assert harness.metric_total("serve.requests") == float(len(futures))
    assert harness.batch_size_mass() == float(len(futures))


@pytest.mark.parametrize("seed", range(6))
def test_interleavings_are_reproducible(seed):
    """Same seed, same schedule: the exact result bytes and metric
    totals come out twice."""
    first = run_interleaving(seed, n_requests=10)
    second = run_interleaving(seed, n_requests=10)
    for (name_a, fut_a), (name_b, fut_b) in zip(first[2], second[2]):
        assert name_a == name_b
        assert (fut_a.result().logits.tobytes()
                == fut_b.result().logits.tobytes())
        assert fut_a.result().batch_size == fut_b.result().batch_size
        assert fut_a.result().latency_s == fut_b.result().latency_s
    assert (first[0].metric_total("serve.batches")
            == second[0].metric_total("serve.batches"))


def test_fault_interleaving_keeps_the_multiset_property():
    """The property survives a mid-stream fault: requests served by
    the event-driven oracle return the same bytes as the plan path
    (same math, different traffic accounting)."""
    harness = ServeHarness(
        tenants=TENANTS, policy=BatchPolicy(max_batch=3, max_delay=0.01)
    )
    rng = np.random.default_rng(42)
    submitted = {name: [] for name in TENANTS}
    futures = []
    fall = harness.pool.require("fall")
    for i in range(16):
        if i == 6:  # fault appears
            fall.network.link_faults = LinkFaultModel(loss_rate=0.2, seed=6)
        if i == 12:
            fall.network.link_faults = None  # and heals
        name = TENANTS[int(rng.integers(len(TENANTS)))]
        x = harness.make_input(name)
        submitted[name].append(x)
        futures.append((name, harness.submit(name, x)))
        if rng.random() < 0.4:
            harness.advance(0.01)
    harness.drain()
    served_by = {future.result().served_by for __, future in futures}
    assert "plan" in served_by  # both paths were actually exercised
    assert any(s.startswith("fallback:") for s in served_by)
    for name in TENANTS:
        baseline = harness.direct(name, submitted[name])
        expected = sorted(
            baseline[i].tobytes() for i in range(baseline.shape[0])
        )
        got = sorted(
            future.result().logits.tobytes()
            for n, future in futures if n == name
        )
        assert got == expected
    assert harness.metric_total("serve.requests") == 16.0
    assert harness.batch_size_mass() == 16.0
