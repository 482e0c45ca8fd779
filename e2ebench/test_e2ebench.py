"""Tests of the benchmark itself: corrupted outputs fail its checks,
and every metric name follows the naming rule.

Run from the root of a checkout::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from chaos_workload import Chaos, State as ChaosState  # noqa: E402
from common import (  # noqa: E402
    REFERENCE_S, Outcome, Phase, Speedometer, window_tail,
)
from district_workload import District  # noqa: E402
from serve_workload import Serve  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402
from train_workload import Train  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _failed(out: Outcome, name: str) -> bool:
    return any(check == name and not ok for check, ok, __ in out.checks)


def _flip_byte(values: np.ndarray, index: int = 0) -> np.ndarray:
    """``values`` with one bit of its ``index``-th byte flipped; byte 0
    is the lowest mantissa byte of the first float (a 1-ulp change)."""
    raw = bytearray(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    raw[index] ^= 0x01
    return np.frombuffer(bytes(raw), dtype=np.float64).reshape(values.shape)


# -- naming ------------------------------------------------------------------
def test_metric_names_and_units_follow_the_rule():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric


def test_spec_lists_exactly_the_metrics_the_command_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS
    assert {w["name"] for w in SPEC["workloads"]} == set(run.workloads())


# -- scaling -------------------------------------------------------------------
def _speedometer(durations_ms, stretches):
    speed = Speedometer()
    speed.window = 1
    speed.durations = [d * REFERENCE_S for d in durations_ms]
    speed.stretches = stretches
    return speed


def test_each_stretch_is_scaled_by_the_calibrations_beside_it():
    # a fast stretch (slowdown 1) then a slow one (slowdown 2)
    speed = _speedometer([1.0, 1.0, 2.0], [(0.0, 1.0, 1), (1.0, 3.0, 2)])
    assert speed.stretch_slowdowns() == [1.0, 1.5]
    speed.stretches[1] = (1.0, 3.0, 3)
    speed._slowdowns = None
    assert speed.stretch_slowdowns() == [1.0, 2.0]
    assert speed.reference_s() == pytest.approx(2.0)
    phase = Phase(units=4, latencies_s=[0.1, 0.4], starts_s=[0.5, 2.0],
                  speed=speed, attempted=2, failed=0)
    assert phase.scaled_latencies() == pytest.approx([0.1, 0.2])
    assert phase.scaled_rate() == pytest.approx(2.0)
    assert phase.raw_rate() == pytest.approx(4 / 3)


def test_window_tail_picks_on_raw_latencies():
    # each window's raw p75 is its larger value, divided by its own
    # slowdown (4 / 2 and 6 / 2); picked on scaled latencies, the small
    # value with an underestimated slowdown (1 / 0.1) would be the tail
    latencies = [1.0, 4.0, 1.0, 6.0]
    slowdowns = [0.1, 2.0, 0.1, 2.0]
    assert window_tail(latencies, slowdowns, 0.75, 2) == pytest.approx(2.5)
    assert window_tail([1.0, float("inf")], [1.0, 1.0], 0.75, 2) == (
        float("inf")
    )


# -- corrupted outputs fail the checks -----------------------------------------
@pytest.fixture(scope="module")
def district_run():
    wl = District()
    state = wl.setup(3, traced=False)
    phase = wl.loop(state, 0.2)
    return wl, state, phase


def test_district_passes_uncorrupted(district_run):
    wl, state, phase = district_run
    out = Outcome()
    wl.verify(state, phase, out)
    assert out.correct, out.checks


def test_district_flipped_logit_byte_fails(district_run):
    wl, state, phase = district_run
    outputs = phase.data["outputs"]
    saved = outputs[-1]
    outputs[-1] = _flip_byte(saved)
    try:
        out = Outcome()
        wl.verify(state, phase, out)
    finally:
        outputs[-1] = saved
    assert _failed(out, "district.logits_equal_centralized")
    assert not out.correct


def test_district_miscounted_counter_fails(district_run):
    wl, state, phase = district_run
    node = state.network.topology.node(0)
    node.tx_values += 1
    try:
        out = Outcome()
        wl.verify(state, phase, out)
    finally:
        node.tx_values -= 1
    assert _failed(out, "district.traffic_matches_oracle")


def test_chaos_wrong_digest_fails():
    from repro.faults.sweeps import build_chaos_shared
    from repro.par import make_points

    wl = Chaos()
    state = ChaosState(build_chaos_shared(0), make_points(seeds=[0, 1]), 1)
    phase = wl.loop(state, 0.01)
    out = Outcome()
    wl.verify(state, phase, out)
    assert out.correct, out.checks
    sweep = phase.data["sweeps"][0]
    sweep.digest = sweep.digest[::-1]
    out = Outcome()
    wl.verify(state, phase, out)
    assert _failed(out, "chaos.digest_equals_serial")


def test_train_flipped_weight_byte_fails():
    wl = Train()
    state = wl.setup(2, traced=False)
    phase = wl.loop(state, 0.05)
    out = Outcome()
    wl.verify(state, phase, out)
    assert out.correct, out.checks
    weights = phase.data["early_weights"]
    # Byte 6 holds the high mantissa bits: the tolerance the check
    # allows the reference backward is far below that change.
    weights[0] = _flip_byte(weights[0], index=6)
    out = Outcome()
    wl.verify(state, phase, out)
    assert _failed(out, "train.weights_match_reference")


@pytest.fixture(scope="module")
def serve_run():
    wl = Serve()
    state = wl.setup(4, traced=False)
    try:
        phase = wl.loop(state, 0.3)
    finally:
        finished = wl.finish(state)
    assert finished["exit_code"] == 0
    return wl, state, phase


def test_serve_passes_uncorrupted(serve_run):
    wl, state, phase = serve_run
    out = Outcome()
    wl.verify(state, phase, out)
    assert out.correct, out.checks


def test_serve_flipped_logit_byte_fails(serve_run):
    wl, state, phase = serve_run
    reply = phase.data["responses"][0][1]
    saved = list(reply["logits"])
    reply["logits"] = _flip_byte(np.asarray(saved)).tolist()
    try:
        out = Outcome()
        wl.verify(state, phase, out)
    finally:
        reply["logits"] = saved
    assert _failed(out, "serve.logits_equal_direct_forward")


def test_serve_miscounted_requests_fail(serve_run):
    wl, state, phase = serve_run
    snapshot = phase.data["metrics"]
    row = next(r for r in snapshot if r[0] == "serve.requests")
    row[3] += 1
    try:
        out = Outcome()
        wl.verify(state, phase, out)
    finally:
        row[3] -= 1
    assert _failed(out, "serve.metrics_count_requests")


# -- the command ----------------------------------------------------------------
def test_command_prints_the_contract_json(capsys):
    assert run.main(["--workload", "train", "--seed", "0",
                     "--seconds", "0.2", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        run.E2E_UNITS


def test_command_fails_on_a_corrupted_output(monkeypatch, capsys):
    loop = Train.loop

    def corrupted(self, state, seconds):
        phase = loop(self, state, seconds)
        phase.data["early_weights"][0] = phase.data["early_weights"][0] + 1.0
        return phase

    monkeypatch.setattr(Train, "loop", corrupted)
    assert run.main(["--workload", "train", "--seed", "0",
                     "--seconds", "0.2", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def _command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_traced_command_reports_every_layer_metric():
    # In a child process: tracing wraps repro's classes for good.
    proc = _command("--workload", "train", "--seed", "0",
                    "--seconds", "0.4", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYER_UNITS
    assert result["metrics"]["core.training.step_ms"]["value"] > 0


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command("--workload", "train", "--seed", "0",
                    "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
