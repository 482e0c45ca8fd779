"""serve: the recognition daemon under a closed loop of HTTP callers.

``repro serve --tenants fall,hvac,congestion --max-delay 0`` runs in
its own process.  This process is the one client: it keeps two
keep-alive connections (one per core of the 2-core box it was sized
on) and sends requests round-robin over the three tenants, each
caller waiting for its reply before sending again.  The tenants are
tiny (9-16 nodes), so HTTP parsing, JSON, dispatch and the fixed-shape
padding dominate.

``--max-delay 0`` because two callers can never fill the default 5 ms
batching window: latency would only measure that timer.

The loop runs for ``--seconds`` of reference time (see ``common``):
the daemon keeps a trace span per request, so its peak memory follows
the request count, which a fixed reference time keeps independent of
the machine's speed.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

import numpy as np

from common import (
    CALIBRATION_INTERVAL_S,
    calibration_kernel,
    REFERENCE_S,
    Outcome,
    Phase,
    Speedometer,
    Workload,
)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
HOST = "127.0.0.1"
TENANTS = ("fall", "hvac", "congestion")
FIELDS = {"fall": (8, 8), "hvac": (10, 10), "congestion": (12, 12)}
CONNECTIONS = 2
EPOCHS = 2
#: distinct inputs per tenant, cycled; each gets a reference forward.
POOL = 32
#: untimed closed-loop traffic before the timed loop, so connection
#: set-up and first-call caches are not measured.
WARMUP_S = 0.5
#: the longest a loop may run, in multiples of its reference seconds.
MAX_WALL = 1.5
#: how long the daemon may take to build its tenants and bind.
READY_TIMEOUT_S = 120.0
#: how long the daemon may take to drain after SIGINT.
STOP_TIMEOUT_S = 30.0
#: the line the traced launcher prints with its per-layer summary.
LAYERS_PREFIX = "E2EBENCH-LAYERS "


def daemon_args(seed: int) -> List[str]:
    return ["serve", "--tenants", ",".join(TENANTS), "--max-delay", "0",
            "--port", "0", "--seed", str(seed), "--epochs", str(EPOCHS)]


@dataclass
class State:
    seed: int
    proc: subprocess.Popen
    port: int
    requests: Dict[str, List[bytes]]
    inputs: Dict[str, np.ndarray]


def _spawn(seed: int, traced: bool) -> subprocess.Popen:
    entry = ([str(HERE / "serve_launcher.py")] if traced
             else ["-m", "repro.cli"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.Popen(
        [sys.executable, *entry, *daemon_args(seed)],
        stdout=subprocess.PIPE, env=env, text=True,
        preexec_fn=_daemon_preexec,
    )


def _cores():
    """``(client core, daemon core)``: two different cores when this
    process may use two, so the two processes never share one."""
    cores = sorted(os.sched_getaffinity(0))
    return cores[0], cores[-1]


def _daemon_preexec() -> None:
    """The daemon drains on SIGINT; a parent started in the background
    by a shell may ignore SIGINT, which the child would inherit."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    os.sched_setaffinity(0, {_cores()[1]})


def _wait_ready(proc: subprocess.Popen) -> int:
    """Read the daemon's output until it reports its port."""
    deadline = time.monotonic() + READY_TIMEOUT_S
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if line.startswith("serving on http://"):
            return int(line.strip().rsplit(":", 1)[1])
    raise RuntimeError("serve daemon exited or never became ready")


def _stop(proc: subprocess.Popen) -> dict:
    """SIGINT the daemon (it drains and exits), reap it, and return its
    peak memory plus anything the traced launcher printed."""
    if proc.returncode is None:
        proc.send_signal(signal.SIGINT)
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
    finished = {"peak_rss_mb": usage.ru_maxrss / 1024.0,
                "exit_code": proc.returncode}
    for line in rest.splitlines():
        if line.startswith(LAYERS_PREFIX):
            finished["daemon"] = json.loads(line[len(LAYERS_PREFIX):])
    return finished


def _requests(seed: int):
    """Per tenant: ``POOL`` inputs and their ready-to-send requests."""
    rng = np.random.default_rng([seed, 2])
    inputs, requests = {}, {}
    for tenant in TENANTS:
        x = rng.normal(size=(POOL,) + FIELDS[tenant])
        inputs[tenant] = x
        bodies = [json.dumps({"tenant": tenant, "input": row.tolist()})
                  .encode() for row in x]
        requests[tenant] = [
            (f"POST /v1/recognize HTTP/1.1\r\nHost: {HOST}\r\n"
             f"Content-Type: application/json\r\n"
             f"Content-Length: {len(body)}\r\n\r\n").encode() + body
            for body in bodies
        ]
    return inputs, requests


def _parse(buf: bytearray):
    """``(status, body)`` once ``buf`` holds a whole response, else
    ``None``."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = bytes(buf[:end]).split(b"\r\n")
    length = 0
    for line in head[1:]:
        name, __, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    if len(buf) < end + 4 + length:
        return None
    return int(head[0].split(b" ", 2)[1]), bytes(buf[end + 4:end + 4 + length])


def _connect(port: int) -> socket.socket:
    sock = socket.create_connection((HOST, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setblocking(False)
    return sock


class _Caller:
    """One keep-alive connection and the request in flight on it."""

    __slots__ = ("sock", "buf", "request")

    def __init__(self, port: int) -> None:
        self.sock = _connect(port)
        self.buf = bytearray()
        #: ``(index, start, bytes sent)`` of the request in flight.
        self.request = None


def _closed_loop(port: int, requests, seconds: float, speed: Speedometer):
    """``CONNECTIONS`` callers, each sending its next request when the
    previous reply has arrived, until ``seconds`` of reference time
    (wall time over the calibrated slowdown) have passed.  Returns one
    ``(index, start, latency_s, status, request_bytes, body)`` per
    request (a transport error has latency ``inf`` and status 0).

    The client polls its sockets without sleeping, so a reply is read
    the moment it lands and the daemon always has the other caller's
    request waiting: its speed, not the wake-ups between the two
    processes, sets the pace.  The client and the daemon each have a
    core of their own.  Every 100 ms the callers let their requests
    finish, and ``speed`` calibrates on both cores (the host slows
    each core on its own)."""
    clock = time.perf_counter
    allowed = os.sched_getaffinity(0)
    client_core, daemon_core = _cores()
    os.sched_setaffinity(0, {client_core})
    callers = [_Caller(port) for __ in range(CONNECTIONS)]
    records = []
    cursor = 0
    speed.window = 4

    def calibrate():
        speed.measure()
        os.sched_setaffinity(0, {daemon_core})
        calibration_kernel()  # the first run after a move is cold
        speed.measure()
        os.sched_setaffinity(0, {client_core})

    calibrate()
    speed.resume()
    due = clock() + CALIBRATION_INTERVAL_S
    reference = 0.0
    try:
        while True:
            calibrating = clock() >= due
            in_flight = False
            for caller in callers:
                if caller.request is None:
                    if calibrating:
                        continue
                    tenant = TENANTS[cursor % len(TENANTS)]
                    request = requests[tenant][(cursor // len(TENANTS)) % POOL]
                    t0 = clock()
                    caller.request = (cursor, t0, len(request))
                    cursor += 1
                    try:
                        caller.sock.sendall(request)
                    except OSError:
                        caller.request, caller.buf = None, bytearray()
                        records.append((cursor - 1, t0, float("inf"), 0,
                                        len(request), b""))
                        caller.sock.close()
                        caller.sock = _connect(port)
                    in_flight = True
                    continue
                in_flight = True
                try:
                    data = caller.sock.recv(65536)
                except BlockingIOError:
                    continue
                except OSError:
                    data = b""
                index, t0, sent = caller.request
                if not data:
                    records.append((index, t0, float("inf"), 0, sent, b""))
                    caller.request, caller.buf = None, bytearray()
                    caller.sock.close()
                    caller.sock = _connect(port)
                    continue
                caller.buf += data
                reply = _parse(caller.buf)
                if reply is not None:
                    records.append((index, t0, clock() - t0, reply[0],
                                    sent, reply[1]))
                    caller.request, caller.buf = None, bytearray()
            if calibrating and not in_flight:
                speed.pause()
                begun, ended, __ = speed.stretches[-1]
                recent = speed.durations[-speed.window:]
                reference += (ended - begun) / (
                    statistics.median(recent) / REFERENCE_S
                )
                calibrate()
                if (reference >= seconds
                        or speed.elapsed_s() >= MAX_WALL * seconds):
                    break
                speed.resume()
                due = clock() + CALIBRATION_INTERVAL_S
    finally:
        for caller in callers:
            caller.sock.close()
        os.sched_setaffinity(0, allowed)
    return records


def _get(port: int, path: str) -> bytes:
    with socket.create_connection((HOST, port), timeout=30) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: {HOST}\r\n"
                     "Connection: close\r\n\r\n".encode())
        buf = bytearray()
        reply = None
        while reply is None:
            data = sock.recv(65536)
            if not data:
                raise ConnectionError("server closed the connection")
            buf += data
            reply = _parse(buf)
    status, body = reply
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return body


def _metric_total(snapshot, name: str) -> float:
    return sum(payload for metric, __, kind, payload in snapshot
               if metric == name and kind == "counter")


class Serve(Workload):
    name = "serve"
    rate_name = "serve_rps"
    rate_unit = "req/s"
    op = "request (client send to full response)"
    shape = {
        "daemon": "repro serve --tenants fall,hvac,congestion "
                  "--max-delay 0 --epochs 2, its own process",
        "inputs": "64, 100 and 144 floats (fall, hvac, congestion)",
        "client": f"one process, {CONNECTIONS} keep-alive connections, "
                  "closed loop, round-robin over tenants",
        "sized_for_nproc": 2,
    }

    def setup(self, seed: int, traced: bool) -> State:
        proc = _spawn(seed, traced)
        try:
            port = _wait_ready(proc)
        except BaseException:
            _stop(proc)
            raise
        inputs, requests = _requests(seed)
        return State(seed, proc, port, requests, inputs)

    def discard(self, state: State) -> None:
        _stop(state.proc)

    def calibrate_setup(self, speed: Speedometer) -> None:
        """On the daemon's core: the tenants are built and trained there."""
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {_cores()[1]})
        try:
            calibration_kernel()  # the first run after a move is cold
            super().calibrate_setup(speed)
        finally:
            os.sched_setaffinity(0, allowed)

    def loop(self, state: State, seconds: float) -> Phase:
        warm = _closed_loop(state.port, state.requests, WARMUP_S,
                            Speedometer())
        speed = Speedometer()
        records = _closed_loop(state.port, state.requests, seconds, speed)
        snapshot = json.loads(_get(state.port, "/metrics?format=json"))
        responses, latencies, starts = [], [], []
        failed = 0
        for i, t0, latency, status, sent, body in records:
            reply = None
            if status == 200:
                try:
                    reply = json.loads(body)
                except ValueError:
                    pass
            ok = reply is not None
            latencies.append(latency if ok else float("inf"))
            starts.append(t0)
            failed += not ok
            responses.append((i, reply, sent + len(body)))
        return Phase(units=len(records) - failed, latencies_s=latencies,
                     starts_s=starts, speed=speed,
                     attempted=len(records),
                     failed=failed,
                     data={"responses": responses, "warmup": warm,
                           "metrics": snapshot})

    def verify(self, state: State, phase: Phase, out: Outcome) -> None:
        from repro.serve import TenantConfig, build_tenant

        refs = {}
        for tenant in TENANTS:
            built = build_tenant(TenantConfig(
                name=tenant, scenario=tenant, seed=state.seed,
                train_epochs=EPOCHS,
            ))
            x = state.inputs[tenant][:, np.newaxis, np.newaxis]
            refs[tenant] = [built.direct_forward(row).tobytes() for row in x]
        wrong = not_plan = 0
        for i, reply, __ in phase.data["responses"]:
            if reply is None:
                continue
            tenant = TENANTS[i % len(TENANTS)]
            want = refs[tenant][(i // len(TENANTS)) % POOL]
            got = np.asarray([reply["logits"]], dtype=np.float64).tobytes()
            wrong += got != want or reply["tenant"] != tenant
            not_plan += reply["served_by"] != "plan"
        answered = len(phase.data["responses"]) - phase.failed
        out.check("serve.logits_equal_direct_forward", wrong == 0,
                  f"{wrong} of {answered} replies differ")
        out.check("serve.served_by_plan", not_plan == 0,
                  f"{not_plan} replies were not served by the plan")
        counted = _metric_total(phase.data["metrics"], "serve.requests")
        sent = len(phase.data["responses"]) + len(phase.data["warmup"])
        out.check("serve.metrics_count_requests", counted == sent,
                  f"/metrics serve.requests {counted} != {sent} sent")

    def finish(self, state: State) -> dict:
        return _stop(state.proc)

    def layers(self, state, base, traced, finished) -> dict:
        daemon = finished.get("daemon")
        if daemon is None:
            raise RuntimeError("the traced daemon printed no layer summary")
        out = dict(daemon["layers"])
        replies = [(reply, size) for __, reply, size
                   in traced.data["responses"] if reply is not None]
        n = max(len(replies), 1)
        out["serve.http.self_ms"] = (
            1e3 * sum(t for t in traced.latencies_s if t != float("inf")) / n
            - daemon["submit_ms"]
        )
        out["serve.http.body_bytes"] = sum(size for __, size in replies) / n
        out["serve.dispatch.batch_size"] = (
            sum(reply["batch_size"] for reply, __ in replies) / n
        )
        out["serve.dispatch.latency_ms"] = (
            1e3 * sum(reply["latency_s"] for reply, __ in replies) / n
        )
        snapshot = traced.data["metrics"]
        batches = _metric_total(snapshot, "serve.batches")
        if batches:
            out["serve.plan_ratio"] = (
                _metric_total(snapshot, "serve.plan_runs") / batches
            )
        return out
