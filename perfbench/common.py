"""Process, HTTP and statistics helpers shared by the workloads."""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

#: Repository checkout the benchmark runs from (the parent of ``perfbench``).
CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
#: Scratch space inside the checkout; removed at the end of every run.
WORK_ROOT = CHECKOUT / ".perfbench_work"
#: Where traced runs write their span logs.
TRACE_DIR = CHECKOUT / ".perfbench_out"
#: Client timeout per request; a failed request is recorded at this latency.
TIMEOUT_S = 30.0
#: Client connections of the closed loop (one per vCPU of the target VM).
CONNECTIONS = 2


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def patchitpy(*args: str) -> List[str]:
    """The argv of the ``patchitpy`` console command, run from source."""
    return [sys.executable, "-m", "repro.cli", *args]


def run_child(argv: Sequence[str], cwd: Path) -> Tuple[int, str, float, float]:
    """Run one process to completion: ``(exit code, stdout, seconds, peak RSS MB)``.

    ``os.wait4`` reports the child's own peak RSS, not that of every
    process this benchmark ever reaped.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        list(argv), cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, elapsed, usage.ru_maxrss / 1024.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def get_json(port: int, path: str, timeout: float = 5.0) -> Tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
        return response.status, json.loads(body) if body[:1] == b"{" else {}
    finally:
        conn.close()


def get_text(port: int, path: str, timeout: float = 10.0) -> str:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        return conn.getresponse().read().decode("utf-8")
    finally:
        conn.close()


def wait_healthy(port: int, proc: subprocess.Popen, timeout: float,
                 ready: Callable[[dict], bool] = lambda doc: True) -> None:
    """Poll ``/healthz`` until it answers 200 and ``ready(doc)`` holds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with code {proc.returncode} during start")
        try:
            status, doc = get_json(port, "/healthz", timeout=1.0)
            if status == 200 and ready(doc):
                return
        except (OSError, http.client.HTTPException, ValueError):
            pass
        time.sleep(0.01)
    raise RuntimeError("server did not become healthy in time")


def stop(proc: subprocess.Popen, extra_pids: Sequence[int] = (), timeout: float = 20.0) -> None:
    """SIGTERM (graceful drain), then SIGKILL whatever is still running."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for pid in extra_pids:
        # Only a straggler that is still one of our daemons; never a
        # process that reused the pid.
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if b"repro.server.daemon" in handle.read():
                    os.kill(pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):
            continue


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Closed:
    """A closed loop: each connection sends its next request on a reply.

    ``bodies`` are split round-robin over ``CONNECTIONS`` keep-alive
    clients, each on its own thread.  Every request yields a latency
    sample and the decoded reply (or an error string).
    """

    def __init__(self, port: int, path: str, bodies: Sequence[bytes]):
        self.port = port
        self.path = path
        self.bodies = bodies
        # A failed request counts as a timeout, so it always misses the tail.
        self.latency: List[float] = [TIMEOUT_S] * len(bodies)
        self.replies: List[object] = [None] * len(bodies)
        self.wall = 0.0

    def _worker(self, lane: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
        headers = {"Content-Type": "application/json"}
        try:
            for i in range(lane, len(self.bodies), CONNECTIONS):
                started = time.perf_counter()
                try:
                    conn.request("POST", self.path, self.bodies[i], headers)
                    response = conn.getresponse()
                    raw = response.read()
                    if response.status != 200:
                        self.replies[i] = f"HTTP {response.status}"
                        continue
                    self.replies[i] = json.loads(raw)
                except (OSError, http.client.HTTPException, ValueError) as error:
                    self.replies[i] = f"{type(error).__name__}: {error}"
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)
                    continue
                self.latency[i] = time.perf_counter() - started
        finally:
            conn.close()

    def run(self) -> "Closed":
        threads = [threading.Thread(target=self._worker, args=(lane,))
                   for lane in range(CONNECTIONS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.wall = time.perf_counter() - started
        return self


def tail(samples: Sequence[float]) -> Tuple[float, str, int]:
    """``(value, name, samples beyond)`` of the tail percentile.

    The higher of p90 and p75 that leaves at least ten samples beyond
    it.  p99 is not used: on a shared 2-vCPU VM a few host stalls move
    it by a third from run to run, more than any useful regression
    bound.  Runs too short for either fall back to p75 and say how many
    samples lie beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for q in (90, 75):
        beyond = n - math.ceil(n * q / 100)
        if beyond >= 10 or q == 75:
            return _percentile(ordered, q), f"p{q}", beyond
    raise AssertionError("unreachable")


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of sorted samples."""
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

