"""A ``--jobs`` daemon and its pool processes live and die together.

The analysis pool's processes are forked from a daemon whose event loop
owns SIGTERM/SIGINT.  These tests pin what each side does when the
other goes: a signal sent to a pool process stays in that process, a
dead pool process costs one pool replacement and one retry (never a
500, a drain or a hang), and a dead daemon leaves no pool process
behind.  Every wait is bounded at 5 s.

The subprocess cases read ``/proc`` to find a daemon's children, so
they run on Linux only.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List

import pytest

from repro.server.app import BackgroundServer, PatchitPyServer, ServerConfig
from repro.server.client import ServerClient

VULN = "import pickle\n\ndata = pickle.loads(blob)\n"
BOUND_S = 5.0
SRC = Path(__file__).resolve().parent.parent / "src"

linux_only = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads /proc for child pids"
)


def _stat(pid: int) -> List[str]:
    """The fields of ``/proc/<pid>/stat`` after the command name."""
    text = Path(f"/proc/{pid}/stat").read_text()
    return text[text.rindex(")") + 2 :].split()


def _alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        return _stat(pid)[0] not in ("Z", "X")
    except (FileNotFoundError, ProcessLookupError):
        return False


def _children(pid: int) -> List[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if int(_stat(int(entry.name))[1]) == pid:
                    found.append(int(entry.name))
            except (OSError, ValueError, IndexError):
                continue  # exited while we looked
    return found


def _wait_until(predicate: Callable[[], bool], timeout_s: float = BOUND_S) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return predicate()


@pytest.fixture
def daemon(tmp_path):
    """A ``--jobs 2`` daemon subprocess that has served four analyses.

    Yields ``(process, client, pool_pids)``; whatever is still running
    at teardown is SIGKILLed, pool processes included.
    """
    port_file = tmp_path / "port"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.server.daemon",
            "--port", "0", "--port-file", str(port_file), "--jobs", "2",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    pool_pids: List[int] = []
    try:
        assert _wait_until(port_file.exists, 60.0), "daemon did not bind"
        port = int(port_file.read_text())
        with ServerClient(port=port, timeout=BOUND_S) as client:
            for _ in range(4):
                assert client.analyze(VULN)["vulnerable"] is True
            assert _wait_until(lambda: len(_children(proc.pid)) == 2)
            pool_pids.extend(_children(proc.pid))
            yield proc, client, pool_pids
    finally:
        for pid in [proc.pid, *pool_pids, *_children(proc.pid)]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.wait()


@linux_only
def test_a_killed_daemon_leaves_no_pool_process(daemon):
    proc, _client, pool_pids = daemon
    proc.kill()
    proc.wait()
    assert _wait_until(lambda: not any(_alive(pid) for pid in pool_pids)), [
        pid for pid in pool_pids if _alive(pid)
    ]


@linux_only
def test_sigterm_to_a_pool_process_stays_in_that_process(daemon):
    proc, client, pool_pids = daemon
    os.kill(pool_pids[0], signal.SIGTERM)
    assert _wait_until(lambda: not _alive(pool_pids[0])), "SIGTERM did not end it"
    assert client.analyze(VULN)["vulnerable"] is True
    assert client.healthz()["status"] == "ok"
    assert proc.poll() is None  # the daemon neither drained nor exited


@linux_only
def test_sigkill_of_a_pool_process_keeps_the_daemon_serving_and_stoppable(daemon):
    proc, client, pool_pids = daemon
    os.kill(pool_pids[0], signal.SIGKILL)
    assert client.analyze(VULN)["vulnerable"] is True
    assert client.healthz()["status"] == "ok"
    assert proc.poll() is None
    # the broken pool's survivor was terminated, not left behind
    assert _wait_until(lambda: not any(_alive(pid) for pid in pool_pids))
    proc.terminate()
    assert proc.wait(timeout=BOUND_S) == 0  # a clean drain, no hang at exit


def test_a_broken_pool_is_replaced_once_and_the_unit_retried():
    """In-process, with no signal handlers: the unit that meets the
    broken pool is answered from a fresh one, and so is the next."""
    server = PatchitPyServer(config=ServerConfig(port=0, jobs=2))
    with BackgroundServer(server) as handle:
        with ServerClient(port=handle.port, timeout=BOUND_S) as client:
            assert client.analyze(VULN)["vulnerable"] is True
            broken = server._pool
            victim = next(iter(broken._processes))
            os.kill(victim, signal.SIGKILL)
            assert _wait_until(lambda: broken._broken)
            assert client.analyze(VULN)["vulnerable"] is True
            assert client.analyze(VULN)["vulnerable"] is True
            assert server._pool is not broken
    assert server.metrics.counters["server_pool_restarts"] == 1
