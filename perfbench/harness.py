"""Process-tree execution and summary statistics for the benchmark.

Every command of a workload runs as a child process of the benchmark.
:func:`run_command` times it from spawn to exit, reads the user+system
CPU and the peak resident set of the whole tree from ``wait4`` (the
kernel folds in every descendant the command itself waited for), and
afterwards reaps any process the command left behind.  The benchmark
makes itself a child subreaper, so a worker orphaned by the command is
re-parented here instead of to init: it is counted, killed and waited
for, and no process outlives the benchmark.
"""

from __future__ import annotations

import ctypes
import math
import os
import signal
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

_PR_SET_CHILD_SUBREAPER = 36
#: How long processes a command left behind may take to exit on their
#: own (a multiprocessing resource tracker exits once its parent is
#: gone) before they are counted as leaked and killed.
_ORPHAN_GRACE_S = 2.0


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux); False where unsupported."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


@dataclass(frozen=True)
class Completed:
    """One finished command and what it cost."""

    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    #: Pids of descendants still alive ``_ORPHAN_GRACE_S`` after the
    #: command exited; they were killed and reaped by the benchmark.
    leaked: tuple[int, ...]


def _own_children() -> list[int]:
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name, which
        # may itself contain spaces or parentheses.
        fields = stat[stat.rfind(b")") + 2 :].split()
        if int(fields[1]) == me:
            children.append(int(entry))
    return children


def _reap_exited() -> None:
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_orphans() -> tuple[int, ...]:
    """Wait briefly for adopted orphans, then kill and reap the rest.

    Returns the pids that had to be killed.
    """
    deadline = time.monotonic() + _ORPHAN_GRACE_S
    while True:
        _reap_exited()
        alive = _own_children()
        if not alive or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            continue
    for pid in alive:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    return tuple(alive)


def run_command(
    argv: list[str], *, cwd: Path, env: dict[str, str], timeout_s: float
) -> Completed:
    """Run ``argv`` to completion; a command over ``timeout_s`` is killed."""
    out_path = cwd / ".cmd.stdout"
    err_path = cwd / ".cmd.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(
            timeout_s, lambda: _kill_group(proc.pid)
        )
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    leaked = reap_orphans()
    return Completed(
        rc=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
        leaked=leaked,
    )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float | None:
    """The ``q`` quantile, or None unless 10 samples lie beyond it."""
    n = len(values)
    pos = q * (n - 1)
    lo = math.floor(pos + 1e-9)
    if n == 0 or (n - 1) - lo < 10:
        return None
    ordered = sorted(values)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
