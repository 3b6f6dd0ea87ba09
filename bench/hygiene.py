"""Environment fingerprint and process / shared-memory hygiene of a run."""

from __future__ import annotations

import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SHM = Path("/dev/shm")
#: Every shared-memory segment the library creates carries this prefix.
SEGMENT_PREFIX = "repro-stl"
#: Sessions this run started (the server child leads its own); their members
#: count as this run's processes even when no live ancestor links them to it.
SESSIONS: list[int] = []


def fingerprint(seed: int) -> dict[str, Any]:
    """What two results must share to be comparable."""
    try:
        import numpy

        numpy_version: str | None = numpy.__version__
    except ImportError:  # kernels silently fall back to scalar: not comparable
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "comparable": numpy_version is not None,
        "git": git_state(),
        "switch_interval": sys.getswitchinterval(),
        "load_average": os.getloadavg()[0],
        "seed": seed,
    }


def git_state() -> dict[str, Any] | None:
    """Commit and dirty flag, or ``None`` outside a git checkout."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if sha.returncode != 0:
        return None
    return {"sha": sha.stdout.strip(), "dirty": bool(status.stdout.strip())}


def process_table() -> dict[int, tuple[int, int]]:
    """``pid -> (parent pid, session id)`` of every live process."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # exited while we were listing
            continue
        # Fields after the parenthesised command name: state ppid pgrp session
        fields = stat[stat.rindex(")") + 2 :].split()
        if fields[0] != "Z":
            table[int(entry)] = (int(fields[1]), int(fields[3]))
    return table


def _is_resource_tracker(pid: int) -> bool:
    """The standard library's shared-memory tracker: ``shutdown`` stops it last."""
    try:
        return b"multiprocessing.resource_tracker" in Path("/proc", str(pid), "cmdline").read_bytes()
    except OSError:
        return False


def adopt_orphans() -> None:
    """Make this process the reaper of every descendant (``PR_SET_CHILD_SUBREAPER``).

    A worker whose parent died (the server child's pool, say) is then
    re-parented to this process instead of to init, so ``shutdown`` can wait
    for it; where the call is unavailable, descendants are still found by
    their session.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def descendants() -> list[int]:
    """Every live process below this one or in one of ``SESSIONS``."""
    table = process_table()
    me = os.getpid()
    found = []
    for pid, (parent, session) in table.items():
        if pid == me:
            continue
        ancestor = parent
        while ancestor not in (0, 1, me) and ancestor in table:
            ancestor = table[ancestor][0]
        if ancestor == me or session in SESSIONS:
            found.append(pid)
    return found


def _kill(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def shutdown() -> None:
    """Stop every process this run started and wait until each has ended.

    Called on every path out of the benchmark.  Stragglers are killed, the
    shared-memory tracker (which otherwise outlives its parent by a moment)
    is stopped through its own protocol, and every child -- adopted orphans
    included -- is reaped, so no process and no zombie is left behind.
    """
    _kill([pid for pid in descendants() if not _is_resource_tracker(pid)])
    try:
        from multiprocessing import resource_tracker

        # Nothing may register with the tracker after this: indexes are closed.
        resource_tracker._resource_tracker._stop()  # type: ignore[attr-defined]
    except (ImportError, AttributeError, OSError):
        pass
    _kill(descendants())
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break
    # Without the subreaper call a killed session member may belong to init.
    deadline = time.monotonic() + 10.0
    while descendants() and time.monotonic() < deadline:
        time.sleep(0.02)


class Watch:
    """Diff of ``/dev/shm`` and the process table around one run."""

    def __init__(self) -> None:
        self._segments = set(os.listdir(SHM)) if SHM.is_dir() else set()

    def _stragglers(self) -> list[int]:
        return [pid for pid in descendants() if not _is_resource_tracker(pid)]

    def leftovers(self) -> tuple[int, float]:
        """``(leaked processes, leaked segment MB)``; both are removed."""
        leaked = self._stragglers()
        if leaked:
            # Worker teardown is asynchronous; only what survives a grace
            # period is a leak.
            time.sleep(1.0)
            leaked = self._stragglers()
        _kill(leaked)
        leaked_bytes = 0
        if SHM.is_dir():
            for name in set(os.listdir(SHM)) - self._segments:
                if not name.startswith(SEGMENT_PREFIX):
                    continue
                path = SHM / name
                try:
                    leaked_bytes += path.stat().st_size
                    path.unlink()
                except OSError:
                    pass
        return len(leaked), leaked_bytes / 1e6
