"""Process-tree accounting from ``/proc``: CPU, peak RSS, orphans, shm leftovers.

The server child spawns ``shardd`` daemons and pool workers; the end-to-end
CPU and memory metrics cover the child **and all its descendants**, read by
the harness from outside.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_SHM_DIR = Path("/dev/shm")
_PR_SET_CHILD_SUBREAPER = 36


@dataclass(frozen=True)
class ProcessSample:
    """One process's identity and counters at one instant."""

    pid: int
    parent: int
    #: Start time in clock ticks since boot; with the pid it names a process
    #: uniquely, so a recycled pid is never mistaken for a survivor.
    started: int
    cpu_seconds: float
    peak_rss_mib: float


def sample(pid: int) -> ProcessSample | None:
    """Counters of one process, or ``None`` once it is gone (or a zombie)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        status = Path(f"/proc/{pid}/status").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    # The command name may contain spaces and parentheses; fields after the
    # last ')' are positional: state(0) ppid(1) ... utime(11) stime(12) ...
    # starttime(19).
    fields = stat[stat.rindex(")") + 2 :].split()
    if fields[0] == "Z":
        return None
    peak_kib = 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            peak_kib = int(line.split()[1])
            break
    return ProcessSample(
        pid=pid,
        parent=int(fields[1]),
        started=int(fields[19]),
        cpu_seconds=_cpu_seconds(pid, (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS),
        peak_rss_mib=peak_kib / 1024.0,
    )


def _cpu_seconds(pid: int, ticked: float) -> float:
    """CPU time of all the process's threads, to the nanosecond where the
    kernel keeps scheduler statistics; else ``ticked`` (10-ms clock ticks)."""
    try:
        nanoseconds = sum(
            int((task / "schedstat").read_text().split()[0])
            for task in Path(f"/proc/{pid}/task").iterdir()
        )
    except (OSError, ValueError, IndexError):
        return ticked
    return nanoseconds / 1e9 if nanoseconds else ticked


def tree(root: int) -> dict[int, ProcessSample]:
    """``root`` and every live descendant, keyed by pid."""
    samples: dict[int, ProcessSample] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            found = sample(int(entry))
            if found is not None:
                samples[found.pid] = found
    children: dict[int, list[int]] = {}
    for found in samples.values():
        children.setdefault(found.parent, []).append(found.pid)
    members: dict[int, ProcessSample] = {}
    stack = [root]
    while stack:
        pid = stack.pop()
        if pid in samples and pid not in members:
            members[pid] = samples[pid]
            stack.extend(children.get(pid, []))
    return members


def cpu_delta(
    before: dict[int, ProcessSample], after: dict[int, ProcessSample]
) -> dict[int, float]:
    """CPU seconds each process of ``after`` burned since ``before``."""
    deltas = {}
    for pid, late in after.items():
        early = before.get(pid)
        base = early.cpu_seconds if early is not None and early.started == late.started else 0.0
        deltas[pid] = late.cpu_seconds - base
    return deltas


def survivors(members: dict[int, ProcessSample]) -> list[int]:
    """Pids of ``members`` that are still alive (same pid *and* start time)."""
    alive = []
    for pid, known in members.items():
        now = sample(pid)
        if now is not None and now.started == known.started:
            alive.append(pid)
    return alive


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants.

    With ``PR_SET_CHILD_SUBREAPER`` a grandchild whose parent has ended (the
    server child's resource tracker, an orphaned daemon) becomes *our* child
    instead of init's, so :func:`end_descendants` can wait for it.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, as before


def end_descendants(timeout_s: float = 10.0) -> list[str]:
    """Kill and reap every process still below this one; describe the unexpected ones.

    Called once, when the benchmark is done and about to exit.  The
    interpreter's own ``multiprocessing`` resource tracker is still there by
    design: it ends only once its parent has, so it would outlive the
    benchmark by a moment (and linger as a zombie until init reaps it) — long
    enough to be seen as a process the benchmark left running.  Anything else
    found here escaped the per-workload orphan check and is a failure.
    """
    me = os.getpid()
    unexpected: list[str] = []
    killed = {me}  # never ourselves, and nobody twice: a dying process has no command line
    deadline = time.monotonic() + timeout_s
    while True:
        for pid in tree(me).keys() - killed:
            try:
                command = Path(f"/proc/{pid}/cmdline").read_bytes().replace(b"\0", b" ")
                os.kill(pid, signal.SIGKILL)
            except (FileNotFoundError, ProcessLookupError):
                continue
            killed.add(pid)
            # (Nor has one that was already on its way out when we looked.)
            if command.strip() and b"multiprocessing.resource_tracker" not in command:
                unexpected.append(f"left running: {command.decode(errors='replace').strip()}")
        # Reap what ended, adopted orphans and earlier zombies included.
        try:
            while os.waitpid(-1, os.WNOHANG) != (0, 0):
                pass
        except ChildProcessError:
            return unexpected  # no child left, alive or zombie
        if time.monotonic() > deadline:
            return [*unexpected, "descendants still alive after SIGKILL"]
        time.sleep(0.005)


def shm_blocks() -> set[str]:
    """Names of the engine's shared-memory blocks currently in ``/dev/shm``."""
    if not _SHM_DIR.is_dir():
        return set()
    return {entry.name for entry in _SHM_DIR.glob("psq*")}
