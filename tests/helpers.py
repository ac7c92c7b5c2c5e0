"""Shared fixtures for the test suite."""

import os
import time

from repro.model import Platform, TaskSystem

__all__ = [
    "running_example",
    "RUNNING_EXAMPLE_TABLE",
    "running_example_platform",
    "children_of",
    "wait_dead",
]


def running_example() -> TaskSystem:
    """The paper's running example (Example 1): m=2, n=3, T=12."""
    return TaskSystem.from_tuples([(0, 1, 2, 2), (1, 3, 4, 4), (0, 2, 2, 3)])


def running_example_platform() -> Platform:
    return Platform.identical(2)


# A hand-verified feasible schedule for the running example (0-based task
# ids: tau1=0, tau2=1, tau3=2; -1 = idle).  Utilization is 23/12, so exactly
# one of the 24 processor-slots idles.
#   tau1 @ slots 0,2,5,6,8,11 (one per window)
#   tau2 @ 1,3,4 | 5,7,8 | 9,10,11 (three per window)
#   tau3 @ 0,1 | 3,4 | 6,7 | 9,10 (both slots of each window)
RUNNING_EXAMPLE_TABLE = [
    [2, 2, 0, 2, 2, 0, 2, 2, 0, 2, 2, 0],
    [0, 1, -1, 1, 1, 1, 0, 1, 1, 1, 1, 1],
]


def _proc_stat(pid: int) -> list[str] | None:
    """The ``/proc/<pid>/stat`` fields after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def children_of(pid: int) -> list[int]:
    """Pids of the live (non-zombie) processes whose parent is ``pid``."""
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(int(entry))
            if fields and fields[0] != "Z" and int(fields[1]) == pid:
                kids.append(int(entry))
    return kids


def wait_dead(pid: int, timeout: float = 10.0) -> None:
    """Block until ``pid`` is gone or a zombie, else fail after ``timeout``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        fields = _proc_stat(pid)
        if fields is None or fields[0] == "Z":
            return
        time.sleep(0.01)
    raise AssertionError(f"process {pid} still running after {timeout}s")
