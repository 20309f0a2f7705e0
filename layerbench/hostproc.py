"""Host-side helpers: process trees, peak RSS, child-process set-up timing."""

import os
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import nominal

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"  # trace files, port files (git-ignored)
SETUP_REPEATS = 7  # fresh interpreters timed per run; the median is reported
# Every CPU this benchmark may use, read at import, before any pinning.
HOST_CPUS = frozenset(os.sched_getaffinity(0))


def child_env():
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def read_status_kb(pid, field):
    """A ``kB`` field of ``/proc/<pid>/status`` (None if the pid is gone)."""
    try:
        with open("/proc/%d/status" % pid) as stream:
            for line in stream:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        return None
    return None


def parent_map(proc="/proc"):
    """{pid: parent pid} for every process visible in *proc*."""
    parents = {}
    for entry in os.listdir(proc):
        if not entry.isdigit():
            continue
        try:
            with open("%s/%s/stat" % (proc, entry)) as stream:
                stat = stream.read()
        except (FileNotFoundError, ProcessLookupError):
            continue
        # The command name may hold spaces and parentheses; the fields
        # after the last ')' are fixed: state, then the parent pid.
        fields = stat[stat.rindex(")") + 2:].split()
        parents[int(entry)] = int(fields[1])
    return parents


def process_tree(root, parents):
    """*root* and all of its descendants, given a {pid: ppid} map."""
    children = {}
    for pid, ppid in parents.items():
        children.setdefault(ppid, []).append(pid)
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return sorted(tree)


def tree_peak_rss_kb(root, parents=None, read_kb=read_status_kb):
    """Sum of the peak RSS (``VmHWM``) of *root* and its descendants."""
    parents = parent_map() if parents is None else parents
    total = 0
    for pid in process_tree(root, parents):
        value = read_kb(pid, "VmHWM")
        if value:
            total += value
    return total


def pin_to_one_cpu():
    """Keep this process (and the children it starts) on one CPU.

    The two vCPUs of the host this was built on run at speeds that differ
    by up to 15% from moment to moment, so a process that migrates
    between them is timed on one CPU and calibrated on the other.  Pinned,
    the calibration loop measures the CPU the work runs on.
    """
    os.sched_setaffinity(0, {max(HOST_CPUS)})


def self_peak_rss_mb():
    return read_status_kb(os.getpid(), "VmHWM") / 1024.0


def time_child_setup(kind):
    """Seconds from spawning ``setup_probe.py <kind>`` to its ready line.

    This is what a user pays before the first simulated instruction:
    interpreter start, ``repro`` imports, building the program and
    attaching the profiling stack, in a fresh interpreter.
    """
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), kind],
        stdout=subprocess.PIPE, env=child_env(), cwd=str(ROOT))
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        child.stdout.close()
        child.wait(timeout=60)
    if line.strip() != b"ready" or child.returncode != 0:
        raise RuntimeError("setup probe %r failed (exit %s)"
                           % (kind, child.returncode))
    return elapsed


def timed_setup(kind, speed):
    """One set-up time at nominal host speed (see ``hostspeed``)."""
    before = speed.latest()
    raw = time_child_setup(kind)
    return nominal(raw, before, speed.sample())
