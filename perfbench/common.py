"""Helpers shared by the harness and its child processes."""

from __future__ import annotations

import json
import os
import re
import sys
import time

#: scratch space in the checkout: generated inputs, caches, traces
WORK = ".perfbench-work"
HERE = os.path.dirname(os.path.abspath(__file__))


def cpus() -> "list[int]":
    return sorted(os.sched_getaffinity(0))


def program_cpu() -> int:
    """The vCPU every single-CPU program process is pinned to."""
    return cpus()[-1]


def loadgen_cpu() -> int:
    """The vCPU the HTTP load generator is pinned to."""
    return cpus()[0]


def pin(cpu: int, pid: int = 0) -> None:
    os.sched_setaffinity(pid, {cpu})


def child_env(**extra: str) -> dict:
    """The environment of every program process: the checkout's
    sources, a fixed hash seed, plus ``extra``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    env.update(extra)
    return env


def vmhwm_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size of one process (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def io_bytes(pid: int) -> int:
    """Bytes a process has read plus written through system calls."""
    total = 0
    with open(f"/proc/{pid}/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(("rchar:", "wchar:")):
                total += int(line.split()[1])
    return total


def cpu_ns(pid: int) -> int:
    """CPU time one process (all its threads) has used so far, in ns,
    from its process CPU clock; ``/proc/PID/stat`` ticks where that
    clock cannot be read."""
    try:
        # the clock id clock_getcpuclockid(pid) returns: CPUCLOCK_SCHED
        return time.clock_gettime_ns(((~pid) << 3) | 2)
    except OSError:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks * 1_000_000_000 // os.sysconf("SC_CLK_TCK")


def children_cpu_ns() -> dict:
    """CPU time used so far by each live child of this process (server,
    shard nodes, pool workers), by pid."""
    out = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children",
                      encoding="ascii") as fh:
                pids = [int(p) for p in fh.read().split()]
        except OSError:
            continue
        for pid in pids:
            try:
                out[pid] = cpu_ns(pid)
            except OSError:  # ended meanwhile
                pass
    return out


def quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def emit(obj: dict) -> None:
    """The one JSON line a child process reports on stdout."""
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


#: what :func:`reference_s` takes at the nominal host speed; every time
#: the benchmark reports is scaled to that speed (see ``host_scale``)
REFERENCE_NOMINAL_S = 0.015
_REF_TEXT = "".join(f'<e k="v{i}" s="s{i % 7}"/>' for i in range(1000))
_REF_PATTERN = re.compile(r'<e k="([^"]*)" s="([^"]*)"/>')


def reference_s() -> float:
    """One run of a fixed host-speed reference, in seconds: integer
    arithmetic plus regex, dict and JSON work of the kind validation
    does, using the standard library only, so program code never runs
    in it.  Program processes that use CPU while it runs would still
    slow it; the benchmark checks that they stay idle (see
    ``workloads.HostReference``)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(80_000):
        acc += i * i % 7
    for _ in range(4):
        seen = {}
        for m in _REF_PATTERN.finditer(_REF_TEXT):
            seen[m.group(1)] = (m.group(2), len(seen))
        json.loads(json.dumps(sorted(seen.items(),
                                     key=lambda kv: kv[1][1])))
    return time.perf_counter() - t0


def reference_on(cpu_list: "list[int]") -> float:
    """The reference's mean time over the given vCPUs (the process runs
    it pinned to each in turn; its own affinity is restored)."""
    home = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpu_list:
            pin(cpu)
            # the median of three: the first run after a measured block
            # starts with cold caches
            times.append(sorted(reference_s() for _ in range(3))[1])
    finally:
        os.sched_setaffinity(0, home)
    return sum(times) / len(times)


def host_scale(before_s: float, after_s: float) -> float:
    """The factor that scales a time measured between two reference runs
    to the nominal host speed.

    The shared host this benchmark was built on changes speed by up to
    1.8x over tens of seconds (other tenants); a reference run next to
    each measured block moves with it, so scaled times stay put while a
    program change still moves them in full (the reference runs only
    while every program process is idle).
    """
    return REFERENCE_NOMINAL_S / ((before_s + after_s) / 2)
