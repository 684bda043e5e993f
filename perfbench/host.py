"""Host record, process-tree CPU and memory, and disk accounting.
Nothing here sets the benchmark's configuration: the session shape is
fixed, whatever the host has."""

from __future__ import annotations

import os
import shutil
import time

import numpy as np


def memcopy_gbps(seconds: float = 0.15) -> float:
    """Single-process memcopy bandwidth over a 32 MB buffer."""
    a = np.ones(1 << 22)
    b = np.empty_like(a)
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        np.copyto(b, a)
        n += 1
    return n * a.nbytes / (time.perf_counter() - t0) / 1e9


def host_record() -> dict:
    import ray

    with open("/proc/meminfo") as f:
        mem_kb = int(f.readline().split()[1])
    # GNU nproc honours OMP_NUM_THREADS; the affinity mask is what the
    # processes can actually run on
    return {"nproc": int(os.environ.get("OMP_NUM_THREADS", 0))
            or len(os.sched_getaffinity(0)),
            "cpus_affinity": len(os.sched_getaffinity(0)),
            "ram_gb": round(mem_kb / 2**20, 1),
            "ray": ray.__version__,
            "memcopy_gbps": round(memcopy_gbps(), 2)}


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(d))
    return kids


def session_pids() -> list[int]:
    """This process and every process it started, transitively (the Ray
    session's GCS, raylet, agents and workers)."""
    kids, out, todo = _children(), [], [os.getpid()]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(kids.get(p, []))
    return out


def worker_pids() -> set[int]:
    out = set()
    for p in session_pids():
        try:
            with open(f"/proc/{p}/cmdline", "rb") as f:
                if b"default_worker.py" in f.read():
                    out.add(p)
        except OSError:
            pass
    return out


def session_cpu_s() -> float:
    """CPU seconds (user + system) used so far by the session's processes."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0
    for p in session_pids():
        try:
            with open(f"/proc/{p}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / tick


def peak_rss_mb() -> float:
    """Summed ``VmHWM`` of the session's processes."""
    total = 0
    for p in session_pids():
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            pass
    return total / 1024


def tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for fn in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, fn))
            except OSError:
                pass
    return total


def ensure_free(root: str, need_mb: int) -> None:
    """Refuse to start when one run's writes would not fit."""
    os.makedirs(root, exist_ok=True)
    free_mb = shutil.disk_usage(root).free / 2**20
    if free_mb < need_mb:
        raise SystemExit(f"perfbench: {free_mb:.0f} MB free under {root}, "
                         f"one run writes up to {need_mb} MB; refusing to start")
