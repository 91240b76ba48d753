"""Helpers shared by the workloads: summaries, child processes, machine facts."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# A tail is the highest of these percentiles with at least ten samples
# beyond it. The rungs are far apart (p80 from 50 samples, p95 from 200,
# p99 from 1000) so that the run-to-run wobble in the sample count does
# not switch the percentile a workload reports.
TAIL_LADDER = (99.9, 99.0, 95.0, 80.0, 50.0)
# Longest a single child process may run before the call counts as failed
CHILD_TIMEOUT_S = 120.0


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks of a sorted list."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def timing_summary(samples: list[float]) -> dict:
    """Median and tail of per-call times, with the tail's percentile and count."""
    values = sorted(samples)
    n = len(values)
    pct = next((p for p in TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10), 50.0)
    return {
        "p50": statistics.median(values),
        "tail": percentile(values, pct),
        "tail_pct": pct,
        "samples": n,
    }


def child_env(src: Path) -> dict:
    """Environment for child interpreters: the checkout's sources, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], env: dict):
    """Run one child process to completion; returns (wall seconds, CompletedProcess)."""
    t0 = perf_counter()
    done = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)
    return perf_counter() - t0, done


def import_seconds(statement: str, env: dict) -> float:
    """Wall time of a fresh interpreter that runs one import statement."""
    dt, done = run_child([sys.executable, "-c", statement], env)
    if done.returncode != 0:
        raise RuntimeError(f"{statement!r} failed: {done.stderr.strip()}")
    return dt


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cache_sizes() -> dict:
    """Data cache sizes seen by cpu0, as /sys reports them (e.g. '2048K')."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size and kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _mem_total_kib() -> int | None:
    text = _read("/proc/meminfo") or ""
    for line in text.splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1])
    return None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest(src: Path) -> str:
    """sha256 over the library's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine_facts(root: Path) -> dict:
    import numpy
    from importlib.metadata import version

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "caches_cpu0": cache_sizes(),
        "mem_total_kib": _mem_total_kib(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": version("click"),
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root / "src"),
    }
