"""Shared plumbing: seeds, pins, checks, process memory, provenance, results.

Nothing here imports :mod:`repro`, so ``run.py`` can time the package
import itself as part of ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

PERFBENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERFBENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(PERFBENCH_DIR, "out")
PINS_PATH = os.path.join(PERFBENCH_DIR, "pins.json")

Edge = Tuple[int, int]


def edge_digest(edges: Iterable[Edge]) -> str:
    """Order-independent sha256 digest of an edge set (16 hex digits)."""
    h = hashlib.sha256()
    for u, v in sorted(edges):
        h.update(b"%d,%d;" % (u, v))
    return h.hexdigest()[:16]


def seed_order(workload_seed: int, table_size: int) -> List[int]:
    """Protocol seeds 1..table_size, rotated to start at the workload seed.

    Workload seed 1 starts at protocol seed 1, so its first pass is the
    committed trajectory's ``s1`` row.  A run walks this list
    one pass per entry and never revisits a seed, so no cell repeats.
    """
    start = (workload_seed - 1) % table_size
    seeds = list(range(1, table_size + 1))
    return seeds[start:] + seeds[:start]


def load_pins() -> Dict[str, Dict[str, Any]]:
    """Cell id -> pinned counts and edge digest (see ``make_pins.py``).

    Empty before the pins are first generated, so every cell check fails.
    """
    if not os.path.exists(PINS_PATH):
        return {}
    with open(PINS_PATH, "r", encoding="utf-8") as handle:
        pins: Dict[str, Dict[str, Any]] = json.load(handle)["cells"]
    return pins


@dataclass
class Checks:
    """Checked operations: how many were attempted and which failed.

    Every failure message starts with the operation it belongs to (a
    cell id or a query id), so a failing run names its cause.
    """

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, op: str, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{op}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0


def compare_counts(
    got: Dict[str, Any], pin: Optional[Dict[str, Any]], keys: Sequence[str]
) -> List[str]:
    """Problems with ``got`` against its pin, one per differing key."""
    if pin is None:
        return ["no pinned counts for this cell"]
    return [
        f"{key} {got[key]} != pinned {pin[key]}"
        for key in keys
        if got[key] != pin[key]
    ]


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of sorted data."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[min(int(rank), len(sorted_values)) - 1]


# ----------------------------------------------------------------------
# Process memory and CPU, from /proc
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB (Linux KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_hwm_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds a live process has used."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (stat field 3): utime/stime are 14 and 15.
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> Optional[str]:
    """HEAD of the checkout, or None when the checkout is not a git repo."""
    # Stop git at the checkout: a repository around it is not this code.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over ``src/`` Python files: names the code without git."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(SRC_DIR):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC_DIR).encode())
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()[:16]


def provenance() -> Dict[str, Any]:
    """What produced the numbers: hardware, interpreter and code."""
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
        "source_digest": _source_digest(),
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def write_out(name: str, payload: Dict[str, Any]) -> str:
    """Write a JSON artifact under ``perfbench/out``; returns its path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
