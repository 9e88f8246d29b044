"""Harness utilities: paths, statistics, spans, memory and host fingerprint."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
#: Everything the benchmark writes (traces, reports, databases, sockets).
OUT = os.path.join(HERE, "out")

now = perf_counter


def use_repo_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Exits non-zero when the program is not in this checkout, so a stray
    installed copy of ``repro`` is never measured by accident.
    """
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        sys.stderr.write(f"ledger: no program to measure under {source}\n")
        raise SystemExit(2)
    if source not in sys.path:
        sys.path.insert(0, source)


def scratch_dir(name: str) -> str:
    """A fresh, empty directory ``out/<name>-<pid>`` (relative when shorter).

    AF_UNIX paths are capped near 100 bytes, so socket files are addressed
    relative to the working directory whenever that is the shorter form.
    """
    path = os.path.join(OUT, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    relative = os.path.relpath(path)
    return relative if len(relative) < len(path) else path


def remove_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def percentile(values, share: float) -> float:
    """The smallest sample with at least ``share`` of the samples at or below it."""
    return float(np.percentile(np.asarray(values), share * 100.0, method="higher"))


def summary(values, better: str | None = None) -> dict:
    """One value over rounds or windows, quartiles and count beside it.

    Without ``better`` the value is the median.  With it, the value is the
    *quiet quartile*: the lower one for a lower-is-better metric, the upper
    one for throughput.  Interference on a shared host only ever slows a
    round down, so the quiet quartile estimates the program's own cost and
    repeats far better from run to run than the median does.
    """
    q1, q2, q3 = quartiles(values)
    value = {"lower": q1, "higher": q3}.get(better, q2)
    return {"value": value, "median": q2, "q1": q1, "q3": q3, "n": len(values)}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span recorder for the traced run.

    A span is ``(id, parent, request, name, start, end)``.  The benchmark
    opens one around every call into a layer; ``parent`` is the span open
    at that moment, ``request`` groups the spans of one logical request.
    Nothing is written until :meth:`write`.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = bool(enabled)
        self.records: list = []
        self._stack: list = []

    def begin(self, name: str, request: int = 0) -> int:
        span_id = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        self.records.append([span_id, parent, request, name, now(), 0.0])
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> None:
        self.records[span_id][5] = now()
        self._stack.pop()

    def add(self, name: str, request: int, start: float, end: float, parent=None) -> int:
        """Record a finished span from timestamps the caller already took.

        The timed call itself is left undisturbed; the parent defaults to
        the span currently open.
        """
        span_id = len(self.records)
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        self.records.append([span_id, parent, request, name, start, end])
        return span_id

    def self_seconds(self) -> dict:
        """Per span name: total duration minus the time its children cover."""
        covered = [0.0] * len(self.records)
        for span_id, parent, _, _, start, end in self.records:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict = {}
        for span_id, _, _, name, start, end in self.records:
            entry = totals.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "count": 0})
            entry["self_s"] += (end - start) - covered[span_id]
            entry["total_s"] += end - start
            entry["count"] += 1
        return totals

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, request, name, start, end in self.records:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name, "start": start, "end": end,
                }) + "\n")


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def reset_peak_rss() -> bool:
    """Reset this process's peak-RSS watermark (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Peak resident set since the last reset (or process start), MiB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
def host_fingerprint() -> dict:
    """Where the numbers were taken: cores, CPU, versions, governor."""
    model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    governor = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor") as handle:
            governor = handle.read().strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "governor": governor,
        "platform": platform.platform(),
    }
