"""Shared machinery of the legladder benchmark: where the source lives in
the checkout, the closed measuring loop, statistics, provenance and the
result line.

Only the standard library is imported at module level, so that a fresh
process timing its own set-up (see setup_probe.py) pays for numpy and
legladder inside the timed interval, as a user would.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 90.0


class SourceMissing(RuntimeError):
    """The checkout holds no legladder source to measure."""


def use_checkout_source():
    """Put the checkout's src/ first on sys.path.

    Refuses to run without it, so that an installed copy of the package is
    never measured in its place.
    """
    if not (SRC / "legladder" / "__init__.py").is_file():
        raise SourceMissing(f"no legladder source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src/ first on the
    import path, everything else (thread settings included) as found."""
    env = dict(os.environ)
    parts = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def run_child(cmd: list, stdout_path=None, stderr_path=None,
              timeout: float = CHILD_TIMEOUT_S):
    """Run one child process to completion from the checkout root.

    Returns (exit code, wall seconds, peak RSS in MB). The child is waited
    for with wait4, which gives its own resource usage; a watchdog kills
    it after `timeout` seconds so a hung child cannot stall the run.
    """
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        for fh in (out, err):
            if fh is not subprocess.DEVNULL:
                fh.close()
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


@dataclass
class Check:
    """Verdict of one output check: pass flag, the deviation from the
    reference when the check measures one, and what was found."""

    ok: bool
    error: float | None = None
    what: str = ""


class Op:
    """One operation of a workload. run() is timed; check() is not."""

    kind = "op"

    def run(self):
        raise NotImplementedError

    def check(self, result) -> Check:
        raise NotImplementedError


@dataclass
class Tally:
    """Latencies and verdicts of every attempted operation.

    errors[i] is operation i's deviation from its reference, or None where
    its check measures none. cycle_ends[k] is the number of operations
    attempted when cycle k of a closed loop ended.
    """

    latencies: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    cycle_ends: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def record(self, kind: str, seconds: float, check: Check):
        self.latencies.append(seconds)
        self.kinds.append(kind)
        self.ok.append(bool(check.ok))
        measured = check.error is not None and math.isfinite(check.error)
        self.errors.append(check.error if measured else None)
        if not check.ok:
            self.failures.append(f"{kind} #{len(self.ok) - 1}: {check.what}")

    def fail_later(self, index: int, what: str):
        """Mark an already recorded operation failed by a check made after
        the run (the sphere oracle)."""
        if self.ok[index]:
            self.ok[index] = False
            self.failures.append(f"{self.kinds[index]} #{index}: {what}")


def run_op(op: Op, tally: Tally, tracer=None, op_id: int = 0) -> float:
    """Time op.run(), then check its result outside the timed interval.

    An operation that raises, or whose check raises, is a failed operation,
    not a crashed run. Returns the timed seconds.
    """
    op.index = tally.attempted
    if tracer is not None:
        tracer.begin(op_id)
    t0 = time.perf_counter()
    try:
        result, failure = op.run(), None
    except Exception:
        result, failure = None, traceback.format_exc(limit=3)
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
    if failure is not None:
        verdict = Check(False, what=failure)
    else:
        try:
            verdict = op.check(result)
        except Exception:
            verdict = Check(False, what="check raised: " + traceback.format_exc(limit=3))
    tally.record(op.kind, seconds, verdict)
    return seconds


def closed_loop(cycle, seconds: float, tally: Tally, min_cycles: int = 1) -> int:
    """Run whole cycles of operations, one at a time, until at least
    `seconds` of wall time have passed since the first one started and at
    least `min_cycles` cycles have run.

    Whole cycles keep the operation mix of every run identical, so the
    percentiles compare like with like. Returns the number of cycles.
    """
    start = time.perf_counter()
    k = 0
    while k < max(1, min_cycles) or time.perf_counter() - start < seconds:
        for op in cycle(k):
            run_op(op, tally)
        tally.cycle_ends.append(tally.attempted)
        k += 1
    return k


def percentile(values: list, q: int) -> float:
    """q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fixed_set_error(tally: Tally, cycles: int) -> float:
    """Mean deviation from the reference over the operations of the first
    `cycles` cycles: a set fixed by the seed alone, whatever the speed.

    No deviation measured means every checked operation failed, and the
    result line already says so; the figure is then 0.
    """
    measured = [e for e in tally.errors[:tally.cycle_ends[cycles - 1]] if e is not None]
    return statistics.fmean(measured) if measured else 0.0


def end_to_end_metrics(tally: Tally, setup_samples: list, rss_mb: float,
                       error_cycles: int) -> dict:
    correct = tally.attempted - tally.failed
    ms = [1000.0 * s for s in tally.latencies]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (correct / sum(tally.latencies), "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (percentile(ms, 90), "ms"),
        "max_error": (fixed_set_error(tally, error_cycles), "1"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def result_line(tally: Tally, metrics: dict) -> dict:
    """The benchmark's last stdout line."""
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def self_peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def probe_setup_in_child(workload: str, seed: int) -> float:
    """Set-up seconds as timed inside a fresh interpreter by setup_probe.py."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- provenance

def _git_commit():
    """HEAD of the checkout when it is a git work tree, read from .git
    directly; None in an exported checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over the package sources, naming the measured code exactly
    where no commit is available."""
    h = hashlib.sha256()
    for path in sorted((SRC / "legladder").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas():
    """BLAS library numpy was built against, and its thread count as found
    (read only; the benchmark never changes it)."""
    import ctypes

    import numpy as np

    info = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def provenance(workload: str, seed: int, seconds: float, trace: bool, sizes: dict) -> dict:
    import numpy as np

    return {
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes,
    }


def write_result(name: str, payload: dict, indent=1) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(payload, indent=indent, sort_keys=True) + "\n")
    return path
