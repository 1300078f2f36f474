"""Paths, child processes, scratch directories and host probes."""

from __future__ import annotations

import array
import bisect
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

#: Root of the checkout the benchmark runs in (the parent of perfbench/).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HOOK = os.path.join(ROOT, "perfbench", "hook")
EXPECTED = os.path.join(ROOT, "perfbench", "expected.json")
#: Per-run scratch (registries, sockets, dumps); removed after each run.
SCRATCH = ".bench_tmp"
#: Chrome traces of traced runs, kept for inspection.
TRACE_OUT = ".bench_out"

#: Set-ups measured per run; ``setup_s`` is their median.
SETUPS = 5


def require_source() -> None:
    """Put ``src/`` on the import path, or exit 2 when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env(trace_dir: str = None) -> dict:
    """Environment for processes the benchmark starts.

    They import the simulator from this checkout's ``src/``; a traced
    run also puts the tracer hook first and names its dump directory.
    Fault injection and registry redirection from the caller's shell
    are dropped so every run does the same work.
    """
    env = dict(os.environ)
    for name in ("REPRO_FAULT_SPEC", "REPRO_REGISTRY", "PERFBENCH_TRACE_DIR"):
        env.pop(name, None)
    path = [SRC]
    if trace_dir is not None:
        path.insert(0, HOOK)
        env["PERFBENCH_TRACE_DIR"] = os.path.abspath(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


class Scratch:
    """A fresh directory under ``.bench_tmp/`` for one run, removed on
    exit.  Paths are relative to the checkout root, which keeps Unix
    socket paths short wherever the checkout lives."""

    def __init__(self, workload: str, seed: int) -> None:
        self.path = os.path.join(
            SCRATCH, f"{workload}-{seed}-{os.getpid()}"
        )

    def __enter__(self) -> "Scratch":
        if os.path.exists(self.path):
            shutil.rmtree(self.path)
        os.makedirs(self.path)
        return self

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        return path

    def __exit__(self, *_exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass


def stop(process: subprocess.Popen, timeout: float = 10.0) -> int:
    """Wait for ``process``; terminate, then kill, if it lingers."""
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.terminate()
    try:
        return process.wait(timeout=5.0)
    except subprocess.TimeoutExpired:
        process.kill()
        return process.wait()


def calibrate_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: the host-noise probe.

    Reported beside the metrics so runs taken under host contention
    stand out; it is not an end-to-end metric.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


class HostSpeed:
    """The speed of the CPU a run is measured on, sampled while it runs.

    The hosts this benchmark runs on share their cores with other
    tenants: one core's speed switches between states up to 1.8x apart
    for seconds at a time, and CPU time slows with wall time, so a run's
    raw times follow the host more than the program.  On entry the
    benchmark process is pinned to one CPU (children inherit it, so
    every process of the workload runs on that core) and a thread
    runs a fixed probe every :attr:`PERIOD_S` seconds -- a pure-Python
    loop and a few NumPy array operations, the two kinds of work the
    simulator does -- timing it in thread CPU time, which excludes the
    time the probe waits for the core.  :meth:`scaled` then turns an
    interval of host time into the time it would have taken at the
    reference speed: the interval weighted by
    ``(REF_PROBE_S / probe) ** SENSITIVITY`` in each :attr:`BIN_S` bin,
    where ``probe`` is the median probe of that bin and its two
    neighbours.

    The probe allocates no garbage-collected objects, so it does not
    move the collections of the process it runs in.
    """

    #: Thread CPU time of one probe on the 2-vCPU VM the benchmark was
    #: tuned on, in that host's fast state.
    REF_PROBE_S = 0.0019
    LOOPS = 15_000
    ARRAY = 65_536
    PERIOD_S = 0.1
    BIN_S = 0.5
    #: How steeply the workloads' host times follow the probe's: fitted
    #: on the tuning VM, where between runs at probe speeds 0.81 and 1.22
    #: of the reference the raw service and suite throughputs moved as
    #: speed ** 1.6 (the probe's small working set feels contention for
    #: the shared caches less than the workloads do).
    SENSITIVITY = 1.5

    def __init__(self) -> None:
        self.stamps = array.array("d")  # perf_counter at each probe's end
        self.costs = array.array("d")   # each probe's thread CPU time
        self.cpu = None
        self.origin = time.perf_counter()
        self._stop = threading.Event()
        self._thread = None
        self._factors: dict = {}

    def __enter__(self) -> "HostSpeed":
        try:
            self.cpu = max(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {self.cpu})
        except (AttributeError, OSError):
            self.cpu = None
        self.origin = time.perf_counter()
        self._thread = threading.Thread(target=self._sample, daemon=True,
                                        name="perfbench-host-speed")
        self._thread.start()
        return self

    def probe(self, left, right, out) -> float:
        """Thread CPU seconds of one fixed probe."""
        import numpy as np

        begin = time.thread_time()
        total = 0
        for i in range(self.LOOPS):
            total += i * i % 7
        for _ in range(4):
            np.multiply(left, right, out=out)
            np.add(out, left, out=out)
            np.sqrt(out, out=out)
            out.sum()
        return time.thread_time() - begin

    def _sample(self) -> None:
        import numpy as np

        left = np.arange(float(self.ARRAY))
        right = left[::-1].copy()
        out = np.empty_like(left)
        while not self._stop.wait(self.PERIOD_S):
            cost = self.probe(left, right, out)
            self.stamps.append(time.perf_counter())
            self.costs.append(cost)

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, index: int) -> float:
        """``(REF_PROBE_S / probe) ** SENSITIVITY`` in bin ``index``,
        ``probe`` being the median probe of the bin and its neighbours,
        or of the whole run when they hold none (1.0 without any
        probe)."""
        if index not in self._factors:
            low = self.origin + (index - 1) * self.BIN_S
            first = bisect.bisect_left(self.stamps, low)
            last = bisect.bisect_left(self.stamps, low + 3 * self.BIN_S)
            near = self.costs[first:last] or self.costs
            speed = (self.REF_PROBE_S / statistics.median(near)
                     if near else 1.0)
            self._factors[index] = speed ** self.SENSITIVITY
        return self._factors[index]

    def scaled(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` (``perf_counter``) at the
        reference speed."""
        total = 0.0
        first = math.floor((start - self.origin) / self.BIN_S)
        last = math.floor((end - self.origin) / self.BIN_S)
        for index in range(first, last + 1):
            low = max(start, self.origin + index * self.BIN_S)
            high = min(end, self.origin + (index + 1) * self.BIN_S)
            if high > low:
                total += (high - low) * self.factor(index)
        return total

    def mean_speed(self) -> float:
        """Mean of ``REF_PROBE_S / probe`` over every probe of the run."""
        if not self.costs:
            return 1.0
        return statistics.mean(self.REF_PROBE_S / cost
                               for cost in self.costs)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def probe_setup(code: str) -> tuple:
    """``(start, end)`` on ``perf_counter``, from starting a fresh
    interpreter that runs ``code`` until it prints its first line
    (which ``code`` does once it is ready)."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = process.stdout.readline()
        end = time.perf_counter()
    finally:
        process.stdout.close()
        status = stop(process)
    if not line.startswith("ready") or status != 0:
        raise RuntimeError(f"set-up probe failed (exit {status}): {line!r}")
    return start, end
