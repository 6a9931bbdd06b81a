"""Shared pieces of the workloads: inputs, statistics, run metadata and
the result record."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

import numpy as np

APP = "stencil3d"
#: The quickstart example's history: 80 configurations (drawn with the
#: example's seed 7) at five small scales, two repetitions.
QUICKSTART_SCALES = (32, 64, 128, 256, 512)
QUICKSTART_SEED = 7
QUICKSTART_CONFIGS = 80
#: Held-out configurations scored at 2x, 4x and 8x the largest small
#: scale.
HELD_OUT_CONFIGS = 1024
HELD_OUT_SEED_OFFSET = 5003


def large_scales(small_scales: Sequence[int]) -> tuple[int, ...]:
    top = max(small_scales)
    return (2 * top, 4 * top, 8 * top)


def quickstart_history(seed: int | None = None):
    """The quickstart's history.  Without ``seed`` it is exactly the one
    examples/quickstart.py builds; with ``seed`` the same configurations
    are measured again with noise drawn from the seed, so the runtimes
    (and everything fitted on them) depend on the seed."""
    from repro.apps import get_app
    from repro.data import HistoryGenerator
    from repro.sim import Executor

    app = get_app(APP)
    gen = HistoryGenerator(app, seed=QUICKSTART_SEED)
    configs = gen.sample_configs(QUICKSTART_CONFIGS)
    if seed is not None:
        gen = HistoryGenerator(app, executor=Executor(seed=seed), seed=seed)
    return gen.collect(configs, QUICKSTART_SCALES, repetitions=2)


def held_out(seed: int, scales: Sequence[int]):
    """Unseen configurations simulated once at ``scales``."""
    from repro.apps import get_app
    from repro.data import HistoryGenerator
    from repro.sim import Executor

    s = seed + HELD_OUT_SEED_OFFSET
    gen = HistoryGenerator(get_app(APP), executor=Executor(seed=s), seed=s)
    return gen.collect(gen.sample_configs(HELD_OUT_CONFIGS), scales, repetitions=1)


def runtime_matrix(dataset, scales: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    X, T = dataset.runtime_matrix(list(scales))
    return np.ascontiguousarray(X), T


def mape_percent(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(100.0 * np.mean(np.abs(pred - truth) / truth))


def untraced(tracer):
    """Context in which ``tracer`` (if any) records nothing."""
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def median_setup(build, probe: "SpeedProbe", repeats: int = 7) -> tuple[Any, float]:
    """Run ``build()`` ``repeats`` times; return the last result and the
    median of its CPU times at the reference speed.  Each build starts
    with no cyclic garbage pending, so a collection the previous build
    left due does not land in this one's time."""
    times = []
    result = None
    for _ in range(repeats):
        result = None
        gc.collect()
        with probe.measure() as spent:
            result = build()
        times.append(spent.scaled_s)
    return result, statistics.median(times)


# -- machine speed ----------------------------------------------------------

#: Reported times are scaled to the speed at which the reference
#: computation takes this many CPU seconds: a round figure within the
#: 2.5-6 ms it took on the two-vCPU Xeon VM the benchmark was written on,
#: as the host's load came and went.
REFERENCE_PROBE_S = 0.004
#: A probe times this many reference computations and keeps the median.
PROBE_REPEATS = 3
#: Wall seconds between probes while a measured block runs.
PROBE_INTERVAL_S = 0.5


def _reference_computation(seed: int) -> float:
    """Fixed work shaped like the program's hot paths, written here so
    that no change to the program changes it: a multitask-lasso style
    block coordinate descent on small dense arrays, a regression-tree
    style split search, and interpreter-bound dict updates."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((96, 12))
    Y = rng.standard_normal((96, 5))
    W = np.zeros((12, 5))
    R = Y.copy()
    sq = (X * X).sum(axis=0)
    for _ in range(25):
        for j in range(12):
            xj = X[:, j]
            tmp = xj @ R + W[j] * sq[j]
            norm = float(np.sqrt(tmp @ tmp))
            new = max(0.0, 1.0 - 2.0 / norm) * tmp / sq[j] if norm > 0 else 0.0 * tmp
            R += np.outer(xj, W[j] - new)
            W[j] = new
    best = 0.0
    for j in range(12):
        y = Y[np.argsort(X[:, j], kind="stable"), 0]
        left = np.cumsum(y)[:-1]
        n = np.arange(1, len(y))
        gain = left ** 2 / n + (y.sum() - left) ** 2 / (len(y) - n)
        best = max(best, float(gain.max()))
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return best + float(W.sum()) + sum(counts.values())


class Measurement:
    """This process's CPU seconds since the measurement began, probes
    excluded: ``cpu_s`` as read, ``scaled_s`` at the reference speed.
    Each :meth:`update` adds the slice since the previous one, scaled by
    the mean of the probes at its two ends."""

    def __init__(self, probe: "SpeedProbe") -> None:
        self.cpu_s = 0.0
        self.scaled_s = 0.0
        self._probe = probe
        self._speed = probe.sample()
        self._last = probe.own_cpu_s()

    def update(self, *_signal) -> None:
        if self._probe.busy:
            return  # a timer tick interrupted by another update
        self._probe.busy = True
        try:
            now = self._probe.own_cpu_s()
            work, self._last = now - self._last, now
            speed = self._probe.sample()
            self.cpu_s += work
            self.scaled_s += work * 2 * REFERENCE_PROBE_S / (self._speed + speed)
            self._speed = speed
        finally:
            self._probe.busy = False


class SpeedProbe:
    """Measures CPU time and scales it to a reference machine speed.

    On a shared host the CPU time of identical work moves by 1.75x from
    one minute to the next and by 2.4x within an hour, with what other
    tenants run, and both cores of the VM slow down together.  While a block runs under
    :meth:`measure`, a timer interrupts it every PROBE_INTERVAL_S to time
    a fixed reference computation in the same process (a
    :class:`Measurement` update).  The probe runs none of the program's
    code, so a faster or slower program moves the scaled time in full,
    and its own CPU time is not counted.  With ``periodic=False`` (traced
    runs, so that no probe lands inside a layer's span) the speed is
    probed only at the block's ends and when asked.
    """

    def __init__(self, periodic: bool = True) -> None:
        self.periodic = periodic
        #: Median reference-computation time of every probe taken.
        self.samples: list[float] = []
        #: CPU seconds spent probing.
        self.spent = 0.0
        self.busy = False

    def own_cpu_s(self) -> float:
        """This process's CPU seconds, probes excluded."""
        return time.process_time() - self.spent

    def sample(self) -> float:
        """Time the reference computation; returns the median of
        PROBE_REPEATS runs."""
        start = time.process_time()
        times = []
        for seed in range(PROBE_REPEATS):
            t = time.process_time()
            _reference_computation(seed)
            times.append(time.process_time() - t)
        self.spent += time.process_time() - start
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    @contextlib.contextmanager
    def measure(self):
        """Measure the CPU seconds this process spends in the block."""
        spent = Measurement(self)
        if self.periodic:
            previous = signal.signal(signal.SIGALRM, spent.update)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield spent
        finally:
            if self.periodic:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            spent.update()


# -- statistics -------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size in MB: this process, plus (when asked) the
    largest child it has waited for — the server child, which runs
    alongside it."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# -- metadata ---------------------------------------------------------------

def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, so results of checkouts
    without git history can still be told apart."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def blas_info() -> dict[str, Any]:
    config = np.show_config(mode="dicts") or {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads": {k: v for k, v in os.environ.items()
                    if k.endswith("_NUM_THREADS")},
    }


def metadata(root: Path, workload: str, seed: int, seconds: int, trace: bool,
             sizes: dict[str, Any]) -> dict[str, Any]:
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": affinity,
        "blas": blas_info(),
        "sizes": sizes,
        "unix_time": time.time(),
    }


# -- result record ----------------------------------------------------------

class Result:
    """Operations attempted and failed, gate failures and metrics of one
    run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.gate_failures: list[str] = []
        self.metrics: dict[str, float] = {}
        self.details: dict[str, Any] = {}
        #: Traced runs: span dumps of other processes (the server child)
        #: and per-layer values measured outside spans (client counts,
        #: latencies, accuracy).
        self.span_dumps: list[dict[str, Any]] = []
        self.layer_extra: dict[str, float] = {}

    def op(self, count: int = 1, failed: int = 0) -> None:
        self.attempted += count
        self.failed += failed

    def gates(self, failures: list[str]) -> None:
        """Record gate failures; each one counts as a failed operation."""
        self.gate_failures.extend(failures)
        self.attempted += len(failures)
        self.failed += len(failures)

    @property
    def correct(self) -> bool:
        return not self.gate_failures and self.failed == 0

    def success_ratio(self) -> float:
        return (self.attempted - self.failed) / max(self.attempted, 1)


def write_json(path: Path, payload: dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
