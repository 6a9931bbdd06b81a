"""serve-mix: ``repro serve`` under a closed loop of two clients.

Set-up fits the quickstart model (on the history examples/quickstart.py
builds, the same in every run) and a 32-tree wait model, registers
both, starts ``repro serve`` as a child process (perfbench/serve_child.py)
and warms it up: the lazy model loads and the hot set's cache entries.
Then two clients, each a scheduler hook that waits for its reply, send
a schedule encoded from the seed before timing starts (the seed also
draws the hot set, the what-if queue states and the wait model's
training probes):

* 50% ``/predict`` of a 32-config hot set (cache hits after warm-up),
* 30% ``/predict`` of new configs (misses),
* 10% ``/batch`` of 32 new configs x 4 scales,
* 10% ``/whatif`` of a new config over 5 scales with the wait model.

Repeated configs make half of the requests but only about 7% of the
predicted cells.

cpu_s is the server child's CPU time over the schedule, scaled by speed
probes taken inside the child.  In untraced runs those probes hold the
child's interpreter lock for about 10 ms every half second, which shows
in the client latencies recorded in the run's details; the per-layer
latencies come from the traced run, which probes only between phases.

Why: HTTP handling, the service's cache and validation, packed
traversal and the what-if/wait layers do the work; fitting happens only
in set-up.  One GIL-bound server process serves both clients on two
cores, so a faster layer also cuts the other routes' queueing.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from common import (
    APP, QUICKSTART_SCALES, Result, SpeedProbe, held_out, large_scales,
    mape_percent, peak_rss_mb, percentile, quickstart_history, runtime_matrix,
    untraced,
)
from gates import check
from serve_child import CPU_LINE

CLIENTS = 2
HOT_CONFIGS = 32
BATCH_CONFIGS = 32
#: (request class, share of requests)
MIX = (("predict-hot", 0.5), ("predict-new", 0.3), ("batch", 0.1), ("whatif", 0.1))
ROUTE = {"predict-hot": "predict", "predict-new": "predict",
         "batch": "batch", "whatif": "whatif"}
#: Requests per second of ``--seconds``: about the seed commit's rate.
REQUESTS_PER_SECOND = 400
#: New-config requests whose answers are recomputed in-process and
#: compared with the served ones, per route.
REFERENCE_REQUESTS = 64
WAIT_TREES = 32
WAIT_PROBES = 200
MODEL, WAIT_MODEL = "stencil", "queue-wait"
START_TIMEOUT_S = 60.0

LARGE = large_scales(QUICKSTART_SCALES)
BATCH_SCALES = [max(QUICKSTART_SCALES), *LARGE]
WHATIF_SCALES = [m * max(QUICKSTART_SCALES) for m in (1, 2, 4, 8, 16)]


def sizes(seconds: int) -> dict:
    return {
        "requests": REQUESTS_PER_SECOND * seconds,
        "clients": CLIENTS,
        "mix": dict(MIX),
        "hot_configs": HOT_CONFIGS,
        "batch": [BATCH_CONFIGS, len(BATCH_SCALES)],
        "whatif_scales": WHATIF_SCALES,
        "wait_model_trees": WAIT_TREES,
        "history": "stencil3d, 80 configs x scales 32-512 x 2 reps",
    }


def _params(app, x) -> dict[str, float]:
    return {name: float(v) for name, v in zip(app.param_names, x)}


def build_schedule(seed: int, n_requests: int, queue_states: list[dict]):
    """Encode every request from the seed.  Returns the hot set and a
    list of ``(class, request bytes, X, scales)``."""
    from repro.apps import get_app
    from repro.data.generator import sample_latin_hypercube, sample_random

    app = get_app(APP)
    rng = np.random.default_rng(seed + 17)
    hot = np.vstack([app.params_to_vector(c)
                     for c in sample_latin_hypercube(app, HOT_CONFIGS, rng)])
    classes = rng.choice(len(MIX), size=n_requests, p=[share for _, share in MIX])
    schedule = []
    for c in classes:
        kind = MIX[c][0]
        if kind == "predict-hot":
            X = hot[[rng.integers(HOT_CONFIGS)]]
        elif kind == "batch":
            X = np.vstack([app.params_to_vector(p)
                           for p in sample_random(app, BATCH_CONFIGS, rng)])
        else:
            X = app.params_to_vector(app.sample_params(rng))[None, :]
        if kind == "batch":
            scales = BATCH_SCALES
            body = {"model": MODEL, "requests": [
                {"params": _params(app, x), "scales": scales} for x in X]}
        elif kind == "whatif":
            scales = WHATIF_SCALES
            body = {"model": MODEL, "params": _params(app, X[0]),
                    "scales": scales, "wait_model": WAIT_MODEL,
                    "queue_state": queue_states[rng.integers(len(queue_states))]}
        else:
            scales = sorted(rng.choice(LARGE, size=2, replace=False).tolist())
            body = {"model": MODEL, "params": _params(app, X[0]), "scales": scales}
        schedule.append((kind, encode("POST", f"/{ROUTE[kind]}", body), X, scales))
    return hot, schedule


def fit_wait_model(seed: int):
    from repro.sched import QueueConfig, QueueSimulator, WaitTimePredictor

    sim = QueueSimulator(QueueConfig(n_nodes=256, arrival_rate=0.008,
                                     horizon=86400.0, seed=seed))
    observations = [o.features() for o in sim.sample_observations(WAIT_PROBES, seed=seed + 1)]
    waits = [o.pop("wait_seconds") for o in observations]
    predictor = WaitTimePredictor(n_estimators=WAIT_TREES, random_state=seed)
    return predictor.fit(observations, waits), observations


class Server:
    """The server child: started, talked to on 127.0.0.1, stopped with
    SIGINT, and waited for.  :meth:`cpu` asks it for the CPU time it has
    used (serve_child.py)."""

    def __init__(self, root: Path, workdir: Path, registry: Path,
                 trace_out: Path | None) -> None:
        launcher = [sys.executable, str(Path(__file__).with_name("serve_child.py"))]
        if trace_out is not None:
            launcher += ["--trace-out", str(trace_out)]
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(root / "src"), str(Path(__file__).parent)])}
        self.stderr_path = workdir / "server.stderr"
        self._stderr = open(self.stderr_path, "w")
        self._stdout = b""
        try:
            self.proc = subprocess.Popen(
                [*launcher, "serve", "--registry", str(registry), "--port", "0"],
                stdout=subprocess.PIPE, stderr=self._stderr, env=env,
            )
        except OSError:
            self._stderr.close()
            raise
        try:
            self.port = int(self._read_line("listening on http://").rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def _read_line(self, prefix: str) -> str:
        """The child's next stdout line that starts with ``prefix``.  The
        pipe is read unbuffered, so select() sees every line not yet
        taken."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            while b"\n" in self._stdout:
                line, self._stdout = self._stdout.split(b"\n", 1)
                if line.startswith(prefix.encode()):
                    return line.decode().strip()
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                self._stdout += chunk
        raise RuntimeError(f"server child gave no {prefix!r} line: "
                           f"{self.stderr_path.read_text()[-2000:]}")

    def cpu(self) -> tuple[float, float]:
        """CPU seconds the child has used so far, as read and at the
        reference speed."""
        self.proc.send_signal(signal.SIGUSR1)
        _, cpu_s, scaled_s = self._read_line(CPU_LINE).rsplit(" ", 2)
        return float(cpu_s), float(scaled_s)

    def stop(self) -> tuple[int, str]:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._stderr.close()
        return self.proc.returncode, self.stderr_path.read_text()


def encode(method: str, path: str, body: dict | None = None) -> bytes:
    """A complete HTTP/1.0 request, encoded once before timing starts."""
    data = b"" if body is None else json.dumps(body).encode()
    head = (f"{method} {path} HTTP/1.0\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n")
    return head.encode() + data


def send(port: int, request: bytes):
    """Send one request on its own connection and read the reply until
    the server closes it (HTTP/1.0).  Returns (status, seconds, body)."""
    start = time.perf_counter()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(request)
            chunks = []
            while chunk := sock.recv(1 << 16):
                chunks.append(chunk)
        reply = b"".join(chunks)
        status = int(reply[9:12])
        payload = reply[reply.index(b"\r\n\r\n") + 4:]
    except (OSError, ValueError):
        status, payload = -1, b""
    return status, time.perf_counter() - start, payload


def client(port: int, requests: list, records: list) -> None:
    for index, (kind, request, _X, _scales) in requests:
        records.append((index, kind, *send(port, request)))


def run(seed: int, seconds: int, workdir: Path, tracer) -> Result:
    from repro.apps import get_app
    from repro.core import TwoLevelModel
    from repro.serve import ModelArtifact, ModelRegistry

    result = Result()
    root = Path.cwd()
    app = get_app(APP)
    phases: dict[str, dict[str, list[int]]] = {}

    def tally(phase: str, route: str, status: int) -> None:
        counts = phases.setdefault(phase, {}).setdefault(route, [0, 0])
        counts[0] += 1
        counts[1] += int(status != 200)
        result.op(failed=int(status != 200))

    probe = SpeedProbe(periodic=tracer is None)
    trace_out = workdir / "server-spans.json" if tracer is not None else None
    server = None
    try:
        with probe.measure() as setup:
            with untraced(tracer):  # input generation is not the program under test
                train = quickstart_history()
                X_test, truth = runtime_matrix(held_out(seed, LARGE), LARGE)
            wait_model, observations = fit_wait_model(seed)
            queue_states = [{k: o[k] for k in ("queue_depth", "free_nodes", "running_jobs",
                                               "pending_node_seconds")} for o in observations]
            hot, schedule = build_schedule(seed, sizes(seconds)["requests"], queue_states)
            fit_start = time.perf_counter()
            model = TwoLevelModel(small_scales=QUICKSTART_SCALES, n_clusters=3,
                                  random_state=0).fit(train)
            fit_s = time.perf_counter() - fit_start
            registry = ModelRegistry(workdir / "registry")
            registry.register(MODEL, ModelArtifact.create(
                model, app_name=APP, param_names=app.param_names, train=train))
            registry.register(WAIT_MODEL, ModelArtifact.create(
                wait_model, app_name="queue", param_names=[],
                n_train_rows=len(observations)))
            server = Server(root, workdir, workdir / "registry", trace_out)
            status, _, _ = send(server.port, encode("GET", "/healthz"))
            tally("warmup", "healthz", status)
            primed = []
            for x in hot:
                status, _, payload = send(server.port, encode("POST", "/predict", {
                    "model": MODEL, "params": _params(app, x), "scales": list(LARGE)}))
                tally("warmup", "predict", status)
                primed.append(json.loads(payload)["predictions"] if status == 200 else None)
            whatif = next(r for r in schedule if r[0] == "whatif")
            status, _, _ = send(server.port, whatif[1])
            tally("warmup", "whatif", status)
            status, _, before = send(server.port, encode("GET", "/metrics"))
            tally("warmup", "metrics", status)
        # The server child's start and warm-up belong to set-up.
        server_setup = server.cpu()

        records: list[list] = [[] for _ in range(CLIENTS)]
        indexed = list(enumerate(schedule))
        other = threading.Thread(target=client, args=(
            server.port, indexed[1::CLIENTS], records[1]))
        start = time.perf_counter()
        other.start()
        client(server.port, indexed[0::CLIENTS], records[0])
        other.join()
        wall_s = time.perf_counter() - start
        server_load = server.cpu()

        status, _, after = send(server.port, encode("GET", "/metrics"))
        tally("drain", "metrics", status)
    finally:
        if server is not None:
            returncode, stderr = server.stop()
    if trace_out is not None:
        result.span_dumps.append(json.loads(trace_out.read_text()))

    records = sorted(records[0] + records[1])
    for _index, kind, status, _seconds, _payload in records:
        tally("load", ROUTE[kind], status)
    latency = {kind: [1e3 * r[3] for r in records if r[1] == kind] for kind, _ in MIX}
    cache = [_cache_counts(before, MODEL), _cache_counts(after, MODEL)]
    hits, misses = (cache[1][0] - cache[0][0], cache[1][1] - cache[0][1])

    answers = {index: json.loads(payload) for index, _k, status, _s, payload in records
               if status == 200}
    with untraced(tracer):
        packed = model.pack()
        reference, hot_pairs, whatifs = _compare(schedule, answers, packed, hot, primed)
        mape_large = mape_percent(packed.predict(X_test, LARGE), truth)
    result.gates(check("serve-mix", {
        "statuses": [(ROUTE[r[1]], r[2]) for r in records],
        "reference": reference,
        "hot": hot_pairs,
        "whatif": whatifs,
        "server": {"returncode": returncode, "stderr": stderr},
    }))

    result.metrics = {
        "setup_s": setup.scaled_s + server_setup[1],
        "peak_rss_mb": peak_rss_mb(include_children=True),
        "success_ratio": result.success_ratio(),
        "cpu_s": server_load[1] - server_setup[1],
    }
    predict = latency["predict-hot"] + latency["predict-new"]
    result.layer_extra = {
        **{f"serve.{route}.requests": n for route, (n, _f) in phases["load"].items()},
        **{f"serve.{route}.failed": f for route, (_n, f) in phases["load"].items()},
        "serve.rps": len(records) / wall_s,
        "serve.predict_p50_ms": percentile(predict, 50),
        "serve.predict_p99_ms": percentile(predict, 99),
        "serve.batch_p50_ms": percentile(latency["batch"], 50),
        "serve.batch_p95_ms": percentile(latency["batch"], 95),
        "serve.whatif_p50_ms": percentile(latency["whatif"], 50),
        "serve.whatif_p95_ms": percentile(latency["whatif"], 95),
        "serve.predict_hit_p50_ms": percentile(latency["predict-hot"], 50),
        "serve.predict_miss_p50_ms": percentile(latency["predict-new"], 50),
        "serve.service.cache_hit_ratio": hits / max(hits + misses, 1),
        "quality.mape_large": mape_large,
    }
    result.details = {
        "requests_by_phase": {phase: {route: {"sent": n, "succeeded": n - f, "failed": f}
                                      for route, (n, f) in routes.items()}
                              for phase, routes in phases.items()},
        "fit_s": fit_s,
        "wall_s": wall_s,
        "unscaled_setup_s": setup.cpu_s + server_setup[0],
        "unscaled_cpu_s": server_load[0] - server_setup[0],
        "probe_s": probe.samples,
        "cache_cells": {"hits": hits, "misses": misses},
        "latency_ms": {kind: {"n": len(v), "p50": percentile(v, 50),
                              "p95": percentile(v, 95), "p99": percentile(v, 99)}
                       for kind, v in latency.items()},
    }
    return result


def _cache_counts(payload: bytes, model: str) -> tuple[int, int]:
    for service in json.loads(payload)["services"]:
        if service["model"] == model:
            return service["cache"]["hits"], service["cache"]["misses"]
    return 0, 0


def _compare(schedule, answers, packed, hot, primed):
    """Pair served answers with what they must equal: in-process
    PackedPipeline.predict for the first new-config requests of each
    route, the primed (uncached) answer for every hot-set request."""
    reference = [(primed[i], packed.predict(hot[[i]], list(LARGE))[0])
                 for i in range(HOT_CONFIGS) if primed[i] is not None]
    hot_pairs, whatifs = [], []
    checked = {"predict-new": 0, "batch": 0}
    hot_row = {x.tobytes(): i for i, x in enumerate(hot)}
    for index, (kind, _request, X, scales) in enumerate(schedule):
        answer = answers.get(index)
        if answer is None:
            continue  # counted by the all-200 gate
        if kind == "predict-hot":
            i = hot_row[X[0].tobytes()]
            if primed[i] is None:
                continue
            cols = [list(LARGE).index(s) for s in scales]
            hot_pairs.append((answer["predictions"], np.asarray(primed[i])[cols]))
        elif kind == "whatif":
            whatifs.append(answer)
        elif checked[kind] < REFERENCE_REQUESTS:
            checked[kind] += 1
            if kind == "batch":
                reference.append((answer["results"], packed.predict(X, scales)))
            else:
                reference.append((answer["predictions"], packed.predict(X, scales)[0]))
    return reference, hot_pairs, whatifs
