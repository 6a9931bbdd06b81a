"""The benchmark's metrics, and the instrumentation of the program's
layers for traced runs.

End-to-end metrics are measured with tracing off and printed by every
workload.  Per-layer metrics come from a separate traced run: spans
opened around each layer's public call (see :func:`instrument`), plus
the load generator's own per-route counts.  Every workload prints every
per-layer metric; a layer the workload does not exercise reads 0.

``MOVES`` records, before anything is optimised, which end-to-end metric
each per-layer metric should move and on which workload.
"""

from __future__ import annotations

from typing import Any, Callable

from spans import SpanTable, Tracer

#: name -> (unit, better, bound, definition).  Every workload prints
#: every one; each has to stay steady across seeds on a shared two-core
#: machine, which latency percentiles, fit times and accuracy do not (see
#: the per-layer list, where they are reported without a bound).  Times
#: are CPU seconds at a reference machine speed (common.SpeedProbe): on
#: the shared host, wall and CPU times of identical work move by up to
#: 2.4x with other tenants' load.
END_TO_END: dict[str, tuple[str, str, float, str]] = {
    "setup_s": ("s", "lower", 0.25,
                "set-up CPU time: input simulation (median of 7); for "
                "serve-mix also fit, pack, register, and the server "
                "child's start and warm-up"),
    "peak_rss_mb": ("MB", "lower", 0.1,
                    "peak RSS of the benchmark process, plus the server "
                    "child on serve-mix"),
    "success_ratio": ("ratio", "higher", 0.01,
                      "1 - failed/attempted operations (fits, HTTP requests, "
                      "campaign rounds); a failed gate is a failed operation"),
    "cpu_s": ("s", "lower", 0.25,
              "CPU time (user + system) of the measured work: two cold fits, "
              "pack and held-out scoring (fit-cold); the server child over "
              "the request schedule (serve-mix); the campaign from start to "
              "final registered model (campaign-store)"),
}


def _total(name: str) -> Callable[[SpanTable, dict], float]:
    return lambda t, extra: t.total_s(name)


def _self(name: str) -> Callable[[SpanTable, dict], float]:
    return lambda t, extra: t.self_s(name)


def _calls(name: str) -> Callable[[SpanTable, dict], float]:
    return lambda t, extra: float(t.calls(name))


def _counter(name: str) -> Callable[[SpanTable, dict], float]:
    return lambda t, extra: float(t.counters[name])


def _extra(name: str) -> Callable[[SpanTable, dict], float]:
    return lambda t, extra: float(extra.get(name, 0.0))


def _mean_ms(name: str, self_time: bool = False) -> Callable[[SpanTable, dict], float]:
    def compute(t: SpanTable, extra: dict) -> float:
        values = t.self_ms(name) if self_time else t.durations_ms(name)
        return sum(values) / len(values) if values else 0.0

    return compute


def _mtl_converged(t: SpanTable, extra: dict) -> float:
    fits = t.calls("ml.linear.mtl_fit")
    return 1.0 - t.counters["ml.linear.mtl_capped"] / fits if fits else 0.0


#: name -> (unit, better, compute(table, extra))
PER_LAYER: dict[str, tuple[str, str, Callable[[SpanTable, dict], float]]] = {
    "core.two_level.fit_s": ("s", "lower", _total("core.two_level.fit")),
    "core.two_level.self_s": ("s", "lower", _self("core.two_level.fit")),
    "core.two_level.fits": ("count", "lower", _calls("core.two_level.fit")),
    "core.two_level.predict_s": ("s", "lower", _total("core.two_level.predict")),
    "data.io.fingerprint_s": ("s", "lower", _total("data.io.fingerprint")),
    "core.interpolation.fit_s": ("s", "lower", _total("core.interpolation.fit")),
    "core.interpolation.predict_matrix_s": (
        "s", "lower", _total("core.interpolation.predict_matrix")),
    "ml.tree.tree_fits": ("count", "lower", _calls("ml.tree.fit")),
    "ml.tree.tree_nodes": ("count", "lower", _counter("ml.tree.tree_nodes")),
    "ml.tree.fit_s": ("s", "lower", _total("ml.tree.fit")),
    "core.extrapolation.fit_s": ("s", "lower", _total("core.extrapolation.fit")),
    "core.extrapolation.self_s": ("s", "lower", _self("core.extrapolation.fit")),
    "ml.linear.mtl_fits": ("count", "lower", _calls("ml.linear.mtl_fit")),
    "ml.linear.mtl_iters": ("count", "lower", _counter("ml.linear.mtl_iters")),
    "ml.linear.mtl_capped": ("count", "lower", _counter("ml.linear.mtl_capped")),
    "ml.linear.mtl_converged_ratio": ("ratio", "higher", _mtl_converged),
    "ml.linear.mtl_fit_s": ("s", "lower", _total("ml.linear.mtl_fit")),
    "ml.cluster.kmeans_s": ("s", "lower", _total("ml.cluster.kmeans")),
    "core.packed_pipeline.pack_s": ("s", "lower", _total("core.packed_pipeline.pack")),
    "core.packed_pipeline.predict_s": (
        "s", "lower", _total("core.packed_pipeline.predict")),
    "core.packed_pipeline.rows": (
        "count", "lower", _counter("core.packed_pipeline.rows")),
    "serve.predict.requests": ("count", "higher", _extra("serve.predict.requests")),
    "serve.predict.failed": ("count", "lower", _extra("serve.predict.failed")),
    "serve.batch.requests": ("count", "higher", _extra("serve.batch.requests")),
    "serve.batch.failed": ("count", "lower", _extra("serve.batch.failed")),
    "serve.whatif.requests": ("count", "higher", _extra("serve.whatif.requests")),
    "serve.whatif.failed": ("count", "lower", _extra("serve.whatif.failed")),
    "serve.rps": ("1/s", "higher", _extra("serve.rps")),
    "serve.predict_p50_ms": ("ms", "lower", _extra("serve.predict_p50_ms")),
    "serve.predict_p99_ms": ("ms", "lower", _extra("serve.predict_p99_ms")),
    "serve.batch_p50_ms": ("ms", "lower", _extra("serve.batch_p50_ms")),
    "serve.batch_p95_ms": ("ms", "lower", _extra("serve.batch_p95_ms")),
    "serve.whatif_p50_ms": ("ms", "lower", _extra("serve.whatif_p50_ms")),
    "serve.whatif_p95_ms": ("ms", "lower", _extra("serve.whatif_p95_ms")),
    "serve.predict_hit_p50_ms": ("ms", "lower", _extra("serve.predict_hit_p50_ms")),
    "serve.predict_miss_p50_ms": ("ms", "lower", _extra("serve.predict_miss_p50_ms")),
    "serve.service.cache_hit_ratio": (
        "ratio", "higher", _extra("serve.service.cache_hit_ratio")),
    "serve.service.predict_batch_ms": (
        "ms", "lower", _mean_ms("serve.service.predict_batch")),
    "serve.server.request_ms": ("ms", "lower", _mean_ms("serve.server.request")),
    "serve.server.http_self_ms": (
        "ms", "lower", _mean_ms("serve.server.request", self_time=True)),
    "serve.registry.load_s": ("s", "lower", _total("serve.registry.load")),
    "sched.whatif.evaluate_s": ("s", "lower", _total("sched.whatif.evaluate")),
    "sched.wait.predict_s": ("s", "lower", _total("sched.wait.predict")),
    "sim.execution.runs": ("count", "lower", _calls("sim.execution.run")),
    "sim.execution.run_s": ("s", "lower", _total("sim.execution.run")),
    "store.appends": ("count", "lower", _calls("store.append")),
    "store.shards": ("count", "lower", _counter("store.shards")),
    "store.append_s": ("s", "lower", _total("store.append")),
    "campaign.state.saves": ("count", "lower", _calls("campaign.state.save")),
    "campaign.state.save_s": ("s", "lower", _total("campaign.state.save")),
    "robustness.sanitize_s": ("s", "lower", _total("robustness.sanitize")),
    "core.uncertainty.interval_s": ("s", "lower", _total("core.uncertainty.interval")),
    "core.planning.score_s": ("s", "lower", _total("core.planning.score")),
    "serve.artifacts.create_s": ("s", "lower", _total("serve.artifacts.create")),
    "serve.registry.register_s": ("s", "lower", _total("serve.registry.register")),
    "quality.mape_large": ("%", "lower", _extra("quality.mape_large")),
    "campaign.final_mape": ("%", "lower", _extra("campaign.final_mape")),
    "trace.unattributed_share": ("ratio", "lower", _extra("trace.unattributed_share")),
}

#: per-layer metric -> the end-to-end metric it should move, on which
#: workload, and by about how much at the seed commit.  A workload not
#: named should see no change.
MOVES: dict[str, str] = {
    "core.two_level.fit_s": "cpu_s@fit-cold (~97%), cpu_s@campaign-store (~40%), setup_s@serve-mix",
    "core.two_level.self_s": "cpu_s@fit-cold, cpu_s@campaign-store",
    "core.two_level.fits": "cpu_s@fit-cold, cpu_s@campaign-store",
    "core.two_level.predict_s": "cpu_s@campaign-store (~2%)",
    "data.io.fingerprint_s": "cpu_s@fit-cold",
    "core.interpolation.fit_s": "cpu_s@fit-cold (~30%)",
    "core.interpolation.predict_matrix_s": "cpu_s@fit-cold",
    "ml.tree.tree_fits": "cpu_s@fit-cold; constant while trees stay bit-identical",
    "ml.tree.tree_nodes": "cpu_s@fit-cold; constant while trees stay bit-identical",
    "ml.tree.fit_s": "cpu_s@fit-cold",
    "core.extrapolation.fit_s": "cpu_s@fit-cold (~66%), cpu_s@campaign-store (~32%)",
    "core.extrapolation.self_s": "cpu_s@fit-cold, cpu_s@campaign-store",
    "ml.linear.mtl_fits": "cpu_s@fit-cold, cpu_s@campaign-store",
    "ml.linear.mtl_iters": "cpu_s@fit-cold, cpu_s@campaign-store",
    "ml.linear.mtl_capped": "cpu_s@fit-cold, cpu_s@campaign-store",
    "ml.linear.mtl_converged_ratio": "cpu_s@fit-cold, cpu_s@campaign-store",
    "ml.linear.mtl_fit_s": "cpu_s@fit-cold (~66%), cpu_s@campaign-store (~32%)",
    "ml.cluster.kmeans_s": "cpu_s@fit-cold (<0.1%)",
    "core.packed_pipeline.pack_s": "setup_s@serve-mix",
    "core.packed_pipeline.predict_s": "cpu_s@serve-mix (batch and miss latency)",
    "core.packed_pipeline.rows": "cpu_s@serve-mix (batch and miss latency)",
    "serve.predict.requests": "success_ratio@serve-mix",
    "serve.predict.failed": "success_ratio@serve-mix",
    "serve.batch.requests": "success_ratio@serve-mix",
    "serve.batch.failed": "success_ratio@serve-mix",
    "serve.whatif.requests": "success_ratio@serve-mix",
    "serve.whatif.failed": "success_ratio@serve-mix",
    "serve.rps": "cpu_s@serve-mix",
    "serve.predict_p50_ms": "cpu_s@serve-mix",
    "serve.predict_p99_ms": "cpu_s@serve-mix",
    "serve.batch_p50_ms": "cpu_s@serve-mix (/batch is ~1/3 of server time)",
    "serve.batch_p95_ms": "cpu_s@serve-mix",
    "serve.whatif_p50_ms": "cpu_s@serve-mix",
    "serve.whatif_p95_ms": "cpu_s@serve-mix",
    "serve.predict_hit_p50_ms": "cpu_s@serve-mix (HTTP handling dominates a hit)",
    "serve.predict_miss_p50_ms": "cpu_s@serve-mix",
    "serve.service.cache_hit_ratio": "cpu_s@serve-mix",
    "serve.service.predict_batch_ms": "cpu_s@serve-mix (every route)",
    "serve.server.request_ms": "cpu_s@serve-mix",
    "serve.server.http_self_ms": "cpu_s@serve-mix (dominant on hits)",
    "serve.registry.load_s": "setup_s@serve-mix",
    "sched.whatif.evaluate_s": "cpu_s@serve-mix (what-if latency)",
    "sched.wait.predict_s": "cpu_s@serve-mix (what-if latency)",
    "sim.execution.runs": "cpu_s@campaign-store (~0.1%)",
    "sim.execution.run_s": "cpu_s@campaign-store (~0.1%)",
    "store.appends": "cpu_s@campaign-store (~54%); nothing elsewhere",
    "store.shards": "cpu_s@campaign-store (~54%); nothing elsewhere",
    "store.append_s": "cpu_s@campaign-store (~54%); nothing elsewhere",
    "campaign.state.saves": "cpu_s@campaign-store",
    "campaign.state.save_s": "cpu_s@campaign-store",
    "robustness.sanitize_s": "cpu_s@campaign-store",
    "core.uncertainty.interval_s": "cpu_s@campaign-store (~2%)",
    "core.planning.score_s": "cpu_s@campaign-store (~2%)",
    "serve.artifacts.create_s": "cpu_s@campaign-store (<1%)",
    "serve.registry.register_s": "cpu_s@campaign-store (<1%)",
    "quality.mape_large": "none: accuracy must not move",
    "campaign.final_mape": "none: accuracy must not move",
    "trace.unattributed_share": "none: time inside no layer span",
}


def per_layer_values(table: SpanTable, extra: dict[str, Any]) -> dict[str, float]:
    return {name: float(spec[2](table, extra)) for name, spec in PER_LAYER.items()}


def instrument(tracer: Tracer) -> None:
    """Wrap the public call of every layer the workloads exercise."""
    import repro.campaign.runner as campaign_runner
    import repro.data.io as data_io
    import repro.robustness.sanitize as sanitize
    import repro.serve.artifacts as artifacts
    from repro.campaign.state import CampaignState
    from repro.core.extrapolation import ClusteredScalingExtrapolator
    from repro.core.interpolation import PerScaleInterpolator
    from repro.core.packed_pipeline import PackedPipeline
    from repro.core.planning import HistoryPlanner
    from repro.core.two_level import TwoLevelModel
    from repro.core.uncertainty import EnsembleUncertainty
    from repro.ml.cluster.kmeans import KMeans
    from repro.ml.linear.multitask import MultiTaskLasso
    from repro.ml.tree.decision_tree import DecisionTreeRegressor
    from repro.sched.wait import WaitTimePredictor
    from repro.sched.whatif import WhatIfPlanner
    from repro.serve.registry import ModelRegistry
    from repro.serve.server import PredictionServer
    from repro.serve.service import PredictionService
    from repro.sim.execution import Executor
    from repro.store import HistoryStore

    def tree_nodes(tree, args, kwargs):
        tracer.count("ml.tree.tree_nodes", tree.tree_.n_nodes)

    def mtl_iters(model, args, kwargs):
        tracer.count("ml.linear.mtl_iters", model.n_iter_)
        tracer.count("ml.linear.mtl_capped", int(model.n_iter_ >= model.max_iter))

    def packed_rows(result, args, kwargs):
        tracer.count("core.packed_pipeline.rows", len(result))

    def shard_written(entry, args, kwargs):
        tracer.count("store.shards", int(entry is not None))

    wrap = tracer.wrap
    wrap(TwoLevelModel, "fit", "core.two_level.fit")
    wrap(TwoLevelModel, "predict", "core.two_level.predict")
    wrap(TwoLevelModel, "pack", "core.packed_pipeline.pack")
    # Callers import dataset_fingerprint at call time from data.io; the
    # artifact module binds it at import.
    wrap(data_io, "dataset_fingerprint", "data.io.fingerprint")
    wrap(artifacts, "dataset_fingerprint", "data.io.fingerprint")
    wrap(PerScaleInterpolator, "fit", "core.interpolation.fit")
    wrap(PerScaleInterpolator, "predict_matrix", "core.interpolation.predict_matrix")
    wrap(DecisionTreeRegressor, "fit", "ml.tree.fit", after=tree_nodes)
    wrap(ClusteredScalingExtrapolator, "fit", "core.extrapolation.fit")
    wrap(MultiTaskLasso, "fit", "ml.linear.mtl_fit", after=mtl_iters)
    wrap(KMeans, "fit", "ml.cluster.kmeans")
    wrap(PackedPipeline, "predict", "core.packed_pipeline.predict", after=packed_rows)
    wrap(PredictionService, "predict_batch", "serve.service.predict_batch")
    wrap(PredictionServer, "finish_request", "serve.server.request")
    wrap(WhatIfPlanner, "evaluate", "sched.whatif.evaluate")
    wrap(WaitTimePredictor, "predict", "sched.wait.predict")
    wrap(WaitTimePredictor, "predict_with_quantiles", "sched.wait.predict")
    wrap(artifacts.ModelArtifact, "load", "serve.registry.load")
    wrap(artifacts.ModelArtifact, "create", "serve.artifacts.create")
    wrap(ModelRegistry, "register", "serve.registry.register")
    wrap(ModelRegistry, "prune", "serve.registry.register")
    wrap(Executor, "run", "sim.execution.run")
    wrap(HistoryStore, "append", "store.append", after=shard_written)
    wrap(CampaignState, "save", "campaign.state.save")
    wrap(sanitize, "sanitize_dataset", "robustness.sanitize")
    wrap(campaign_runner, "sanitize_dataset", "robustness.sanitize")
    wrap(EnsembleUncertainty, "predict_interval", "core.uncertainty.interval")
    wrap(HistoryPlanner, "score_candidates", "core.planning.score")
