"""campaign-store: a store-backed planner campaign with a model registry,
then every registered model is scored on held-out configurations.

The campaign is the Ext J planner arm: stencil3d at small scales
32/64/128, a seed round of 6 bundles plus three planner rounds, 2
clusters.  Each round plans, simulates, appends every bundle to the
``HistoryStore``, checkpoints, sanitizes, refits, evaluates and
registers the model.  A planner round takes the 28 most useful
bundles; its core-second budget is left at a quarter of the allocation,
so it never binds.  A binding budget would let the seed choose how many
bundles a round buys, and each append re-hashes every shard before it,
so the campaign's cost would grow with the square of that count
(88 and 103 appends at two seeds under the Ext J budget).

Why: it uses the fit layers differently from fit-cold (small growing
histories, 3 scales, 2 clusters, 4 warm-started fits) and it is the only
workload that writes to the store and the registry.
"""

from __future__ import annotations

import itertools

from common import (
    Result, SpeedProbe, held_out, large_scales, mape_percent, median_setup,
    peak_rss_mb, runtime_matrix, untraced,
)
from gates import check
from spans import Tracer

SMALL_SCALES = (32, 64, 128)
CAMPAIGN = dict(
    app_name="stencil3d",
    allocation_core_seconds=40000.0,
    round_budget_core_seconds=None,
    small_scales=SMALL_SCALES,
    eval_scales=(512,),
    max_rounds=3,
    n_seed_configs=6,
    bundles_per_round=28,
    n_candidates=60,
    n_eval_configs=12,
    time_limit=10.0,
    n_clusters=2,
    selection="planner",
)


def sizes(seconds: int) -> dict:
    return {
        "campaign": {k: list(v) if isinstance(v, tuple) else v
                     for k, v in CAMPAIGN.items()},
        "held_out_configs": 1024,
        "held_out_scales": list(large_scales(SMALL_SCALES)),
    }


def run(seed: int, seconds: int, workdir, tracer) -> Result:
    from repro.campaign import Campaign, CampaignConfig
    from repro.core import TwoLevelModel
    from repro.errors import ReproError
    from repro.serve.registry import ModelRegistry
    from repro.store import HistoryStore

    result = Result()
    large = large_scales(SMALL_SCALES)
    config = CampaignConfig(seed=seed, **CAMPAIGN)
    setups = itertools.count()

    def build():
        root = workdir / f"campaign-{next(setups)}"
        test = held_out(seed, large)
        registry = ModelRegistry(root / "registry")
        campaign = Campaign(config, root / "checkpoint", registry=registry,
                            store_dir=root / "store")
        return test, registry, campaign

    probe = SpeedProbe(periodic=tracer is None)
    with untraced(tracer):  # input generation is not the program under test
        (test, registry, campaign), setup_s = median_setup(build, probe)
    X, truth = runtime_matrix(test, large)

    # Time the round refits, and keep the last fitted model: it is the
    # campaign's final model.
    fits = Tracer("fit-clock")
    final = {}
    fits.wrap(TwoLevelModel, "fit", "fit",
              after=lambda model, args, kwargs: final.update(model=model))
    try:
        with probe.measure() as spent:
            report = campaign.run()
    finally:
        fits.restore()
    result.op(len(report.rounds))

    with untraced(tracer):
        held_out_mape = [
            mape_percent(registry.load(config.model_name, v).packed_pipeline
                         .predict(X, large), truth)
            for v in report.registered
        ]
        last = registry.load(config.model_name).packed_pipeline.predict(X, large)
        try:
            HistoryStore.open(campaign.store_dir).verify()
            store_error = None
        except ReproError as exc:
            store_error = f"{type(exc).__name__}: {exc}"
        result.gates(check("campaign-store", {
            "spent": report.ledger.spent,
            "allocation": report.ledger.allocation,
            "store_error": store_error,
            "artifact_pred": last,
            "model_pred": final["model"].predict(X, large),
            "held_out_mape": held_out_mape,
        }))

    result.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "success_ratio": result.success_ratio(),
        "cpu_s": spent.scaled_s,
    }
    campaign_mape = 100 * report.mape_trajectory[-1]
    result.layer_extra = {"quality.mape_large": held_out_mape[-1],
                          "campaign.final_mape": campaign_mape}
    result.details = {
        "unscaled_cpu_s": spent.cpu_s,
        "probe_s": probe.samples,
        "fit_s": [ms / 1e3 for ms in fits.table().durations_ms("fit")],
        "campaign_mape": campaign_mape,
        "mape_trajectory": [100 * m for m in report.mape_trajectory],
        "held_out_mape_by_version": held_out_mape,
        "spent_core_seconds": report.ledger.spent,
        "registered_versions": report.registered,
    }
    return result
