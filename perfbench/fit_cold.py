"""fit-cold: cold two-level fits of the quickstart history, then the
packed model is scored on held-out configurations.

Each run fits two histories: the quickstart history exactly as
examples/quickstart.py builds it, which is the same in every run, and
the same 80 configurations measured again with noise drawn from the
seed.  The first keeps run-to-run spread down to the machine's own; the
second makes the solver's work, and every count, depend on the seed.

Why: it is the paper's method.  The per-scale forests and the clustered
multitask-lasso support path do almost all the work; serving and the
store do none.
"""

from __future__ import annotations

import gc
import time

from common import (
    QUICKSTART_SCALES, Result, SpeedProbe, held_out, large_scales,
    mape_percent, median_setup, peak_rss_mb, quickstart_history,
    runtime_matrix, untraced,
)
from gates import check


def sizes(seconds: int) -> dict:
    return {
        "fits": ["quickstart history", "quickstart configs, noise from seed"],
        "history": "stencil3d, 80 configs x scales 32-512 x 2 reps",
        "clusters": 3,
        "held_out_configs": 1024,
        "held_out_scales": list(large_scales(QUICKSTART_SCALES)),
    }


def run(seed: int, seconds: int, workdir, tracer) -> Result:
    from repro.core import TwoLevelModel

    result = Result()
    large = large_scales(QUICKSTART_SCALES)
    scales = [max(QUICKSTART_SCALES), *large]

    probe = SpeedProbe(periodic=tracer is None)
    with untraced(tracer):  # input generation is not the program under test
        (histories, test), setup_s = median_setup(lambda: (
            [quickstart_history(), quickstart_history(seed)],
            held_out(seed, large),
        ), probe)
    X, truth = runtime_matrix(test, large)

    fit_times = []
    degraded = []
    blocks = []
    for train in histories:
        model = None
        gc.collect()
        fit_start = time.perf_counter()
        with probe.measure() as spent:
            model = TwoLevelModel(
                small_scales=QUICKSTART_SCALES, n_clusters=3, random_state=0
            ).fit(train)
        fit_times.append(time.perf_counter() - fit_start)
        blocks.append(spent)
        result.op()
        if model.fit_report_.degraded:
            degraded.extend(model.fit_report_.kinds())
    with probe.measure() as spent:
        packed = model.pack()
        packed_pred = packed.predict(X, scales)
    blocks.append(spent)

    with untraced(tracer):
        object_pred = model.predict(X, scales)
    result.gates(check("fit-cold", {
        "object_pred": object_pred,
        "packed_pred": packed_pred,
        "degraded": degraded,
    }))

    mape_large = mape_percent(packed_pred[:, 1:], truth)
    result.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "success_ratio": result.success_ratio(),
        "cpu_s": sum(b.scaled_s for b in blocks),
    }
    result.layer_extra = {"quality.mape_large": mape_large}
    result.details = {"fit_wall_s": fit_times,
                      "unscaled_cpu_s": sum(b.cpu_s for b in blocks),
                      "probe_s": probe.samples}
    return result
