"""Golden outputs of the tree learners the pipeline fits.

``data/forest_golden.npz`` pins, bit for bit:

* ``predict_all`` of the quickstart's per-scale forests at p=32 and
  p=512, on their training inputs and on 20 fresh configurations, and
  every tree's node count;
* ``predict_all`` of a forest shaped like the scheduler's wait model
  (``max_depth``, ``min_samples_leaf > 1``) on tied, integer-valued
  features;
* the predictions of the Ext D gradient-boosted interpolation learner;
* ``oob_prediction_`` and ``oob_score_`` of an out-of-bag forest.

A grower or splitter change that moves any tree fails here instead of
shifting results silently.

Regenerate (only when a change of output is intended and explained):

    PYTHONPATH=src python tests/ml/test_forest_golden.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.apps import get_app
from repro.core.interpolation import PerScaleInterpolator, gbdt_interpolation_model
from repro.data import HistoryGenerator
from repro.ml import RandomForestRegressor

GOLDEN = Path(__file__).resolve().parent / "data" / "forest_golden.npz"
SMALL_SCALES = [32, 64, 128, 256, 512]


def _quickstart_history():
    gen = HistoryGenerator(get_app("stencil3d"), seed=7)
    train = gen.collect(gen.sample_configs(80), SMALL_SCALES, repetitions=2)
    fresh = gen.sample_configs(20)
    fresh_X = np.array(
        [[cfg[name] for name in train.param_names] for cfg in fresh],
        dtype=np.float64,
    )
    return train, fresh_X


def _wait_shaped_problem():
    rng = np.random.default_rng(2020)
    n = 240
    X = np.column_stack([
        rng.integers(0, 12, size=n),          # queue length
        rng.integers(1, 9, size=n) * 32.0,    # requested processes
        np.round(rng.exponential(300.0, size=n), -1),  # requested walltime
        rng.integers(0, 4, size=n),           # running jobs
    ]).astype(np.float64)
    y = np.log1p(5.0 * X[:, 0] + 0.01 * X[:, 2] + rng.exponential(2.0, size=n))
    return X, y


def forest_outputs() -> dict[str, np.ndarray]:
    train, fresh_X = _quickstart_history()
    interp = PerScaleInterpolator(random_state=0).fit(train)
    out: dict[str, np.ndarray] = {}
    for scale in (32, 512):
        forest = interp.models_[scale]
        X = np.vstack([train.at_scale(scale).X, fresh_X])
        out[f"rf{scale}_predict_all"] = forest.predict_all(X)
        out[f"rf{scale}_n_nodes"] = np.array(
            [t.tree_.n_nodes for t in forest.estimators_]
        )

    X, y = _wait_shaped_problem()
    wait = RandomForestRegressor(
        n_estimators=64, max_depth=8, min_samples_leaf=2, random_state=11
    ).fit(X, y)
    probe = np.vstack([X, X[:40] + 0.5])
    out["wait_predict_all"] = wait.predict_all(probe)

    sub = train.at_scale(128)
    gbdt = gbdt_interpolation_model(random_state=3).fit(sub.X, np.log(sub.runtime))
    out["gbdt_predict"] = gbdt.predict(np.vstack([sub.X, fresh_X]))

    rng = np.random.default_rng(4)
    Xo = rng.uniform(-2, 2, size=(150, 3))
    yo = np.sin(Xo[:, 0]) + Xo[:, 1] ** 2 + 0.1 * rng.normal(size=150)
    oob = RandomForestRegressor(
        n_estimators=25, oob_score=True, random_state=9
    ).fit(Xo, yo)
    out["oob_prediction"] = oob.oob_prediction_
    out["oob_score"] = np.array(oob.oob_score_)
    return out


def test_forests_match_golden():
    golden = np.load(GOLDEN)
    out = forest_outputs()
    assert sorted(out) == sorted(golden.files)
    for key in golden.files:
        np.testing.assert_array_equal(out[key], golden[key], err_msg=key)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **forest_outputs())
    print(f"wrote {GOLDEN}")
