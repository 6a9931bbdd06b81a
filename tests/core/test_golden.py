"""Golden outputs of the quickstart model.

``data/quickstart_golden.npz`` pins what examples/quickstart.py fits:
each cluster's selected scalability terms and intercept flag, and the
predictions for its 20 held-out configurations at 1024/2048/4096
processes.  A solver or refactor that moves any of them fails here
instead of shifting results silently.

Regenerate (only when a change of output is intended and explained):

    PYTHONPATH=src python tests/core/test_golden.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.apps import get_app
from repro.core import TwoLevelModel
from repro.data import HistoryGenerator

GOLDEN = Path(__file__).resolve().parent / "data" / "quickstart_golden.npz"
SMALL_SCALES = [32, 64, 128, 256, 512]
LARGE_SCALES = [1024, 2048, 4096]


def quickstart_outputs() -> dict[str, np.ndarray]:
    """Fit the quickstart model exactly as the example does."""
    gen = HistoryGenerator(get_app("stencil3d"), seed=7)
    train = gen.collect(gen.sample_configs(80), SMALL_SCALES, repetitions=2)
    model = TwoLevelModel(
        small_scales=SMALL_SCALES, n_clusters=3, random_state=0
    ).fit(train)
    X = gen.collect(gen.sample_configs(20), LARGE_SCALES, repetitions=1)
    X = X.unique_configs()
    names = model.support_names()
    clusters = sorted(names)
    return {
        "supports": np.array(
            [",".join(t for t in names[c] if t != "1") for c in clusters]
        ),
        "intercepts": np.array([names[c][:1] == ("1",) for c in clusters]),
        "X": X,
        "predictions": model.predict(X, LARGE_SCALES),
    }


def test_quickstart_matches_golden():
    golden = np.load(GOLDEN)
    out = quickstart_outputs()
    assert out["supports"].tolist() == golden["supports"].tolist()
    assert out["intercepts"].tolist() == golden["intercepts"].tolist()
    np.testing.assert_array_equal(out["X"], golden["X"])
    np.testing.assert_allclose(
        out["predictions"], golden["predictions"], rtol=1e-10, atol=0.0
    )


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez(GOLDEN, **quickstart_outputs())
    print(f"wrote {GOLDEN}")
