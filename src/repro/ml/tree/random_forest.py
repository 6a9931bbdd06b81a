"""Random forest regressor — the paper's interpolation-level learner.

Bagged CART trees with per-node feature subsampling and optional
out-of-bag error estimation.  Every tree draws its bootstrap sample from
its own stream, and one :func:`~repro.ml.tree.decision_tree.grow_trees`
call grows the whole forest level by level.  The OOB estimate is what
the two-level model's diagnostics report as interpolation quality
without spending a separate validation split.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigurationError
from ..base import BaseEstimator, RegressorMixin, check_is_fitted
from ..validation import check_array, check_X_y, check_random_state, spawn_rngs
from .decision_tree import DecisionTreeRegressor, grow_trees, growth_params

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor(BaseEstimator, RegressorMixin):
    """Ensemble of bootstrap-trained regression trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf, min_impurity_decrease:
        Passed through to each :class:`DecisionTreeRegressor`.
    max_features:
        Per-split feature subset; default 1.0 (all features), the
        scikit-learn default for regression forests.
    bootstrap:
        Draw a bootstrap sample per tree (True) or train every tree on the
        full data (False; then only feature subsampling decorrelates).
    oob_score:
        Compute the out-of-bag R^2 and per-sample OOB predictions.
    random_state:
        Seed or Generator; trees get independent child streams.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: object = 1.0,
        min_impurity_decrease: float = 0.0,
        bootstrap: bool = True,
        oob_score: bool = False,
        random_state: object = None,
    ) -> None:
        if int(n_estimators) < 1:
            raise ConfigurationError("n_estimators must be >= 1.")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.bootstrap = bootstrap
        self.oob_score = oob_score
        self.random_state = random_state

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        if self.n_estimators < 1:
            # Re-check at fit time: set_params/attribute writes can change
            # n_estimators after construction, and predict divides by it.
            raise ConfigurationError("n_estimators must be >= 1.")
        if self.oob_score and not self.bootstrap:
            raise ValueError("oob_score requires bootstrap=True.")
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        n_samples = X.shape[0]
        tree_rngs = spawn_rngs(rng, self.n_estimators)
        if self.bootstrap:
            samples = np.stack(
                [r.integers(0, n_samples, size=n_samples) for r in tree_rngs]
            )
        else:
            samples = np.broadcast_to(
                np.arange(n_samples), (self.n_estimators, n_samples)
            )
        params = growth_params(self)
        grown = grow_trees(X, y, samples, tree_rngs, **params)
        self.estimators_: list[DecisionTreeRegressor] = [
            DecisionTreeRegressor(**params, random_state=r)._set_grown(
                tree, tree_importances, X.shape[1]
            )
            for r, (tree, tree_importances) in zip(tree_rngs, grown)
        ]

        importances = np.mean(
            [t.feature_importances_ for t in self.estimators_], axis=0
        )
        total = importances.sum()
        self.feature_importances_ = (
            importances / total if total > 0 else importances
        )
        self.n_features_in_ = X.shape[1]

        if self.oob_score:
            oob_sum = np.zeros(n_samples)
            oob_count = np.zeros(n_samples, dtype=np.int64)
            for tree, idx in zip(self.estimators_, samples):
                mask = np.ones(n_samples, dtype=bool)
                mask[np.unique(idx)] = False
                if np.any(mask):
                    oob_sum[mask] += tree.predict(X[mask])
                    oob_count[mask] += 1
            covered = oob_count > 0
            self.oob_prediction_ = np.full(n_samples, np.nan)
            self.oob_prediction_[covered] = oob_sum[covered] / oob_count[covered]
            if covered.sum() >= 2:
                from ..metrics import r2_score

                self.oob_score_ = r2_score(y[covered], self.oob_prediction_[covered])
            else:
                self.oob_score_ = np.nan
        return self

    def _validate_predict_X(self, X: np.ndarray) -> np.ndarray:
        """Validate a predict-time matrix once (n=0 rows are allowed)."""
        check_is_fitted(self, "estimators_")
        X = check_array(X, min_samples=0)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"Expected {self.n_features_in_} features, got {X.shape[1]}."
            )
        return X

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean prediction over all trees."""
        X = self._validate_predict_X(X)
        out = np.zeros(X.shape[0])
        for tree in self.estimators_:
            out += tree.tree_.predict(X)
        out /= len(self.estimators_)
        return out

    def predict_all(self, X: np.ndarray) -> np.ndarray:
        """Per-tree predictions, shape ``(n_estimators, n_samples)``.

        Used to obtain ensemble spread (an uncertainty proxy the
        two-level model's diagnostics expose for interpolation outputs).
        Validates once, then traverses the already-checked matrix.
        """
        X = self._validate_predict_X(X)
        return np.stack([t.tree_.predict(X) for t in self.estimators_])

    def prediction_std(self, X: np.ndarray) -> np.ndarray:
        """Standard deviation of per-tree predictions for each sample."""
        return self.predict_all(X).std(axis=0)
