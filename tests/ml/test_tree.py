"""Tests for the CART regression tree and its flat-array representation."""

import numpy as np
import pytest

from repro.ml import DecisionTreeRegressor


def stump(values, y, min_samples_leaf=1):
    """Depth-1 tree on one feature: its root split is the best split."""
    return DecisionTreeRegressor(
        max_depth=1, min_samples_leaf=min_samples_leaf
    ).fit(np.asarray(values, dtype=float)[:, None], y).tree_


class TestSplitter:
    def test_finds_obvious_split(self):
        values = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
        y = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
        tree = stump(values, y)
        assert 3.0 < tree.threshold[0] <= 10.0
        # Splitting removes all SSE: both children are pure.
        assert tree.n_nodes == 3
        np.testing.assert_array_equal(tree.impurity[[tree.left[0], tree.right[0]]], 0.0)
        assert tree.impurity[0] * len(y) == pytest.approx(np.sum((y - y.mean()) ** 2))

    def test_constant_feature_no_split(self):
        tree = stump(np.ones(5), np.arange(5.0))
        assert tree.n_nodes == 1 and tree.feature[0] == -1
        assert np.isnan(tree.threshold[0])

    def test_min_samples_leaf_respected(self):
        values = np.arange(6.0)
        y = np.array([0.0, 0, 0, 0, 0, 100.0])
        # With leaf size 2 the best cut (isolating the last point) is
        # forbidden; the chosen split must leave >= 2 on each side.
        tree = stump(values, y, min_samples_leaf=2)
        n_left = int(np.sum(values <= tree.threshold[0]))
        assert 2 <= n_left <= 4
        assert tree.n_node_samples[tree.left[0]] == n_left

    def test_ties_stay_together(self):
        values = np.array([1.0, 1.0, 1.0, 2.0])
        y = np.array([0.0, 5.0, 10.0, 20.0])
        tree = stump(values, y)
        assert 1.0 < tree.threshold[0] <= 2.0  # cannot split between equal values


class TestDecisionTree:
    def test_fits_training_data_exactly_when_unrestricted(self, rng):
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        model = DecisionTreeRegressor().fit(X, y)
        np.testing.assert_allclose(model.predict(X), y, atol=1e-12)

    def test_max_depth_limits_tree(self, nonlinear_data):
        X, y = nonlinear_data
        model = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert model.get_depth() <= 3
        assert model.get_n_leaves() <= 8

    def test_depth_one_is_stump(self, nonlinear_data):
        X, y = nonlinear_data
        model = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert model.get_n_leaves() <= 2

    def test_min_samples_leaf(self, nonlinear_data):
        X, y = nonlinear_data
        model = DecisionTreeRegressor(min_samples_leaf=20).fit(X, y)
        leaves = model.tree_.n_node_samples[model.tree_.feature == -1]
        assert np.all(leaves >= 20)

    def test_min_samples_split(self, nonlinear_data):
        X, y = nonlinear_data
        model = DecisionTreeRegressor(min_samples_split=50).fit(X, y)
        internal = model.tree_.n_node_samples[model.tree_.feature != -1]
        assert np.all(internal >= 50)

    def test_constant_target_single_leaf(self, rng):
        X = rng.normal(size=(20, 2))
        model = DecisionTreeRegressor().fit(X, np.full(20, 3.0))
        assert model.get_n_leaves() == 1
        np.testing.assert_allclose(model.predict(X), 3.0)

    def test_prediction_is_leaf_mean(self, rng):
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        model = DecisionTreeRegressor(max_depth=2).fit(X, y)
        preds = model.predict(X)
        for value in np.unique(preds):
            members = preds == value
            assert y[members].mean() == pytest.approx(value)

    def test_feature_importances_sum_to_one(self, nonlinear_data):
        X, y = nonlinear_data
        model = DecisionTreeRegressor(max_depth=5).fit(X, y)
        assert model.feature_importances_.sum() == pytest.approx(1.0)

    def test_irrelevant_feature_zero_importance(self, rng):
        X = np.column_stack([rng.normal(size=200), np.zeros(200)])
        y = (X[:, 0] > 0).astype(float)
        model = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert model.feature_importances_[1] == 0.0

    def test_deterministic_given_seed(self, nonlinear_data):
        X, y = nonlinear_data
        p1 = DecisionTreeRegressor(max_features=2, random_state=3).fit(X, y).predict(X)
        p2 = DecisionTreeRegressor(max_features=2, random_state=3).fit(X, y).predict(X)
        np.testing.assert_array_equal(p1, p2)

    def test_min_impurity_decrease_prunes(self, nonlinear_data):
        X, y = nonlinear_data
        full = DecisionTreeRegressor().fit(X, y)
        pruned = DecisionTreeRegressor(min_impurity_decrease=0.05).fit(X, y)
        assert pruned.get_n_leaves() < full.get_n_leaves()

    def test_sample_indices_bootstrap_view(self, rng):
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        idx = np.array([0, 1, 2, 3, 4] * 6)
        model = DecisionTreeRegressor().fit(X, y, sample_indices=idx)
        # Only the first five samples were visible to the tree.
        np.testing.assert_allclose(model.predict(X[:5]), y[:5], atol=1e-12)

    def test_invalid_params_raise(self):
        X, y = np.ones((4, 1)), np.ones(4)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features=0).fit(X, y)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_features="bogus").fit(X, y)

    def test_max_features_strings(self, nonlinear_data):
        X, y = nonlinear_data
        for mf in ["sqrt", "log2", 0.5, 2]:
            model = DecisionTreeRegressor(max_features=mf, random_state=0).fit(X, y)
            assert model.score(X, y) > 0.5


class TestTreeArrays:
    def test_node_bookkeeping_consistent(self, nonlinear_data):
        X, y = nonlinear_data
        tree = DecisionTreeRegressor(max_depth=4).fit(X, y).tree_
        internal = tree.feature != -1
        # Children of every internal node partition its samples.
        left_n = tree.n_node_samples[tree.left[internal]]
        right_n = tree.n_node_samples[tree.right[internal]]
        np.testing.assert_array_equal(
            left_n + right_n, tree.n_node_samples[internal]
        )

    def test_decision_path_depth_bounded(self, nonlinear_data):
        X, y = nonlinear_data
        model = DecisionTreeRegressor(max_depth=4).fit(X, y)
        depths = model.tree_.decision_path_depth(X)
        assert depths.max() <= 4
        assert depths.min() >= 0
