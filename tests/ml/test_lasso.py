"""Tests for the coordinate-descent lasso / elastic net.

The KKT and duality-gap tests are machine-checkable optimality proofs of
the solver, not just behavioral checks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import ElasticNet, Lasso, LassoCV, LinearRegression, lasso_path
from repro.ml.linear.coordinate_descent import alpha_max


def kkt_violation(X, y, coef, intercept, alpha):
    """Max violation of the lasso KKT conditions at (coef, intercept)."""
    n = X.shape[0]
    r = y - X @ coef - intercept
    corr = X.T @ r / n
    viol = 0.0
    for j in range(len(coef)):
        if coef[j] != 0.0:
            viol = max(viol, abs(corr[j] - alpha * np.sign(coef[j])))
        else:
            viol = max(viol, max(0.0, abs(corr[j]) - alpha))
    return viol


class TestLassoOptimality:
    def test_kkt_conditions_hold(self, linear_data):
        X, y, _ = linear_data
        alpha = 0.05
        model = Lasso(alpha=alpha, tol=1e-10, max_iter=5000).fit(X, y)
        assert kkt_violation(X, y, model.coef_, model.intercept_, alpha) < 1e-6

    def test_duality_gap_small(self, linear_data):
        X, y, _ = linear_data
        model = Lasso(alpha=0.02, tol=1e-8).fit(X, y)
        assert model.dual_gap_ < 1e-4

    @given(st.floats(0.005, 0.5), st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_kkt_property_random_problems(self, alpha, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 6))
        y = rng.normal(size=40)
        model = Lasso(alpha=alpha, tol=1e-10, max_iter=10000).fit(X, y)
        assert kkt_violation(X, y, model.coef_, model.intercept_, alpha) < 1e-5

    @pytest.mark.parametrize("l1_ratio", [1.0, 0.5])
    def test_converged_is_the_stop_rule(self, linear_data, l1_ratio):
        X, y, _ = linear_data
        yc = y - y.mean()
        gap_tol = 1e-10 * (yc @ yc) / len(y)
        model = ElasticNet(alpha=0.05, l1_ratio=l1_ratio, tol=1e-10, max_iter=5000)
        model.fit(X, y)
        assert model.converged_ and model.dual_gap_ < gap_tol
        assert model.n_iter_ < 5000
        capped = ElasticNet(alpha=0.05, l1_ratio=l1_ratio, tol=1e-14, max_iter=1)
        capped.fit(X, y)
        assert not capped.converged_ and capped.dual_gap_ >= 1e-14 * (yc @ yc) / len(y)

    def test_alpha_above_max_gives_zero(self, linear_data):
        X, y, _ = linear_data
        a_max = alpha_max(X, y)
        model = Lasso(alpha=a_max * 1.01).fit(X, y)
        np.testing.assert_array_equal(model.coef_, 0.0)
        assert model.intercept_ == pytest.approx(y.mean())

    def test_alpha_below_max_gives_nonzero(self, linear_data):
        X, y, _ = linear_data
        a_max = alpha_max(X, y)
        model = Lasso(alpha=a_max * 0.9).fit(X, y)
        assert np.any(model.coef_ != 0.0)


class TestLassoBehavior:
    def test_recovers_true_support(self, linear_data):
        X, y, w = linear_data
        model = Lasso(alpha=0.05).fit(X, y)
        assert set(np.nonzero(model.coef_)[0]) == set(np.nonzero(w)[0])

    def test_sparsity_monotone_in_alpha(self, linear_data):
        X, y, _ = linear_data
        counts = [
            int(np.sum(Lasso(alpha=a).fit(X, y).coef_ != 0.0))
            for a in [0.001, 0.05, 0.5, 2.0]
        ]
        assert counts == sorted(counts, reverse=True)

    def test_alpha_zero_close_to_ols(self, linear_data):
        X, y, _ = linear_data
        la = Lasso(alpha=1e-10, max_iter=20000, tol=1e-12).fit(X, y)
        ols = LinearRegression().fit(X, y)
        np.testing.assert_allclose(la.coef_, ols.coef_, atol=1e-4)

    def test_warm_start_reuses_solution(self, linear_data):
        X, y, _ = linear_data
        model = Lasso(alpha=0.1, warm_start=True).fit(X, y)
        first_iters = model.n_iter_
        model.fit(X, y)  # identical problem: should converge immediately
        assert model.n_iter_ <= first_iters

    def test_negative_alpha_raises(self):
        with pytest.raises(ValueError):
            Lasso(alpha=-0.1).fit(np.ones((3, 1)), np.ones(3))

    def test_constant_feature_gets_zero_weight(self, rng):
        X = np.column_stack([np.ones(50), rng.normal(size=50)])
        y = X[:, 1] * 2.0
        model = Lasso(alpha=0.01).fit(X, y)
        assert model.coef_[0] == 0.0


class TestElasticNet:
    def test_l1_ratio_one_equals_lasso(self, linear_data):
        X, y, _ = linear_data
        en = ElasticNet(alpha=0.05, l1_ratio=1.0).fit(X, y)
        la = Lasso(alpha=0.05).fit(X, y)
        np.testing.assert_allclose(en.coef_, la.coef_, atol=1e-10)

    def test_l2_component_shrinks_more_densely(self, linear_data):
        X, y, _ = linear_data
        en = ElasticNet(alpha=0.1, l1_ratio=0.3).fit(X, y)
        la = Lasso(alpha=0.1).fit(X, y)
        # Elastic net keeps at least as many features active.
        assert np.sum(en.coef_ != 0) >= np.sum(la.coef_ != 0)

    def test_invalid_l1_ratio_raises(self):
        with pytest.raises(ValueError):
            ElasticNet(l1_ratio=1.5).fit(np.ones((3, 1)), np.ones(3))


class TestLassoPath:
    def test_path_shapes_and_order(self, linear_data):
        X, y, _ = linear_data
        alphas, coefs = lasso_path(X, y, n_alphas=10)
        assert coefs.shape == (10, X.shape[1])
        assert np.all(np.diff(alphas) < 0)  # decreasing

    def test_first_point_all_zero(self, linear_data):
        X, y, _ = linear_data
        _, coefs = lasso_path(X, y, n_alphas=5)
        np.testing.assert_allclose(coefs[0], 0.0, atol=1e-8)

    def test_support_grows_along_path(self, linear_data):
        X, y, _ = linear_data
        _, coefs = lasso_path(X, y, n_alphas=20)
        sizes = (coefs != 0).sum(axis=1)
        assert sizes[-1] >= sizes[0]

    def test_custom_alphas_sorted_internally(self, linear_data):
        X, y, _ = linear_data
        alphas, _ = lasso_path(X, y, alphas=np.array([0.01, 1.0, 0.1]))
        assert list(alphas) == sorted(alphas, reverse=True)


class TestLassoCV:
    def test_finds_reasonable_alpha(self, linear_data):
        X, y, _ = linear_data
        model = LassoCV(cv=4, n_alphas=20).fit(X, y)
        # Low-noise data: CV must not over-regularize.
        assert model.alpha_ < 0.5 * alpha_max(X, y)
        assert model.score(X, y) > 0.99

    def test_mse_path_shape(self, linear_data):
        X, y, _ = linear_data
        model = LassoCV(cv=3, n_alphas=7).fit(X, y)
        assert model.mse_path_.shape == (7, 3)

    def test_predictions_match_inner_model(self, linear_data):
        X, y, _ = linear_data
        model = LassoCV(cv=3).fit(X, y)
        direct = Lasso(alpha=model.alpha_).fit(X, y)
        np.testing.assert_allclose(model.predict(X), direct.predict(X), atol=1e-8)
