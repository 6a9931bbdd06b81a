"""Tests for the multitask lasso (FISTA on the Gram form)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import get_app
from repro.core.extrapolation import _PATH_MAX_ITER, _PATH_TOL, _standardize_columns
from repro.core.scaling_features import ScaleBasis
from repro.data import HistoryGenerator
from repro.ml import Lasso, MultiTaskLasso, MultiTaskLassoCV, multitask_alpha_max


def group_kkt_violation(X, Y, W_tasks_by_feat, intercept, alpha):
    """Max violation of the L2,1 group KKT conditions.

    W is given as (n_features, n_tasks).  For active rows the correlation
    block must equal alpha * w / ||w||; for zero rows its norm must be
    <= alpha.
    """
    n = X.shape[0]
    R = Y - X @ W_tasks_by_feat - intercept
    corr = X.T @ R / n  # (n_features, n_tasks)
    viol = 0.0
    for j in range(W_tasks_by_feat.shape[0]):
        wj = W_tasks_by_feat[j]
        nj = np.linalg.norm(wj)
        cj = corr[j]
        if nj > 0:
            viol = max(viol, float(np.max(np.abs(cj - alpha * wj / nj))))
        else:
            viol = max(viol, max(0.0, float(np.linalg.norm(cj)) - alpha))
    return viol


def direct_duality_gap(X, Y, W_tasks_by_feat, alpha):
    """Duality gap computed from X and Y themselves (no Gram form)."""
    n = X.shape[0]
    Xc, Yc = X - X.mean(axis=0), Y - Y.mean(axis=0)
    R = Yc - Xc @ W_tasks_by_feat
    primal = np.sum(R * R) / (2 * n) + alpha * np.linalg.norm(
        W_tasks_by_feat, axis=1
    ).sum()
    max_corr = np.linalg.norm(Xc.T @ R / n, axis=1).max()
    theta = R / n * min(1.0, alpha / max_corr)
    dual = -0.5 * n * np.sum(theta * theta) + np.sum(theta * Yc)
    return max(primal - dual, 0.0)


@pytest.fixture
def multitask_data(rng):
    X = rng.normal(size=(150, 8))
    W = np.zeros((8, 3))
    W[0] = [2.0, 1.0, -1.0]
    W[3] = [-1.0, 0.5, 2.0]
    Y = X @ W + np.array([1.0, 0.0, -1.0]) + 0.01 * rng.normal(size=(150, 3))
    return X, Y, W


class TestMultiTaskLassoOptimality:
    def test_group_kkt_conditions(self, multitask_data):
        X, Y, _ = multitask_data
        alpha = 0.05
        model = MultiTaskLasso(alpha=alpha, tol=1e-10, max_iter=5000).fit(X, Y)
        W = model.coef_.T
        assert group_kkt_violation(X, Y, W, model.intercept_, alpha) < 1e-6

    def test_duality_gap_small(self, multitask_data):
        X, Y, _ = multitask_data
        model = MultiTaskLasso(alpha=0.05, tol=1e-8).fit(X, Y)
        assert model.dual_gap_ < 1e-4

    @given(st.floats(0.01, 0.5), st.integers(0, 4))
    @settings(max_examples=15, deadline=None)
    def test_kkt_property_random(self, alpha, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 5))
        Y = rng.normal(size=(30, 3))
        model = MultiTaskLasso(alpha=alpha, tol=1e-10, max_iter=10000).fit(X, Y)
        assert group_kkt_violation(X, Y, model.coef_.T, model.intercept_, alpha) < 1e-5


class TestRowSparsity:
    def test_support_shared_across_tasks(self, multitask_data):
        X, Y, _ = multitask_data
        model = MultiTaskLasso(alpha=0.05).fit(X, Y)
        active_per_task = [set(np.nonzero(model.coef_[t])[0]) for t in range(3)]
        assert active_per_task[0] == active_per_task[1] == active_per_task[2]

    def test_recovers_true_rows(self, multitask_data):
        X, Y, W = multitask_data
        model = MultiTaskLasso(alpha=0.05).fit(X, Y)
        assert set(np.nonzero(model.support_)[0]) == {0, 3}

    def test_alpha_max_boundary(self, multitask_data):
        X, Y, _ = multitask_data
        a_max = multitask_alpha_max(X, Y)
        assert not MultiTaskLasso(alpha=a_max * 1.01).fit(X, Y).support_.any()
        assert MultiTaskLasso(alpha=a_max * 0.9).fit(X, Y).support_.any()

    def test_single_task_matches_lasso(self, linear_data):
        X, y, _ = linear_data
        alpha = 0.05
        mt = MultiTaskLasso(alpha=alpha, tol=1e-10).fit(X, y.reshape(-1, 1))
        la = Lasso(alpha=alpha, tol=1e-10).fit(X, y)
        np.testing.assert_allclose(mt.coef_[0], la.coef_, atol=1e-6)


class TestMultiTaskBehavior:
    def test_predict_shape(self, multitask_data):
        X, Y, _ = multitask_data
        model = MultiTaskLasso(alpha=0.01).fit(X, Y)
        assert model.predict(X).shape == Y.shape

    def test_accuracy_on_shared_support_problem(self, multitask_data):
        X, Y, _ = multitask_data
        model = MultiTaskLasso(alpha=0.01).fit(X, Y)
        resid = Y - model.predict(X)
        assert np.sqrt(np.mean(resid**2)) < 0.1

    def test_1d_target_promoted(self, linear_data):
        X, y, _ = linear_data
        model = MultiTaskLasso(alpha=0.1).fit(X, y)
        assert model.coef_.shape == (1, X.shape[1])

    def test_warm_start(self, multitask_data):
        X, Y, _ = multitask_data
        model = MultiTaskLasso(alpha=0.05, warm_start=True).fit(X, Y)
        first = model.n_iter_
        model.fit(X, Y)
        assert model.n_iter_ <= first

    def test_negative_alpha_raises(self):
        with pytest.raises(ValueError):
            MultiTaskLasso(alpha=-1).fit(np.ones((3, 2)), np.ones((3, 2)))

    @pytest.mark.filterwarnings("error")
    def test_constant_columns_give_zero_coef(self):
        # One sample: every centered column is zero, so X^T X has no
        # positive eigenvalue to set the step from.
        model = MultiTaskLasso(alpha=10.0).fit(np.ones((1, 3)), [[1.0, 2.0]])
        np.testing.assert_array_equal(model.coef_, 0.0)
        np.testing.assert_array_equal(model.intercept_, [1.0, 2.0])
        assert model.converged_


class TestMultiTaskLassoCV:
    def test_selects_alpha_and_predicts(self, multitask_data):
        X, Y, _ = multitask_data
        model = MultiTaskLassoCV(cv=3, n_alphas=15).fit(X, Y)
        assert model.alpha_ > 0
        assert set(np.nonzero(model.support_)[0]) == {0, 3}

    def test_mse_path_shape(self, multitask_data):
        X, Y, _ = multitask_data
        model = MultiTaskLassoCV(cv=4, n_alphas=6).fit(X, Y)
        assert model.mse_path_.shape == (6, 4)


class TestConvergedFlag:
    def test_converged_is_the_stop_rule(self, multitask_data):
        X, Y, _ = multitask_data
        Yc = Y - Y.mean(axis=0)
        gap_tol = 1e-10 * np.sum(Yc * Yc) / len(Y)
        model = MultiTaskLasso(alpha=0.05, tol=1e-10, max_iter=5000).fit(X, Y)
        assert model.converged_ and model.dual_gap_ < gap_tol
        assert model.n_iter_ < 5000

    def test_capped_solve_is_not_converged(self, multitask_data):
        X, Y, _ = multitask_data
        model = MultiTaskLasso(alpha=0.05, tol=1e-14, max_iter=3).fit(X, Y)
        assert model.n_iter_ == 3
        assert not model.converged_
        assert np.isfinite(model.dual_gap_)


def path_curves(scales, n_tasks):
    """Magnitude-normalized small-scale curves of simulated stencil
    configurations, one per column, as the extrapolation level fits them."""
    gen = HistoryGenerator(get_app("stencil3d"), seed=7)
    history = gen.collect(gen.sample_configs(n_tasks), scales, repetitions=1)
    _, S = history.runtime_matrix(scales)
    return (S / S.mean(axis=1, keepdims=True)).T


class TestSupportPathRegime:
    """The solver where the extrapolation level runs it: the standardized
    ScaleBasis design of 5 small scales (the quickstart; rank 4 once
    centered) or 3 (the campaigns; rank 2), curves as tasks, and a
    40-alpha warm-started path at the path's tolerance and cap.  One task
    is the independent-lasso ablation's path.  The reference solves the
    same path to tol 1e-14."""

    @pytest.mark.parametrize(
        "scales, n_tasks",
        [
            ([32, 64, 128, 256, 512], 1),
            ([32, 64, 128, 256, 512], 15),
            ([32, 64, 128, 256, 512], 42),
            ([32, 64, 128], 17),
        ],
    )
    def test_every_path_solve_converges_to_the_lasso_support(
        self, scales, n_tasks
    ):
        A, _, _ = _standardize_columns(ScaleBasis().design_matrix(scales))
        Y = path_curves(scales, n_tasks)
        Yc = Y - Y.mean(axis=0)
        yy = np.sum(Yc * Yc) / len(Y)
        a_max = multitask_alpha_max(A, Y)
        model = MultiTaskLasso(warm_start=True, tol=_PATH_TOL, max_iter=_PATH_MAX_ITER)
        ref = MultiTaskLasso(warm_start=True, tol=1e-14, max_iter=100_000)
        for alpha in np.geomspace(a_max * 0.95, a_max * 1e-3, 40):
            model.alpha = ref.alpha = float(alpha)
            model.fit(A, Y)
            ref.fit(A, Y)
            assert model.converged_ and ref.converged_, alpha
            np.testing.assert_array_equal(model.support_, ref.support_)
            W = model.coef_.T
            assert group_kkt_violation(A, Y, W, model.intercept_, alpha) < 1e-6
            gap = direct_duality_gap(A, Y, W, alpha)
            assert abs(gap - model.dual_gap_) < 1e-13 * yy
