"""Multi-task lasso via accelerated proximal gradient (FISTA).

This is the estimator the reproduced paper uses at the extrapolation
level: several related regression tasks (scaling curves of configurations
that cluster together, or large target scales) are fitted jointly with an
L2,1 penalty

    (1 / (2 n)) * ||Y - X W||_F^2  +  alpha * sum_j ||W[j, :]||_2

so that every task shares one support of active features.  A feature
(scaling basis function) is either used by *all* tasks in the group or by
none — which is exactly the mechanism that damps per-task interpolation
noise in the paper's method.

The solver is FISTA (Beck & Teboulle 2009) with gradient-based adaptive
restart (O'Donoghue & Candes 2015) on the Gram form ``X^T X / n``,
``X^T Y / n``: each iteration updates every row of every task at once,
and it keeps converging on the support path's rank-deficient 5 x 8
designs, where cyclic coordinate descent crawls.
"""

from __future__ import annotations

import math

import numpy as np

from ..base import BaseEstimator, RegressorMixin, check_is_fitted
from ..validation import check_array, check_X_y

__all__ = ["MultiTaskLasso", "MultiTaskLassoCV", "multitask_alpha_max"]


def _row_norms(M: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("jt,jt->j", M, M))


def multitask_alpha_max(
    X: np.ndarray, Y: np.ndarray, fit_intercept: bool = True
) -> float:
    """Smallest alpha for which the multitask-lasso solution is all zero.

    Equals ``max_j || X_j^T Y ||_2 / n`` on centered data.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if fit_intercept:
        X = X - X.mean(axis=0)
        Y = Y - Y.mean(axis=0)
    n = X.shape[0]
    corr = X.T @ Y  # (n_features, n_tasks)
    return float(np.max(_row_norms(corr)) / n)


def _gram_duality_gap(
    G: np.ndarray, C: np.ndarray, yy: float, W: np.ndarray, alpha: float
) -> float:
    """Duality gap at ``W`` from ``G = X^T X / n``, ``C = X^T Y / n`` and
    ``yy = ||Y||^2 / n``.

    The dual point is the residual ``R = Y - X W`` scaled into the
    feasible set ``max_j ||X_j^T Theta||_2 <= alpha`` (the dual norm of
    L2,1 is L2,inf); every term reduces to the Gram quantities.
    """
    corr = C - G @ W  # X^T R / n
    r2 = yy - float(np.sum(W * (C + corr)))  # ||R||^2 / n
    primal = 0.5 * r2 + alpha * float(_row_norms(W).sum())
    max_corr = float(_row_norms(corr).max()) if corr.size else 0.0
    scale = 1.0 if max_corr <= alpha else alpha / max_corr
    dual = scale * (yy - float(np.sum(W * C))) - 0.5 * scale * scale * r2
    return max(primal - dual, 0.0)


class MultiTaskLasso(BaseEstimator, RegressorMixin):
    """Jointly sparse linear models for multiple regression tasks.

    ``fit`` takes ``Y`` of shape ``(n_samples, n_tasks)``; the learned
    ``coef_`` has shape ``(n_tasks, n_features)`` and every feature column
    is either active for all tasks or zero for all tasks.

    Parameters
    ----------
    alpha:
        Strength of the L2,1 penalty.
    fit_intercept:
        Fit per-task unpenalized intercepts by centering.
    max_iter, tol:
        Proximal-gradient iteration cap and duality-gap tolerance
        (relative to ``||Y||^2 / n`` of the centered targets).
    warm_start:
        Reuse the previous ``coef_`` as the starting point.

    After ``fit``, ``n_iter_`` counts proximal-gradient iterations,
    ``dual_gap_`` is the last certified gap, and ``converged_`` says
    whether the gap met the tolerance before ``max_iter``.
    """

    def __init__(
        self,
        alpha: float = 1.0,
        fit_intercept: bool = True,
        max_iter: int = 1000,
        tol: float = 1e-6,
        warm_start: bool = False,
    ) -> None:
        self.alpha = alpha
        self.fit_intercept = fit_intercept
        self.max_iter = max_iter
        self.tol = tol
        self.warm_start = warm_start

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "MultiTaskLasso":
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative.")
        X, Y = check_X_y(X, Y, multi_output=True)
        n_features = X.shape[1]
        n_tasks = Y.shape[1]

        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = Y.mean(axis=0)
            Xc, Yc = X - x_mean, Y - y_mean
        else:
            x_mean = np.zeros(n_features)
            y_mean = np.zeros(n_tasks)
            Xc, Yc = X, Y

        if (
            self.warm_start
            and hasattr(self, "coef_")
            and self.coef_.shape == (n_tasks, n_features)
        ):
            W = self.coef_.T.copy()
        else:
            W = np.zeros((n_features, n_tasks))

        n = X.shape[0]
        G = Xc.T @ Xc / n
        C = Xc.T @ Yc / n
        yy = float(np.sum(Yc * Yc)) / n
        gap_tol = self.tol * yy if yy > 0.0 else self.tol
        # Step 1/L with L = lambda_max(G), the gradient's Lipschitz constant;
        # L = 0 means every column is constant, and W = 0 is the solution.
        L = float(np.linalg.eigvalsh(G)[-1])
        if L > 0.0:
            M, B, thresh = np.eye(n_features) - G / L, C / L, self.alpha / L
        else:
            M, B, thresh = np.zeros_like(G), np.zeros_like(C), np.inf
        Z, t = W, 1.0
        gap, n_iter = np.inf, 0
        for n_iter in range(1, self.max_iter + 1):
            # Gradient step from the extrapolated point, then a row-wise
            # group soft-threshold over all tasks at once.
            V = M @ Z + B
            norms = _row_norms(V)
            shrink = np.zeros(n_features)
            active = norms > thresh
            shrink[active] = 1.0 - thresh / norms[active]
            W_new = V * shrink[:, None]
            step = W_new - W
            if np.vdot(Z - W_new, step) > 0.0:
                # Momentum points uphill: restart the acceleration.
                Z, t = W_new, 1.0
            else:
                t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
                Z = W_new + ((t - 1.0) / t_next) * step
                t = t_next
            W = W_new
            if n_iter % 10 == 0 or n_iter == self.max_iter:  # gap check
                gap = _gram_duality_gap(G, C, yy, W, self.alpha)
                if gap < gap_tol:
                    break

        self.coef_ = W.T  # (n_tasks, n_features), sklearn convention
        self.intercept_ = y_mean - x_mean @ W
        self.dual_gap_ = gap
        self.n_iter_ = n_iter
        self.converged_ = bool(gap < gap_tol)
        self.n_features_in_ = n_features
        self.n_tasks_ = n_tasks
        return self

    @property
    def support_(self) -> np.ndarray:
        """Boolean mask of features active across the task group."""
        check_is_fitted(self, "coef_")
        return np.any(self.coef_ != 0.0, axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict all tasks; returns shape ``(n_samples, n_tasks)``."""
        check_is_fitted(self, "coef_")
        X = check_array(X, min_samples=0)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"Expected {self.n_features_in_} features, got {X.shape[1]}."
            )
        return X @ self.coef_.T + self.intercept_


class MultiTaskLassoCV(BaseEstimator, RegressorMixin):
    """MultiTaskLasso with alpha chosen by K-fold CV over a geometric path."""

    def __init__(
        self,
        n_alphas: int = 30,
        eps: float = 1e-3,
        cv: int = 5,
        fit_intercept: bool = True,
        max_iter: int = 1000,
        tol: float = 1e-6,
        random_state: int | None = 0,
    ) -> None:
        self.n_alphas = n_alphas
        self.eps = eps
        self.cv = cv
        self.fit_intercept = fit_intercept
        self.max_iter = max_iter
        self.tol = tol
        self.random_state = random_state

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "MultiTaskLassoCV":
        from ..model_selection import KFold

        X, Y = check_X_y(X, Y, multi_output=True, min_samples=max(2, self.cv))
        a_max = multitask_alpha_max(X, Y, self.fit_intercept)
        if a_max <= 0:
            a_max = 1.0
        alphas = np.geomspace(a_max, a_max * self.eps, self.n_alphas)

        n_splits = min(self.cv, X.shape[0])
        kf = KFold(n_splits=n_splits, shuffle=True, random_state=self.random_state)
        errors = np.zeros((self.n_alphas, n_splits))
        for fold, (tr, te) in enumerate(kf.split(X)):
            model = MultiTaskLasso(
                alpha=float(alphas[0]),
                fit_intercept=self.fit_intercept,
                max_iter=self.max_iter,
                tol=self.tol,
                warm_start=True,
            )
            for i, a in enumerate(alphas):
                model.alpha = float(a)
                model.fit(X[tr], Y[tr])
                pred = model.predict(X[te])
                errors[i, fold] = np.mean((Y[te] - pred) ** 2)

        mean_err = errors.mean(axis=1)
        best = int(np.argmin(mean_err))
        self.alpha_ = float(alphas[best])
        self.alphas_ = alphas
        self.mse_path_ = errors
        inner = MultiTaskLasso(
            alpha=self.alpha_,
            fit_intercept=self.fit_intercept,
            max_iter=self.max_iter,
            tol=self.tol,
        ).fit(X, Y)
        self.coef_ = inner.coef_
        self.intercept_ = inner.intercept_
        self.n_features_in_ = X.shape[1]
        self._inner = inner
        return self

    @property
    def support_(self) -> np.ndarray:
        check_is_fitted(self, "coef_")
        return np.any(self.coef_ != 0.0, axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "coef_")
        return self._inner.predict(X)
