"""Coordinate-descent solvers for L1-regularized linear models.

Implements the elastic-net family with the scikit-learn objective scaling

    (1 / (2 n)) * ||y - X w||^2
        + alpha * l1_ratio * ||w||_1
        + 0.5 * alpha * (1 - l1_ratio) * ||w||^2

so that ``alpha`` values are comparable across sample sizes.  Convergence
is certified by the duality gap, which unit tests also use to verify the
solver (a small gap is a machine-checkable optimality proof, not just a
heuristic stopping rule).
"""

from __future__ import annotations

import numpy as np

from ..base import BaseEstimator, RegressorMixin, check_is_fitted
from ..validation import check_array, check_X_y

__all__ = ["ElasticNet", "Lasso", "LassoCV", "lasso_path"]


def _soft_threshold(x: float, t: float) -> float:
    """Scalar soft-thresholding operator S(x, t) = sign(x) max(|x|-t, 0)."""
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def _enet_duality_gap(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    alpha_l1: float,
    alpha_l2: float,
) -> float:
    """Duality gap of the elastic-net problem at ``w``.

    Follows the standard construction: scale the residual to a dual
    feasible point and compare primal and dual objectives.  For pure ridge
    (``alpha_l1 == 0``) the gap formula degenerates, so callers should not
    use it there.
    """
    n = X.shape[0]
    r = y - X @ w
    primal = (
        (r @ r) / (2.0 * n)
        + alpha_l1 * np.abs(w).sum()
        + 0.5 * alpha_l2 * (w @ w)
    )
    # Dual variable: theta = r / n, scaled into the feasible set
    # |X^T theta - alpha_l2 * w| <= alpha_l1 (the l2 part shifts the
    # constraint by the ridge gradient).
    corr = X.T @ r / n - alpha_l2 * w
    max_corr = float(np.max(np.abs(corr))) if corr.size else 0.0
    scale = 1.0 if max_corr <= alpha_l1 else alpha_l1 / max_corr
    theta = (r / n) * scale
    dual = (
        -0.5 * n * (theta @ theta)
        + theta @ y
        - 0.5 * alpha_l2 * (w @ w) * scale**2
    )
    # With l2 term the dual above is a valid lower bound only approximately
    # when scaled; recompute conservatively for the scaled w implied:
    gap = primal - dual
    return float(max(gap, 0.0))


def _enet_coordinate_descent(
    X: np.ndarray,
    y: np.ndarray,
    alpha_l1: float,
    alpha_l2: float,
    w: np.ndarray,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, float, int, bool]:
    """Cyclic coordinate descent on centered data.

    Parameters are the *unnormalized* penalty levels: ``alpha_l1 = alpha *
    l1_ratio`` and ``alpha_l2 = alpha * (1 - l1_ratio)``.

    Returns ``(w, gap, n_iter, converged)``; ``converged`` is the stop
    rule ``gap < tol * ||y||^2 / n``.  The residual vector is maintained
    incrementally so each coordinate update is O(n).
    """
    n_samples, n_features = X.shape
    col_sq = np.einsum("ij,ij->j", X, X) / n_samples  # (1/n) ||X_j||^2
    r = y - X @ w
    gap = np.inf
    y_norm_tol = tol * float(y @ y) / n_samples if y.size else tol
    if y_norm_tol == 0.0:
        y_norm_tol = tol

    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        w_max = 0.0
        d_w_max = 0.0
        for j in range(n_features):
            if col_sq[j] == 0.0:
                continue
            w_j_old = w[j]
            # rho = (1/n) X_j . (r + X_j w_j)  — correlation with the
            # residual that excludes feature j's current contribution.
            rho = (X[:, j] @ r) / n_samples + col_sq[j] * w_j_old
            w_j_new = _soft_threshold(rho, alpha_l1) / (col_sq[j] + alpha_l2)
            if w_j_new != w_j_old:
                r += X[:, j] * (w_j_old - w_j_new)
                w[j] = w_j_new
            d_w_max = max(d_w_max, abs(w_j_new - w_j_old))
            w_max = max(w_max, abs(w_j_new))
        if w_max == 0.0 or d_w_max / max(w_max, 1e-300) < tol or n_iter == max_iter:
            gap = _enet_duality_gap(X, y, w, alpha_l1, alpha_l2)
            if gap < y_norm_tol:
                break
    return w, gap, n_iter, bool(gap < y_norm_tol)


class ElasticNet(BaseEstimator, RegressorMixin):
    """Linear regression with combined L1 and L2 regularization.

    Parameters
    ----------
    alpha:
        Overall regularization strength (>= 0).
    l1_ratio:
        Mix between L1 (1.0 = lasso) and L2 (0.0 = ridge-like) penalties.
    fit_intercept:
        Fit an unpenalized intercept by centering the data.
    max_iter, tol:
        Coordinate-descent iteration cap and duality-gap tolerance
        (relative to ``||y||^2 / n``).
    warm_start:
        Reuse ``coef_`` from a previous ``fit`` as the starting point —
        used by :func:`lasso_path` to sweep alphas cheaply.

    After ``fit``, ``converged_`` says whether the duality gap met the
    tolerance before ``max_iter``.
    """

    def __init__(
        self,
        alpha: float = 1.0,
        l1_ratio: float = 0.5,
        fit_intercept: bool = True,
        max_iter: int = 1000,
        tol: float = 1e-6,
        warm_start: bool = False,
    ) -> None:
        self.alpha = alpha
        self.l1_ratio = l1_ratio
        self.fit_intercept = fit_intercept
        self.max_iter = max_iter
        self.tol = tol
        self.warm_start = warm_start

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ElasticNet":
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative.")
        if not 0.0 <= self.l1_ratio <= 1.0:
            raise ValueError("l1_ratio must be in [0, 1].")
        X, y = check_X_y(X, y)
        n_features = X.shape[1]

        if self.fit_intercept:
            x_mean = X.mean(axis=0)
            y_mean = float(y.mean())
            Xc = X - x_mean
            yc = y - y_mean
        else:
            x_mean = np.zeros(n_features)
            y_mean = 0.0
            Xc, yc = X, y
        Xc = np.ascontiguousarray(Xc)

        if self.warm_start and hasattr(self, "coef_") and self.coef_.shape == (
            n_features,
        ):
            w = self.coef_.copy()
        else:
            w = np.zeros(n_features)

        alpha_l1 = self.alpha * self.l1_ratio
        alpha_l2 = self.alpha * (1.0 - self.l1_ratio)
        w, gap, n_iter, converged = _enet_coordinate_descent(
            Xc, yc, alpha_l1, alpha_l2, w, self.max_iter, self.tol
        )

        self.coef_ = w
        self.intercept_ = y_mean - float(x_mean @ w)
        self.dual_gap_ = gap
        self.n_iter_ = n_iter
        self.converged_ = converged
        self.n_features_in_ = n_features
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "coef_")
        X = check_array(X, min_samples=0)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"Expected {self.n_features_in_} features, got {X.shape[1]}."
            )
        return X @ self.coef_ + self.intercept_


class Lasso(ElasticNet):
    """L1-regularized linear regression (elastic net with ``l1_ratio=1``)."""

    def __init__(
        self,
        alpha: float = 1.0,
        fit_intercept: bool = True,
        max_iter: int = 1000,
        tol: float = 1e-6,
        warm_start: bool = False,
    ) -> None:
        super().__init__(
            alpha=alpha,
            l1_ratio=1.0,
            fit_intercept=fit_intercept,
            max_iter=max_iter,
            tol=tol,
            warm_start=warm_start,
        )

    @classmethod
    def _get_param_names(cls) -> list[str]:
        # Exclude l1_ratio, which is fixed by the subclass constructor.
        return [n for n in super()._get_param_names() if n != "l1_ratio"]


def alpha_max(X: np.ndarray, y: np.ndarray, fit_intercept: bool = True) -> float:
    """Smallest alpha for which the lasso solution is identically zero."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if fit_intercept:
        X = X - X.mean(axis=0)
        y = y - y.mean()
    n = X.shape[0]
    if n == 0:
        raise ValueError("Empty data.")
    return float(np.max(np.abs(X.T @ y)) / n)


def lasso_path(
    X: np.ndarray,
    y: np.ndarray,
    alphas: np.ndarray | None = None,
    n_alphas: int = 50,
    eps: float = 1e-3,
    fit_intercept: bool = True,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Compute lasso solutions along a geometric grid of alphas.

    Returns ``(alphas, coefs)`` with ``coefs`` of shape ``(n_alphas,
    n_features)``, sweeping from large to small alpha with warm starts.
    """
    X, y = check_X_y(X, y)
    if alphas is None:
        a_max = alpha_max(X, y, fit_intercept)
        if a_max <= 0:
            a_max = 1.0
        alphas = np.geomspace(a_max, a_max * eps, n_alphas)
    else:
        alphas = np.sort(np.asarray(alphas, dtype=np.float64))[::-1]

    model = Lasso(
        alpha=float(alphas[0]),
        fit_intercept=fit_intercept,
        max_iter=max_iter,
        tol=tol,
        warm_start=True,
    )
    coefs = np.zeros((len(alphas), X.shape[1]))
    for i, a in enumerate(alphas):
        model.alpha = float(a)
        model.fit(X, y)
        coefs[i] = model.coef_
    return alphas, coefs


class LassoCV(BaseEstimator, RegressorMixin):
    """Lasso with alpha selected by K-fold cross-validation along a path."""

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

    def fit(self, X: np.ndarray, y: np.ndarray) -> "LassoCV":
        from ..model_selection import KFold

        X, y = check_X_y(X, y, min_samples=max(2, self.cv))
        a_max = alpha_max(X, y, self.fit_intercept)
        if a_max <= 0:
            a_max = 1.0
        alphas = np.geomspace(a_max, a_max * self.eps, self.n_alphas)

        kf = KFold(n_splits=self.cv, shuffle=True, random_state=self.random_state)
        errors = np.zeros((self.n_alphas, self.cv))
        for fold, (tr, te) in enumerate(kf.split(X)):
            model = Lasso(
                alpha=float(alphas[0]),
                fit_intercept=self.fit_intercept,
                max_iter=self.max_iter,
                tol=self.tol,
                warm_start=True,
            )
            for i, a in enumerate(alphas):
                model.alpha = float(a)
                model.fit(X[tr], y[tr])
                pred = model.predict(X[te])
                errors[i, fold] = np.mean((y[te] - pred) ** 2)

        mean_err = errors.mean(axis=1)
        best = int(np.argmin(mean_err))
        self.alpha_ = float(alphas[best])
        self.alphas_ = alphas
        self.mse_path_ = errors
        inner = Lasso(
            alpha=self.alpha_,
            fit_intercept=self.fit_intercept,
            max_iter=self.max_iter,
            tol=self.tol,
        ).fit(X, y)
        self.coef_ = inner.coef_
        self.intercept_ = inner.intercept_
        self.n_features_in_ = X.shape[1]
        self._inner = inner
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "coef_")
        return self._inner.predict(X)
