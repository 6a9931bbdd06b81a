"""Extrapolation level of the two-level model.

Turns a configuration's small-scale performance vector into large-scale
predictions, using the paper's recipe — *multitask lasso with
clustering*:

1. **Cluster** training configurations by the shape of their scaling
   curves (log-normalized, so magnitude is factored out and only shape
   remains).
2. **Select** a shared set of scalability basis terms per cluster with a
   multitask lasso over the cluster's curves (tasks = configurations).
   Joint selection is what damps the per-configuration interpolation
   noise: a basis term must help the whole cluster to enter the model.
3. **Refit** each configuration's coefficients on the selected terms by
   non-negative least squares (all basis terms are positive functions of
   p, so NNLS guarantees positive runtime predictions at any scale), and
   evaluate the fitted curve at the large target scales.

Ablation switches (used by the Table-3 benchmark) disable clustering,
replace the multitask selection with per-configuration lasso, or skip
selection entirely (full-basis least squares).

This "basis" formulation trains on small-scale data only, matching the
paper's title; :class:`TransferExtrapolator` implements the alternative
reading where a few historic configurations do have large-scale runs
(see DESIGN.md).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.optimize import nnls

from ..errors import (
    ConfigurationError,
    DataValidationError,
    FitDegenerateError,
    NotFittedError,
)
from ..log import get_logger
from ..ml.cluster.kmeans import KMeans
from ..ml.linear.multitask import MultiTaskLasso, MultiTaskLassoCV, multitask_alpha_max
from ..robustness.report import FitReport
from .scaling_features import ScaleBasis

__all__ = [
    "ClusteredScalingExtrapolator",
    "TransferExtrapolator",
    "AnalyticSpeedupExtrapolator",
]

logger = get_logger("core.extrapolation")

#: Stop rule and cap of the support-path solves.  At a looser tolerance,
#: rows whose correlation is within ~1e-5 of alpha stay slightly active;
#: a few solves on near-collinear terms need more than 5000 iterations.
_PATH_TOL, _PATH_MAX_ITER = 1e-12, 20000


def _log_shape(S: np.ndarray) -> np.ndarray:
    """Log-normalized curve shapes: log(S) minus each row's mean.

    Two configurations whose runtimes differ by a constant factor but
    scale identically map to the same shape vector.
    """
    if not np.all(np.isfinite(S)) or np.any(S <= 0):
        raise DataValidationError(
            "Small-scale runtimes must be finite and positive."
        )
    Z = np.log(S)
    return Z - Z.mean(axis=1, keepdims=True)


def _standardize_columns(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = A.mean(axis=0)
    std = A.std(axis=0)
    std[std == 0.0] = 1.0
    return (A - mean) / std, mean, std


class ClusteredScalingExtrapolator:
    """Scalability models over a basis of functions of p.

    Parameters
    ----------
    small_scales:
        The process counts of the performance vector (training support
        of every per-configuration curve).
    basis:
        :class:`ScaleBasis`; defaults to the standard scalability terms.
    n_clusters:
        Number of curve-shape clusters (1 disables clustering).
    max_terms:
        Cardinality budget of the selected support per cluster.  Must
        leave the per-configuration refit overdetermined, so it is
        additionally capped at ``len(small_scales) - 1``.
    selection:
        "multitask" (paper), "independent" (per-config lasso ablation),
        or "none" (full basis, no selection — the OLS ablation).
    refit:
        "nnls" (positivity-safe, default) or "ols".
    n_alphas:
        Resolution of the alpha path used for support selection.
    val_ratio:
        Internal-validation extrapolation factor: scales above
        ``max(small_scales)/val_ratio`` are held out when scoring
        candidate supports.
    random_state:
        Seed for k-means initialization.
    """

    def __init__(
        self,
        small_scales: Sequence[int],
        basis: ScaleBasis | None = None,
        n_clusters: int = 3,
        max_terms: int = 3,
        selection: str = "multitask",
        refit: str = "nnls",
        n_alphas: int = 40,
        val_ratio: float = 4.0,
        random_state: int | None = 0,
    ) -> None:
        self.small_scales = tuple(int(s) for s in small_scales)
        if len(self.small_scales) < 2:
            raise ConfigurationError("Need at least two small scales.")
        if len(set(self.small_scales)) != len(self.small_scales):
            raise ConfigurationError("Duplicate small scales.")
        if selection not in ("multitask", "independent", "none"):
            raise ConfigurationError(
                "selection must be multitask|independent|none."
            )
        if refit not in ("nnls", "ols"):
            raise ConfigurationError("refit must be nnls|ols.")
        if n_clusters < 1:
            raise ConfigurationError("n_clusters must be >= 1.")
        if max_terms < 1:
            raise ConfigurationError("max_terms must be >= 1.")
        self.basis = basis if basis is not None else ScaleBasis()
        self.n_clusters = n_clusters
        self.max_terms = min(max_terms, len(self.small_scales) - 1)
        self.selection = selection
        self.refit = refit
        self.n_alphas = n_alphas
        if val_ratio < 1.0:
            raise ConfigurationError("val_ratio must be >= 1.")
        self.val_ratio = val_ratio
        self.random_state = random_state

    # -- support selection ---------------------------------------------------
    #
    # Candidate supports come from the (multitask-)lasso regularization
    # path; the *winning* support is chosen by internal extrapolation
    # validation: refit each candidate on all small scales except the
    # largest and score its prediction of that held-out largest scale.
    # This directly penalizes basis terms (like raw ``p``) that are
    # nearly collinear with benign terms inside the training range but
    # explode beyond it — the dominant failure mode of naive in-sample
    # selection.

    def _path_supports(
        self, Y_norm: np.ndarray, unconverged: list | None = None
    ) -> list[np.ndarray]:
        """Distinct supports (size <= max_terms) along the lasso path of
        the curves in ``Y_norm``'s columns; one curve (the independent
        ablation) gets the plain lasso's, as L2,1 on one task is L1.
        Unconverged solves append ``(dual_gap, n_iter)`` to ``unconverged``.
        """
        A, _, _ = _standardize_columns(self._design_small)
        a_max = multitask_alpha_max(A, Y_norm, fit_intercept=True)
        if a_max <= 0:
            return []
        alphas = np.geomspace(a_max * 0.95, a_max * 1e-3, self.n_alphas)
        model = MultiTaskLasso(warm_start=True, tol=_PATH_TOL, max_iter=_PATH_MAX_ITER)
        seen: set[tuple[bool, ...]] = set()
        out: list[np.ndarray] = []
        for a in alphas:
            model.alpha = float(a)
            model.fit(A, Y_norm)
            if not model.converged_ and unconverged is not None:
                unconverged.append((model.dual_gap_, model.n_iter_))
            support = model.support_
            k = int(support.sum())
            if k > self.max_terms:
                break
            key = tuple(support.tolist())
            if k >= 1 and key not in seen:
                seen.add(key)
                out.append(support.copy())
        return out

    def _baseline_candidates(self) -> list[np.ndarray]:
        """Always-considered simple hypotheses: constant-only, each
        single workhorse term, and the classic {1/p, log p} pair."""
        names = list(self.basis.names)
        cands = [np.zeros(len(names), dtype=bool)]  # intercept only
        for term in ("inv_p", "p_-2/3", "log_p"):
            if term in names:
                s = np.zeros(len(names), dtype=bool)
                s[names.index(term)] = True
                cands.append(s)
        if "inv_p" in names and "log_p" in names:
            s = np.zeros(len(names), dtype=bool)
            s[names.index("inv_p")] = True
            s[names.index("log_p")] = True
            cands.append(s)
        return cands

    def _validation_split(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices of fit vs held-out scales for support scoring.

        Scales above ``max_small / val_ratio`` are held out, so the
        internal validation is itself a genuine (≈``val_ratio``x)
        extrapolation — a one-step-ahead holdout would not expose basis
        terms that only explode far beyond the training range.  At least
        two scales are kept on each side.
        """
        scales = np.asarray(self.small_scales, dtype=np.float64)
        cutoff = scales.max() / self.val_ratio
        fit_idx = np.nonzero(scales <= cutoff)[0]
        val_idx = np.nonzero(scales > cutoff)[0]
        if len(fit_idx) < 2 or len(val_idx) < 1:
            # Degenerate geometry (e.g. only two scales): leave-last-out.
            fit_idx = np.arange(len(scales) - 1)
            val_idx = np.array([len(scales) - 1])
        return fit_idx, val_idx

    def _design_columns(
        self, rows: np.ndarray, support: np.ndarray, intercept: bool
    ) -> np.ndarray:
        """Design block ``[1?, selected terms]`` for the given scale rows."""
        cols = self._design_small[np.ix_(rows, support)]
        if intercept:
            return np.column_stack([np.ones(len(rows)), cols])
        return cols

    def _score_support(
        self, support: np.ndarray, S_cluster: np.ndarray, intercept: bool = True
    ) -> float:
        """Internal-extrapolation score of one hypothesis.

        A hypothesis is a support plus an intercept flag: a constant term
        is *itself* a modelling choice — including it lets curves flatten
        (latency floors) but also lets the fit absorb a decaying curve's
        tail and predict premature flattening, so the validation decides.

        Fits each configuration on the low small scales and measures the
        mean squared *log* error on the held-out high small scales (log
        error treats over- and under-prediction symmetrically).
        Hypotheses too large to be identifiable from the fit scales score
        as infeasible.
        """
        fit_idx, val_idx = self._validation_split()
        n_coef = int(support.sum()) + int(intercept)
        if n_coef == 0 or n_coef > len(fit_idx):
            return np.inf
        A_fit = self._design_columns(fit_idx, support, intercept)
        A_val = self._design_columns(val_idx, support, intercept)
        errs = np.empty(S_cluster.shape[0])
        for i, curve in enumerate(S_cluster):
            coef = self._weighted_fit(A_fit, curve[fit_idx])
            pred = np.maximum(A_val @ coef, 1e-12)
            errs[i] = float(np.mean(np.log(pred / curve[val_idx]) ** 2))
        return float(np.mean(errs))

    def _weighted_fit(self, A: np.ndarray, curve: np.ndarray) -> np.ndarray:
        """Relative-error least squares: rows are scaled by 1/t so every
        scale contributes equally regardless of runtime magnitude (a
        10x-decaying curve would otherwise be fitted almost entirely to
        its largest, least extrapolation-relevant values)."""
        w = 1.0 / curve
        Aw = A * w[:, None]
        bw = np.ones_like(curve)
        if self.refit == "nnls":
            coef, _ = nnls(Aw, bw)
        else:
            coef = np.linalg.lstsq(Aw, bw, rcond=None)[0]
        return coef

    def _select_hypothesis(
        self, candidates: list[np.ndarray], S_cluster: np.ndarray
    ) -> tuple[np.ndarray, bool, float]:
        """Pick the (support, intercept) pair with the best internal-
        extrapolation score; ties break toward fewer coefficients
        (simplicity prior).  Also returns the winning score so callers
        can detect a fully infeasible selection (score = inf)."""
        all_cands = candidates + self._baseline_candidates()
        seen: set[tuple[bool, ...]] = set()
        best: tuple[np.ndarray, bool] | None = None
        best_key: tuple[float, int] | None = None
        for support in all_cands:
            key = tuple(support.tolist())
            if key in seen:
                continue
            seen.add(key)
            for intercept in (True, False):
                score = self._score_support(support, S_cluster, intercept)
                rank = (score, int(support.sum()) + int(intercept))
                if best_key is None or rank < best_key:
                    best_key = rank
                    best = (support, intercept)
        assert best is not None and best_key is not None
        return best[0], best[1], best_key[0]

    def _fallback_support(self) -> np.ndarray:
        """Degenerate-path fallback: the two workhorse terms (1/p, log p)
        if present, else the first ``max_terms`` terms."""
        names = list(self.basis.names)
        support = np.zeros(len(names), dtype=bool)
        for wanted in ("inv_p", "log_p"):
            if wanted in names:
                support[names.index(wanted)] = True
        if not support.any():
            support[: self.max_terms] = True
        return support

    # -- coefficient refit ----------------------------------------------------

    def _refit_config(
        self, support: np.ndarray, intercept: bool, s_curve: np.ndarray
    ) -> np.ndarray:
        """Fit one configuration's coefficients on the selected
        hypothesis over all small scales.

        Returns the coefficient vector over ``[intercept?, selected
        terms]`` in raw (unstandardized) basis values.
        """
        rows = np.arange(len(self.small_scales))
        A = self._design_columns(rows, support, intercept)
        return self._weighted_fit(A, s_curve)

    def _eval_config(
        self,
        support: np.ndarray,
        intercept: bool,
        coef: np.ndarray,
        design_large: np.ndarray,
    ) -> np.ndarray:
        cols = design_large[:, support]
        if intercept:
            cols = np.column_stack([np.ones(design_large.shape[0]), cols])
        return cols @ coef

    # -- fit / predict ----------------------------------------------------------

    def fit(
        self, S: np.ndarray, report: FitReport | None = None
    ) -> "ClusteredScalingExtrapolator":
        """Learn cluster structure and per-cluster supports.

        Parameters
        ----------
        S:
            (n_configs, n_small) small-scale runtimes of the training
            configurations — measured means, or interpolation-level
            predictions.
        report:
            Fit report receiving a ``fallback_support`` event for every
            cluster whose hypothesis selection degenerates, and an
            informational ``solver_not_converged`` event for every
            cluster with a support-path solve stopped at its cap.
        """
        report = report if report is not None else FitReport()
        S = np.asarray(S, dtype=np.float64)
        if S.ndim != 2 or S.shape[1] != len(self.small_scales):
            raise DataValidationError(
                f"S must have shape (n_configs, {len(self.small_scales)})."
            )
        if S.shape[0] < 1:
            raise FitDegenerateError(
                "Need at least one training configuration."
            )
        self._design_small = self.basis.design_matrix(self.small_scales)

        shapes = _log_shape(S)
        k = min(self.n_clusters, S.shape[0])
        if k > 1:
            self.kmeans_ = KMeans(
                n_clusters=k, n_init=10, random_state=self.random_state
            ).fit(shapes)
            labels = self.kmeans_.labels_
        else:
            self.kmeans_ = None
            labels = np.zeros(S.shape[0], dtype=np.int64)
        self.labels_ = labels
        self.n_clusters_ = k

        # Magnitude-normalized curves for selection.
        mags = S.mean(axis=1)
        Y_norm_all = (S / mags[:, None]).T  # (n_small, n_configs)

        self.supports_: dict[int, np.ndarray] = {}
        self.intercepts_: dict[int, bool] = {}
        full = np.ones(len(self.basis), dtype=bool)
        for c in range(k):
            members = np.nonzero(labels == c)[0]
            unconverged: list[tuple[float, int]] = []
            if self.selection == "none":
                self.supports_[c] = full.copy()
                self.intercepts_[c] = True
            elif self.selection == "multitask":
                try:
                    candidates = self._path_supports(
                        Y_norm_all[:, members], unconverged
                    )
                    support, intercept, score = self._select_hypothesis(
                        candidates, S[members]
                    )
                except Exception as exc:
                    report.record(
                        "extrapolation",
                        "fallback_support",
                        f"cluster {c}: hypothesis selection failed "
                        f"({type(exc).__name__}: {exc}); using workhorse "
                        "terms",
                        cluster=c,
                        n_members=int(len(members)),
                        reason="selection_failed",
                    )
                    logger.warning(
                        "cluster %d selection failed (%s); fallback support",
                        c,
                        exc,
                    )
                    support, intercept = self._fallback_support(), True
                else:
                    if not np.isfinite(score):
                        report.record(
                            "extrapolation",
                            "fallback_support",
                            f"cluster {c}: no feasible scalability "
                            "hypothesis scored finitely; using workhorse "
                            "terms",
                            cluster=c,
                            n_members=int(len(members)),
                            reason="no_feasible_hypothesis",
                        )
                        support, intercept = self._fallback_support(), True
                self.supports_[c] = support
                self.intercepts_[c] = intercept
            else:  # independent (ablation): per-config selection, no sharing
                votes = np.zeros(len(self.basis))
                for m in members:
                    cands = self._path_supports(Y_norm_all[:, m], unconverged)
                    sup_m, _, _ = self._select_hypothesis(cands, S[m : m + 1])
                    votes += sup_m
                # The stored (majority) support is only used as a label
                # for diagnostics; predict() reselects per configuration.
                support = votes >= max(1.0, len(members) / 2.0)
                self.supports_[c] = (
                    support if support.any() else self._fallback_support()
                )
                self.intercepts_[c] = True
            if unconverged:
                worst_gap, n_iter = max(unconverged)
                report.record(
                    "extrapolation", "solver_not_converged",
                    f"cluster {c}: {len(unconverged)} support-path solve(s) "
                    f"stopped at the iteration cap (worst gap {worst_gap:.3g})",
                    degrades=False, cluster=c, count=len(unconverged),
                    worst_gap=float(worst_gap), n_iter=int(n_iter),
                )
        self._train_S = S
        logger.debug(
            "extrapolator fitted: %d cluster(s), supports %s",
            k,
            {c: int(m.sum()) for c, m in self.supports_.items()},
        )
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "supports_"):
            raise NotFittedError("Extrapolator is not fitted.")

    def assign_clusters(self, S: np.ndarray) -> np.ndarray:
        """Cluster index for each configuration's curve."""
        self._check_fitted()
        S = np.asarray(S, dtype=np.float64)
        if self.kmeans_ is None:
            return np.zeros(S.shape[0], dtype=np.int64)
        return self.kmeans_.predict(_log_shape(S))

    def predict(
        self, S: np.ndarray, large_scales: Sequence[int]
    ) -> np.ndarray:
        """Predict runtimes at ``large_scales``.

        Parameters
        ----------
        S:
            (n_configs, n_small) small-scale runtimes (typically the
            interpolation level's predictions for new configurations).

        Returns
        -------
        (n_configs, n_large) predicted runtimes, strictly positive.
        """
        self._check_fitted()
        S = np.asarray(S, dtype=np.float64)
        if S.ndim != 2 or S.shape[1] != len(self.small_scales):
            raise DataValidationError(
                f"S must have shape (n_configs, {len(self.small_scales)})."
            )
        large = [int(p) for p in large_scales]
        if any(p < 1 for p in large):
            raise ConfigurationError("Target scales must be >= 1.")
        design_large = self.basis.design_matrix(large)
        labels = self.assign_clusters(S)
        return self._predict_rows(S, design_large, labels)

    def _predict_rows(
        self,
        S: np.ndarray,
        design_large: np.ndarray,
        labels: np.ndarray,
        refit_blocks: dict | None = None,
    ) -> np.ndarray:
        """Per-configuration refit-and-evaluate loop shared by
        :meth:`predict` and the packed serving path (which supplies a
        cached ``design_large`` and lean cluster labels but must produce
        bit-identical floats).

        The per-cluster design blocks (fit columns ``A`` and evaluation
        columns ``E``) depend only on the cluster's hypothesis and
        ``design_large``, so they are hoisted out of the row loop;
        ``refit_blocks`` lets a caller keep them across calls for a
        fixed ``design_large``.
        """
        out = np.empty((S.shape[0], design_large.shape[0]))
        if self.selection == "independent":
            # Per-config reselection: nothing is shareable across rows.
            for i in range(S.shape[0]):
                mag = float(S[i].mean())
                cands = self._path_supports(S[i] / mag)
                support, intercept, _ = self._select_hypothesis(
                    cands, S[i : i + 1]
                )
                coef = self._refit_config(support, intercept, S[i])
                out[i] = self._eval_config(
                    support, intercept, coef, design_large
                )
        else:
            blocks = refit_blocks if refit_blocks is not None else {}
            rows = np.arange(len(self.small_scales))
            for i in range(S.shape[0]):
                c = int(labels[i])
                blk = blocks.get(c)
                if blk is None:
                    support = self.supports_[c]
                    intercept = self.intercepts_[c]
                    A = self._design_columns(rows, support, intercept)
                    E = design_large[:, support]
                    if intercept:
                        E = np.column_stack(
                            [np.ones(design_large.shape[0]), E]
                        )
                    blk = blocks[c] = (A, E)
                A, E = blk
                out[i] = E @ self._weighted_fit(A, S[i])
        # Fitted curves are non-negative under NNLS; enforce a strictly
        # positive floor either way so downstream MAPE is defined.
        floor = 1e-9
        return np.maximum(out, floor)

    def support_names(self) -> dict[int, tuple[str, ...]]:
        """Selected basis-term names per cluster (diagnostics); the
        intercept, when selected, appears as "1"."""
        self._check_fitted()
        names = np.asarray(self.basis.names)
        out: dict[int, tuple[str, ...]] = {}
        for c, mask in sorted(self.supports_.items()):
            terms = tuple(str(n) for n in names[mask])
            if self.intercepts_.get(c, True):
                terms = ("1",) + terms
            out[c] = terms
        return out


class TransferExtrapolator:
    """Alternative extrapolation level: learn a direct map from
    small-scale to large-scale performance.

    Requires training configurations that *do* have large-scale runs
    (e.g. a few historic production executions).  Fits, per curve-shape
    cluster, a multitask lasso in log space whose tasks are the large
    target scales and whose features are the log small-scale runtimes.

    This implements the second reading of the paper's extrapolation
    level discussed in DESIGN.md and powers the "transfer" mode of
    :class:`~repro.core.TwoLevelModel`.
    """

    def __init__(
        self,
        small_scales: Sequence[int],
        large_scales: Sequence[int],
        n_clusters: int = 3,
        cv: int = 3,
        random_state: int | None = 0,
    ) -> None:
        self.small_scales = tuple(int(s) for s in small_scales)
        self.large_scales = tuple(int(s) for s in large_scales)
        if len(self.small_scales) < 2:
            raise ConfigurationError("Need at least two small scales.")
        if not self.large_scales:
            raise ConfigurationError("Need at least one large scale.")
        if n_clusters < 1:
            raise ConfigurationError("n_clusters must be >= 1.")
        self.n_clusters = n_clusters
        self.cv = cv
        self.random_state = random_state

    def fit(self, S: np.ndarray, Y_large: np.ndarray) -> "TransferExtrapolator":
        S = np.asarray(S, dtype=np.float64)
        Y_large = np.asarray(Y_large, dtype=np.float64)
        if S.ndim != 2 or S.shape[1] != len(self.small_scales):
            raise DataValidationError("S has wrong shape.")
        if Y_large.shape != (S.shape[0], len(self.large_scales)):
            raise DataValidationError("Y_large has wrong shape.")
        if (
            not np.all(np.isfinite(S))
            or not np.all(np.isfinite(Y_large))
            or np.any(S <= 0)
            or np.any(Y_large <= 0)
        ):
            raise DataValidationError("Runtimes must be finite and positive.")

        shapes = _log_shape(S)
        k = min(self.n_clusters, S.shape[0])
        # Each cluster needs enough members for its own regression.
        while k > 1 and S.shape[0] / k < max(4, self.cv):
            k -= 1
        if k > 1:
            self.kmeans_ = KMeans(
                n_clusters=k, n_init=10, random_state=self.random_state
            ).fit(shapes)
            labels = self.kmeans_.labels_
        else:
            self.kmeans_ = None
            labels = np.zeros(S.shape[0], dtype=np.int64)
        self.n_clusters_ = k

        logS = np.log(S)
        logY = np.log(Y_large)
        self.models_: dict[int, object] = {}
        for c in range(k):
            members = labels == c
            n_members = int(members.sum())
            if n_members >= max(4, self.cv + 1):
                model = MultiTaskLassoCV(
                    cv=min(self.cv, n_members), random_state=self.random_state
                )
            else:
                model = MultiTaskLasso(alpha=1e-3)
            model.fit(logS[members], logY[members])
            self.models_[c] = model
        return self

    def predict(self, S: np.ndarray) -> np.ndarray:
        """(n_configs, n_large) predicted large-scale runtimes."""
        if not hasattr(self, "models_"):
            raise NotFittedError("TransferExtrapolator is not fitted.")
        S = np.asarray(S, dtype=np.float64)
        if not np.all(np.isfinite(S)) or np.any(S <= 0):
            raise DataValidationError("Runtimes must be finite and positive.")
        if self.kmeans_ is None:
            labels = np.zeros(S.shape[0], dtype=np.int64)
        else:
            labels = self.kmeans_.predict(_log_shape(S))
        logS = np.log(S)
        out = np.empty((S.shape[0], len(self.large_scales)))
        for c, model in self.models_.items():
            mask = labels == c
            if np.any(mask):
                out[mask] = model.predict(logS[mask])
        return np.exp(out)


class AnalyticSpeedupExtrapolator:
    """Last-resort extrapolation level: per-configuration Amdahl fits.

    When the clustered scalability machinery cannot be fitted at all
    (degenerate or heavily corrupted small-scale curves), the two-level
    model degrades to this baseline: each configuration's small-scale
    curve is fitted with Amdahl's law in relative-error metric and
    evaluated at the target scales.  A pooled shape (the geometric-mean
    curve over all valid training configurations) covers rows whose own
    curve is unusable.

    Implements the ``fit(S)`` / ``predict(S, large_scales)`` subset of
    the :class:`ClusteredScalingExtrapolator` interface that
    :class:`~repro.core.TwoLevelModel` relies on.
    """

    def __init__(self, small_scales: Sequence[int]) -> None:
        self.small_scales = tuple(int(s) for s in small_scales)
        if len(self.small_scales) < 2:
            raise ConfigurationError("Need at least two small scales.")

    @staticmethod
    def _valid_curve(curve: np.ndarray) -> bool:
        return bool(np.all(np.isfinite(curve)) and np.all(curve > 0))

    def fit(self, S: np.ndarray) -> "AnalyticSpeedupExtrapolator":
        from ..baselines.analytic import fit_amdahl

        S = np.asarray(S, dtype=np.float64)
        if S.ndim != 2 or S.shape[1] != len(self.small_scales):
            raise DataValidationError(
                f"S must have shape (n_configs, {len(self.small_scales)})."
            )
        valid = [row for row in S if self._valid_curve(row)]
        if not valid:
            raise FitDegenerateError(
                "No training configuration has a usable small-scale curve "
                "for the analytic fallback."
            )
        pooled_curve = np.exp(np.mean(np.log(np.vstack(valid)), axis=0))
        self.pooled_model_ = fit_amdahl(self.small_scales, pooled_curve)
        logger.info(
            "analytic fallback fitted on %d/%d usable curves "
            "(pooled serial fraction %.3g)",
            len(valid),
            S.shape[0],
            self.pooled_model_.serial_fraction,
        )
        return self

    def predict(
        self, S: np.ndarray, large_scales: Sequence[int]
    ) -> np.ndarray:
        from ..baselines.analytic import fit_amdahl

        if not hasattr(self, "pooled_model_"):
            raise NotFittedError("AnalyticSpeedupExtrapolator is not fitted.")
        S = np.asarray(S, dtype=np.float64)
        if S.ndim != 2 or S.shape[1] != len(self.small_scales):
            raise DataValidationError(
                f"S must have shape (n_configs, {len(self.small_scales)})."
            )
        large = [int(p) for p in large_scales]
        if any(p < 1 for p in large):
            raise ConfigurationError("Target scales must be >= 1.")
        p = np.asarray(large, dtype=np.float64)
        out = np.empty((S.shape[0], len(large)))
        pooled_shape = self.pooled_model_(p) / self.pooled_model_(
            float(self.small_scales[0])
        )
        for i, curve in enumerate(S):
            if self._valid_curve(curve):
                out[i] = fit_amdahl(self.small_scales, curve)(p)
            else:
                # Anchor the pooled shape on whatever finite point exists.
                finite = np.isfinite(curve) & (curve > 0)
                anchor = (
                    float(curve[finite][0])
                    if np.any(finite)
                    else float(self.pooled_model_(float(self.small_scales[0])))
                )
                out[i] = anchor * pooled_shape
        return np.maximum(out, 1e-9)

    def support_names(self) -> dict[int, tuple[str, ...]]:
        """Interface parity with the clustered extrapolator."""
        return {0: ("amdahl",)}
