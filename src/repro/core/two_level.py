"""The two-level performance model (the paper's contribution).

Level 1 (interpolation): per-small-scale random forests predict a
configuration's small-scale performance from its input parameters.
Level 2 (extrapolation): clustered multitask-lasso scalability models
turn the predicted small-scale performance vector into large-scale
predictions.

Two operating modes (DESIGN.md discusses why both exist):

* ``mode="basis"`` (default): the extrapolation level fits scalability
  curves over basis functions of p using *only* small-scale data — no
  large-scale run is ever needed, matching the paper's title.
* ``mode="transfer"``: the extrapolation level learns a direct
  small-to-large map from historic configurations that do have
  large-scale runs.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..data.dataset import ExecutionDataset
from ..data.splits import ScaleSplit
from ..errors import (
    ConfigurationError,
    DataValidationError,
    ExtrapolationError,
    FitDegenerateError,
    NotFittedError,
    ReproError,
)
from ..log import get_logger
from ..ml.base import BaseEstimator
from ..robustness.report import FitReport
from ..robustness.sanitize import drop_censored_rows, drop_invalid_rows
from .extrapolation import (
    AnalyticSpeedupExtrapolator,
    ClusteredScalingExtrapolator,
    TransferExtrapolator,
)
from .interpolation import PerScaleInterpolator
from .scaling_features import ScaleBasis

__all__ = ["TwoLevelModel"]

logger = get_logger("core.two_level")


class TwoLevelModel:
    """Predict large-scale HPC application performance from small-scale
    history data.

    Parameters
    ----------
    small_scales:
        Process counts at which history data exists.
    mode:
        "basis" or "transfer" (see module docstring).
    large_scales:
        Required in transfer mode (the map's output scales); in basis
        mode predictions can target any scale.
    interp_factory:
        Per-scale learner factory ``(seed) -> estimator``; default is the
        paper's random forest.
    log_target:
        Interpolation level fits log-runtime (recommended).
    basis, n_clusters, max_terms, selection, refit:
        Extrapolation-level options (basis mode); see
        :class:`~repro.core.extrapolation.ClusteredScalingExtrapolator`.
    fit_curves_on:
        What the extrapolation level is fitted on: "predictions"
        (interpolation outputs for the training configurations — the
        paper's pipeline, so level 2 sees the same kind of input at fit
        and predict time) or "measurements" (mean measured runtimes).
    strict:
        When True, any degradation condition raises instead of falling
        back (useful in tests and offline analysis), and so does an
        extrapolation solve (support path or k-means) that stops at its
        iteration cap.  When False (the default) the model survives
        dirty input: non-finite rows are dropped, missing/under-populated
        scales degrade to fallback models, and a degenerate
        extrapolation fit falls back to the analytic speedup baseline —
        every fallback recorded on :attr:`fit_report`, as is every
        unconverged solve (an informational ``solver_not_converged``
        event).
    min_scale_samples:
        Minimum training rows a scale needs for its own interpolation
        model (fewer -> pooled fallback; see
        :class:`~repro.core.interpolation.PerScaleInterpolator`).
    random_state:
        Master seed for both levels.
    """

    def __init__(
        self,
        small_scales: Sequence[int],
        mode: str = "basis",
        large_scales: Sequence[int] | None = None,
        interp_factory: Callable[[object], BaseEstimator] | None = None,
        log_target: bool = True,
        basis: ScaleBasis | None = None,
        n_clusters: int = 3,
        max_terms: int = 3,
        selection: str = "multitask",
        refit: str = "nnls",
        fit_curves_on: str = "predictions",
        strict: bool = False,
        min_scale_samples: int = 2,
        random_state: int | None = 0,
    ) -> None:
        if mode not in ("basis", "transfer"):
            raise ConfigurationError("mode must be 'basis' or 'transfer'.")
        if mode == "transfer" and not large_scales:
            raise ConfigurationError("transfer mode requires large_scales.")
        if fit_curves_on not in ("predictions", "measurements"):
            raise ConfigurationError(
                "fit_curves_on must be predictions|measurements."
            )
        self.small_scales = tuple(int(s) for s in sorted(small_scales))
        self.mode = mode
        self.large_scales = (
            tuple(int(s) for s in sorted(large_scales)) if large_scales else None
        )
        self.interp_factory = interp_factory
        self.log_target = log_target
        self.basis = basis
        self.n_clusters = n_clusters
        self.max_terms = max_terms
        self.selection = selection
        self.refit = refit
        self.fit_curves_on = fit_curves_on
        self.strict = strict
        self.min_scale_samples = min_scale_samples
        self.random_state = random_state

    # -- fitting ---------------------------------------------------------

    def fit(
        self,
        train: ExecutionDataset,
        large_train: ExecutionDataset | None = None,
        warm_start_from: "TwoLevelModel | dict | None" = None,
    ) -> "TwoLevelModel":
        """Fit both levels.

        Parameters
        ----------
        train:
            Small-scale history.  Runs at scales outside
            ``small_scales`` are ignored (with a check that all
            requested scales are present).
        large_train:
            Transfer mode only: history of configurations that also ran
            at the large scales.
        warm_start_from:
            A previously fitted :class:`TwoLevelModel` (or its
            :meth:`get_fitted_state` dict) to warm-start from.  Every
            fit records a content fingerprint per small scale
            (``scale_data_fingerprints_``); a warm start reuses the
            previous per-scale interpolators for scales whose
            fingerprint is unchanged and refits only the rest plus the
            extrapolation level.  Seed streams are preserved, so a warm
            refit over unchanged data is bit-identical to a cold fit —
            reuse is an optimization, never an approximation, and is
            recorded on the fit report as a non-degrading
            ``warm_start`` event.
        """
        report = FitReport()
        self.fit_report_ = report
        self.used_analytic_fallback_ = False

        train, scrubbed = drop_invalid_rows(train)
        if scrubbed:
            if self.strict:
                raise DataValidationError(
                    f"Training data contains invalid rows: {scrubbed} "
                    "(strict mode)."
                )
            report.record(
                "sanitize",
                "dropped_invalid_rows",
                f"dropped {sum(scrubbed.values())} rows with non-finite "
                "runtimes/parameters from the training history",
                **scrubbed,
            )
            logger.warning("training history scrubbed: %s", scrubbed)

        # Budget-censored rows record a lower bound, not a runtime;
        # keeping them biases the scalability curves downward.  Drop
        # them, accounting for runs the history effectively recovered
        # via resubmission (a surviving repeat at the same point).
        train, censored = drop_censored_rows(train)
        if censored:
            if self.strict:
                raise DataValidationError(
                    f"Training data contains censored rows: {censored} "
                    "(strict mode)."
                )
            report.record(
                "sanitize",
                "censored_rows_dropped",
                f"dropped {censored['censored']} wall-clock-censored rows "
                f"({censored['resubmitted']} had a surviving resubmitted "
                f"repeat; {censored['lost_groups']} (config, scale) points "
                "lost entirely)",
                **censored,
            )
            logger.warning("censored rows dropped: %s", censored)

        present = set(int(s) for s in train.scales)
        missing = sorted(set(self.small_scales) - present)
        if missing:
            if self.strict:
                raise DataValidationError(
                    f"Training data lacks small scales {missing}."
                )
            effective = tuple(
                s for s in self.small_scales if s in present
            )
            if len(effective) < 2:
                raise FitDegenerateError(
                    f"Training data lacks small scales {missing}; only "
                    f"{list(effective)} remain — need at least two to fit "
                    "scalability curves."
                )
            report.record(
                "sanitize",
                "scale_dropped",
                f"small scales {missing} have no usable runs; fitting on "
                f"{list(effective)}",
                missing_scales=missing,
                effective_scales=list(effective),
            )
            logger.warning(
                "small scales %s missing; continuing with %s",
                missing,
                list(effective),
            )
        else:
            effective = self.small_scales
        self.effective_small_scales_ = effective
        small_data = train.at_scales(effective)

        # Content hash per small scale *as the interpolator sees it*
        # (post-scrub).  These are the warm-start keys of the next fit.
        from ..data.io import dataset_fingerprint

        self.scale_data_fingerprints_ = {
            int(s): dataset_fingerprint(small_data.at_scale(int(s)))
            for s in effective
        }
        warm_models = self._warm_models(warm_start_from, report)

        self.interpolator_ = PerScaleInterpolator(
            model_factory=self.interp_factory,
            log_target=self.log_target,
            min_scale_samples=1 if self.strict else self.min_scale_samples,
            random_state=self.random_state,
        ).fit(small_data, report=report, warm_models=warm_models)
        reused = getattr(self.interpolator_, "warm_reused_scales_", ())
        if reused:
            report.record(
                "interpolation",
                "warm_start",
                f"reused fitted interpolators for {len(reused)} scale(s) "
                f"{list(reused)} with unchanged training data",
                degrades=False,
                scales=list(reused),
            )
            logger.info(
                "warm start: reused interpolators for scales %s", list(reused)
            )

        # Training configurations' small-scale curves.
        configs, measured = small_data.runtime_matrix(effective)
        if configs.shape[0] == 0:
            raise FitDegenerateError(
                "No training configuration has runs at every small scale."
            )
        if self.fit_curves_on == "predictions":
            S_train = self.interpolator_.predict_matrix(configs)
        else:
            S_train = measured
        self.train_configs_ = configs

        if self.mode == "basis":
            extrapolator = ClusteredScalingExtrapolator(
                small_scales=effective,
                basis=self.basis,
                n_clusters=self.n_clusters,
                max_terms=self.max_terms,
                selection=self.selection,
                refit=self.refit,
                random_state=self.random_state,
            )
            try:
                extrapolator.fit(S_train, report=report)
            except ReproError as exc:
                if self.strict:
                    raise
                report.record(
                    "extrapolation",
                    "analytic_extrapolator",
                    f"clustered scalability fit degenerate "
                    f"({type(exc).__name__}: {exc}); falling back to the "
                    "analytic speedup baseline",
                    reason=type(exc).__name__,
                )
                logger.warning(
                    "extrapolation level degenerate (%s); using analytic "
                    "fallback",
                    exc,
                )
                extrapolator = AnalyticSpeedupExtrapolator(effective).fit(
                    S_train
                )
                self.used_analytic_fallback_ = True
            unconverged = report.by_kind("solver_not_converged")
            if self.strict and unconverged:
                raise FitDegenerateError(
                    f"{len(unconverged)} extrapolation solver(s) stopped at "
                    f"their iteration cap: {unconverged[0].detail} "
                    "(strict mode)."
                )
            self.extrapolator_ = extrapolator
        else:
            if large_train is None:
                raise ConfigurationError(
                    "transfer mode requires large_train data."
                )
            assert self.large_scales is not None
            large_train, lt_scrubbed = drop_invalid_rows(large_train)
            if lt_scrubbed:
                if self.strict:
                    raise DataValidationError(
                        f"large_train contains invalid rows: {lt_scrubbed} "
                        "(strict mode)."
                    )
                report.record(
                    "sanitize",
                    "dropped_invalid_rows",
                    f"dropped {sum(lt_scrubbed.values())} non-finite rows "
                    "from large_train",
                    **lt_scrubbed,
                )
            lt_small = large_train.at_scales(effective)
            cfg_l, S_l = lt_small.runtime_matrix(effective)
            lt_large = large_train.at_scales(self.large_scales)
            cfg_y, Y_l = lt_large.runtime_matrix(self.large_scales)
            # Align configurations present on both sides.
            rows_l = {tuple(r): i for i, r in enumerate(map(tuple, cfg_l))}
            pairs = [
                (rows_l[tuple(r)], j)
                for j, r in enumerate(map(tuple, cfg_y))
                if tuple(r) in rows_l
            ]
            if not pairs:
                raise FitDegenerateError(
                    "No configuration in large_train has runs at every "
                    "small and large scale."
                )
            i_idx = [i for i, _ in pairs]
            j_idx = [j for _, j in pairs]
            try:
                self.extrapolator_ = TransferExtrapolator(
                    small_scales=effective,
                    large_scales=self.large_scales,
                    n_clusters=self.n_clusters,
                    random_state=self.random_state,
                ).fit(S_l[i_idx], Y_l[j_idx])
            except ReproError as exc:
                if self.strict:
                    raise
                report.record(
                    "extrapolation",
                    "analytic_extrapolator",
                    f"transfer fit degenerate ({type(exc).__name__}: {exc}); "
                    "falling back to the analytic speedup baseline",
                    reason=type(exc).__name__,
                )
                self.extrapolator_ = AnalyticSpeedupExtrapolator(
                    effective
                ).fit(S_train)
                self.used_analytic_fallback_ = True
        if report.degraded:
            logger.info("%s", report.summary())
        return self

    def _warm_models(
        self,
        warm_start_from: "TwoLevelModel | dict | None",
        report: FitReport,
    ) -> dict | None:
        """Per-scale models safe to reuse from a previous fit: those
        whose scale's data fingerprint matches the current one and that
        had a dedicated (non-pooled) model.  Returns ``None`` when
        nothing is reusable."""
        if warm_start_from is None:
            return None
        if isinstance(warm_start_from, TwoLevelModel):
            for name in (
                "mode", "interp_factory", "log_target", "min_scale_samples",
                "strict", "random_state",
            ):
                if getattr(warm_start_from, name) != getattr(self, name):
                    raise ConfigurationError(
                        f"warm_start_from model differs in {name!r}; warm "
                        "starts require an identically configured model."
                    )
            state = warm_start_from.get_fitted_state()
        elif isinstance(warm_start_from, dict):
            state = warm_start_from
        else:
            raise ConfigurationError(
                "warm_start_from must be a fitted TwoLevelModel or a "
                "get_fitted_state() dict."
            )
        prev_fps = state.get("scale_data_fingerprints_") or {}
        prev_interp = state.get("interpolator_")
        prev_models = getattr(prev_interp, "models_", None) or {}
        # No param-name/app check needed: the fingerprints hash app name
        # and param names too, so a match implies an identical schema.
        if not prev_fps or not prev_models:
            report.record(
                "interpolation",
                "warm_start_unusable",
                "warm-start state carries no per-scale fingerprints or "
                "fitted models; performing a cold fit",
                degrades=False,
            )
            return None
        warm = {
            s: prev_models[s]
            for s, fp in self.scale_data_fingerprints_.items()
            if prev_fps.get(s) == fp and s in prev_models
        }
        return warm or None

    def _check_fitted(self) -> None:
        if not hasattr(self, "extrapolator_"):
            raise NotFittedError("TwoLevelModel is not fitted.")

    # -- persistence hooks -------------------------------------------------

    #: Constructor arguments, in signature order (see :meth:`get_params`).
    _INIT_PARAMS = (
        "small_scales", "mode", "large_scales", "interp_factory",
        "log_target", "basis", "n_clusters", "max_terms", "selection",
        "refit", "fit_curves_on", "strict", "min_scale_samples",
        "random_state",
    )

    #: Attributes :meth:`fit` sets (the model's entire learned state).
    _FITTED_ATTRS = (
        "fit_report_", "used_analytic_fallback_", "effective_small_scales_",
        "scale_data_fingerprints_", "interpolator_", "train_configs_",
        "extrapolator_",
    )

    @property
    def is_fitted(self) -> bool:
        """True once :meth:`fit` has completed."""
        return hasattr(self, "extrapolator_")

    def get_params(self) -> dict:
        """Constructor arguments, suitable for ``TwoLevelModel(**params)``."""
        return {name: getattr(self, name) for name in self._INIT_PARAMS}

    def get_fitted_state(self) -> dict:
        """Everything :meth:`fit` learned, as a plain dict.

        Together with :meth:`get_params` this is the model's complete
        serializable identity: ``TwoLevelModel(**params)
        .set_fitted_state(state)`` reproduces predictions bit-exactly.
        Used by :mod:`repro.serve.artifacts` for versioned persistence.
        """
        self._check_fitted()
        return {
            name: getattr(self, name)
            for name in self._FITTED_ATTRS
            if hasattr(self, name)
        }

    def set_fitted_state(self, state: dict) -> "TwoLevelModel":
        """Restore a state captured by :meth:`get_fitted_state`."""
        missing = [
            name
            for name in ("extrapolator_", "interpolator_", "fit_report_")
            if name not in state
        ]
        if missing:
            raise ConfigurationError(
                f"Fitted state is missing attributes {missing}."
            )
        unknown = sorted(set(state) - set(self._FITTED_ATTRS))
        if unknown:
            raise ConfigurationError(
                f"Fitted state has unknown attributes {unknown}."
            )
        for name, value in state.items():
            setattr(self, name, value)
        return self

    @property
    def fit_report(self) -> FitReport:
        """Every fallback taken while fitting (and why) — empty when the
        fit was clean.  See :class:`~repro.robustness.report.FitReport`."""
        if not hasattr(self, "fit_report_"):
            raise NotFittedError("TwoLevelModel is not fitted.")
        return self.fit_report_

    # -- prediction --------------------------------------------------------

    def predict_small_matrix(self, X: np.ndarray) -> np.ndarray:
        """Interpolation-level predictions, shape ``(n, n_small)``."""
        self._check_fitted()
        return self.interpolator_.predict_matrix(X)

    def predict(self, X: np.ndarray, scales: Sequence[int]) -> np.ndarray:
        """Runtime predictions at the given scales, shape ``(n,
        len(scales))``.

        Scales that are part of ``small_scales`` are answered by the
        interpolation level directly; all others go through the
        extrapolation level.
        """
        self._check_fitted()
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ConfigurationError("X must be 2-D (configs x params).")
        interp_scales = self._interp_scales()
        scales = [int(s) for s in scales]
        out = np.empty((X.shape[0], len(scales)))

        extrap_cols = [
            j for j, s in enumerate(scales) if s not in interp_scales
        ]
        if extrap_cols:
            targets = [scales[j] for j in extrap_cols]
            direct = self.mode == "basis" or self.used_analytic_fallback_
            if not direct:
                assert self.large_scales is not None
                unknown = set(targets) - set(self.large_scales)
                if unknown:
                    raise ExtrapolationError(
                        f"Transfer mode can only predict its fitted large "
                        f"scales {self.large_scales}; got {sorted(unknown)}."
                    )
            S = self.predict_small_matrix(X)
            if direct:
                preds = self.extrapolator_.predict(S, targets)
            else:
                all_preds = self.extrapolator_.predict(S)
                col_of = {s: k for k, s in enumerate(self.large_scales)}
                preds = all_preds[:, [col_of[s] for s in targets]]
            for k, j in enumerate(extrap_cols):
                out[:, j] = preds[:, k]
        for j, s in enumerate(scales):
            if s in interp_scales:
                out[:, j] = self.interpolator_.predict_scale(X, s)
        return out

    def _interp_scales(self) -> tuple[int, ...]:
        """Scales the interpolation level answers directly (the
        effective small scales after any degradation)."""
        return getattr(self, "effective_small_scales_", self.small_scales)

    def pack(self):
        """Export the fitted pipeline to a
        :class:`~repro.core.packed_pipeline.PackedPipeline` whose
        ``predict`` is pure numpy and bit-identical to :meth:`predict`.

        Raises :class:`ConfigurationError` when the model is unfitted
        or its interpolation learners are not packable random forests.
        """
        from .packed_pipeline import PackedPipeline

        return PackedPipeline.from_model(self)

    def predict_speedup(
        self, X: np.ndarray, scales: Sequence[int], base_scale: int | None = None
    ) -> np.ndarray:
        """Predicted speedup ``t(base) / t(p)`` at each scale.

        ``base_scale`` defaults to the smallest fitted small scale.
        """
        self._check_fitted()
        base = (
            int(base_scale)
            if base_scale is not None
            else self._interp_scales()[0]
        )
        t_base = self.predict(X, [base])[:, 0]
        t = self.predict(X, scales)
        return t_base[:, None] / t

    def predict_efficiency(
        self, X: np.ndarray, scales: Sequence[int], base_scale: int | None = None
    ) -> np.ndarray:
        """Predicted parallel efficiency ``speedup(p) * base / p``."""
        base = (
            int(base_scale)
            if base_scale is not None
            else self._interp_scales()[0]
        )
        speedup = self.predict_speedup(X, scales, base_scale=base)
        ratio = np.asarray([int(s) for s in scales], dtype=np.float64) / base
        return speedup / ratio[None, :]

    def recommend_scale(
        self,
        x: np.ndarray,
        candidate_scales: Sequence[int],
        efficiency_floor: float = 0.5,
        base_scale: int | None = None,
    ) -> int:
        """Largest candidate scale whose predicted efficiency stays
        above ``efficiency_floor`` (the capacity-planning question).

        Falls back to the smallest candidate when even it violates the
        floor.
        """
        if not 0.0 < efficiency_floor <= 1.0:
            raise ConfigurationError("efficiency_floor must be in (0, 1].")
        candidates = sorted(int(s) for s in candidate_scales)
        if not candidates:
            raise ConfigurationError("candidate_scales must be non-empty.")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        eff = self.predict_efficiency(x, candidates, base_scale=base_scale)[0]
        ok = [s for s, e in zip(candidates, eff) if e >= efficiency_floor]
        return max(ok) if ok else candidates[0]

    def predict_dataset(self, dataset: ExecutionDataset) -> np.ndarray:
        """Per-row predictions for an evaluation dataset (each row has
        its own nprocs)."""
        self._check_fitted()
        out = np.empty(len(dataset))
        for s in np.unique(dataset.nprocs):
            mask = dataset.nprocs == s
            out[mask] = self.predict(dataset.X[mask], [int(s)])[:, 0]
        return out

    def evaluate_split(self, split: ScaleSplit) -> dict[int, float]:
        """Per-large-scale MAPE on a :class:`ScaleSplit`'s test side."""
        from ..ml.metrics import mean_absolute_percentage_error

        self._check_fitted()
        result: dict[int, float] = {}
        for s in split.large_scales:
            sub = split.test.at_scale(s)
            if len(sub) == 0:
                continue
            pred = self.predict(sub.X, [s])[:, 0]
            result[s] = mean_absolute_percentage_error(sub.runtime, pred)
        return result

    # -- diagnostics ------------------------------------------------------------

    def interpolation_cv_mape(self, n_splits: int = 5) -> dict[int, float]:
        """Cross-validated per-scale MAPE of the interpolation level."""
        self._check_fitted()
        return self.interpolator_.cv_mape(n_splits=n_splits)

    def support_names(self) -> dict[int, tuple[str, ...]]:
        """Basis terms selected per cluster (basis mode only; the
        analytic fallback reports a single pseudo-cluster ``amdahl``)."""
        self._check_fitted()
        if self.used_analytic_fallback_:
            return self.extrapolator_.support_names()
        if self.mode != "basis":
            raise RuntimeError("support_names is only defined in basis mode.")
        return self.extrapolator_.support_names()

    @property
    def cluster_sizes_(self) -> np.ndarray:
        """Number of training configurations per cluster."""
        self._check_fitted()
        if self.used_analytic_fallback_:
            return np.array([self.train_configs_.shape[0]])
        if self.mode == "basis":
            return np.bincount(
                self.extrapolator_.labels_, minlength=self.extrapolator_.n_clusters_
            )
        raise RuntimeError("cluster_sizes_ is only defined in basis mode.")

    def parameter_importance(
        self, n_repeats: int = 5, random_state: int | None = 0
    ) -> dict[int, dict[str, float]]:
        """Permutation importance of each input parameter, per scale.

        Answers "which application parameters drive runtime at scale
        p?" using the fitted interpolation models and their training
        data.  Returns ``{scale: {param_name: importance}}`` with
        importances normalized to sum to 1 per scale (zero map if a
        scale's model explains nothing).
        """
        from ..ml.inspection import permutation_importance

        self._check_fitted()
        interp = self.interpolator_
        out: dict[int, dict[str, float]] = {}
        for scale in interp.scales_:
            if scale not in interp.models_:
                continue  # pooled-fallback scale has no dedicated model
            sub = interp._train.at_scale(scale)
            y = np.log(sub.runtime) if interp.log_target else sub.runtime
            imp = permutation_importance(
                interp.models_[scale],
                sub.X,
                y,
                n_repeats=n_repeats,
                feature_names=interp.param_names_,
                random_state=random_state,
            )
            vals = np.maximum(imp.importances_mean, 0.0)
            total = vals.sum()
            if total > 0:
                vals = vals / total
            out[scale] = dict(zip(interp.param_names_, vals.tolist()))
        return out

    def report(self, cv_splits: int = 3) -> str:
        """Human-readable diagnostic summary of the fitted model.

        Covers both levels: per-scale interpolation CV error, cluster
        sizes, and the scalability terms each cluster selected.
        """
        self._check_fitted()
        lines = [
            f"TwoLevelModel ({self.mode} mode)",
            f"  small scales : {list(self._interp_scales())}",
            f"  training cfgs: {self.train_configs_.shape[0]}",
            "  interpolation level (per-scale CV MAPE):",
        ]
        for scale, err in self.interpolation_cv_mape(n_splits=cv_splits).items():
            lines.append(f"    p={scale:<6d} {100 * err:5.1f}%")
        if self.used_analytic_fallback_:
            lines.append(
                "  extrapolation level: analytic speedup fallback (Amdahl)"
            )
        elif self.mode == "basis":
            lines.append("  extrapolation level (clustered scalability models):")
            sizes = self.cluster_sizes_
            for cluster, terms in self.support_names().items():
                lines.append(
                    f"    cluster {cluster} ({sizes[cluster]:>3d} cfgs): "
                    f"t(p) ~ {' + '.join(terms) if terms else '(none)'}"
                )
        else:
            assert self.large_scales is not None
            lines.append(
                f"  extrapolation level: transfer map onto scales "
                f"{list(self.large_scales)} "
                f"({self.extrapolator_.n_clusters_} cluster(s))"
            )
        if self.fit_report_.degraded:
            lines.append("  " + self.fit_report_.summary().replace("\n", "\n  "))
        return "\n".join(lines)
