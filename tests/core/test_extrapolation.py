"""Tests for the extrapolation level (clustered multitask-lasso
scalability models), including exact-recovery and positivity properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.extrapolation as extrapolation
from repro.core import (
    ClusteredScalingExtrapolator,
    ScaleBasis,
    TransferExtrapolator,
    TwoLevelModel,
)
from repro.errors import FitDegenerateError
from repro.ml import RandomForestRegressor
from repro.robustness import FitReport

SMALL = (32, 64, 128, 256, 512)
LARGE = (1024, 2048, 4096)


def synthetic_curves(n, rng, kind="mixed"):
    """Curves that are exact combinations of basis terms.

    kind: "decay" -> a + b/p; "rise" -> a + c*log2(p); "mixed" -> both
    families, which gives k-means something real to separate.
    """
    p = np.asarray(SMALL, dtype=float)
    curves, truth = [], []
    for i in range(n):
        a = rng.uniform(0.01, 0.1)
        if kind == "decay" or (kind == "mixed" and i % 2 == 0):
            b = rng.uniform(5.0, 50.0)
            fn = lambda q, a=a, b=b: a + b / q
        else:
            c = rng.uniform(0.01, 0.1)
            fn = lambda q, a=a, c=c: a + c * np.log2(q)
        curves.append(fn(p))
        truth.append(fn)
    return np.array(curves), truth


class TestExactRecovery:
    def test_recovers_pure_decay_curves(self, rng):
        S, truth = synthetic_curves(30, rng, kind="decay")
        model = ClusteredScalingExtrapolator(SMALL, n_clusters=1, random_state=0)
        model.fit(S)
        pred = model.predict(S, LARGE)
        expected = np.array([fn(np.asarray(LARGE, float)) for fn in truth])
        np.testing.assert_allclose(pred, expected, rtol=0.02)

    def test_recovers_rising_curves(self, rng):
        S, truth = synthetic_curves(30, rng, kind="rise")
        model = ClusteredScalingExtrapolator(SMALL, n_clusters=1, random_state=0)
        model.fit(S)
        pred = model.predict(S, LARGE)
        expected = np.array([fn(np.asarray(LARGE, float)) for fn in truth])
        np.testing.assert_allclose(pred, expected, rtol=0.05)

    def test_clusters_separate_curve_families(self, rng):
        S, _ = synthetic_curves(40, rng, kind="mixed")
        model = ClusteredScalingExtrapolator(SMALL, n_clusters=2, random_state=0)
        model.fit(S)
        labels = model.labels_
        # Even indices are decay, odd are rise: clustering must align.
        fam = np.arange(40) % 2
        agreement = max(
            np.mean(labels == fam), np.mean(labels == 1 - fam)
        )
        assert agreement > 0.95

    def test_mixed_families_with_clustering_accurate(self, rng):
        S, truth = synthetic_curves(40, rng, kind="mixed")
        model = ClusteredScalingExtrapolator(SMALL, n_clusters=2, random_state=0)
        model.fit(S)
        pred = model.predict(S, LARGE)
        expected = np.array([fn(np.asarray(LARGE, float)) for fn in truth])
        rel = np.abs(pred - expected) / expected
        assert np.median(rel) < 0.05


class TestPositivityProperty:
    @pytest.mark.slow
    @given(st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_predictions_always_positive(self, seed):
        rng = np.random.default_rng(seed)
        # Arbitrary positive noisy curves, not necessarily basis-shaped.
        S = np.exp(rng.normal(0.0, 1.0, size=(12, len(SMALL))))
        model = ClusteredScalingExtrapolator(SMALL, n_clusters=2,
                                             random_state=seed).fit(S)
        pred = model.predict(S, [600, 1024, 8192])
        assert np.all(pred > 0)

    def test_ols_refit_also_floored(self, rng):
        S, _ = synthetic_curves(10, rng)
        model = ClusteredScalingExtrapolator(
            SMALL, n_clusters=1, refit="ols", random_state=0
        ).fit(S)
        assert np.all(model.predict(S, LARGE) > 0)


class TestValidationSplit:
    def test_ratio_split_geometry(self):
        model = ClusteredScalingExtrapolator(SMALL, val_ratio=4.0)
        model._design_small = model.basis.design_matrix(SMALL)
        fit_idx, val_idx = model._validation_split()
        # 512/4 = 128: scales {32,64,128} fit, {256,512} validate.
        assert list(fit_idx) == [0, 1, 2]
        assert list(val_idx) == [3, 4]

    def test_two_scale_fallback(self):
        model = ClusteredScalingExtrapolator((64, 128), val_ratio=4.0)
        model._design_small = model.basis.design_matrix((64, 128))
        fit_idx, val_idx = model._validation_split()
        assert list(fit_idx) == [0] and list(val_idx) == [1]

    def test_oversized_support_scores_infeasible(self, rng):
        model = ClusteredScalingExtrapolator(SMALL, max_terms=3, random_state=0)
        model._design_small = model.basis.design_matrix(SMALL)
        big_support = np.ones(len(model.basis), dtype=bool)
        S = np.exp(rng.normal(size=(3, len(SMALL))))
        assert model._score_support(big_support, S) == np.inf


class TestAblationModes:
    @pytest.mark.parametrize("selection", ["multitask", "independent", "none"])
    def test_all_selection_modes_run(self, rng, selection):
        S, truth = synthetic_curves(16, rng)
        model = ClusteredScalingExtrapolator(
            SMALL, n_clusters=2, selection=selection, random_state=0
        ).fit(S)
        pred = model.predict(S, LARGE)
        assert pred.shape == (16, len(LARGE))
        assert np.all(pred > 0)

    def test_invalid_selection_raises(self):
        with pytest.raises(ValueError):
            ClusteredScalingExtrapolator(SMALL, selection="bayes")

    def test_invalid_refit_raises(self):
        with pytest.raises(ValueError):
            ClusteredScalingExtrapolator(SMALL, refit="huber")

    def test_single_cluster_no_kmeans(self, rng):
        S, _ = synthetic_curves(8, rng)
        model = ClusteredScalingExtrapolator(SMALL, n_clusters=1,
                                             random_state=0).fit(S)
        assert model.kmeans_ is None
        np.testing.assert_array_equal(model.labels_, 0)


class TestSolverConvergenceReport:
    @pytest.mark.parametrize("selection", ["multitask", "independent"])
    def test_capped_path_solves_are_reported_without_degrading(
        self, rng, monkeypatch, selection
    ):
        monkeypatch.setattr(extrapolation, "_PATH_MAX_ITER", 2)
        S, _ = synthetic_curves(16, rng)
        report = FitReport()
        ClusteredScalingExtrapolator(
            SMALL, n_clusters=2, selection=selection, random_state=0
        ).fit(S, report=report)
        events = report.by_kind("solver_not_converged")
        assert [e.context["cluster"] for e in events] == [0, 1]
        for event in events:
            assert event.stage == "extrapolation" and not event.degrades
            assert event.context["count"] >= 1
            assert event.context["n_iter"] == 2
            assert event.context["worst_gap"] > 0
        assert not report.degraded

    def test_capped_clustering_is_reported_without_degrading(
        self, rng, monkeypatch
    ):
        real = extrapolation.KMeans

        def capped(**kwargs):
            return real(max_iter=1, **kwargs)

        monkeypatch.setattr(extrapolation, "KMeans", capped)
        S, _ = synthetic_curves(16, rng)
        report = FitReport()
        model = ClusteredScalingExtrapolator(
            SMALL, n_clusters=2, random_state=0
        ).fit(S, report=report)
        assert not model.kmeans_.converged_
        events = [
            e for e in report.by_kind("solver_not_converged")
            if e.context.get("solver") == "kmeans"
        ]
        assert len(events) == 1
        assert events[0].context["n_iter"] == 1 and not events[0].degrades
        assert not report.degraded

    def test_converged_path_records_nothing(self, rng):
        S, _ = synthetic_curves(16, rng)
        report = FitReport()
        ClusteredScalingExtrapolator(SMALL, n_clusters=2, random_state=0).fit(
            S, report=report
        )
        assert len(report) == 0

    def test_two_level_fit_report_stays_clean(self, tiny_history, monkeypatch):
        monkeypatch.setattr(extrapolation, "_PATH_MAX_ITER", 2)
        model = TwoLevelModel(
            small_scales=[32, 64, 128, 256],
            n_clusters=2,
            interp_factory=lambda random_state=None: RandomForestRegressor(
                n_estimators=8, random_state=random_state
            ),
            random_state=0,
        ).fit(tiny_history)
        assert "solver_not_converged" in model.fit_report_.kinds()
        assert not model.fit_report_.degraded

    @pytest.mark.parametrize("solver", ["path", "kmeans"])
    def test_strict_two_level_fit_refuses_capped_solves(
        self, tiny_history, monkeypatch, solver
    ):
        if solver == "path":
            monkeypatch.setattr(extrapolation, "_PATH_MAX_ITER", 2)
        else:
            real = extrapolation.KMeans
            monkeypatch.setattr(
                extrapolation, "KMeans", lambda **kw: real(max_iter=1, **kw)
            )

        def fit(strict):
            return TwoLevelModel(
                small_scales=[32, 64, 128, 256],
                n_clusters=2,
                interp_factory=lambda random_state=None: RandomForestRegressor(
                    n_estimators=8, random_state=random_state
                ),
                strict=strict,
                random_state=0,
            ).fit(tiny_history)

        report = fit(strict=False).fit_report_
        events = report.by_kind("solver_not_converged")
        assert events and not report.degraded
        assert any((e.context.get("solver") == "kmeans") == (solver == "kmeans")
                   for e in events)
        with pytest.raises(FitDegenerateError, match="strict"):
            fit(strict=True)


class TestInputValidation:
    def test_wrong_width_raises(self, rng):
        model = ClusteredScalingExtrapolator(SMALL)
        with pytest.raises(ValueError, match="shape"):
            model.fit(np.ones((5, 3)))

    def test_nonpositive_curve_raises(self):
        model = ClusteredScalingExtrapolator(SMALL)
        S = np.ones((3, len(SMALL)))
        S[0, 0] = 0.0
        with pytest.raises(ValueError, match="positive"):
            model.fit(S)

    def test_too_few_scales_raises(self):
        with pytest.raises(ValueError):
            ClusteredScalingExtrapolator((64,))

    def test_duplicate_scales_raise(self):
        with pytest.raises(ValueError):
            ClusteredScalingExtrapolator((64, 64, 128))

    def test_predict_before_fit_raises(self, rng):
        model = ClusteredScalingExtrapolator(SMALL)
        with pytest.raises(RuntimeError):
            model.predict(np.ones((2, len(SMALL))), LARGE)

    def test_invalid_target_scale_raises(self, rng):
        S, _ = synthetic_curves(5, rng)
        model = ClusteredScalingExtrapolator(SMALL, n_clusters=1,
                                             random_state=0).fit(S)
        with pytest.raises(ValueError):
            model.predict(S, [0])

    def test_support_names_structure(self, rng):
        S, _ = synthetic_curves(10, rng)
        model = ClusteredScalingExtrapolator(SMALL, n_clusters=2,
                                             random_state=0).fit(S)
        names = model.support_names()
        assert set(names) == {0, 1}
        # "1" denotes the (validated) intercept; all other entries must
        # be basis-term names.
        basis_names = set(ScaleBasis().names) | {"1"}
        for terms in names.values():
            assert set(terms) <= basis_names


class TestTransferExtrapolator:
    def make_pair(self, rng, n=40):
        S, truth = synthetic_curves(n, rng, kind="mixed")
        Y = np.array([fn(np.asarray(LARGE, float)) for fn in truth])
        return S, Y

    def test_fits_and_predicts_heldout(self, rng):
        S, Y = self.make_pair(rng, 60)
        model = TransferExtrapolator(SMALL, LARGE, n_clusters=2,
                                     random_state=0).fit(S[:40], Y[:40])
        pred = model.predict(S[40:])
        rel = np.abs(pred - Y[40:]) / Y[40:]
        assert np.median(rel) < 0.15

    def test_predictions_positive(self, rng):
        S, Y = self.make_pair(rng)
        model = TransferExtrapolator(SMALL, LARGE, random_state=0).fit(S, Y)
        assert np.all(model.predict(S) > 0)

    def test_shape_validation(self, rng):
        S, Y = self.make_pair(rng)
        model = TransferExtrapolator(SMALL, LARGE)
        with pytest.raises(ValueError):
            model.fit(S, Y[:, :1])
        with pytest.raises(ValueError):
            model.fit(S[:, :2], Y)

    def test_small_cluster_fallback(self, rng):
        # Only 5 configs: clusters must collapse to avoid starved fits.
        S, Y = self.make_pair(rng, 5)
        model = TransferExtrapolator(SMALL, LARGE, n_clusters=4,
                                     random_state=0).fit(S, Y)
        assert model.n_clusters_ == 1

    def test_predict_before_fit_raises(self, rng):
        with pytest.raises(RuntimeError):
            TransferExtrapolator(SMALL, LARGE).predict(np.ones((2, len(SMALL))))
