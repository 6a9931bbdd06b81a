"""Tests for k-means and agglomerative clustering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import AgglomerativeClustering, KMeans
from repro.ml.cluster.kmeans import kmeans_plus_plus_init


@pytest.fixture
def blobs(rng):
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    X = np.vstack([rng.normal(c, 0.5, size=(30, 2)) for c in centers])
    labels = np.repeat(np.arange(3), 30)
    return X, labels, centers


def label_agreement(pred, true):
    """Best-permutation agreement between two labelings (3 clusters)."""
    from itertools import permutations

    best = 0.0
    for perm in permutations(range(3)):
        mapped = np.array([perm[p] for p in pred])
        best = max(best, float(np.mean(mapped == true)))
    return best


class TestKMeans:
    def test_recovers_separated_blobs(self, blobs):
        X, true, _ = blobs
        km = KMeans(n_clusters=3, random_state=0).fit(X)
        assert label_agreement(km.labels_, true) == 1.0

    def test_centers_near_truth(self, blobs):
        X, _, centers = blobs
        km = KMeans(n_clusters=3, random_state=0).fit(X)
        # Every true center must have a found center within 0.5, 1:1.
        dists = np.linalg.norm(
            centers[:, None, :] - km.cluster_centers_[None, :, :], axis=2
        )
        matches = np.argmin(dists, axis=1)
        assert sorted(matches.tolist()) == [0, 1, 2]
        assert np.all(dists[np.arange(3), matches] < 0.5)

    def test_inertia_decreases_with_k(self, blobs):
        X, _, _ = blobs
        inertias = [
            KMeans(n_clusters=k, random_state=0).fit(X).inertia_
            for k in [1, 2, 3, 5]
        ]
        assert inertias == sorted(inertias, reverse=True)

    def test_inertia_matches_definition(self, blobs):
        X, _, _ = blobs
        km = KMeans(n_clusters=3, random_state=0).fit(X)
        manual = sum(
            np.sum((X[km.labels_ == c] - km.cluster_centers_[c]) ** 2)
            for c in range(3)
        )
        assert km.inertia_ == pytest.approx(manual)

    def test_predict_self_consistent(self, blobs):
        X, _, _ = blobs
        km = KMeans(n_clusters=3, random_state=0).fit(X)
        np.testing.assert_array_equal(km.predict(X), km.labels_)

    def test_fit_predict_shortcut(self, blobs):
        X, _, _ = blobs
        km = KMeans(n_clusters=3, random_state=0)
        labels = km.fit_predict(X)
        np.testing.assert_array_equal(labels, km.labels_)

    def test_transform_distances(self, blobs):
        X, _, _ = blobs
        km = KMeans(n_clusters=3, random_state=0).fit(X)
        D = km.transform(X[:5])
        assert D.shape == (5, 3)
        np.testing.assert_array_equal(np.argmin(D, axis=1), km.labels_[:5])

    def test_k_equals_n_zero_inertia(self, rng):
        X = rng.normal(size=(6, 2))
        km = KMeans(n_clusters=6, n_init=3, random_state=0).fit(X)
        assert km.inertia_ == pytest.approx(0.0, abs=1e-12)

    def test_reproducible(self, blobs):
        X, _, _ = blobs
        a = KMeans(n_clusters=3, random_state=7).fit(X).labels_
        b = KMeans(n_clusters=3, random_state=7).fit(X).labels_
        np.testing.assert_array_equal(a, b)

    def test_fewer_samples_than_clusters_raises(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=5).fit(np.ones((3, 2)))

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=0).fit(np.ones((3, 2)))
        with pytest.raises(ValueError):
            KMeans(n_init=0).fit(np.ones((3, 2)))

    def test_default_fit_converges(self, blobs):
        X, _, _ = blobs
        km = KMeans(n_clusters=3, random_state=0).fit(X)
        assert km.converged_
        assert 1 <= km.n_iter_ < km.max_iter

    def test_capped_fit_reports_not_converged(self, rng):
        X = np.vstack([rng.normal(c, 2.0, size=(40, 2)) for c in (0.0, 1.5, 3.0)])
        km = KMeans(n_clusters=3, max_iter=1, random_state=0).fit(X)
        assert not km.converged_
        assert km.n_iter_ == 1

    @given(st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_every_cluster_nonempty(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 2))
        km = KMeans(n_clusters=4, n_init=2, random_state=seed).fit(X)
        assert len(np.unique(km.labels_)) == 4


class TestKMeansPlusPlus:
    def test_centers_are_data_points(self, blobs):
        X, _, _ = blobs
        centers = kmeans_plus_plus_init(X, 3, np.random.default_rng(0))
        for c in centers:
            assert np.any(np.all(np.isclose(X, c), axis=1))

    def test_duplicate_points_handled(self):
        X = np.ones((10, 2))
        centers = kmeans_plus_plus_init(X, 3, np.random.default_rng(0))
        assert centers.shape == (3, 2)


class TestAgglomerative:
    def test_recovers_separated_blobs(self, blobs):
        X, true, _ = blobs
        for linkage in ["single", "complete", "average"]:
            model = AgglomerativeClustering(n_clusters=3, linkage=linkage).fit(X)
            assert label_agreement(model.labels_, true) == 1.0, linkage

    def test_n_clusters_respected(self, rng):
        X = rng.normal(size=(20, 2))
        model = AgglomerativeClustering(n_clusters=4).fit(X)
        assert len(np.unique(model.labels_)) == 4

    def test_merge_history_length(self, rng):
        X = rng.normal(size=(12, 2))
        model = AgglomerativeClustering(n_clusters=3).fit(X)
        assert len(model.merge_history_) == 12 - 3

    def test_merge_distances_nondecreasing_complete(self, rng):
        X = rng.normal(size=(15, 2))
        model = AgglomerativeClustering(n_clusters=1, linkage="complete").fit(X)
        dists = [d for _, _, d in model.merge_history_]
        # Complete linkage produces monotone merge heights.
        assert all(b >= a - 1e-9 for a, b in zip(dists, dists[1:]))

    def test_invalid_linkage_raises(self):
        with pytest.raises(ValueError):
            AgglomerativeClustering(linkage="ward").fit(np.ones((4, 2)))

    def test_labels_relabeled_contiguously(self, rng):
        X = rng.normal(size=(10, 2))
        model = AgglomerativeClustering(n_clusters=3).fit(X)
        assert set(model.labels_) == {0, 1, 2}
