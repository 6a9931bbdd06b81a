"""K-means clustering with k-means++ seeding.

Used by the extrapolation level to group configurations by the shape of
their (normalized) small-scale performance curves, so each cluster can
get its own multitask-lasso scalability model.
"""

from __future__ import annotations

import numpy as np

from ..base import BaseEstimator, ClusterMixin, check_is_fitted
from ..metrics import pairwise_distances
from ..validation import check_array, check_random_state

__all__ = ["KMeans", "kmeans_plus_plus_init"]


def kmeans_plus_plus_init(
    X: np.ndarray, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: later centers drawn ~ squared distance to the
    nearest already-chosen center."""
    n = X.shape[0]
    centers = np.empty((n_clusters, X.shape[1]))
    first = int(rng.integers(n))
    centers[0] = X[first]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for k in range(1, n_clusters):
        total = d2.sum()
        if total <= 0:
            # All remaining points coincide with a center; pick uniformly.
            idx = int(rng.integers(n))
        else:
            probs = d2 / total
            idx = int(rng.choice(n, p=probs))
        centers[k] = X[idx]
        d2 = np.minimum(d2, np.sum((X - centers[k]) ** 2, axis=1))
    return centers


class KMeans(BaseEstimator, ClusterMixin):
    """Lloyd's algorithm with ``n_init`` random restarts.

    Empty clusters are re-seeded with the point farthest from its current
    center, so the fitted model always has exactly ``n_clusters`` centers
    (provided there are at least that many distinct points).

    Attributes
    ----------
    cluster_centers_ : (n_clusters, n_features)
    labels_ : (n_samples,)
    inertia_ : float
        Sum of squared distances to assigned centers (monotonically
        non-increasing across Lloyd iterations — a property test target).
    n_iter_ : int
        Lloyd iterations run by the kept restart.
    converged_ : bool
        Whether the kept restart's center shift fell to ``tol`` before
        ``max_iter`` iterations.
    """

    def __init__(
        self,
        n_clusters: int = 3,
        n_init: int = 10,
        max_iter: int = 300,
        tol: float = 1e-6,
        random_state: object = None,
    ) -> None:
        self.n_clusters = n_clusters
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.random_state = random_state

    def _lloyd(
        self, X: np.ndarray, centers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float, int, bool]:
        """Lloyd iterations from ``centers``: final centers, labels,
        inertia, iterations run, and whether the shift met ``tol``."""
        n_iter, converged = 0, False
        for n_iter in range(1, self.max_iter + 1):
            D = pairwise_distances(X, centers)
            labels = np.argmin(D, axis=1)
            new_centers = centers.copy()
            for k in range(self.n_clusters):
                mask = labels == k
                if np.any(mask):
                    new_centers[k] = X[mask].mean(axis=0)
                else:
                    # Re-seed an empty cluster at the worst-served point.
                    worst = int(np.argmax(D[np.arange(len(labels)), labels]))
                    new_centers[k] = X[worst]
            shift = float(np.sum((new_centers - centers) ** 2))
            centers = new_centers
            if shift <= self.tol:
                converged = True
                break
        D = pairwise_distances(X, centers)
        labels = np.argmin(D, axis=1)
        inertia = float(np.sum(D[np.arange(len(labels)), labels] ** 2))
        return centers, labels, inertia, n_iter, converged

    def fit(self, X: np.ndarray, y: object = None) -> "KMeans":
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1.")
        if self.n_init < 1:
            raise ValueError("n_init must be >= 1.")
        X = check_array(X, min_samples=self.n_clusters)
        rng = check_random_state(self.random_state)

        best: tuple[float, np.ndarray, np.ndarray, int, bool] | None = None
        for _ in range(self.n_init):
            centers0 = kmeans_plus_plus_init(X, self.n_clusters, rng)
            centers, labels, inertia, n_iter, converged = self._lloyd(X, centers0)
            if best is None or inertia < best[0]:
                best = (inertia, centers, labels, n_iter, converged)
        assert best is not None
        (self.inertia_, self.cluster_centers_, self.labels_,
         self.n_iter_, self.converged_) = best
        self.n_features_in_ = X.shape[1]
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Index of the nearest fitted center for each row."""
        check_is_fitted(self, "cluster_centers_")
        X = check_array(X, min_samples=0)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"Expected {self.n_features_in_} features, got {X.shape[1]}."
            )
        return np.argmin(pairwise_distances(X, self.cluster_centers_), axis=1)

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Distances to every center, shape ``(n_samples, n_clusters)``."""
        check_is_fitted(self, "cluster_centers_")
        X = check_array(X, min_samples=0)
        return pairwise_distances(X, self.cluster_centers_)
