"""Test-only reference CART grower: one node per Python iteration.

This is the depth-first grower the level-wise ``grow_trees`` replaced,
kept verbatim in behaviour so tests can check the production trees
against it bit for bit.  It pops nodes from a stack, sorts each node's
samples per feature, scores every threshold with prefix sums and takes
the first minimum of the children's summed SSE over (position, feature).
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree.decision_tree import TreeArrays, _resolve_max_features

_LEAF = -1


def best_split_all_features(
    X_node: np.ndarray, y: np.ndarray, min_samples_leaf: int
) -> tuple[float, int, float]:
    """``(impurity_decrease_total, feature, threshold)`` of the best
    split of one node, or ``(-inf, -1, nan)`` when none is valid."""
    n, f = X_node.shape
    order = np.argsort(X_node, axis=0, kind="stable")
    v = np.take_along_axis(X_node, order, axis=0)
    ys = y[order]

    csum = np.cumsum(ys, axis=0)
    csum_sq = np.cumsum(ys * ys, axis=0)
    total_sum = csum[-1, 0]
    total_sq = csum_sq[-1, 0]
    total_sse = total_sq - total_sum * total_sum / n

    pos = np.arange(n - 1)
    n_left = (pos + 1).astype(np.float64)[:, None]
    n_right = n - n_left
    sum_left = csum[:-1]
    sq_left = csum_sq[:-1]
    sse = (
        (sq_left - sum_left * sum_left / n_left)
        + ((total_sq - sq_left) - (total_sum - sum_left) ** 2 / n_right)
    )
    valid = (
        (n_left >= min_samples_leaf)
        & (n_right >= min_samples_leaf)
        & (v[:-1] < v[1:])
    )
    if not np.any(valid):
        return -np.inf, -1, np.nan
    sse = np.where(valid, sse, np.inf)
    flat = int(np.argmin(sse))
    p, feat = divmod(flat, f)
    best_sse = sse[p, feat]
    if not np.isfinite(best_sse):
        return -np.inf, -1, np.nan
    threshold = 0.5 * (v[p, feat] + v[p + 1, feat])
    if threshold <= v[p, feat]:
        threshold = v[p + 1, feat]
    return float(total_sse - best_sse), int(feat), float(threshold)


def reference_tree(
    X: np.ndarray,
    y: np.ndarray,
    sample_indices: np.ndarray | None = None,
    *,
    max_depth: int | None = None,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    max_features: object = None,
    min_impurity_decrease: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[TreeArrays, np.ndarray]:
    """Grow one tree depth first; returns its arrays and normalised
    feature importances."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rng = rng if rng is not None else np.random.default_rng(0)
    n_samples, n_features = X.shape
    m_feat = _resolve_max_features(max_features, n_features)
    depth_cap = np.inf if max_depth is None else max_depth
    root_idx = (
        np.arange(n_samples)
        if sample_indices is None
        else np.asarray(sample_indices, dtype=np.int64)
    )

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    n_node: list[int] = []
    impurity: list[float] = []
    importance = np.zeros(n_features)

    def new_node(idx: np.ndarray) -> int:
        yi = y[idx]
        feature.append(_LEAF)
        threshold.append(np.nan)
        left.append(_LEAF)
        right.append(_LEAF)
        value.append(float(yi.mean()))
        n_node.append(len(idx))
        impurity.append(float(yi.var()))
        return len(feature) - 1

    stack = [(new_node(root_idx), root_idx, 0)]
    total_n = len(root_idx)
    while stack:
        node_id, idx, depth = stack.pop()
        n_here = len(idx)
        if (
            depth >= depth_cap
            or n_here < min_samples_split
            or n_here < 2 * min_samples_leaf
            or impurity[node_id] == 0.0
        ):
            continue
        if m_feat < n_features:
            candidates = rng.choice(n_features, size=m_feat, replace=False)
        else:
            candidates = np.arange(n_features)
        best_dec, local_feat, best_thr = best_split_all_features(
            X[np.ix_(idx, candidates)], y[idx], min_samples_leaf
        )
        best_feat = int(candidates[local_feat]) if local_feat >= 0 else -1
        if best_feat < 0 or not np.isfinite(best_dec):
            continue
        if best_dec / total_n < min_impurity_decrease:
            continue
        if best_dec <= 1e-12 * max(1.0, abs(impurity[node_id]) * n_here):
            continue
        go_left = X[idx, best_feat] <= best_thr
        left_idx = idx[go_left]
        right_idx = idx[~go_left]
        if len(left_idx) == 0 or len(right_idx) == 0:
            continue
        feature[node_id] = best_feat
        threshold[node_id] = best_thr
        importance[best_feat] += best_dec
        left_id = new_node(left_idx)
        right_id = new_node(right_idx)
        left[node_id] = left_id
        right[node_id] = right_id
        stack.append((left_id, left_idx, depth + 1))
        stack.append((right_id, right_idx, depth + 1))

    tree = TreeArrays(
        feature=np.asarray(feature, dtype=np.int64),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        value=np.asarray(value, dtype=np.float64),
        n_node_samples=np.asarray(n_node, dtype=np.int64),
        impurity=np.asarray(impurity, dtype=np.float64),
    )
    total = importance.sum()
    return tree, (importance / total if total > 0 else np.zeros(n_features))
