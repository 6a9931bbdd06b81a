"""CART regression trees, grown level by level a whole forest at a time.

:func:`grow_trees` advances every open node of every tree in each pass
of one loop over depth levels:

* each tree's sample (a bootstrap draw, or every row) is sorted once
  per feature, ties broken by sample position; a split stable-partitions
  every ordering, so each node's samples stay one sorted segment and no
  node is sorted again;
* a level's open nodes are scored in size-sorted padded blocks of at
  most ``_BLOCK_CELLS`` cells: sequential prefix sums of ``y`` and
  ``y**2`` along each node's sorted samples price every threshold of
  every candidate feature, and the first minimum of the children's
  summed SSE over (position, feature) is the split;
* node means and variances are row reductions over blocks of equally
  sized nodes in sample order, which numpy computes exactly as
  ``np.mean``/``np.var`` of one node.

The trees are therefore the greedy depth-first CART trees node for node
(same splits, thresholds, values, impurities and sample counts), with
nodes numbered breadth first per tree.  Only per-node feature subsets
(``max_features`` below all features) depend on the visiting order:
they are drawn level by level.
:class:`~repro.ml.RandomForestRegressor` grows all its trees in one
call; :class:`DecisionTreeRegressor` is the one-tree case.  Trees grow
together in groups of at most ``_GROUP_ENTRIES`` sample-ordering
entries (a 100-tree forest on a few hundred rows is one group), so
working memory is bounded by the group and block sizes, whatever the
forest's size.

Prediction is vectorized level-by-level: all samples walk the tree
simultaneously, so cost is O(depth * n_samples) numpy operations instead
of a per-sample Python traversal.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..base import BaseEstimator, RegressorMixin, check_is_fitted
from ..validation import check_array, check_X_y, check_random_state

__all__ = ["DecisionTreeRegressor", "TreeArrays", "grow_trees"]

_LEAF = -1


@dataclass
class TreeArrays:
    """Flat array representation of a fitted tree.

    ``feature[i] == -1`` marks node ``i`` as a leaf; ``value`` holds the
    mean target of the node's training samples for every node (internal
    nodes too, which supports truncated-depth prediction if ever needed).
    """

    feature: np.ndarray  # (n_nodes,) int
    threshold: np.ndarray  # (n_nodes,) float
    left: np.ndarray  # (n_nodes,) int
    right: np.ndarray  # (n_nodes,) int
    value: np.ndarray  # (n_nodes,) float
    n_node_samples: np.ndarray  # (n_nodes,) int
    impurity: np.ndarray  # (n_nodes,) float; node MSE

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature == _LEAF))

    @property
    def max_depth(self) -> int:
        """Depth of the deepest leaf (root = depth 0)."""
        depth = np.zeros(self.n_nodes, dtype=np.int64)
        for i in range(self.n_nodes):
            if self.feature[i] != _LEAF:
                depth[self.left[i]] = depth[i] + 1
                depth[self.right[i]] = depth[i] + 1
        return int(depth.max()) if self.n_nodes else 0

    def predict(self, X: np.ndarray) -> np.ndarray:
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[nodes] != _LEAF
        while np.any(active):
            idx = np.nonzero(active)[0]
            cur = nodes[idx]
            feat = self.feature[cur]
            go_left = X[idx, feat] <= self.threshold[cur]
            nodes[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active[idx] = self.feature[nodes[idx]] != _LEAF
        return self.value[nodes]

    def decision_path_depth(self, X: np.ndarray) -> np.ndarray:
        """Depth at which each sample lands in a leaf."""
        nodes = np.zeros(X.shape[0], dtype=np.int64)
        depth = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[nodes] != _LEAF
        while np.any(active):
            idx = np.nonzero(active)[0]
            cur = nodes[idx]
            feat = self.feature[cur]
            go_left = X[idx, feat] <= self.threshold[cur]
            nodes[idx] = np.where(go_left, self.left[cur], self.right[cur])
            depth[idx] += 1
            active[idx] = self.feature[nodes[idx]] != _LEAF
        return depth


def _resolve_max_features(max_features: object, n_features: int) -> int:
    if max_features is None:
        return n_features
    if isinstance(max_features, str):
        if max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if max_features == "log2":
            return max(1, int(np.log2(n_features))) if n_features > 1 else 1
        raise ValueError(f"Unknown max_features string {max_features!r}")
    if isinstance(max_features, float):
        if not 0.0 < max_features <= 1.0:
            raise ValueError("Fractional max_features must be in (0, 1].")
        return max(1, int(round(max_features * n_features)))
    mf = int(max_features)
    if not 1 <= mf <= n_features:
        raise ValueError(f"max_features must be in [1, {n_features}]; got {mf}.")
    return mf


#: Cells (node x position x candidate feature) in one padded block of a
#: level's split search; bounds the search's temporaries at a few MB.
_BLOCK_CELLS = 1 << 16
#: Sample-ordering entries ((features + 1) x sample size per tree) grown
#: together; a forest whose orderings exceed this grows in tree groups.
_GROUP_ENTRIES = 1 << 17


def _check_growth(
    max_depth: int | None, min_samples_split: int, min_samples_leaf: int
) -> None:
    if min_samples_split < 2:
        raise ValueError("min_samples_split must be >= 2.")
    if min_samples_leaf < 1:
        raise ValueError("min_samples_leaf must be >= 1.")
    if max_depth is not None and max_depth < 1:
        raise ValueError("max_depth must be >= 1 or None.")


def _node_stats(
    y: np.ndarray, sample_order: np.ndarray, start: np.ndarray, size: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``np.mean`` and ``np.var`` of each node's targets in sample order.

    Nodes of equal size are reduced together as the rows of one matrix,
    which numpy sums exactly as it sums each row alone; the arithmetic
    is that of ``np.mean``/``np.var``, so every value matches bit for bit.
    """
    value = np.empty(size.size)
    impurity = np.empty(size.size)
    by_size = np.argsort(size, kind="stable")
    sizes = size[by_size].tolist()
    i = 0
    while i < len(sizes):
        n = sizes[i]
        end = bisect.bisect_right(sizes, n, i)
        members = by_size[i:end]
        i = end
        ys = y[sample_order[start[members, None] + np.arange(n)]]
        mean = np.add.reduce(ys, axis=1) / n
        dev = ys - mean[:, None]
        value[members] = mean
        impurity[members] = np.add.reduce(dev * dev, axis=1) / n
    return value, impurity


def _score_block(
    X: np.ndarray,
    y: np.ndarray,
    order: np.ndarray,
    start: np.ndarray,
    n: np.ndarray,
    cand: np.ndarray,
    width: int,
    min_samples_leaf: int,
) -> tuple[np.ndarray, ...]:
    """Best split of each node of one padded block (see _best_splits)."""
    k, n_cand = cand.shape
    at = np.arange(k)
    pos = np.minimum(start[:, None] + np.arange(width), order.shape[1] - 1)
    rows = np.take(order, cand[:, None, :] * order.shape[1] + pos[:, :, None])
    v = np.take(X, rows * X.shape[1] + cand[:, None, :])  # (node, position, cand)
    ys = np.take(y, rows)
    csum = np.cumsum(ys, axis=1)
    csum_sq = np.cumsum(np.multiply(ys, ys, out=ys), axis=1)
    total_sum = csum[at, n - 1, 0]
    total_sq = csum_sq[at, n - 1, 0]
    n_float = n.astype(np.float64)
    total_sse = total_sq - total_sum * total_sum / n_float
    n_left = np.arange(1, width, dtype=np.float64)[:, None]
    n_right = n_float[:, None, None] - n_left
    sum_left = csum[:, :-1]
    sq_left = csum_sq[:, :-1]
    # sse = (sq_left - sum_left**2 / n_left)
    #       + ((total_sq - sq_left) - (total_sum - sum_left)**2 / n_right),
    # evaluated in place in that order.  Padding positions divide by
    # n_right <= 0; they are masked below.
    with np.errstate(divide="ignore", invalid="ignore"):
        sse = np.multiply(sum_left, sum_left)
        np.divide(sse, n_left, out=sse)
        np.subtract(sq_left, sse, out=sse)
        right = np.subtract(total_sum[:, None, None], sum_left)
        np.square(right, out=right)
        np.divide(right, n_right, out=right)
        rest = np.subtract(total_sq[:, None, None], sq_left, out=sum_left)
        np.subtract(rest, right, out=rest)
        np.add(sse, rest, out=sse)
    valid = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
    valid = valid & (v[:, :-1] < v[:, 1:])
    sse[~valid] = np.inf
    sse = sse.reshape(k, -1)
    flat = np.argmin(sse, axis=1)
    p, c = np.divmod(flat, n_cand)
    lo = v[at, p, c]
    hi = v[at, p + 1, c]
    mid = 0.5 * (lo + hi)
    # Midpoint threshold, robust against representational ties.
    return sse[at, flat], total_sse, cand[at, c], np.where(mid <= lo, hi, mid)


def _best_splits(
    X: np.ndarray,
    y: np.ndarray,
    order: np.ndarray,
    start: np.ndarray,
    size: np.ndarray,
    candidates: np.ndarray,
    min_samples_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Best split of each node: ``(best_sse, total_sse, feature,
    threshold)``, with ``best_sse == inf`` where no split is valid.

    ``order[f]`` holds every node's samples sorted by feature ``f``.
    Nodes are scored largest first in padded blocks of at most
    :data:`_BLOCK_CELLS` cells; past a sixteenth of that, a block takes
    only nodes at least half as large as its first, so padding stays
    under half of the work.  Prefix sums run along each node's sorted
    samples with the arithmetic of a per-node sort, and the first
    minimum over (position, candidate) wins.
    """
    k, n_cand = candidates.shape
    by_size = np.argsort(-size, kind="stable")
    desc = size[by_size]
    parts = []
    i = 0
    while i < k:
        width = int(desc[i])
        per_node = width * n_cand
        half = int(np.searchsorted(-desc, -width / 2, side="right"))
        end = min(
            k,
            i + max(1, _BLOCK_CELLS // per_node),
            max(half, i + _BLOCK_CELLS // 16 // per_node),
        )
        nodes = by_size[i:end]
        parts.append(_score_block(
            X, y, order, start[nodes], size[nodes], candidates[nodes], width,
            min_samples_leaf,
        ))
        i = end
    unsort = np.empty(k, dtype=np.intp)
    unsort[by_size] = np.arange(k)
    return tuple(np.concatenate(col)[unsort] for col in zip(*parts))


def _partition(
    rows: np.ndarray, go_left: np.ndarray, size: np.ndarray, n_left: np.ndarray
) -> np.ndarray:
    """Stable-partition every row of ``rows``: within each segment (the
    concatenated lengths ``size``), the ``go_left`` entries first, each
    half in its original order."""
    width = rows.shape[1]
    first = np.cumsum(size) - size
    seg_first = np.repeat(first, size)
    lefts_before = np.cumsum(go_left, axis=1) - go_left
    left_rank = lefts_before - np.repeat(lefts_before[:, first], size, axis=1)
    right_rank = np.arange(width) - seg_first - left_rank
    dest = seg_first + np.where(
        go_left, left_rank, np.repeat(n_left, size) + right_rank
    )
    dest += np.arange(0, rows.size, width)[:, None]
    out = np.empty_like(rows)
    np.put(out, dest, rows)
    return out


def _presort(X: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Sample orderings of a group of trees, one row per feature plus a
    last row in sample order: row ``f`` lists each tree's samples sorted
    by feature ``f``, ties broken by sample position."""
    n_trees, n_root = samples.shape
    n_features = X.shape[1]
    by_value = np.argsort(X[samples], axis=1, kind="stable")
    sorted_samples = samples[np.arange(n_trees)[:, None, None], by_value]
    order = np.empty((n_features + 1, n_trees * n_root), dtype=np.intp)
    order[:-1] = sorted_samples.transpose(2, 0, 1).reshape(n_features, -1)
    order[-1] = samples.ravel()
    return order


def _grow_group(
    X: np.ndarray,
    y: np.ndarray,
    samples: np.ndarray,
    rngs: Sequence[np.random.Generator],
    max_depth: float,
    min_samples_split: int,
    min_samples_leaf: int,
    n_candidates: int,
    min_impurity_decrease: float,
) -> list[tuple[TreeArrays, np.ndarray]]:
    """Grow the trees of one group level by level (see grow_trees)."""
    n_trees, n_root = samples.shape
    n_features = X.shape[1]
    every_feature = np.arange(n_features)[None, :]
    # Each open node's samples are one segment, at the same place in
    # every row of ``order``; ``start``/``size`` locate them.
    order = _presort(X, samples)
    tree = np.arange(n_trees)
    start = np.arange(n_trees) * n_root
    size = np.full(n_trees, n_root)
    levels = []
    n_created = n_trees  # nodes numbered in creation (level) order
    depth = 0
    while True:
        value, impurity = _node_stats(y, order[-1], start, size)
        feature = np.full(tree.size, _LEAF, dtype=np.int64)
        threshold = np.full(tree.size, np.nan)
        gain = np.zeros(tree.size)
        left = np.full(tree.size, _LEAF, dtype=np.int64)
        levels.append(
            (tree, value, size, impurity, feature, threshold, gain, left)
        )
        split = np.flatnonzero(
            (depth < max_depth)
            & (size >= min_samples_split)
            & (size >= 2 * min_samples_leaf)
            & (impurity != 0.0)
        )
        if split.size:
            if n_candidates < n_features:
                candidates = np.array([
                    rngs[t].choice(n_features, size=n_candidates, replace=False)
                    for t in tree[split]
                ])
            else:
                candidates = np.repeat(every_feature, split.size, axis=0)
            best, total, feat, thr = _best_splits(
                X, y, order, start[split], size[split], candidates,
                min_samples_leaf,
            )
            with np.errstate(invalid="ignore"):
                dec = total - best
            floor = np.abs(impurity[split]) * size[split]
            keep = (
                np.isfinite(best)
                & np.isfinite(dec)
                & ~(dec / n_root < min_impurity_decrease)
                # numerically null improvement
                & ~(dec <= 1e-12 * np.where(floor > 1.0, floor, 1.0))
            )
            split, feat, thr, dec = split[keep], feat[keep], thr[keep], dec[keep]
        if split.size:
            n_split = size[split]
            owner = np.repeat(np.arange(split.size), n_split)
            pos = np.arange(owner.size) + np.repeat(
                start[split] - (np.cumsum(n_split) - n_split), n_split
            )
            rows = order[:, pos]
            go_left = np.take(X, rows * n_features + feat[owner]) <= thr[owner]
            n_left = np.bincount(owner[go_left[-1]], minlength=split.size)
            keep = (n_left > 0) & (n_left < n_split)
            if not keep.all():
                kept = keep[owner]
                rows, go_left = rows[:, kept], go_left[:, kept]
                split, feat, thr, dec = split[keep], feat[keep], thr[keep], dec[keep]
                n_left, n_split = n_left[keep], n_split[keep]
        if not split.size:
            break
        feature[split] = feat
        threshold[split] = thr
        gain[split] = dec
        left[split] = n_created + 2 * np.arange(split.size)
        n_created += 2 * split.size
        # Children, left then right, become the next level's nodes.
        order = _partition(rows, go_left, n_split, n_left)
        first = np.cumsum(n_split) - n_split
        start = np.empty(2 * split.size, dtype=np.intp)
        start[0::2] = first
        start[1::2] = first + n_left
        size = np.empty_like(start)
        size[0::2] = n_left
        size[1::2] = n_split - n_left
        tree = np.repeat(tree[split], 2)
        depth += 1
    return _assemble(levels, n_trees, n_features)


def _assemble(
    levels: list[tuple[np.ndarray, ...]], n_trees: int, n_features: int
) -> list[tuple[TreeArrays, np.ndarray]]:
    """Per-tree arrays and importances from the per-level node columns,
    every tree's nodes numbered breadth first (level by level, and in
    creation order within a level)."""
    (node_tree, value, n_samples, impurity, feature, threshold, gain,
     left) = (np.concatenate(col) for col in zip(*levels))
    n_nodes = node_tree.size
    by_tree = np.argsort(node_tree, kind="stable")
    counts = np.bincount(node_tree, minlength=n_trees)
    firsts = np.cumsum(counts) - counts
    local = np.empty(n_nodes, dtype=np.int64)
    local[by_tree] = np.arange(n_nodes) - np.repeat(firsts, counts)
    internal = feature >= 0
    left[internal] = local[left[internal]]
    right = np.where(internal, left + 1, _LEAF)
    importance = np.zeros((n_trees, n_features))
    splits = by_tree[internal[by_tree]]
    np.add.at(importance, (node_tree[splits], feature[splits]), gain[splits])
    norm = importance.sum(axis=1)

    grown = []
    for t in range(n_trees):
        ids = by_tree[firsts[t]:firsts[t] + counts[t]]
        arrays = TreeArrays(
            feature=feature[ids],
            threshold=threshold[ids],
            left=left[ids],
            right=right[ids],
            value=value[ids],
            n_node_samples=n_samples[ids].astype(np.int64, copy=False),
            impurity=impurity[ids],
        )
        grown.append((
            arrays,
            importance[t] / norm[t] if norm[t] > 0 else np.zeros(n_features),
        ))
    return grown


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    samples: np.ndarray,
    rngs: Sequence[np.random.Generator],
    *,
    max_depth: int | None = None,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    max_features: object = None,
    min_impurity_decrease: float = 0.0,
) -> list[tuple[TreeArrays, np.ndarray]]:
    """Grow one greedy CART tree per row of ``samples``.

    ``samples[t]`` lists the rows of ``X``/``y`` tree ``t`` is grown on
    (a bootstrap draw, or every row), and ``rngs[t]`` draws its per-node
    feature subsets when ``max_features`` selects fewer than all
    features.  ``X`` and ``y`` must already be validated.  Returns each
    tree's arrays (nodes numbered breadth first) and its normalised
    feature importances.
    """
    _check_growth(max_depth, min_samples_split, min_samples_leaf)
    samples = np.asarray(samples, dtype=np.intp)
    n_trees, n_root = samples.shape
    if n_root == 0:
        raise ValueError("sample_indices is empty.")
    n_features = X.shape[1]
    n_candidates = _resolve_max_features(max_features, n_features)
    step = max(1, _GROUP_ENTRIES // ((n_features + 1) * n_root))
    grown: list[tuple[TreeArrays, np.ndarray]] = []
    for g in range(0, n_trees, step):
        grown.extend(_grow_group(
            X, y, samples[g:g + step], rngs[g:g + step],
            np.inf if max_depth is None else max_depth,
            min_samples_split, min_samples_leaf, n_candidates,
            min_impurity_decrease,
        ))
    return grown


def growth_params(estimator: object) -> dict[str, object]:
    """The :func:`grow_trees` keyword arguments set on ``estimator``."""
    return {name: getattr(estimator, name) for name in (
        "max_depth", "min_samples_split", "min_samples_leaf",
        "max_features", "min_impurity_decrease",
    )}


class DecisionTreeRegressor(BaseEstimator, RegressorMixin):
    """Greedy CART regression tree (squared-error criterion).

    Parameters
    ----------
    max_depth:
        Maximum tree depth; None grows until leaves are pure or too small.
    min_samples_split:
        Minimum samples required to consider splitting a node.
    min_samples_leaf:
        Minimum samples in each child of any split.
    max_features:
        Features examined per split: None (all), "sqrt", "log2", an int,
        or a fraction.  Random subsets are redrawn at every node, which is
        what decorrelates forest members.
    min_impurity_decrease:
        Minimum total-SSE reduction (normalized by n_samples) to accept a
        split.
    random_state:
        Seed or Generator for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: object = None,
        min_impurity_decrease: float = 0.0,
        random_state: object = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.min_impurity_decrease = min_impurity_decrease
        self.random_state = random_state

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_indices: np.ndarray | None = None,
    ) -> "DecisionTreeRegressor":
        """Grow the tree.

        ``sample_indices`` grows it on those rows (repeats allowed, as in
        a bootstrap draw) without copying the feature matrix.
        """
        _check_growth(self.max_depth, self.min_samples_split, self.min_samples_leaf)
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        root = (
            np.arange(X.shape[0])
            if sample_indices is None
            else np.asarray(sample_indices, dtype=np.int64)
        )
        ((tree, importances),) = grow_trees(
            X, y, root[None, :], [rng], **growth_params(self)
        )
        return self._set_grown(tree, importances, X.shape[1])

    def _set_grown(
        self, tree: TreeArrays, importances: np.ndarray, n_features: int
    ) -> "DecisionTreeRegressor":
        self.tree_ = tree
        self.feature_importances_ = importances
        self.n_features_in_ = n_features
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_is_fitted(self, "tree_")
        X = check_array(X, min_samples=0)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"Expected {self.n_features_in_} features, got {X.shape[1]}."
            )
        return self.tree_.predict(X)

    def get_depth(self) -> int:
        check_is_fitted(self, "tree_")
        return self.tree_.max_depth

    def get_n_leaves(self) -> int:
        check_is_fitted(self, "tree_")
        return self.tree_.n_leaves
