"""The level-wise grower against the depth-first reference, node for node.

``grow_trees`` must grow exactly the trees the per-node grower in
``reference_tree.py`` grows: the same splits, thresholds, leaf values,
impurities and sample counts, so predictions agree bit for bit on any
input.  Only node numbering (breadth first now) and the summation order
of feature importances may differ.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import DecisionTreeRegressor, RandomForestRegressor
from repro.ml.tree import decision_tree
from repro.ml.validation import spawn_rngs

from .reference_tree import reference_tree


def preorder(tree):
    """Node columns in left-first pre-order, independent of numbering."""
    order, stack = [], [0]
    while stack:
        node = stack.pop()
        order.append(node)
        if tree.feature[node] != -1:
            stack += [tree.right[node], tree.left[node]]
    order = np.array(order)
    return {
        "feature": tree.feature[order],
        "threshold": tree.threshold[order],
        "value": tree.value[order],
        "n_node_samples": tree.n_node_samples[order],
        "impurity": tree.impurity[order],
    }


def assert_same_tree(tree, ref, X, X_fresh):
    assert tree.n_nodes == ref.n_nodes
    leaves, ref_leaves = tree.feature == -1, ref.feature == -1
    np.testing.assert_array_equal(
        np.sort(tree.value[leaves]), np.sort(ref.value[ref_leaves])
    )
    got, want = preorder(tree), preorder(ref)
    for key in want:
        np.testing.assert_array_equal(got[key], want[key], err_msg=key)
    for Z in (X, X_fresh):
        np.testing.assert_array_equal(tree.predict(Z), ref.predict(Z))


def make_data(seed, n, f, decimals):
    """Features rounded to ``decimals`` (None: no rounding) to force ties;
    targets rounded too, so pure and constant nodes occur."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, f)) * rng.choice([0.1, 1.0, 50.0], size=f)
    y = np.sin(X[:, 0]) + 0.3 * rng.normal(size=n)
    if decimals is not None:
        X = np.round(X, decimals)
        y = np.round(y, decimals + 1)
    X_fresh = rng.normal(size=(40, f)) * X.std(axis=0) + X.mean(axis=0)
    return X, y, X_fresh


growth = st.fixed_dictionaries({
    "max_depth": st.one_of(st.none(), st.integers(1, 12)),
    "min_samples_split": st.integers(2, 10),
    "min_samples_leaf": st.integers(1, 8),
    "min_impurity_decrease": st.sampled_from([0.0, 0.0, 1e-4, 0.02]),
})
shapes = st.tuples(
    st.integers(0, 2**31 - 1),
    st.integers(1, 300),
    st.integers(1, 6),
    st.sampled_from([None, 0, 1, 2]),
)


@settings(max_examples=120, deadline=None)
@given(shapes, growth, st.booleans())
def test_single_tree_matches_reference(shape, params, bootstrap):
    seed, n, f, decimals = shape
    X, y, X_fresh = make_data(seed, n, f, decimals)
    idx = np.random.default_rng(seed + 1).integers(0, n, size=n) if bootstrap else None
    tree = DecisionTreeRegressor(**params).fit(X, y, sample_indices=idx)
    ref, ref_importances = reference_tree(X, y, idx, **params)
    assert_same_tree(tree.tree_, ref, X, X_fresh)
    np.testing.assert_allclose(
        tree.feature_importances_, ref_importances, rtol=1e-12, atol=1e-15
    )


@settings(max_examples=40, deadline=None)
@given(shapes, growth, st.booleans(), st.integers(1, 6))
def test_forest_trees_match_reference(shape, params, bootstrap, n_trees):
    seed, n, f, decimals = shape
    X, y, X_fresh = make_data(seed, n, f, decimals)
    forest = RandomForestRegressor(
        n_estimators=n_trees, bootstrap=bootstrap, random_state=seed, **params
    ).fit(X, y)
    for est, t_rng in zip(
        forest.estimators_, spawn_rngs(np.random.default_rng(seed), n_trees)
    ):
        idx = t_rng.integers(0, n, size=n) if bootstrap else None
        ref, _ = reference_tree(X, y, idx, **params)
        assert_same_tree(est.tree_, ref, X, X_fresh)


def test_adjacent_float_values_match_reference():
    # The midpoint of two adjacent floats rounds onto one of them, where
    # the threshold rule decides whether the node splits at all.
    base = np.array([1.0, 3.0, 0.1, 1e6, 7.0, 7.5])
    X = np.concatenate([base, np.nextafter(base, np.inf)])[:, None]
    y = np.arange(X.shape[0], dtype=float) % 5
    tree = DecisionTreeRegressor().fit(X, y)
    ref, _ = reference_tree(X, y)
    assert_same_tree(tree.tree_, ref, X, X + 0.25)


def forest_predict_all(X, y, **params):
    forest = RandomForestRegressor(n_estimators=12, random_state=3, **params)
    return forest.fit(X, y).predict_all(X)


def test_block_and_group_budgets_do_not_change_trees(monkeypatch):
    # Tiny budgets force many split-search blocks per level and one
    # tree per group; the trees must not notice.
    X, y, _ = make_data(5, 200, 4, 1)
    want = forest_predict_all(X, y, min_samples_leaf=2)
    monkeypatch.setattr(decision_tree, "_BLOCK_CELLS", 64)
    monkeypatch.setattr(decision_tree, "_GROUP_ENTRIES", 1)
    np.testing.assert_array_equal(forest_predict_all(X, y, min_samples_leaf=2), want)


@pytest.mark.parametrize("max_features", [0.5, "sqrt", 2])
def test_feature_subsets_deterministic_per_seed(max_features):
    # Per-node feature subsets are drawn level by level from each
    # tree's own stream: the same seed grows the same forest.
    X, y, _ = make_data(9, 150, 5, 1)
    a = forest_predict_all(X, y, max_features=max_features)
    again = forest_predict_all(X, y, max_features=max_features)
    np.testing.assert_array_equal(a, again)
    b = RandomForestRegressor(
        n_estimators=12, random_state=4, max_features=max_features
    ).fit(X, y).predict_all(X)
    assert not np.array_equal(a, b)
