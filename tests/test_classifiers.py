from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dropsplit import classifiers
from dropsplit.classifiers import (
    ClassifierSpec,
    _gini_cost,
    _subsample_count,
    accuracy,
    confusion,
    fit,
    fit_each,
    predict,
    predict_proba,
)
from dropsplit.rng import LaneDraws, derive_seed

from conftest import ScalarStream, from_arrays

ALL_KINDS = ["decision_tree", "extra_trees", "knn", "gaussian_nb"]


def dataset(X, y):
    return from_arrays(np.asarray(X, dtype=float), np.asarray(y, dtype=int))


def blobs(n=200, separation=4.0, seed=0, std=1.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X0 = rng.normal(loc=(0.0, 0.0), scale=std, size=(half, 2))
    X1 = rng.normal(loc=(separation, separation), scale=std, size=(n - half, 2))
    X = np.vstack([X0, X1])
    y = np.array([0] * half + [1] * (n - half))
    order = rng.permutation(n)
    return X[order], y[order]


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown classifier kind"):
            ClassifierSpec(kind="svm")

    def test_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            ClassifierSpec(kind="knn", k=0)
        with pytest.raises(ValueError):
            ClassifierSpec(kind="extra_trees", n_trees=0)
        with pytest.raises(ValueError):
            ClassifierSpec(kind="gaussian_nb", variance_floor=0.0)
        with pytest.raises(ValueError):
            ClassifierSpec(kind="decision_tree", max_depth=0)

    def test_label_defaults_to_kind(self):
        assert ClassifierSpec(kind="knn").label == "knn"
        assert ClassifierSpec(kind="knn", label="knn5").label == "knn5"


class TestDecisionTree:
    def test_solves_xor_at_depth_two(self):
        X = [[0, 0], [0, 1], [1, 0], [1, 1]]
        y = [0, 1, 1, 0]
        model = fit(ClassifierSpec(kind="decision_tree", max_depth=2), dataset(X, y))
        assert list(predict(model, np.asarray(X, float))) == y

    def test_memorizes_unique_rows(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, 2, size=60)
        model = fit(ClassifierSpec(kind="decision_tree"), dataset(X, y))
        assert np.array_equal(predict(model, X), y)

    def test_depth_limit_is_respected(self):
        X = [[0, 0], [0, 1], [1, 0], [1, 1]]
        y = [0, 1, 1, 0]
        model = fit(ClassifierSpec(kind="decision_tree", max_depth=1), dataset(X, y))
        # One split cannot separate XOR; at least one point must be wrong.
        assert (predict(model, np.asarray(X, float)) != np.array(y)).sum() > 0


class TestKNN:
    def test_k1_returns_matching_train_label(self):
        X = [[0.0, 0.0], [10.0, 10.0], [20.0, 0.0]]
        y = [1, 0, 1]
        model = fit(ClassifierSpec(kind="knn", k=1), dataset(X, y))
        assert list(predict(model, np.asarray(X, float))) == y

    def test_vote_tie_resolves_to_dropout(self):
        X = [[0.0], [2.0]]
        y = [0, 1]
        model = fit(ClassifierSpec(kind="knn", k=2), dataset(X, y))
        assert predict(model, np.array([[1.0]]))[0] == 0

    def test_k_larger_than_train_is_clamped(self):
        X = [[0.0], [1.0], [2.0]]
        y = [1, 1, 0]
        model = fit(ClassifierSpec(kind="knn", k=50), dataset(X, y))
        assert list(predict(model, np.array([[0.5]]))) == [1]


def reference_knn_proba(model, X):
    """KNN scores by a full stable argsort per query row."""
    Z = (np.asarray(X, dtype=float) - model.feature_means) / model.feature_stds
    Ztrain, ytrain = model.state
    k = min(model.spec.k, len(ytrain))
    d2 = ((Z[:, None, :] - Ztrain[None, :, :]) ** 2).sum(axis=2)
    nn = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return ytrain[nn].sum(axis=1) / k


@st.composite
def integer_knn_case(draw):
    n_train = draw(st.integers(1, 25))
    n_query = draw(st.integers(1, 12))
    m = draw(st.integers(1, 3))
    cells = st.integers(-2, 2)
    X = np.array(draw(st.lists(st.lists(cells, min_size=m, max_size=m), min_size=n_train, max_size=n_train)))
    Xq = np.array(draw(st.lists(st.lists(cells, min_size=m, max_size=m), min_size=n_query, max_size=n_query)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n_train, max_size=n_train)))
    k = draw(st.integers(1, n_train + 3))
    return X.astype(float), y, Xq.astype(float), k


class TestKNNNeighbourSelection:
    """Partition-based selection must equal a stable argsort, distance ties included."""

    @settings(max_examples=150, deadline=None)
    @given(case=integer_knn_case())
    def test_matches_stable_argsort(self, case):
        X, y, Xq, k = case
        model = fit(ClassifierSpec(kind="knn", k=k), dataset(X, y))
        assert np.array_equal(predict_proba(model, Xq), reference_knn_proba(model, Xq))

    @settings(max_examples=40, deadline=None)
    @given(case=integer_knn_case())
    def test_matches_across_many_chunks(self, case):
        X, y, Xq, k = case
        model = fit(ClassifierSpec(kind="knn", k=k), dataset(X, y))
        # One query row per chunk: every row goes through its own partition.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classifiers, "_KNN_CHUNK_BYTES", 1)
            got = predict_proba(model, Xq)
        assert np.array_equal(got, reference_knn_proba(model, Xq))

    def test_chunk_size_does_not_change_scores(self, monkeypatch):
        rng = np.random.default_rng(4)
        X = rng.integers(0, 3, size=(300, 4)).astype(float)
        y = rng.integers(0, 2, size=300)
        Xq = rng.integers(0, 3, size=(97, 4)).astype(float)
        model = fit(ClassifierSpec(kind="knn", k=7), dataset(X, y))
        whole = predict_proba(model, Xq)
        monkeypatch.setattr(classifiers, "_KNN_CHUNK_BYTES", 300 * 4 * 8 * 5)
        assert np.array_equal(predict_proba(model, Xq), whole)
        assert np.array_equal(whole, reference_knn_proba(model, Xq))


@st.composite
def float_knn_case(draw):
    n_train = draw(st.integers(1, 8))
    n_query = draw(st.integers(1, 4))
    m = draw(st.integers(1, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    X = rng.standard_normal((n_train, m)) * scale
    Xq = rng.standard_normal((n_query, m)) * scale
    # Repeated rows give distance ties even with non-integer features.
    X[rng.integers(0, n_train, n_train // 2)] = X[0]
    y = rng.integers(0, 2, n_train)
    k = draw(st.integers(1, n_train + 2))
    return X, y, Xq, k


class TestKNNFloatDistances:
    """Distances by feature column must be numpy's own sum(axis=2), float for float.

    Non-integer features make the order of the additions matter, and m runs
    past 8 and past 128, where numpy's pairwise summation changes shape.
    """

    @settings(max_examples=150, deadline=None)
    @given(case=float_knn_case())
    def test_matches_stable_argsort_on_floats(self, case):
        X, y, Xq, k = case
        model = fit(ClassifierSpec(kind="knn", k=k), dataset(X, y))
        assert np.array_equal(predict_proba(model, Xq), reference_knn_proba(model, Xq))

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 15, 16, 17, 128, 129, 137, 300])
    def test_squared_distances_sum_in_numpy_order(self, m):
        rng = np.random.default_rng(m)
        Ztrain = rng.standard_normal((40, m)) * rng.choice([1e-8, 1.0, 1e8], size=(40, m))
        block = rng.standard_normal((5, m))
        expected = ((block[:, None, :] - Ztrain[None, :, :]) ** 2).sum(axis=2)
        cols = list((block.T[:, :, None] - Ztrain.T[:, None, :]) ** 2)
        assert np.array_equal(classifiers._sum_columns(cols, 0, m), expected)


@st.composite
def prefilter_case(draw):
    """Training sets where the matrix-product pre-filter is weakest: a tight
    cluster far from the standardized origin, made so by one outlier that
    inflates the standard deviation (the product form cancels there), exact
    distance ties and ties one ulp apart, and row counts around whole blocks."""
    n_train = draw(st.sampled_from([1, 2, 5, 63, 64, 65, 127, 128, 129, 200]))
    m = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([1e-9, 1e-6, 1e-3]))
    X = 1e4 + rng.standard_normal((n_train, m)) * spread
    if n_train > 2:
        X[rng.integers(0, n_train)] = -1e8  # the outlier
    # Exact ties: repeated rows; near ties: a row one ulp away from another.
    X[rng.integers(0, n_train, n_train // 3)] = X[0]
    if n_train > 1:
        X[1] = np.nextafter(X[0], np.inf)
    Xq = np.vstack([X[rng.integers(0, n_train, 3)], 1e4 + rng.standard_normal((3, m)) * spread])
    y = rng.integers(0, 2, n_train)
    k = draw(st.integers(1, n_train + 2))
    return X, y, Xq, k


class TestKNNPrefilter:
    """The pre-filter's margin must keep every true neighbour, so its scores
    equal a full stable argsort, at any chunk size."""

    @settings(max_examples=120, deadline=None)
    @given(case=prefilter_case())
    def test_matches_stable_argsort(self, case):
        X, y, Xq, k = case
        model = fit(ClassifierSpec(kind="knn", k=k), dataset(X, y))
        expected = reference_knn_proba(model, Xq)
        assert np.array_equal(predict_proba(model, Xq), expected)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classifiers, "_KNN_CHUNK_BYTES", 1)
            assert np.array_equal(predict_proba(model, Xq), expected)


class TestGaussianNB:
    def test_hand_computed_posterior_1d(self):
        # Four 1-D points, two per class. The oracle below redoes the whole
        # chain by hand: standardization, per-class moments with the variance
        # floor, Gaussian log densities, and posterior normalization.
        X = np.array([[1.0], [2.0], [6.0], [7.0]])
        y = np.array([0, 0, 1, 1])
        floor = 1e-9
        spec = ClassifierSpec(kind="gaussian_nb", variance_floor=floor)
        model = fit(spec, dataset(X, y))

        mu = X.mean()
        sd = X.std()
        z = (X[:, 0] - mu) / sd
        mean0, var0 = z[:2].mean(), max(z[:2].var(), floor)
        mean1, var1 = z[2:].mean(), max(z[2:].var(), floor)

        def posterior1(zq: float) -> float:
            def log_norm(v, mean, var):
                return -0.5 * (math.log(2 * math.pi * var) + (v - mean) ** 2 / var)

            l0 = math.log(0.5) + log_norm(zq, mean0, var0)
            l1 = math.log(0.5) + log_norm(zq, mean1, var1)
            m = max(l0, l1)
            e0, e1 = math.exp(l0 - m), math.exp(l1 - m)
            return e1 / (e0 + e1)

        queries = np.array([[1.5], [3.9], [4.1], [6.5]])
        got = predict_proba(model, queries)
        for q, p in zip(queries[:, 0], got):
            expected = posterior1((q - mu) / sd)
            assert p == pytest.approx(expected, abs=1e-9)
        assert list(predict(model, queries)) == [0, 0, 1, 1]

    def test_zero_variance_feature_survives(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [6.0, 5.0], [7.0, 5.0]])
        y = np.array([0, 0, 1, 1])
        model = fit(ClassifierSpec(kind="gaussian_nb"), dataset(X, y))
        out = predict(model, X)
        assert np.array_equal(out, y)


@dataclass
class RefNode:
    feature: int = -1
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    prob1: float = 0.0


def reference_grow_tree(X, y, max_depth, min_samples_split, choose_split):
    """Tree growth one node at a time; rows with value <= threshold go left."""
    nodes = [RefNode()]
    stack = [(0, np.arange(len(y)), 0)]
    while stack:
        nid, idx, depth = stack.pop()
        node = nodes[nid]
        ys = y[idx]
        ones = int(ys.sum())
        node.prob1 = ones / idx.size
        if ones == 0 or ones == idx.size:
            continue
        if idx.size < min_samples_split or (max_depth is not None and depth >= max_depth):
            continue
        split = choose_split(X, y, idx)
        if split is None:
            continue
        f, thr = split
        mask = X[idx, f] <= thr
        left_idx, right_idx = idx[mask], idx[~mask]
        if left_idx.size == 0 or right_idx.size == 0:
            continue
        node.feature, node.threshold = f, thr
        node.left, node.right = len(nodes), len(nodes) + 1
        nodes.append(RefNode())
        nodes.append(RefNode())
        stack.append((node.left, left_idx, depth + 1))
        stack.append((node.right, right_idx, depth + 1))
    return nodes


def reference_exact_split(X, y, idx):
    """Best (feature, midpoint threshold) by a fresh stable sort per feature.

    Ties keep the lowest feature index, then the lowest threshold.
    """
    n = idx.size
    best_cost = math.inf
    best = None
    for f in range(X.shape[1]):
        xs = X[idx, f]
        order = np.argsort(xs, kind="stable")
        xs_s = xs[order]
        ys = y[idx][order]
        boundary = np.nonzero(xs_s[1:] != xs_s[:-1])[0] + 1
        if boundary.size == 0:
            continue
        ones = np.cumsum(ys)
        n_left = boundary.astype(np.float64)
        n1_left = ones[boundary - 1].astype(np.float64)
        cost = _gini_cost(n_left, n1_left, n - n_left, ones[-1] - n1_left)
        j = int(np.argmin(cost))
        if cost[j] < best_cost:
            best_cost = float(cost[j])
            b = boundary[j]
            best = (f, float((xs_s[b - 1] + xs_s[b]) / 2.0))
    return best


def tree_arrays(trees):
    """Reference trees (lists of `RefNode`) laid end to end, as the lists of a
    fitted `_Trees`: child ids shift by their tree's root offset, and a right
    child, which always follows its left sibling, is implied."""
    roots = np.cumsum([0] + [len(tree) for tree in trees[:-1]]).tolist()
    nodes = [(root, node) for root, tree in zip(roots, trees) for node in tree]
    assert all(node.right == node.left + 1 for _, node in nodes if node.left >= 0)
    return {
        "feature": [node.feature for _, node in nodes],
        "threshold": [node.threshold for _, node in nodes],
        "left": [node.left + root if node.left >= 0 else -1 for root, node in nodes],
        "prob1": [node.prob1 for _, node in nodes],
        "roots": roots,
    }


def assert_same_trees(state, trees):
    """A fitted `_Trees` equals the reference trees, node for node and bit for bit."""
    for name, want in tree_arrays(trees).items():
        assert getattr(state, name).tolist() == want, name


def reference_tree_prob1(trees, root, X):
    """Class-1 score per row by walking each node's rows down the tree at `root`."""
    out = np.empty(len(X), dtype=np.float64)
    stack = [(root, np.arange(len(X)))]
    while stack:
        nid, rows = stack.pop()
        if rows.size == 0:
            continue
        if trees.feature[nid] == -1:
            out[rows] = trees.prob1[nid]
            continue
        mask = X[rows, trees.feature[nid]] <= trees.threshold[nid]
        stack.append((trees.left[nid], rows[mask]))
        stack.append((trees.left[nid] + 1, rows[~mask]))
    return out


def reference_proba(model, X):
    """Tree and forest scores by the per-node walk, summed in tree order."""
    Z = (np.asarray(X, dtype=float) - model.feature_means) / model.feature_stds
    trees = model.state
    total = np.zeros(len(Z), dtype=np.float64)
    for root in trees.roots.tolist():
        total += reference_tree_prob1(trees, root, Z)
    return total if model.spec.kind == "decision_tree" else total / len(trees.roots)


def standardized(X):
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    return (X - means) / np.where(stds < 1e-12, 1.0, stds)


def reference_split_chooser(gen, k_features):
    """Extra-trees node splitter as one tree grown alone draws it."""

    def choose(X, y, idx):
        sub = X[idx]
        mins = sub.min(axis=0)
        maxs = sub.max(axis=0)
        candidates = [f for f in range(X.shape[1]) if mins[f] < maxs[f]]
        if not candidates:
            return None
        k = min(k_features, len(candidates))
        chosen = [candidates[p] for p in gen.sample_indices(len(candidates), k)]
        ys = y[idx].astype(np.float64)
        n = idx.size
        best_cost = math.inf
        best = None
        for f in chosen:
            thr = mins[f] + gen.random() * (maxs[f] - mins[f])
            mask = sub[:, f] <= thr
            n_left = int(mask.sum())
            if n_left == 0 or n_left == n:
                continue
            n1_left = float(ys[mask].sum())
            cost = _gini_cost(float(n_left), n1_left, float(n - n_left), float(ys.sum()) - n1_left)
            if cost < best_cost:
                best_cost = cost
                best = (f, float(thr))
        return best

    return choose


def reference_forest(spec, X, y):
    """Each tree grown on its own, depth first, from its own seeded stream."""
    Z = standardized(X)
    k = _subsample_count(spec.feature_subsample, X.shape[1])
    return [
        reference_grow_tree(
            Z, y, spec.max_depth, spec.min_samples_split,
            reference_split_chooser(ScalarStream(derive_seed(spec.seed, t)), k),
        )
        for t in range(spec.n_trees)
    ]


@st.composite
def tied_matrix(draw, m=None):
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 5)) if m is None else m
    # Few distinct values give duplicated rows and ties; a column may be constant.
    columns = []
    for _ in range(m):
        levels = draw(st.sampled_from([1, 2, 3, 8]))
        columns.append(draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)))
    X = np.array(columns, dtype=float).T * draw(st.sampled_from([1.0, 0.1, 3.7]))
    y = np.array(draw(st.one_of(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.sampled_from([[0] * n, [1] * n]),
    )))
    return X, y


@st.composite
def tree_case(draw):
    X, y = draw(tied_matrix())
    spec = ClassifierSpec(
        kind="decision_tree",
        max_depth=draw(st.sampled_from([None, 1, 3])),
        min_samples_split=draw(st.integers(2, 6)),
    )
    return spec, X, y


def forest_spec():
    return st.builds(
        ClassifierSpec,
        kind=st.just("extra_trees"),
        max_depth=st.sampled_from([None, 1, 3]),
        min_samples_split=st.integers(2, 6),
        n_trees=st.integers(1, 5),
        feature_subsample=st.sampled_from(["sqrt", "log2", 1, 2, 7, None]),
        seed=st.integers(0, 2**64 - 1),
    )


@st.composite
def forest_case(draw):
    X, y = draw(tied_matrix())
    return draw(forest_spec()), X, y


@st.composite
def forest_batch(draw):
    """A forest spec and one to four training sets of one column count: mixed
    sizes, a 1-row set now and then, single-label sets now and then."""
    m = draw(st.integers(1, 5))
    sets = [
        draw(st.just((np.ones((1, m)), np.array([draw(st.integers(0, 1))]))) | tied_matrix(m))
        for _ in range(draw(st.integers(1, 4)))
    ]
    return draw(forest_spec()), sets


class TestExtraTreesLockstep:
    """A forest grown in lockstep equals, node for node, trees grown one at a time."""

    @settings(max_examples=200, deadline=None)
    @given(case=forest_case())
    def test_matches_per_tree_growth(self, case):
        spec, X, y = case
        assert_same_trees(fit(spec, dataset(X, y)).state, reference_forest(spec, X, y))

    def test_matches_on_continuous_blobs(self):
        X, y = blobs(300, separation=1.5, std=1.5, seed=3)
        spec = ClassifierSpec(kind="extra_trees", n_trees=8, seed=5, max_depth=12)
        assert_same_trees(fit(spec, dataset(X, y)).state, reference_forest(spec, X, y))

    @settings(max_examples=60, deadline=None)
    @given(case=forest_case())
    def test_step_byte_bound_does_not_change_forest(self, case):
        spec, X, y = case
        # A 1-byte bound scores one node per step, trees taken in turn.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classifiers, "_FOREST_STEP_BYTES", 1)
            state = fit(spec, dataset(X, y)).state
        assert_same_trees(state, reference_forest(spec, X, y))

    @pytest.mark.parametrize("block", [1, 3])
    @settings(max_examples=60, deadline=None)
    @given(case=forest_case())
    def test_lanes_running_dry_mid_node_do_not_change_forest(self, block, case):
        spec, X, y = case
        # Blocks of 1 and 3 words run lanes dry inside a node's draws.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("dropsplit.rng._BLOCK", block)
            state = fit(spec, dataset(X, y)).state
        assert_same_trees(state, reference_forest(spec, X, y))


class TestFitEach:
    """Forests grown together in one lockstep pass equal forests grown alone."""

    @staticmethod
    def check(spec, sets):
        models = fit_each(spec, [dataset(X, y) for X, y in sets])
        assert len(models) == len(sets)
        for model, (X, y) in zip(models, sets):
            alone = fit(spec, dataset(X, y))
            assert np.array_equal(model.feature_means, alone.feature_means)
            assert np.array_equal(model.feature_stds, alone.feature_stds)
            assert_same_trees(model.state, reference_forest(spec, X, y))

    @settings(max_examples=100, deadline=None)
    @given(case=forest_batch())
    def test_matches_fitting_each_alone(self, case):
        self.check(*case)

    @pytest.mark.parametrize(
        "target, value",
        [("dropsplit.classifiers._FOREST_STEP_BYTES", 1), ("dropsplit.rng._BLOCK", 1), ("dropsplit.rng._BLOCK", 3)],
    )
    @settings(max_examples=40, deadline=None)
    @given(case=forest_batch())
    def test_step_bound_and_blocks_do_not_change_forests(self, target, value, case):
        # One node per step, or lanes running dry inside a node's draws.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(target, value)
            self.check(*case)

    def test_other_kinds_fit_each_set_alone(self):
        sets = [blobs(60, seed=1), blobs(45, seed=2)]
        for kind in ("decision_tree", "knn", "gaussian_nb"):
            spec = ClassifierSpec(kind=kind)
            Xq, _ = blobs(30, seed=3)
            for model, (X, y) in zip(fit_each(spec, [dataset(X, y) for X, y in sets]), sets):
                assert np.array_equal(predict_proba(model, Xq), predict_proba(fit(spec, dataset(X, y)), Xq))
        assert fit_each(ClassifierSpec(kind="extra_trees"), []) == []

    def test_forests_grown_together_need_one_column_count(self):
        sets = [dataset(*blobs(20)), dataset(np.zeros((4, 3)), [0, 1, 0, 1])]
        with pytest.raises(ValueError, match="dimensions"):
            fit_each(ClassifierSpec(kind="extra_trees"), sets)

    def test_roots_over_the_step_budget_grow_together(self, monkeypatch):
        # The row budget is one row short of the smaller set, so every root
        # passes it and runs alone. The lanes must then grow together: a
        # lane's node over the budget used to wait at the head of the step's
        # prefix, so the two forests grew one node per step, 3,057 steps, the
        # sum of their trees' splits. After the roots, a step leaves a lane
        # out only when the lanes' nodes together pass the budget, which
        # costs a few percent of the largest tree's splits here.
        steps = []

        class Counting(LaneDraws):
            def sample(self, *args):
                steps.append(len(args[0]))
                return super().sample(*args)

        sets = [dataset(*blobs(600, separation=1.0, std=1.5, seed=3)), dataset(*blobs(500, separation=1.0, std=1.5, seed=4))]
        spec = ClassifierSpec(kind="extra_trees", n_trees=4, seed=3)
        alone = fit_each(spec, sets)
        per_row = 8 * (2 + 3 * _subsample_count(spec.feature_subsample, 2) + 3)  # as `_grow_lanes` counts a row
        monkeypatch.setattr(classifiers, "_FOREST_STEP_BYTES", per_row * 499)
        monkeypatch.setattr(classifiers, "LaneDraws", Counting)
        models = fit_each(spec, sets)
        splits = []
        for model, reference in zip(models, alone):
            for name in ("feature", "threshold", "left", "prob1", "roots"):
                assert getattr(model.state, name).tolist() == getattr(reference.state, name).tolist(), name
            feature, roots = model.state.feature, model.state.roots
            splits += [int(np.count_nonzero(feature[lo:hi] != -1)) for lo, hi in zip(roots, [*roots[1:], len(feature)])]
        lanes, largest = len(splits), max(splits)
        assert steps[:lanes] == [1] * lanes
        assert len(steps) <= lanes + largest * 11 // 10

    def test_finished_lanes_do_not_pin_the_words(self, monkeypatch):
        # The 2-row set's tree is done after one split; while the 300-row
        # set's tree grows on, the words array stays a few blocks wide.
        widths = []

        class Recording(LaneDraws):
            def _window(self, lanes, n):
                out = super()._window(lanes, n)
                widths.append(self._words.shape[1])
                return out

        monkeypatch.setattr(classifiers, "LaneDraws", Recording)
        monkeypatch.setattr("dropsplit.rng._BLOCK", 16)
        small = dataset([[0.0, 0.0], [1.0, 1.0]], [0, 1])
        X, y = blobs(300, separation=1.0, std=1.5, seed=8)
        spec = ClassifierSpec(kind="extra_trees", n_trees=1, seed=3)
        fit_each(spec, [small, dataset(X, y)])
        assert len(widths) > 50
        assert max(widths) <= 6 * 16


class TestDecisionTreePresort:
    """Presorted growth equals, node for node, a fresh stable sort per node."""

    @settings(max_examples=200, deadline=None)
    @given(case=tree_case())
    def test_matches_per_node_sort(self, case):
        spec, X, y = case
        expected = reference_grow_tree(
            standardized(X), y, spec.max_depth, spec.min_samples_split, reference_exact_split
        )
        assert_same_trees(fit(spec, dataset(X, y)).state, [expected])

    def test_matches_on_continuous_blobs(self):
        X, y = blobs(300, separation=1.5, std=1.5, seed=3)
        spec = ClassifierSpec(kind="decision_tree", max_depth=12)
        expected = reference_grow_tree(standardized(X), y, 12, 2, reference_exact_split)
        assert_same_trees(fit(spec, dataset(X, y)).state, [expected])

    def test_midpoint_rounding_onto_a_value_leaves_a_leaf(self):
        # The midpoint of the two smallest subnormals rounds up to the larger
        # one, so "<= threshold" sends every row left and no split is made.
        Z = np.array([[5e-324], [1e-323]])
        y = np.array([0, 1])
        got = classifiers._grow_decision_tree(Z, y, None, 2)
        assert_same_trees(got, [reference_grow_tree(Z, y, None, 2, reference_exact_split)])
        assert_same_trees(got, [[RefNode(prob1=0.5)]])


@st.composite
def descent_case(draw):
    spec, X, y = draw(st.one_of(tree_case(), forest_case()))
    # Queries on the training lattice, between its levels and beyond it.
    Xq = np.array(draw(st.lists(
        st.lists(st.integers(-2, 16), min_size=X.shape[1], max_size=X.shape[1]),
        min_size=0, max_size=12,
    )), dtype=float).reshape(-1, X.shape[1]) / 2.0
    return spec, X, y, np.vstack([X, Xq])


class TestArrayDescent:
    """Level-by-level descent over node arrays equals the per-node walk."""

    @settings(max_examples=200, deadline=None)
    @given(case=descent_case())
    def test_matches_per_node_walk(self, case):
        spec, X, y, Xq = case
        model = fit(spec, dataset(X, y))
        assert np.array_equal(predict_proba(model, Xq), reference_proba(model, Xq))

    @pytest.mark.parametrize("kind", ["decision_tree", "extra_trees"])
    def test_matches_on_continuous_blobs(self, kind):
        X, y = blobs(300, separation=1.5, std=1.5, seed=3)
        Xq, _ = blobs(200, separation=1.5, std=1.5, seed=4)
        model = fit(ClassifierSpec(kind=kind, n_trees=12, seed=5), dataset(X, y))
        assert np.array_equal(predict_proba(model, Xq), reference_proba(model, Xq))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_no_rows(self, kind):
        X, y = blobs(40)
        model = fit(ClassifierSpec(kind=kind), dataset(X, y))
        assert predict_proba(model, np.zeros((0, 2))).shape == (0,)


class TestDegenerateAndErrors:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_single_label_training_predicts_that_label(self, kind):
        X = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 0.5]])
        y = np.array([1, 1, 1])
        model = fit(ClassifierSpec(kind=kind), dataset(X, y))
        queries = np.array([[5.0, 5.0], [-3.0, 0.0]])
        assert list(predict(model, queries)) == [1, 1]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_column_mismatch_is_shape_error(self, kind):
        X, y = blobs(40)
        model = fit(ClassifierSpec(kind=kind), dataset(X, y))
        with pytest.raises(ValueError, match="columns"):
            predict(model, np.zeros((3, 5)))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_labels_outside_binary_rejected(self, kind):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match=r"got \[2\]"):
            fit(ClassifierSpec(kind=kind), dataset(X, [0, 2, 2, 0]))
        with pytest.raises(ValueError, match=r"got \[-1, 3\]"):
            fit(ClassifierSpec(kind=kind), dataset(X, [3, 1, -1, 0]))

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            fit(ClassifierSpec(kind="knn"), dataset(np.zeros((0, 2)), np.zeros(0)))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matrix_without_columns_rejected(self, kind):
        with pytest.raises(ValueError, match=r"at least one column, got shape \(3, 0\)"):
            fit(ClassifierSpec(kind=kind), dataset(np.zeros((3, 0)), [0, 1, 0]))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_names_its_row(self, kind, bad):
        X, y = blobs(40)
        X[[7, 12], 1] = bad
        with pytest.raises(ValueError, match=r"training set row 7 holds a non-finite value"):
            fit(ClassifierSpec(kind=kind), dataset(X, y))
        model = fit(ClassifierSpec(kind=kind), dataset(X[13:], y[13:]))
        with pytest.raises(ValueError, match=r"query matrix row 7 holds a non-finite value"):
            predict_proba(model, X)

    def test_out_of_range_seed_rejected(self):
        assert ClassifierSpec(kind="extra_trees", seed=2**64 - 1).seed == 2**64 - 1
        for bad in (-5, 2**64):
            with pytest.raises(ValueError, match="seed must lie"):
                ClassifierSpec(kind="extra_trees", seed=bad)


class TestSeparableBlobs:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_well_separated_blobs(self, kind):
        X, y = blobs(200, separation=4.0, seed=1)
        model = fit(ClassifierSpec(kind=kind, seed=7), dataset(X, y))
        assert accuracy(y, predict(model, X)) >= 0.95


class TestDeterminismAndLeakage:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_refit_is_bit_identical(self, kind):
        X, y = blobs(120, seed=5)
        Xq, _ = blobs(40, seed=6)
        spec = ClassifierSpec(kind=kind, seed=11)
        p1 = predict_proba(fit(spec, dataset(X, y)), Xq)
        p2 = predict_proba(fit(spec, dataset(X, y)), Xq)
        assert np.array_equal(p1, p2)

    def test_standardization_comes_from_train_only(self):
        X, y = blobs(100, seed=2)
        model = fit(ClassifierSpec(kind="knn"), dataset(X, y))
        means_before = model.feature_means.copy()
        stds_before = model.feature_stds.copy()
        outliers = np.full((10, 2), 1e9)
        predict(model, outliers)
        assert np.array_equal(model.feature_means, means_before)
        assert np.array_equal(model.feature_stds, stds_before)
        expected_means = X.mean(axis=0)
        assert np.allclose(means_before, expected_means)

    def test_extra_trees_more_trees_not_worse(self):
        # Statistical check: averaged over seeds, a bigger forest should test
        # at least as well (within two points) as a single tree.
        deltas = []
        for seed in range(8):
            X, y = blobs(240, separation=2.0, std=1.6, seed=seed)
            Xq, yq = blobs(240, separation=2.0, std=1.6, seed=seed + 100)
            small = fit(ClassifierSpec(kind="extra_trees", n_trees=1, seed=seed), dataset(X, y))
            big = fit(ClassifierSpec(kind="extra_trees", n_trees=25, seed=seed), dataset(X, y))
            deltas.append(
                accuracy(yq, predict(big, Xq)) - accuracy(yq, predict(small, Xq))
            )
        assert sum(deltas) / len(deltas) >= -0.02


class TestMetrics:
    def test_perfect_and_inverted(self):
        y = np.array([0, 1, 1, 0, 1])
        assert accuracy(y, y) == 1.0
        assert accuracy(y, 1 - y) == 0.0
        assert np.array_equal(confusion(y, y), np.array([[2, 0], [0, 3]]))

    def test_hand_counted_case(self):
        y_true = [0, 0, 1, 1]
        y_pred = [0, 1, 1, 1]
        assert accuracy(y_true, y_pred) == 0.75
        assert np.array_equal(confusion(y_true, y_pred), np.array([[1, 1], [0, 2]]))

    def test_trace_counts_everything(self):
        rng = np.random.default_rng(9)
        y_true = rng.integers(0, 2, 50)
        y_pred = rng.integers(0, 2, 50)
        assert confusion(y_true, y_pred).sum() == 50

    def test_errors(self):
        with pytest.raises(ValueError, match="mismatch"):
            accuracy([0, 1], [0])
        with pytest.raises(ValueError, match="empty"):
            accuracy([], [])
        with pytest.raises(ValueError, match="empty"):
            confusion([], [])
