"""Four deterministic binary classifiers behind one train/predict surface.

Decision tree and extra trees are grown from scratch (Gini impurity), KNN
votes over euclidean distance on standardized features, and Gaussian naive
Bayes uses per-class floored variances. Feature standardization is fitted on
training rows only and frozen into the model; prediction can never touch it.

All fits are deterministic functions of (spec, training rows): tree tie-breaks
are first-best by (feature index, threshold), forest randomness comes from a
per-tree seed derived from the spec seed, and KNN breaks distance ties by
training-row index. Vote ties resolve to label 0, the intervention-safe
default for dropout screening (configurable ties are a non-goal here).

Two hot paths are batched without changing any result. The trees of a forest
grow in lockstep, one node of every tree per step, each tree still drawing
from its own stream in its own depth-first order, so the forest is the one
grown tree by tree. KNN finds the k-th distance by partition rather than a
full sort, then fills ties at that distance in training-row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import Xoshiro256StarStar, derive_seed
from .splits import LabeledDataset

KINDS = ("decision_tree", "extra_trees", "knn", "gaussian_nb")


@dataclass(frozen=True)
class ClassifierSpec:
    """Classifier kind plus the hyperparameters that kind understands."""

    kind: str
    max_depth: Optional[int] = None
    min_samples_split: int = 2
    n_trees: int = 50
    feature_subsample: int | str | None = "sqrt"
    seed: int = 0
    k: int = 5
    variance_floor: float = 1e-9
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r}, expected one of {KINDS}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.kind == "extra_trees":
            if self.n_trees < 1:
                raise ValueError("n_trees must be >= 1")
            if isinstance(self.feature_subsample, int) and self.feature_subsample < 1:
                raise ValueError("feature_subsample must be >= 1")
            if isinstance(self.feature_subsample, str) and self.feature_subsample not in ("sqrt", "log2"):
                raise ValueError("feature_subsample must be 'sqrt', 'log2', an int, or None")
        if self.kind == "knn" and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.kind == "gaussian_nb" and self.variance_floor <= 0:
            raise ValueError("variance_floor must be positive")
        if not self.label:
            object.__setattr__(self, "label", self.kind)


@dataclass
class TrainedModel:
    spec: ClassifierSpec
    n_features: int
    feature_means: np.ndarray
    feature_stds: np.ndarray
    state: object


# --- decision trees -------------------------------------------------------

_LEAF = -1


@dataclass
class _Node:
    feature: int = _LEAF
    threshold: float = 0.0
    left: int = -1
    right: int = -1
    prob1: float = 0.0


def _gini_cost(n_left, n1_left, n_right, n1_right):
    """Size-weighted Gini impurity of a candidate partition (vectorized)."""
    n = n_left + n_right
    p1l = n1_left / n_left
    p1r = n1_right / n_right
    gini_l = 1.0 - p1l * p1l - (1.0 - p1l) * (1.0 - p1l)
    gini_r = 1.0 - p1r * p1r - (1.0 - p1r) * (1.0 - p1r)
    return (n_left * gini_l + n_right * gini_r) / n


def _best_exact_split(X: np.ndarray, y: np.ndarray, idx: np.ndarray):
    """Best (feature, midpoint threshold) over all distinct-value boundaries.

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


def _grow_tree(X, y, max_depth, min_samples_split, choose_split) -> list[_Node]:
    """Iterative tree growth; rows with value <= threshold go left."""
    nodes = [_Node()]
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
        nodes.append(_Node())
        nodes.append(_Node())
        stack.append((node.left, left_idx, depth + 1))
        stack.append((node.right, right_idx, depth + 1))
    return nodes


def _tree_prob1(nodes: list[_Node], X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X), dtype=np.float64)
    stack = [(0, np.arange(len(X)))]
    while stack:
        nid, rows = stack.pop()
        if rows.size == 0:
            continue
        node = nodes[nid]
        if node.feature == _LEAF:
            out[rows] = node.prob1
            continue
        mask = X[rows, node.feature] <= node.threshold
        stack.append((node.left, rows[mask]))
        stack.append((node.right, rows[~mask]))
    return out


def _subsample_count(feature_subsample, m: int) -> int:
    if feature_subsample is None:
        return m
    if feature_subsample == "sqrt":
        return max(1, int(math.sqrt(m)))
    if feature_subsample == "log2":
        return max(1, int(math.log2(m))) if m > 1 else 1
    return min(m, int(feature_subsample))


def _grow_forest(Z, y, gens, k_features, max_depth, min_samples_split) -> list[list[_Node]]:
    """Extra-trees growth, every tree of the forest in lockstep.

    Each tree keeps its own depth-first stack and its own generator, and draws
    from it in the order a tree grown alone would: ``sample_indices`` over the
    node's non-constant features, then one ``random()`` per chosen feature,
    each giving the threshold ``min + u * (max - min)``. Each step pops the
    next splittable node of every tree, gathers their rows once and scores all
    their candidate thresholds together; the first lowest Gini cost in chosen
    order wins. The trees are therefore node for node those grown one at a time.
    """

    def splittable(size: int, ones: int, depth: int) -> bool:
        return (
            0 < ones < size
            and size >= min_samples_split
            and (max_depth is None or depth < max_depth)
        )

    n, ones = len(y), int(y.sum())
    trees = [[_Node(prob1=ones / n)] for _ in gens]
    stacks = [[(0, np.arange(n), ones, 0)] if splittable(n, ones, 0) else [] for _ in gens]
    while True:
        batch = [(t, *stack.pop()) for t, stack in enumerate(stacks) if stack]
        if not batch:
            return trees
        sizes = np.array([node[2].size for node in batch])
        starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
        rows = np.concatenate([node[2] for node in batch])
        sub = Z[rows]
        mins = np.minimum.reduceat(sub, starts, axis=0)
        maxs = np.maximum.reduceat(sub, starts, axis=0)
        # Per node, the chosen features and their uniforms; unused slots stay
        # feature 0 and are masked out of the scoring below.
        feats = np.zeros((len(batch), k_features), dtype=np.intp)
        draws = np.zeros((len(batch), k_features))
        used = np.zeros((len(batch), k_features), dtype=bool)
        for b, (varies, (t, *_)) in enumerate(zip((mins < maxs).tolist(), batch)):
            candidates = [f for f, v in enumerate(varies) if v]
            if not candidates:
                continue
            gen = gens[t]
            k = min(k_features, len(candidates))
            feats[b, :k] = [candidates[p] for p in gen.sample_indices(len(candidates), k)]
            draws[b, :k] = [gen.random() for _ in range(k)]
            used[b, :k] = True
        node_ix = np.arange(len(batch))[:, None]
        lo, hi = mins[node_ix, feats], maxs[node_ix, feats]
        thresholds = lo + draws * (hi - lo)
        owner = np.repeat(np.arange(len(batch)), sizes)
        goes_left = sub[np.arange(rows.size)[:, None], feats[owner]] <= thresholds[owner]
        n_left = np.add.reduceat(goes_left, starts, axis=0, dtype=np.int64)
        n1_left = np.add.reduceat(goes_left * y[rows][:, None], starts, axis=0, dtype=np.int64)
        n_node = sizes[:, None]
        ones_node = np.array([node[3] for node in batch])[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            cost = _gini_cost(
                n_left.astype(np.float64),
                n1_left.astype(np.float64),
                (n_node - n_left).astype(np.float64),
                (ones_node - n1_left).astype(np.float64),
            )
        cost = np.where(used & (n_left > 0) & (n_left < n_node), cost, np.inf)
        best = cost.argmin(axis=1)
        for b, (t, nid, idx, ones, depth) in enumerate(batch):
            j = best[b]
            if cost[b, j] == np.inf:
                continue
            nodes = trees[t]
            node = nodes[nid]
            node.feature, node.threshold = int(feats[b, j]), float(thresholds[b, j])
            node.left, node.right = len(nodes), len(nodes) + 1
            left_size, left_ones = int(n_left[b, j]), int(n1_left[b, j])
            right_size, right_ones = idx.size - left_size, ones - left_ones
            nodes.append(_Node(prob1=left_ones / left_size))
            nodes.append(_Node(prob1=right_ones / right_size))
            # Children that will never split are final leaves and are not
            # pushed; pushing left then right pops the right child first.
            mask = goes_left[starts[b] : starts[b] + idx.size, j]
            if splittable(left_size, left_ones, depth + 1):
                stacks[t].append((node.left, idx[mask], left_ones, depth + 1))
            if splittable(right_size, right_ones, depth + 1):
                stacks[t].append((node.right, idx[~mask], right_ones, depth + 1))


# --- nearest neighbours -----------------------------------------------------

# Bytes of the (query rows x training rows x features) difference array that
# one KNN predict chunk may build; numpy adds a temporary of the same size.
_KNN_CHUNK_BYTES = 32 << 20


def _knn_ones(Ztrain: np.ndarray, ytrain: np.ndarray, block: np.ndarray, k: int) -> np.ndarray:
    """Class-1 labels among each query row's k nearest training rows.

    Neighbours are those a stable sort by squared distance would put first:
    every row closer than the k-th distance, then rows at exactly that distance
    in training-row order. Only a query with more such ties than free places
    needs a look at the order of its ties.
    """
    d2 = ((block[:, None, :] - Ztrain[None, :, :]) ** 2).sum(axis=2)
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    within = d2 <= kth
    positive = ytrain == 1
    ones = np.count_nonzero(within & positive, axis=1)
    excess = np.count_nonzero(within, axis=1) - k
    for r in np.flatnonzero(excess):
        dropped = np.flatnonzero(d2[r] == kth[r])[-excess[r] :]
        ones[r] -= np.count_nonzero(positive[dropped])
    return ones


# --- fitting ---------------------------------------------------------------


def _standardize_params(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    stds = np.where(stds < 1e-12, 1.0, stds)
    return means, stds


def fit(spec: ClassifierSpec, train: LabeledDataset) -> TrainedModel:
    """Fit a model; deterministic given the spec (including seed) and rows."""
    X = np.asarray(train.X, dtype=np.float64)
    y = np.asarray(train.y, dtype=np.int64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("training set must be a nonempty 2-D matrix")
    if len(X) != len(y):
        raise ValueError(f"{len(X)} rows but {len(y)} labels")
    means, stds = _standardize_params(X)
    Z = (X - means) / stds

    if spec.kind == "decision_tree":
        state = _grow_tree(Z, y, spec.max_depth, spec.min_samples_split, _best_exact_split)
    elif spec.kind == "extra_trees":
        k = _subsample_count(spec.feature_subsample, X.shape[1])
        gens = [Xoshiro256StarStar(derive_seed(spec.seed, t)) for t in range(spec.n_trees)]
        state = _grow_forest(Z, y, gens, k, spec.max_depth, spec.min_samples_split)
    elif spec.kind == "knn":
        state = (Z.copy(), y.copy())
    else:  # gaussian_nb
        classes = np.unique(y)
        priors = {}
        params = {}
        for cls in classes:
            rows = Z[y == cls]
            priors[int(cls)] = math.log(len(rows) / len(y))
            var = rows.var(axis=0)
            params[int(cls)] = (rows.mean(axis=0), np.maximum(var, spec.variance_floor))
        state = (priors, params)
    return TrainedModel(
        spec=spec,
        n_features=X.shape[1],
        feature_means=means,
        feature_stds=stds,
        state=state,
    )


def _check_matrix(model: TrainedModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"expected matrix with {model.n_features} columns, got shape {X.shape}"
        )
    return X


def predict_proba(model: TrainedModel, X) -> np.ndarray:
    """Class-1 score per row, in [0, 1]."""
    X = _check_matrix(model, X)
    Z = (X - model.feature_means) / model.feature_stds
    spec = model.spec
    if spec.kind == "decision_tree":
        return _tree_prob1(model.state, Z)
    if spec.kind == "extra_trees":
        total = np.zeros(len(Z), dtype=np.float64)
        for nodes in model.state:
            total += _tree_prob1(nodes, Z)
        return total / len(model.state)
    if spec.kind == "knn":
        Ztrain, ytrain = model.state
        k = min(spec.k, len(ytrain))
        ones = np.empty(len(Z), dtype=np.float64)
        chunk = max(1, _KNN_CHUNK_BYTES // (Ztrain.itemsize * Ztrain.size))
        for start in range(0, len(Z), chunk):
            block = Z[start : start + chunk]
            ones[start : start + len(block)] = _knn_ones(Ztrain, ytrain, block, k) / k
        return ones
    priors, params = model.state
    log_post = np.full((len(Z), 2), -np.inf, dtype=np.float64)
    for cls, (mu, var) in params.items():
        ll = -0.5 * (np.log(2.0 * math.pi * var) + (Z - mu) ** 2 / var).sum(axis=1)
        log_post[:, cls] = priors[cls] + ll
    # Normalize in log space; a class absent from training keeps probability 0.
    mx = log_post.max(axis=1, keepdims=True)
    p = np.exp(log_post - mx)
    p /= p.sum(axis=1, keepdims=True)
    return p[:, 1]


def predict(model: TrainedModel, X) -> np.ndarray:
    """One 0/1 label per row; score ties resolve to 0."""
    scores = predict_proba(model, X)
    return (scores > 0.5).astype(np.int64)


def accuracy(y_true, y_pred) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) == 0:
        raise ValueError("accuracy of empty vectors is undefined")
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    return float((y_true == y_pred).mean())


def confusion(y_true, y_pred) -> np.ndarray:
    """2x2 counts; rows are true (dropout first), columns are predicted."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if len(y_true) == 0:
        raise ValueError("confusion of empty vectors is undefined")
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    out = np.zeros((2, 2), dtype=np.int64)
    for i in (0, 1):
        for j in (0, 1):
            out[i, j] = int(((y_true == i) & (y_pred == j)).sum())
    return out
