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

The hot paths are batched without changing any result. The decision tree
presorts each feature once per fit and stable-partitions the sorted rows at
each split. The trees of a forest grow in lockstep, one node of many trees
per byte-bounded step, each tree still drawing from its own stream in its own
depth-first order, so the forest is the one grown tree by tree. A forest node
is a segment of its tree's row permutation, split in place; a step gathers
its rows feature by feature and compares them only on the features each node
chose. Trees predict by array descent, all rows one level per step. KNN
builds squared distances one feature column at a time, summed in numpy's own
pairwise order, finds the k-th distance by partition rather than a full sort,
then fills ties at that distance in training-row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import XoshiroLanes, check_seed, derive_seed
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
        check_seed(self.seed)
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


def _grow_decision_tree(Z, y, max_depth, min_samples_split) -> list[_Node]:
    """CART growth over presorted rows; rows with value <= threshold go left.

    Each feature is stable-argsorted once per fit. A node holds its rows as an
    (features, size) matrix, row f ordered by feature f and then by row index,
    and a split stable-partitions every row of it, so each node sees the order
    a stable sort of its own rows would give. The midpoints between distinct
    adjacent values of all features are scored as one cost matrix; its flat
    argmin keeps the lowest feature, then the lowest threshold. Children are
    numbered left then right and grown depth first, right child first.
    """
    ZT = np.ascontiguousarray(Z.T)
    nodes = [_Node()]
    stack = [(0, np.argsort(ZT, axis=1, kind="stable"), 0)]
    goes_left = np.empty(len(y), dtype=bool)
    while stack:
        nid, order, depth = stack.pop()
        node = nodes[nid]
        size = order.shape[1]
        ones = int(y[order[0]].sum())
        node.prob1 = ones / size
        if ones == 0 or ones == size:
            continue
        if size < min_samples_split or (max_depth is not None and depth >= max_depth):
            continue
        values = np.take_along_axis(ZT, order, axis=1)
        ones_through = np.cumsum(y[order], axis=1)
        # Column c scores the cut after sorted position c.
        n_left = np.arange(1, size, dtype=np.float64)
        n1_left = ones_through[:, :-1].astype(np.float64)
        cost = _gini_cost(n_left, n1_left, size - n_left, ones_through[:, -1:] - n1_left)
        cost[values[:, 1:] == values[:, :-1]] = np.inf
        f, c = divmod(int(cost.argmin()), size - 1)
        if cost[f, c] == np.inf:
            continue
        thr = float((values[f, c] + values[f, c + 1]) / 2.0)
        goes_left[order[f]] = values[f] <= thr
        mask = goes_left[order]
        left_size = int(np.count_nonzero(mask[0]))
        if left_size == 0 or left_size == size:
            continue
        node.feature, node.threshold = f, thr
        node.left, node.right = len(nodes), len(nodes) + 1
        nodes.append(_Node())
        nodes.append(_Node())
        stack.append((node.left, order[mask].reshape(-1, left_size), depth + 1))
        stack.append((node.right, order[~mask].reshape(-1, size - left_size), depth + 1))
    return nodes


def _prob1_by_tree(trees: list[list[_Node]], Z: np.ndarray) -> np.ndarray:
    """Every tree's class-1 score for every row, shape (trees, rows).

    The trees' nodes are laid end to end as arrays, and all (tree, row) pairs
    descend together, one level per step, left when value <= threshold.
    """
    sizes = [len(tree) for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    base = np.repeat(roots, sizes)
    nodes = [node for tree in trees for node in tree]
    feature = np.array([node.feature for node in nodes], dtype=np.intp)
    threshold = np.array([node.threshold for node in nodes], dtype=np.float64)
    left = np.array([node.left for node in nodes], dtype=np.intp) + base
    right = np.array([node.right for node in nodes], dtype=np.intp) + base
    prob1 = np.array([node.prob1 for node in nodes], dtype=np.float64)
    at = np.repeat(roots, len(Z))
    row = np.tile(np.arange(len(Z)), len(trees))
    live = np.flatnonzero(feature[at] != _LEAF)
    while live.size:
        node = at[live]
        goes_left = Z[row[live], feature[node]] <= threshold[node]
        at[live] = np.where(goes_left, left[node], right[node])
        live = live[feature[at[live]] != _LEAF]
    return prob1[at].reshape(len(trees), len(Z))


def _subsample_count(feature_subsample, m: int) -> int:
    if feature_subsample is None:
        return m
    if feature_subsample == "sqrt":
        return max(1, int(math.sqrt(m)))
    if feature_subsample == "log2":
        return max(1, int(math.log2(m))) if m > 1 else 1
    return min(m, int(feature_subsample))


# Bytes one lockstep forest step may hold: its gathered training rows and the
# per-row temporaries of scoring and partitioning them.
_FOREST_STEP_BYTES = 8 << 20


def _grow_forest(Z, y, gens, k_features, max_depth, min_samples_split) -> list[list[_Node]]:
    """Extra-trees growth, the trees of the forest in lockstep.

    Each tree keeps its own depth-first stack and its own generator, and draws
    from it in the order a tree grown alone would: ``sample_indices`` over the
    node's non-constant features, then one ``random()`` per chosen feature,
    each giving the threshold ``min + u * (max - min)``. Each step pops the
    next splittable node of one tree after another, at most one per tree and
    until their rows would pass ``_FOREST_STEP_BYTES``, gathers those rows once
    and scores all their candidate thresholds together; the first lowest Gini
    cost in chosen order wins. Only a tree's own pops touch its stack, so the
    trees are node for node those grown one at a time.

    Each tree holds one permutation of the row indices, and a node is a
    segment of it: a split writes the node's left rows, then its right rows,
    back into the node's segment. Row order within a node changes no minimum,
    maximum or count. A step gathers its rows feature-major, from ``Z.T``, so
    node minima and maxima reduce along contiguous memory, and compares each
    node's rows only on the features the node chose.
    """

    def splittable(size: int, ones: int, depth: int) -> bool:
        return (
            0 < ones < size
            and size >= min_samples_split
            and (max_depth is None or depth < max_depth)
        )

    n, m, ones = len(y), Z.shape[1], int(y.sum())
    ZT = np.ascontiguousarray(Z.T)
    positive = y == 1
    # Per row, a step holds its m gathered values, a feature index, threshold
    # and value per chosen feature, and about three row indices.
    row_budget = _FOREST_STEP_BYTES // (ZT.itemsize * (m + 3 * k_features + 3))
    # Tree t's rows are perm[t * n : (t + 1) * n]; a node owns one segment.
    perm = np.tile(np.arange(n, dtype=np.int32), len(gens))
    trees = [[_Node(prob1=ones / n)] for _ in gens]
    stacks = [
        [(0, t * n, (t + 1) * n, ones, 0)] if splittable(n, ones, 0) else []
        for t in range(len(gens))
    ]
    # By the bit mask of a node's varying features: those features, their
    # count, how many to draw, and the padding that fills the unused slots.
    memo: dict[bytes, tuple[list[int], int, int, list[int]]] = {}
    while True:
        batch, taken = [], 0
        for t, stack in enumerate(stacks):
            if not stack:
                continue
            size = stack[-1][2] - stack[-1][1]
            if batch and taken + size > row_budget:
                break
            batch.append((t, *stack.pop()))
            taken += size
        if not batch:
            return trees
        ts, _, begins, ends, ones_node, _ = zip(*batch)
        begins, ones_node = np.array(begins), np.array(ones_node)
        sizes = np.array(ends) - begins
        starts = np.cumsum(sizes) - sizes
        rows = perm[_segments(begins, sizes)]
        sub = ZT.take(rows, axis=1)
        mins = np.minimum.reduceat(sub, starts, axis=1)
        maxs = np.maximum.reduceat(sub, starts, axis=1)
        varies = mins < maxs
        # Each node's bit mask of varying features, as bytes.
        packed = np.packbits(varies, axis=0).T.copy()
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
        # Slot j of a node holds its j-th chosen feature and uniform; a node
        # with fewer choices pads its slots with feature 0, masked out below.
        feats, draws, counts = [], [], []
        for b, (t, key) in enumerate(zip(ts, keys)):
            entry = memo.get(key)
            if entry is None:
                candidates = np.flatnonzero(varies[:, b]).tolist()
                k = min(k_features, len(candidates))
                entry = memo[key] = (candidates, len(candidates), k, [0] * (k_features - k))
            candidates, n_candidates, k, padding = entry
            counts.append(k)
            gen = gens[t]
            feats += [candidates[p] for p in gen.sample_indices(n_candidates, k)]
            random = gen.random
            draws += [random() for _ in range(k)]
            if padding:
                feats += padding
                draws += padding
        node_ix = np.arange(len(batch))
        slot_feat = np.array(feats, dtype=np.intp).reshape(-1, k_features).T
        lo, hi = mins[slot_feat, node_ix], maxs[slot_feat, node_ix]
        slot_thr = lo + np.array(draws).reshape(-1, k_features).T * (hi - lo)
        used = np.arange(k_features)[:, None] < np.array(counts)
        # Each slot compares its own feature's values with its threshold.
        col = np.arange(taken)
        at = np.repeat(slot_feat * taken, sizes, axis=1)
        at += col
        goes_left = sub.take(at) <= np.repeat(slot_thr, sizes, axis=1)
        n_left = np.add.reduceat(goes_left, starts, axis=1, dtype=np.int64)
        n1_left = np.add.reduceat(goes_left & positive[rows], starts, axis=1, dtype=np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            cost = _gini_cost(
                n_left.astype(np.float64),
                n1_left.astype(np.float64),
                (sizes - n_left).astype(np.float64),
                (ones_node - n1_left).astype(np.float64),
            )
        cost = np.where(used & (n_left > 0) & (n_left < sizes), cost, np.inf)
        best = cost.argmin(axis=0)
        split = cost[best, node_ix] < np.inf
        if not split.any():
            continue
        # Each split node's left rows, then its right rows, back into its
        # segment; rows of other nodes stay where they are.
        in_split = np.repeat(split, sizes)
        left = goes_left.ravel().take(np.repeat(best * taken, sizes) + col)
        right = in_split & ~left
        left &= in_split
        won = (best[split], node_ix[split])
        n_lefts, n_rights = n_left[won], sizes[split] - n_left[won]
        perm[_segments(begins[split], n_lefts)] = rows[left]
        perm[_segments(begins[split] + n_lefts, n_rights)] = rows[right]
        winners = zip(
            np.flatnonzero(split).tolist(),
            slot_feat[won].tolist(),
            slot_thr[won].tolist(),
            n_lefts.tolist(),
            n1_left[won].tolist(),
        )
        for b, f, thr, left_size, left_ones in winners:
            t, nid, begin, end, ones, depth = batch[b]
            nodes = trees[t]
            node = nodes[nid]
            node.feature, node.threshold = f, thr
            node.left, node.right = len(nodes), len(nodes) + 1
            right_size, right_ones = end - begin - left_size, ones - left_ones
            nodes.append(_Node(prob1=left_ones / left_size))
            nodes.append(_Node(prob1=right_ones / right_size))
            # Children that will never split are final leaves and are not
            # pushed; pushing left then right pops the right child first.
            middle = begin + left_size
            if splittable(left_size, left_ones, depth + 1):
                stacks[t].append((node.left, begin, middle, left_ones, depth + 1))
            if splittable(right_size, right_ones, depth + 1):
                stacks[t].append((node.right, middle, end, right_ones, depth + 1))


def _segments(begins: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The positions of segments [begin, begin + size), laid end to end."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) + np.repeat(begins - (ends - sizes), sizes)


# --- nearest neighbours -----------------------------------------------------

# Bytes of the (features x query rows x training rows) buffer of squared
# differences that KNN prediction fills one chunk of query rows at a time;
# small enough that a chunk stays in cache.
_KNN_CHUNK_BYTES = 2 << 20


def _sum_columns(cols: list[np.ndarray], lo: int, hi: int) -> np.ndarray:
    """Add cols[lo:hi] in place in numpy's pairwise ``add.reduce`` order.

    ``a.sum(axis=-1)`` over a contiguous axis of n values adds them in order
    when n < 8; up to 128 it keeps 8 running sums (sum j takes values j, j+8,
    ...), joins them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and then adds the
    rest in order; above 128 it sums two halves, split at a multiple of 8, and
    adds them. Doing the same to whole columns gives the same floats. The sum
    lands in, and is returned as, one of the columns; the others are clobbered.
    """
    n = hi - lo
    if n > 128:
        half = n // 2 - n // 2 % 8
        total = _sum_columns(cols, lo, lo + half)
        total += _sum_columns(cols, lo + half, hi)
        return total
    if n < 8:
        for i in range(lo + 1, hi):
            cols[lo] += cols[i]
        return cols[lo]
    tail = hi - n % 8
    for i in range(lo + 8, tail):
        cols[lo + (i - lo) % 8] += cols[i]
    r = cols[lo : lo + 8]
    r[0] += r[1]
    r[2] += r[3]
    r[0] += r[2]
    r[4] += r[5]
    r[6] += r[7]
    r[4] += r[6]
    r[0] += r[4]
    for i in range(tail, hi):
        r[0] += cols[i]
    return r[0]


def _knn_ones(
    ZtrainT: np.ndarray, ytrain: np.ndarray, block: np.ndarray, k: int, buf: np.ndarray
) -> np.ndarray:
    """Class-1 labels among each query row's k nearest training rows.

    ``ZtrainT`` holds the training rows by feature column and ``buf`` has room
    for at least ``len(block)`` rows of every column's squared differences.
    The squared distances equal ``((block[:, None, :] - Ztrain) ** 2).sum(axis=2)``
    float for float. Neighbours are those a stable sort by squared distance
    would put first: every row closer than the k-th distance, then rows at
    exactly that distance in training-row order. Only a query with more such
    ties than free places needs a look at the order of its ties.
    """
    cols = list(buf[:, : len(block)])
    for f, col in enumerate(cols):
        np.subtract(block[:, f, None], ZtrainT[f], out=col)
        np.square(col, out=col)
    d2 = _sum_columns(cols, 0, len(cols))
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
    X = _finite_matrix(train.X, "training set")
    y = np.asarray(train.y, dtype=np.int64)
    if len(X) == 0:
        raise ValueError("training set must be a nonempty 2-D matrix")
    if len(X) != len(y):
        raise ValueError(f"{len(X)} rows but {len(y)} labels")
    bad = np.setdiff1d(train.y, (0, 1))
    if len(bad):
        raise ValueError(f"labels must be 0 (dropout) or 1 (graduated), got {bad.tolist()}")
    means, stds = _standardize_params(X)
    Z = (X - means) / stds

    if spec.kind == "decision_tree":
        state = _grow_decision_tree(Z, y, spec.max_depth, spec.min_samples_split)
    elif spec.kind == "extra_trees":
        k = _subsample_count(spec.feature_subsample, X.shape[1])
        gens = XoshiroLanes([derive_seed(spec.seed, t) for t in range(spec.n_trees)]).streams()
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


def _finite_matrix(X, what: str) -> np.ndarray:
    """X as a float matrix with at least one column and only finite cells."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] == 0:
        raise ValueError(
            f"{what} must be a 2-D matrix with at least one column, got shape {X.shape}"
        )
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        row = int(finite.argmin())
        raise ValueError(f"{what} row {row} holds a non-finite value: {X[row].tolist()}")
    return X


def _check_matrix(model: TrainedModel, X) -> np.ndarray:
    X = _finite_matrix(X, "query matrix")
    if X.shape[1] != model.n_features:
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
        return _prob1_by_tree([model.state], Z)[0]
    if spec.kind == "extra_trees":
        total = np.zeros(len(Z), dtype=np.float64)
        for tree_prob in _prob1_by_tree(model.state, Z):
            total += tree_prob
        return total / len(model.state)
    if spec.kind == "knn":
        Ztrain, ytrain = model.state
        k = min(spec.k, len(ytrain))
        ZtrainT = np.ascontiguousarray(Ztrain.T)
        chunk = max(1, _KNN_CHUNK_BYTES // (Ztrain.itemsize * Ztrain.size))
        buf = np.empty((Ztrain.shape[1], min(chunk, len(Z)), len(ytrain)))
        ones = np.empty(len(Z), dtype=np.float64)
        for start in range(0, len(Z), chunk):
            block = Z[start : start + chunk]
            ones[start : start + len(block)] = _knn_ones(ZtrainT, ytrain, block, k, buf) / k
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
