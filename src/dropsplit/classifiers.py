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
depth-first order, so the forest is the one grown tree by tree; `fit_each`
grows the forests of several training sets in one such pass, one lane per
tree of every forest, and the walk-forward grid gives it the sets of several
reference terms at once (`_FOREST_PASS_BYTES`). A forest node is a segment of
its tree's row permutation, split in place; a step gathers its rows feature
by feature, makes its lanes' draws as arrays, and compares the rows only on
the features each node chose. A pass logs its splits in packed 32-bit chunks
and writes them into the node arrays at its end. Fitted trees are flat node
arrays, and they predict by array descent, all rows one level per step. KNN
builds squared distances one feature column at a time, summed in numpy's own
pairwise order, finds the k-th distance by partition rather than a full sort,
then fills ties at that distance in training-row order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .rng import LaneDraws, check_seed, derive_seed
from .splits import LabeledDataset

KINDS = ("decision_tree", "extra_trees", "knn", "gaussian_nb")
# The `ClassifierSpec` parameters each kind reads; it ignores the others.
KIND_PARAMS = {
    "decision_tree": ("max_depth", "min_samples_split"),
    "extra_trees": ("max_depth", "min_samples_split", "n_trees", "feature_subsample", "seed"),
    "knn": ("k",),
    "gaussian_nb": ("variance_floor",),
}


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


@dataclass(eq=False)
class _Trees:
    """Fitted trees, their nodes laid end to end as arrays.

    Node i is a leaf when ``feature[i]`` is -1; otherwise rows whose value of
    ``feature[i]`` is at most ``threshold[i]`` go to node ``left[i]``, the
    others to node ``left[i] + 1``. ``prob1[i]`` is the class-1 share of its
    training rows. Tree t's nodes follow its root, node ``roots[t]``, in the
    order its splits made them.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    prob1: np.ndarray
    roots: np.ndarray


def _gini_cost(n_left, n1_left, n_right, n1_right):
    """Size-weighted Gini impurity of a candidate partition (vectorized)."""
    n = n_left + n_right
    p1l = n1_left / n_left
    p1r = n1_right / n_right
    gini_l = 1.0 - p1l * p1l - (1.0 - p1l) * (1.0 - p1l)
    gini_r = 1.0 - p1r * p1r - (1.0 - p1r) * (1.0 - p1r)
    return (n_left * gini_l + n_right * gini_r) / n


def _grow_decision_tree(Z, y, max_depth, min_samples_split) -> _Trees:
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
    nodes = [[_LEAF, 0.0, _LEAF, 0.0]]  # feature, threshold, left child, prob1
    stack = [(0, np.argsort(ZT, axis=1, kind="stable"), 0)]
    goes_left = np.empty(len(y), dtype=bool)
    while stack:
        nid, order, depth = stack.pop()
        size = order.shape[1]
        ones = int(y[order[0]].sum())
        nodes[nid][3] = ones / size
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
        nodes[nid][:3] = f, thr, len(nodes)
        stack.append((len(nodes), order[mask].reshape(-1, left_size), depth + 1))
        stack.append((len(nodes) + 1, order[~mask].reshape(-1, size - left_size), depth + 1))
        nodes += [[_LEAF, 0.0, _LEAF, 0.0], [_LEAF, 0.0, _LEAF, 0.0]]
    return _Trees(*map(np.array, zip(*nodes)), roots=np.zeros(1, dtype=np.int64))


def _prob1_by_tree(trees: _Trees, Z: np.ndarray) -> np.ndarray:
    """Every tree's class-1 score for every row, shape (trees, rows).

    All (tree, row) pairs descend together, one level per step, left when
    value <= threshold.
    """
    feature, threshold, left = trees.feature, trees.threshold, trees.left
    at = np.repeat(trees.roots, len(Z))
    row = np.tile(np.arange(len(Z)), len(trees.roots))
    live = np.flatnonzero(feature[at] != _LEAF)
    while live.size:
        node = at[live]
        at[live] = left[node] + (Z[row[live], feature[node]] > threshold[node])
        live = live[feature[at[live]] != _LEAF]
    return trees.prob1[at].reshape(len(trees.roots), len(Z))


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

# Bytes, at 4 per training row per tree (the widest row permutation entry),
# that one forest pass of `evaluation.run_grid` may hold: the grid grows
# consecutive terms' forests in one pass until the next term would pass this,
# and a term over it alone gets a pass of its own. A pass's node tables and
# split logs grow with its rows times trees too.
_FOREST_PASS_BYTES = 8 << 20


def _grow_forests(spec: ClassifierSpec, sets: list[tuple]) -> list[_Trees]:
    """Extra-trees growth of one forest per (rows, labels, means, stds) set,
    all trees in lockstep, on the rows standardized by the set's means and
    standard deviations.

    Lane l grows tree ``t = l % spec.n_trees`` of forest ``l // spec.n_trees``
    from the stream of ``derive_seed(spec.seed, t)``, with its own depth-first
    stack, and draws in the order a tree grown alone would: ``sample_indices``
    over the node's non-constant features, then one ``random()`` per chosen
    feature, each giving the threshold ``min + u * (max - min)``. Each step
    pops the next splittable node of one lane after another, at most one per
    lane and until their rows would pass ``_FOREST_STEP_BYTES``, gathers those
    rows once, makes all their draws as lane arrays and scores all their
    candidate thresholds together; the first lowest Gini cost in chosen order
    wins. Only a lane's own pops touch its stack, so the trees are node for
    node those grown one at a time.
    """
    made, log = _grow_lanes(spec, sets)
    # Each lane's nodes in their order in its tree, the lanes one after
    # another; a left child's number counts from its forest's first node.
    start = made.cumsum() - made
    to_forest = start - start[:: spec.n_trees].repeat(spec.n_trees)
    feature, left = np.full((2, made.sum()), _LEAF, dtype=np.int32)
    threshold, prob1 = np.zeros((2, made.sum()))
    ones, rows = np.array([(y.sum(), len(y)) for _, y, _, _ in sets]).T
    prob1[start] = np.repeat(ones / rows, spec.n_trees)
    while log:
        (lane, node, feat, child), thr, prob = log.pop()
        at = start[lane] + node
        feature[at], threshold[at], left[at] = feat, thr, child + to_forest[lane]
        kids = (at - node + child).repeat(2)
        kids[1::2] += 1
        prob1[kids] = prob
    forests = []
    for lo, hi, roots in zip(start[:: spec.n_trees], (start + made)[spec.n_trees - 1 :: spec.n_trees], start.reshape(-1, spec.n_trees)):
        forests.append(_Trees(feature[lo:hi], threshold[lo:hi], left[lo:hi], prob1[lo:hi], roots - lo))
    return forests


def _grow_lanes(spec: ClassifierSpec, sets) -> tuple[np.ndarray, list]:
    """The lockstep loop of `_grow_forests`: each lane's node count, and its
    splits as packed chunks of ((lane, node, feature, left child) as int32,
    thresholds, and the left and right child's class-1 shares interleaved).

    Each lane holds one permutation of its set's rows, and a node is a segment
    of it: a split writes the node's left rows, then its right rows, back into
    the node's segment. Row order within a node changes no minimum, maximum or
    count. A step gathers its rows feature-major, so node minima and maxima
    reduce along contiguous memory, and compares each node's rows only on the
    features the node chose. Each set is standardized straight into its
    columns of the feature-major matrix, so no standardized copy of a set is
    made.
    """

    def splittable(size, ones, depth):
        ok = (0 < ones) & (ones < size) & (size >= spec.min_samples_split)
        return ok if spec.max_depth is None else ok & (depth < spec.max_depth)

    widths = {X.shape[1] for X, _, _, _ in sets}
    if len(widths) > 1:
        raise ValueError(f"forests grown together need one column count; the sets' dimensions differ: {sorted(widths)}")
    n_rows = np.array([len(y) for _, y, _, _ in sets])
    set_first = np.cumsum(n_rows) - n_rows
    ZT = np.empty((widths.pop(), n_rows.sum()))  # rows of every set, feature-major
    for (X, _, means, stds), first, n in zip(sets, set_first.tolist(), n_rows.tolist()):
        Z = ZT[:, first : first + n]
        np.subtract(X.T, means[:, None], out=Z)
        Z /= stds[:, None]
    y = np.concatenate([y for _, y, _, _ in sets])
    positive = y == 1
    n_trees, n_lanes = spec.n_trees, len(sets) * spec.n_trees
    k_features = _subsample_count(spec.feature_subsample, len(ZT))
    # Per row, a step holds its m gathered values, a feature index, threshold
    # and value per chosen feature, and about three row indices.
    row_budget = _FOREST_STEP_BYTES // (ZT.itemsize * (len(ZT) + 3 * k_features + 3))
    lane_rows = np.repeat(n_rows, n_trees)
    lane_ones = np.repeat(np.add.reduceat(y, set_first), n_trees)
    # Lane l's rows, as columns of ZT, are perm[begin[l] : begin[l] + lane_rows[l]],
    # in the narrowest unsigned dtype that numbers every column.
    begin = np.cumsum(lane_rows) - lane_rows
    perm = np.empty(lane_rows.sum(), dtype=np.min_scalar_type(len(y) - 1))
    for f, (first, n) in enumerate(zip(set_first.tolist(), n_rows.tolist())):
        at = begin[f * n_trees]
        perm[at : at + n * n_trees].reshape(n_trees, n)[:] = np.arange(first, first + n)
    draws = LaneDraws([derive_seed(spec.seed, t) for t in range(n_trees)] * len(sets))
    # Lane l's stack is stack[:, l, :top[l]], one column per entry: the node's
    # number in its tree, its segment's begin and size, its class-1 rows and
    # its depth. Roots are node 0.
    stack = np.zeros((5, n_lanes, 8), dtype=np.int64)
    stack[1:, :, 0] = [begin, lane_rows, lane_ones, 0 * begin]
    top = splittable(lane_rows, lane_ones, 0).astype(np.intp)
    made = np.ones(n_lanes, dtype=np.int64)  # nodes of each lane's tree
    # Per step: (lane, node, feature, left child), threshold, (left, right)
    # class-1 shares; packed every 16k splits or so.
    log, steps, logged = [], [], 0
    while True:
        draws.release(top == 0)
        live = top.nonzero()[0]
        if not live.size:
            break
        popped = stack[:, live, top[live] - 1]
        fits = int(popped[2].cumsum().searchsorted(row_budget, side="right"))
        lanes = live[: max(fits, 1)]
        popped = popped[:, : len(lanes)]
        nid, begins, sizes, ones_node, depth = popped
        top[lanes] -= 1
        starts = sizes.cumsum() - sizes
        taken = int(starts[-1] + sizes[-1])
        rows = perm[_segments(begins, sizes)]
        sub = ZT.take(rows, axis=1)
        mins = np.minimum.reduceat(sub, starts, axis=1)
        maxs = np.maximum.reduceat(sub, starts, axis=1)
        varies = mins < maxs
        n_varies = varies.sum(axis=0)
        counts = np.minimum(n_varies, k_features)
        # Slot j of a node holds its j-th chosen feature and uniform, drawn
        # from its varying features in ascending order; a node with fewer
        # choices fills its other slots with values masked out below.
        pool = (~varies.T).argsort(axis=1, kind="stable")
        slot_feat, slot_u = (a.T for a in draws.sample(lanes, pool, n_varies, counts))
        if not len(slot_feat):  # no node has a feature that varies
            continue
        node_ix = np.arange(len(lanes))
        lo, hi = mins[slot_feat, node_ix], maxs[slot_feat, node_ix]
        slot_thr = lo + slot_u * (hi - lo)
        used = np.arange(len(slot_feat))[:, None] < counts
        # Each slot compares its own feature's values with its threshold.
        col = np.arange(taken)
        at = (slot_feat * taken).repeat(sizes, axis=1)
        at += col
        # Each (k_features, rows) temporary goes once used, so that at most
        # two of them are alive at a time.
        values = sub.take(at)
        del at
        goes_left = values <= slot_thr.repeat(sizes, axis=1)
        del values
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
        splits = cost[best, node_ix] < np.inf
        if not splits.any():
            continue
        # Each split node's left rows, then its right rows, back into its
        # segment; rows of other nodes stay where they are.
        split = splits.nonzero()[0]
        in_split = splits.repeat(sizes)
        left = goes_left.ravel().take((best * taken).repeat(sizes) + col)
        right = in_split & ~left
        left &= in_split
        won = (best[split], split)
        n_lefts, left_ones = n_left[won], n1_left[won]
        perm[_segments(begins[split], n_lefts)] = rows[left]
        perm[_segments(begins[split] + n_lefts, sizes[split] - n_lefts)] = rows[right]
        # The children's stack entries, left then right, from their parent's:
        # the left child takes the first n_left rows and their class-1 rows,
        # the right child the rest.
        split_lanes = lanes[split]
        entries = popped[:, split].repeat(2, axis=1)
        child, _, child_size, child_ones, child_depth = entries
        child[:] = (made[split_lanes, None] + (0, 1)).ravel()
        made[split_lanes] += 2
        entries[2:4, 0::2] = n_lefts, left_ones
        entries[1:4, 1::2] += n_lefts, -n_lefts, -left_ones
        child_depth += 1
        child_lanes = split_lanes.repeat(2)
        steps.append(((split_lanes, nid[split], slot_feat[won], child[0::2]), slot_thr[won], child_ones / child_size))
        logged += len(split)
        if logged >= 1 << 14:
            log.append(_pack(steps))
            steps, logged = [], 0
        # Children that will never split are final leaves and are not
        # pushed; pushing left then right pops the right child first.
        push = splittable(child_size, child_ones, child_depth)
        slot = top[child_lanes]
        slot[1::2] += push[0::2]
        if slot.max() >= stack.shape[2]:
            stack = np.concatenate([stack, np.zeros_like(stack)], axis=2)
        stack[:, child_lanes[push], slot[push]] = entries[:, push]
        np.add.at(top, child_lanes, push)
    if steps:
        log.append(_pack(steps))
    return made, log


def _pack(steps: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steps' logged splits as one int32 (4, splits) array, thresholds and
    class-1 shares."""
    ints, thr, prob = zip(*steps)
    thr = np.concatenate(thr)
    packed = np.empty((4, len(thr)), dtype=np.int32)
    for field, parts in zip(packed, zip(*ints)):
        np.concatenate(parts, out=field, casting="same_kind")
    return packed, thr, np.concatenate(prob)


def _segments(begins: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The positions of segments [begin, begin + size), laid end to end."""
    ends = sizes.cumsum()
    return np.arange(ends[-1]) + (begins - (ends - sizes)).repeat(sizes)


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
    return fit_each(spec, [train])[0]


def fit_each(spec: ClassifierSpec, trains: list[LabeledDataset]) -> list[TrainedModel]:
    """One model per training set, each the model `fit` gives on that set alone.

    Extra-trees forests grow together in one lockstep pass, one lane per tree
    of every set, so their sets must have one column count; a pass's memory
    grows with its sets' rows times trees, which `run_grid` bounds by
    `_FOREST_PASS_BYTES`. The other kinds fit each set in turn.
    """
    models, forest_sets = [], []
    for train in trains:
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
        models.append(TrainedModel(spec=spec, n_features=X.shape[1], feature_means=means, feature_stds=stds, state=None))
        if spec.kind == "extra_trees":
            forest_sets.append((X, y, means, stds))
            continue
        Z = X - means
        Z /= stds
        if spec.kind == "decision_tree":
            state = _grow_decision_tree(Z, y, spec.max_depth, spec.min_samples_split)
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
        models[-1].state = state
    for model, forest in zip(models, _grow_forests(spec, forest_sets) if forest_sets else []):
        model.state = forest
    return models


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
    Z = X - model.feature_means
    Z /= model.feature_stds
    spec = model.spec
    if spec.kind in ("decision_tree", "extra_trees"):
        total = np.zeros(len(Z), dtype=np.float64)
        for tree_prob in _prob1_by_tree(model.state, Z):
            total += tree_prob
        return total / len(model.state.roots)
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
