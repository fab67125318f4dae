"""The six train/test splitting approaches.

All approaches are anchored at a reference term T. The temporal ones train on
students who exited before T and test on students active at T who exited by
the end of the window; they differ in which as-of term the feature vectors
use, which is exactly where information from T onward can leak into a test
row. Approach A is the deliberately unrealistic baseline: a seeded random
partition of the pooled students that ignores time entirely.

Datasets are emitted sorted by (student id, as-of term) so no classifier can
depend on incidental row order, and every student excluded by a precondition
is recorded with a reason code.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .features import FeatureSetSpec, FeatureVector, UndefinedFeatureVector, VectorCache
from .records import Cohort, StudentStructure, subset_exited_before, subset_exited_from
from .rng import Xoshiro256StarStar
from .terms import Term, to_ordinal


class SplitError(ValueError):
    """A split cannot be materialized (one side ended up empty)."""


class SplitApproach(Enum):
    A = "A"
    B1 = "B1"
    B2 = "B2"
    B2T = "B2T"
    B3T = "B3T"
    B4T = "B4T"


@dataclass(frozen=True)
class SplitRequest:
    approach: SplitApproach
    reference_term: Term
    seed: int = 0


@dataclass(frozen=True)
class Exclusion:
    student_id: str
    role: str
    reason: str


@dataclass(frozen=True)
class DatasetMeta:
    approach: SplitApproach
    reference_term: Term
    role: str
    feature_names: tuple[str, ...]
    exclusions: tuple[Exclusion, ...]
    seed: int | None = None


@dataclass
class LabeledDataset:
    """Feature matrix, labels, and per-row provenance for one split side."""

    X: np.ndarray
    y: np.ndarray
    rows: tuple[tuple[str, Term], ...]
    meta: DatasetMeta

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def student_ids(self) -> set[str]:
        return {sid for sid, _ in self.rows}

    @staticmethod
    def from_arrays(X, y, feature_names: tuple[str, ...] = (), role: str = "train") -> "LabeledDataset":
        """Wrap plain arrays, for harness code and tests that bypass splitting."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        rows = tuple((f"r{i}", Term(1, 1)) for i in range(len(y)))
        names = feature_names or tuple(f"f{j}" for j in range(X.shape[1]))
        meta = DatasetMeta(
            approach=SplitApproach.A,
            reference_term=Term(1, 1),
            role=role,
            feature_names=names,
            exclusions=(),
        )
        return LabeledDataset(X=X, y=y, rows=rows, meta=meta)


def _materialize(
    vectors: list[FeatureVector],
    approach: SplitApproach,
    reference_term: Term,
    role: str,
    exclusions: list[Exclusion],
    cache: VectorCache,
    seed: int | None = None,
) -> LabeledDataset:
    vectors = sorted(vectors, key=lambda v: (v.student_id, to_ordinal(v.as_of, cache.terms_per_year)))
    n = len(vectors)
    m = len(cache.spec.names)
    X = np.empty((n, m), dtype=np.float64)
    y = np.empty(n, dtype=np.int64)
    rows = []
    for i, v in enumerate(vectors):
        if v.label is None:
            raise ValueError(f"student {v.student_id} has no label; enrolled students cannot enter a split")
        X[i] = v.values
        y[i] = v.label
        rows.append((v.student_id, v.as_of))
    meta = DatasetMeta(
        approach=approach,
        reference_term=reference_term,
        role=role,
        feature_names=cache.spec.names,
        exclusions=tuple(exclusions),
        seed=seed,
    )
    return LabeledDataset(X=X, y=y, rows=tuple(rows), meta=meta)


Rule = Callable[[VectorCache, StudentStructure, Term], tuple[FeatureVector, ...]]


def _final(cache: VectorCache, s: StudentStructure, t: Term) -> tuple[FeatureVector, ...]:
    return (cache.at_end(s),)


def _last(cache: VectorCache, s: StudentStructure, t: Term) -> tuple[FeatureVector, ...]:
    return (cache.at_last(s),)


def _reference(cache: VectorCache, s: StudentStructure, t: Term) -> tuple[FeatureVector, ...]:
    return (cache.as_of(s, t),)


def _expanded(cache: VectorCache, s: StudentStructure, t: Term) -> tuple[FeatureVector, ...]:
    history = cache.history(s)
    if not history:
        raise UndefinedFeatureVector(s.student_id, "single_term_history")
    return history


def _expanded_and_final(cache: VectorCache, s: StudentStructure, t: Term) -> tuple[FeatureVector, ...]:
    return _expanded(cache, s, t) + (cache.at_end(s),)


class Rules(NamedTuple):
    """Which vectors each side of an approach uses for one student at T."""

    train: Rule
    test: Rule
    expanded: bool = False  # the train side has one row per enrolled term


# The one encoding of the approaches. A and B1 use full-history vectors on both
# sides. B2 cuts vectors just before each student's final term, but its test
# vectors still follow each student to their own final term, so records dated
# at or after T can inform a test row. Only the *T test rule pins vectors at T,
# which removes that leak; the three differ only in their training rows.
RULES: dict[SplitApproach, Rules] = {
    SplitApproach.A: Rules(_final, _final),
    SplitApproach.B1: Rules(_final, _final),
    SplitApproach.B2: Rules(_last, _last),
    SplitApproach.B2T: Rules(_last, _reference),
    SplitApproach.B3T: Rules(_expanded, _reference, expanded=True),
    SplitApproach.B4T: Rules(_expanded_and_final, _reference, expanded=True),
}


def _collect(
    rule: Rule, students: list[StudentStructure], t: Term, cache: VectorCache, role: str, exclusions: list[Exclusion]
) -> list[FeatureVector]:
    out: list[FeatureVector] = []
    for s in students:
        try:
            out.extend(rule(cache, s, t))
        except UndefinedFeatureVector as exc:
            exclusions.append(Exclusion(s.student_id, role, exc.reason))
    return out


def apply_rule(
    approach: SplitApproach, role: str, students: list[StudentStructure], t: Term, cache: VectorCache
) -> LabeledDataset:
    """One side of a split: the approach's rule for role ("train" or "test")
    applied to each student, every undefined vector kept as an exclusion."""
    exclusions: list[Exclusion] = []
    vectors = _collect(getattr(RULES[approach], role), students, t, cache, role, exclusions)
    return _materialize(vectors, approach, t, role, exclusions, cache)


def _pooled(
    before: list[StudentStructure], onward: list[StudentStructure], t: Term, seed: int, cache: VectorCache
) -> tuple[LabeledDataset, LabeledDataset]:
    """Approach A: a seeded random partition of both populations' vectors.

    Set sizes match the temporal populations so accuracy is comparable with
    the temporal approaches, but membership ignores exit order entirely. Every
    exclusion is recorded on the train side, with role "pool".
    """
    rules = RULES[SplitApproach.A]
    excl: list[Exclusion] = []
    vecs_before = _collect(rules.train, before, t, cache, "pool", excl)
    vecs_onward = _collect(rules.test, onward, t, cache, "pool", excl)
    if not vecs_before:
        raise SplitError(f"no students exited before reference term {t}")
    if not vecs_onward:
        raise SplitError(f"no students active at {t} exited within the window")
    pool = sorted(vecs_before + vecs_onward, key=lambda v: v.student_id)
    Xoshiro256StarStar(seed).shuffle(pool)
    n_train = len(vecs_before)
    train = _materialize(pool[:n_train], SplitApproach.A, t, "train", excl, cache, seed)
    test = _materialize(pool[n_train:], SplitApproach.A, t, "test", [], cache, seed)
    return train, test


def build_split(
    c: Cohort,
    request: SplitRequest,
    spec: FeatureSetSpec | None = None,
    cache: VectorCache | None = None,
) -> tuple[LabeledDataset, LabeledDataset]:
    """Materialize one approach's (train, test) pair at a reference term T.

    Train rows come from students who exited before T, test rows from students
    active at T who exited by the end of the window; RULES says which vectors
    each side uses.
    """
    t = request.reference_term
    if cache is None:
        cache = VectorCache(c, spec)
    before, onward = subset_exited_before(c, t), subset_exited_from(c, t)
    if request.approach is SplitApproach.A:
        return _pooled(before, onward, t, request.seed, cache)
    train = apply_rule(request.approach, "train", before, t, cache)
    test = apply_rule(request.approach, "test", onward, t, cache)
    if not train.n:
        raise SplitError(f"train side empty: no student exited before {t} with a usable vector")
    if not test.n:
        raise SplitError(f"test side empty: no student active at {t} exited within the window with a usable vector")
    return train, test


def split_A(c, t, seed, spec=None, cache=None):
    """Seeded random partition of the pooled exited students, final vectors."""
    return build_split(c, SplitRequest(SplitApproach.A, t, seed), spec, cache)


def split_B1(c, t, spec=None, cache=None):
    """Temporal membership, full-history vectors on both sides."""
    return build_split(c, SplitRequest(SplitApproach.B1, t), spec, cache)


def split_B2(c, t, spec=None, cache=None):
    """Temporal membership, vectors cut just before each student's final term."""
    return build_split(c, SplitRequest(SplitApproach.B2, t), spec, cache)


def split_B2T(c, t, spec=None, cache=None):
    """Final-term vectors for training; test vectors pinned at the reference term."""
    return build_split(c, SplitRequest(SplitApproach.B2T, t), spec, cache)


def split_B3T(c, t, spec=None, cache=None):
    """Training expanded to one vector per enrolled term; reference-term test."""
    return build_split(c, SplitRequest(SplitApproach.B3T, t), spec, cache)


def split_B4T(c, t, spec=None, cache=None):
    """Expanded training rows plus each student's full-history vector."""
    return build_split(c, SplitRequest(SplitApproach.B4T, t), spec, cache)
