"""The six train/test splitting approaches.

All approaches are anchored at a reference term T. The temporal ones train on
students who exited before T and test on students active at T who exited by
the end of the window; they differ in which as-of term the feature vectors
use, which is exactly where information from T onward can leak into a test
row. Approach A is the deliberately unrealistic baseline: a seeded random
partition of the pooled students that ignores time entirely.

Each rule in `RULES` picks rows of the cohort's `VectorTable` for a whole
population at once; the populations are masks on the table's exit and
entrance ordinals. A side is then one gather of the chosen rows, which come
out sorted by (student id, as-of term) because the table is, so no
classifier can depend on incidental row order. Every student excluded by a
precondition is recorded with a reason code, in population order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .features import FeatureSetSpec, Pick, VectorTable, vector_table
from .records import Cohort, check_reference
from .rng import Xoshiro256StarStar, check_seed
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

    def __post_init__(self) -> None:
        check_seed(self.seed)


@dataclass(frozen=True)
class Exclusion:
    student_id: str
    role: str
    reason: str


@dataclass(frozen=True)
class DatasetMeta:
    role: str
    feature_names: tuple[str, ...]
    exclusions: tuple[Exclusion, ...]


@dataclass
class LabeledDataset:
    """Feature matrix, labels, and per-row provenance for one split side.

    The walk-forward grid holds its sets with no provenance (`rows` empty),
    so `n` counts labels.
    """

    X: np.ndarray
    y: np.ndarray
    rows: tuple[tuple[str, Term], ...]
    meta: DatasetMeta

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def student_ids(self) -> set[str]:
        return {sid for sid, _ in self.rows}


def _dataset(tab: VectorTable, idx, as_of: int | None, role: str, exclusions: list[Exclusion]) -> LabeledDataset:
    X, y, rows = tab.take(np.asarray(idx, dtype=np.int64), as_of)
    unlabeled = np.flatnonzero(y < 0)
    if len(unlabeled):
        sid = rows[unlabeled[0]][0]
        raise ValueError(f"student {sid} has no label; enrolled students cannot enter a split")
    return LabeledDataset(X=X, y=y, rows=tuple(rows), meta=DatasetMeta(role, tab.spec.names, tuple(exclusions)))


# A rule picks, for students at cohort positions si, the table rows of their
# vectors at the reference ordinal o.
Rule = Callable[[VectorTable, np.ndarray, int], Pick]


def _final(tab: VectorTable, si: np.ndarray, o: int) -> Pick:
    return tab.at_end(si)


def _last(tab: VectorTable, si: np.ndarray, o: int) -> Pick:
    return tab.at_last(si)


def _reference(tab: VectorTable, si: np.ndarray, o: int) -> Pick:
    return tab.as_of(si, o)


def _expanded(tab: VectorTable, si: np.ndarray, o: int) -> Pick:
    return tab.history(si)


def _expanded_and_final(tab: VectorTable, si: np.ndarray, o: int) -> Pick:
    pick = tab.history(si)  # the full-history row follows the history rows
    return pick._replace(count=np.where(pick.count > 0, pick.count + 1, 0))


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


def _choose(
    rule: Rule, si: np.ndarray, t: Term, tab: VectorTable, role: str, exclusions: list[Exclusion]
) -> tuple[np.ndarray, int | None]:
    """The rows a rule picks for students si, in row order, and the as-of
    ordinal they are pinned at; students without a vector are appended to
    exclusions in the order of si."""
    pick = rule(tab, si, to_ordinal(t, tab.terms_per_year))
    undefined = np.flatnonzero(pick.count == 0)
    exclusions += [
        Exclusion(tab.student_ids[i], role, reason)
        for i, reason in zip(si[undefined].tolist(), pick.reason[undefined].tolist())
    ]
    order = np.argsort(si, kind="stable")  # cohort order is (student id, as-of) row order
    start, count = pick.start[order], pick.count[order]
    ends = np.cumsum(count)
    idx = np.arange(ends[-1] if len(ends) else 0) + np.repeat(start - ends + count, count)
    return idx, pick.as_of


def apply_rule(approach: SplitApproach, role: str, si: np.ndarray, t: Term, tab: VectorTable) -> LabeledDataset:
    """One side of a split: the approach's rule for role ("train" or "test") applied
    to the students at cohort positions si, every undefined vector an exclusion."""
    exclusions: list[Exclusion] = []
    idx, as_of = _choose(getattr(RULES[approach], role), si, t, tab, role, exclusions)
    return _dataset(tab, idx, as_of, role, exclusions)


def _pooled(
    before: np.ndarray, onward: np.ndarray, t: Term, seed: int, tab: VectorTable
) -> tuple[LabeledDataset, LabeledDataset]:
    """Approach A: a seeded random partition of both populations' vectors.

    Set sizes match the temporal populations so accuracy is comparable with
    the temporal approaches, but membership ignores exit order entirely. Every
    exclusion is recorded on the train side, with role "pool".
    """
    rules = RULES[SplitApproach.A]
    excl: list[Exclusion] = []
    rows_before, _ = _choose(rules.train, before, t, tab, "pool", excl)
    rows_onward, _ = _choose(rules.test, onward, t, tab, "pool", excl)
    if not len(rows_before):
        raise SplitError(f"no students exited before reference term {t}")
    if not len(rows_onward):
        raise SplitError(f"no students active at {t} exited within the window")
    # One row per student, so row order is student id order.
    pool = sorted(rows_before.tolist() + rows_onward.tolist())
    Xoshiro256StarStar(seed).shuffle(pool)
    n_train = len(rows_before)
    train = _dataset(tab, sorted(pool[:n_train]), None, "train", excl)
    test = _dataset(tab, sorted(pool[n_train:]), None, "test", [])
    return train, test


def build_split(
    c: Cohort, request: SplitRequest, spec: FeatureSetSpec | None = None
) -> tuple[LabeledDataset, LabeledDataset]:
    """Materialize one approach's (train, test) pair at a reference term T.

    Train rows come from students who exited before T, test rows from students
    active at T who exited by the end of the window; RULES says which vectors
    each side uses. The vectors are the cohort's table under spec, built on the
    cohort's first use of spec (see `features.vector_table`).
    """
    t = request.reference_term
    check_reference(c, t)
    tab = vector_table(c, spec)
    o = to_ordinal(t, c.terms_per_year)
    before, onward = tab.exited_before(o), tab.exited_from(o)
    if request.approach is SplitApproach.A:
        return _pooled(before, onward, t, request.seed, tab)
    train = apply_rule(request.approach, "train", before, t, tab)
    test = apply_rule(request.approach, "test", onward, t, tab)
    if not train.n:
        raise SplitError(f"train side empty: no student exited before {t} with a usable vector")
    if not test.n:
        raise SplitError(f"test side empty: no student active at {t} exited within the window with a usable vector")
    return train, test

