"""The six train/test splitting approaches.

All approaches are anchored at a reference term T. The temporal ones train on
students who exited before T and test on students active at T who exited by
the end of the window; they differ in which as-of term the feature vectors
use, which is exactly where information from T onward can leak into a test
row. Approach A is the deliberately unrealistic baseline: a seeded random
partition of the pooled students that ignores time entirely.

Each rule in `RULES` picks rows of the cohort's `VectorTable` for a whole
population at once; the populations are masks on the table's exit and
entrance ordinals. A side (`Side`) is integers: the chosen row indices,
sorted by (student id, as-of term) because the table is, so no classifier
can depend on incidental row order, and the cohort positions of the students
excluded by a precondition, each with a reason code, in population order.
`split_sides` gives a split as two sides, which the walk-forward grid
gathers straight into X and y; `build_split` and `apply_rule` give them as
`LabeledDataset`s, with each row's (student id, as-of term) and an
`Exclusion` per excluded student.
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

    The walk-forward grid holds its sets as X and y alone (no rows, no meta),
    so `n` counts labels.
    """

    X: np.ndarray
    y: np.ndarray
    rows: tuple[tuple[str, Term], ...] = ()
    meta: DatasetMeta | None = None

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def student_ids(self) -> set[str]:
        return {sid for sid, _ in self.rows}


class Side(NamedTuple):
    """One split side as integers: what a rule or approach A picked.

    `rows` are table rows in row order, reported as of `as_of` where it is
    set; `students` counts the students with a row, and `excluded` holds the
    cohort positions of the students without a vector, in population order,
    with their reason codes in `reasons`.
    """

    rows: np.ndarray
    as_of: int | None
    students: int
    excluded: np.ndarray
    reasons: np.ndarray

    def xy(self, tab: VectorTable) -> tuple[np.ndarray, np.ndarray]:
        """The side's feature matrix and labels; an unlabeled row is a ValueError
        naming its student."""
        X, y = tab.take(self.rows, self.as_of)
        unlabeled = np.flatnonzero(y < 0)
        if len(unlabeled):
            sid = tab.student_ids[tab.row_student[self.rows[unlabeled[0]]]]
            raise ValueError(f"student {sid} has no label; enrolled students cannot enter a split")
        return X, y

    def dataset(self, tab: VectorTable, role: str, excluded_role: str | None = None) -> LabeledDataset:
        """The side with its provenance: each row's (student id, as-of term),
        and each excluded student's `Exclusion` under excluded_role (default
        role)."""
        X, y = self.xy(tab)
        excluded_role = excluded_role or role
        exclusions = tuple(
            Exclusion(tab.student_ids[i], excluded_role, reason)
            for i, reason in zip(self.excluded.tolist(), self.reasons.tolist())
        )
        rows = tuple(tab.names(self.rows, self.as_of))
        return LabeledDataset(X=X, y=y, rows=rows, meta=DatasetMeta(role, tab.spec.names, exclusions))


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


def _choose(rule: Rule, si: np.ndarray, o: int, tab: VectorTable) -> Side:
    """The side a rule picks for students si at reference ordinal o: their
    rows in row order, and the students without a vector in the order of si."""
    pick = rule(tab, si, o)
    undefined = np.flatnonzero(pick.count == 0)
    order = np.argsort(si, kind="stable")  # cohort order is (student id, as-of) row order
    start, count = pick.start[order], pick.count[order]
    ends = np.cumsum(count)
    idx = np.arange(ends[-1] if len(ends) else 0) + np.repeat(start - ends + count, count)
    return Side(idx, pick.as_of, len(si) - len(undefined), si[undefined], pick.reason[undefined])


def apply_rule(approach: SplitApproach, role: str, si: np.ndarray, t: Term, tab: VectorTable) -> LabeledDataset:
    """One side of a split: the approach's rule for role ("train" or "test") applied
    to the students at cohort positions si, every undefined vector an exclusion."""
    rule = getattr(RULES[approach], role)
    return _choose(rule, si, to_ordinal(t, tab.terms_per_year), tab).dataset(tab, role)


def _pooled(before: np.ndarray, onward: np.ndarray, t: Term, seed: int, tab: VectorTable) -> tuple[Side, Side]:
    """Approach A: a seeded random partition of both populations' vectors.

    Set sizes match the temporal populations so accuracy is comparable with
    the temporal approaches, but membership ignores exit order entirely. Every
    exclusion goes to the train side, in population order.
    """
    rules, o = RULES[SplitApproach.A], to_ordinal(t, tab.terms_per_year)
    train, test = _choose(rules.train, before, o, tab), _choose(rules.test, onward, o, tab)
    if not len(train.rows):
        raise SplitError(f"no students exited before reference term {t}")
    if not len(test.rows):
        raise SplitError(f"no students active at {t} exited within the window")
    # One row per student, so row order is student id order.
    pool = np.sort(np.concatenate([train.rows, test.rows])).tolist()
    Xoshiro256StarStar(seed).shuffle(pool)
    n_train = len(train.rows)
    excluded = np.concatenate([train.excluded, test.excluded])
    reasons = np.concatenate([train.reasons, test.reasons])
    train_rows, test_rows = (np.sort(np.array(part, dtype=np.int64)) for part in (pool[:n_train], pool[n_train:]))
    return (
        Side(train_rows, None, len(train_rows), excluded, reasons),
        Side(test_rows, None, len(test_rows), excluded[:0], reasons[:0]),
    )


def split_sides(c: Cohort, request: SplitRequest, spec: FeatureSetSpec | None = None) -> tuple[Side, Side]:
    """One approach's (train, test) sides at a reference term T, as integers.

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
    rules = RULES[request.approach]
    train, test = _choose(rules.train, before, o, tab), _choose(rules.test, onward, o, tab)
    if not len(train.rows):
        raise SplitError(f"train side empty: no student exited before {t} with a usable vector")
    if not len(test.rows):
        raise SplitError(f"test side empty: no student active at {t} exited within the window with a usable vector")
    return train, test


def build_split(
    c: Cohort, request: SplitRequest, spec: FeatureSetSpec | None = None
) -> tuple[LabeledDataset, LabeledDataset]:
    """Materialize one approach's (train, test) pair at a reference term T:
    `split_sides`, with each row's provenance and each exclusion's `Exclusion`.
    Approach A records every exclusion on the train side, with role "pool"."""
    train, test = split_sides(c, request, spec)
    tab = vector_table(c, spec)
    pooled = "pool" if request.approach is SplitApproach.A else None
    return train.dataset(tab, "train", pooled), test.dataset(tab, "test")
