"""Incremental per-student feature vectors.

A student's vector as of term t summarizes only the course records strictly
before t, so walking t forward replays exactly what was knowable at the start
of each term. The canonical layout is the student's static attributes followed
by five history aggregates; vectors over an empty history are undefined rather
than zero-filled, and callers decide how to count the exclusion.

`VectorTable` is the one place vectors are computed: a cohort's vectors as
arrays, built from the cohort's `CourseTable` columns, with every defined
as-of vector as a matrix row in (student id, as-of term) order and each
student's rows contiguous. Choosing vectors is then index arithmetic over a
population and copying them is one gather. `vector_table` is the way to a
cohort's table: it builds it on the first call for a (cohort, feature set)
pair and keeps it with the cohort, in `Cohort.vector_tables`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .records import Cohort, CourseTable, EnrollmentStatus, StudentStructure
from .terms import Term, from_ordinal, to_ordinal

CANONICAL_TIME_FEATURES = (
    "completed_terms",
    "courses_taken",
    "courses_failed",
    "mean_attendance",
    "mean_score",
)


class _Window(NamedTuple):
    """The records before each as-of term, as float arrays with one entry per
    vector."""

    terms: np.ndarray  # distinct course terms
    taken: np.ndarray
    failed: np.ndarray
    attendance: np.ndarray  # sums added left to right from 0.0
    score: np.ndarray
    elapsed: np.ndarray  # as-of ordinal minus entrance ordinal


TIME_FEATURES = {
    "completed_terms": lambda w: w.terms,
    "courses_taken": lambda w: w.taken,
    "courses_failed": lambda w: w.failed,
    "mean_attendance": lambda w: w.attendance / w.taken,
    "mean_score": lambda w: w.score / w.taken,
    # Calendar terms since entrance, counting gap terms; the alternative to
    # completed_terms for callers who want wall-clock progress.
    "elapsed_terms": lambda w: w.elapsed,
}


@dataclass(frozen=True)
class FeatureSetSpec:
    """Which static attributes and history aggregates make up a vector."""

    static_names: tuple[str, ...]
    time_features: tuple[str, ...] = CANONICAL_TIME_FEATURES

    def __post_init__(self) -> None:
        unknown = [name for name in self.time_features if name not in TIME_FEATURES]
        if unknown:
            raise ValueError(f"unknown time-based features: {unknown}")

    @property
    def names(self) -> tuple[str, ...]:
        return self.static_names + self.time_features

    @staticmethod
    def for_cohort(cohort: Cohort, time_features: tuple[str, ...] = CANONICAL_TIME_FEATURES) -> "FeatureSetSpec":
        return FeatureSetSpec(static_names=cohort.static_attr_names, time_features=time_features)


def student_label(s: StudentStructure) -> int | None:
    """0 for dropout, 1 for graduated, None while still enrolled."""
    if s.status is EnrollmentStatus.DROPOUT:
        return 0
    if s.status is EnrollmentStatus.GRADUATED:
        return 1
    return None


class Pick(NamedTuple):
    """The vectors chosen for each student of a population, one entry each.

    Student k gets the table rows start[k] .. start[k] + count[k] - 1, or,
    where count[k] is 0, no row and the exclusion reason[k]. With as_of set,
    every row is reported as of that ordinal, including a student whose
    history ended earlier: that row is the full history, as of the later term.
    """

    start: np.ndarray
    count: np.ndarray
    reason: np.ndarray
    as_of: int | None = None


def _running_sums(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> None:
    """Replace values, in place, by their running sums within each segment,
    added left to right from 0.0 as ``itertools.accumulate`` adds them, so
    every entry is bit-equal to it."""
    order = np.argsort(-lengths, kind="stable")
    longest_first = lengths[order]
    acc = np.zeros((len(order),) + values.shape[1:])
    for k in range(int(longest_first[0]) if len(order) else 0):
        n = np.count_nonzero(longest_first > k)
        pos = starts[order[:n]] + k
        acc[:n] += values[pos]
        values[pos] = acc[:n]


def _term_totals(courses: CourseTable):
    """Totals through each course term of each student, as arrays.

    One entry per (student, distinct course term), in cohort and term order:
    the student's position, the term's ordinal, the ordinal of the student's
    next course term (one past the term for the final one), and a `_Window`,
    without elapsed terms, over the student's courses through that term.
    """
    n_courses = courses.count
    ends = np.cumsum(n_courses)
    starts = ends - n_courses
    ords = courses.term
    n = len(ords)
    closes = np.ones(n, dtype=bool)  # at the last course of a term
    closes[:-1] = ords[1:] != ords[:-1]
    closes[ends[n_courses > 0] - 1] = True
    end = np.flatnonzero(closes)
    student = np.searchsorted(ends, end, side="right")
    term = ords[end]
    groups = np.bincount(student, minlength=len(n_courses))
    rank = np.arange(len(end)) - (np.cumsum(groups) - groups)[student]  # the student's earlier course terms
    final = rank == groups[student] - 1
    following = np.append(term[1:], 0)
    following[final] = term[final] + 1
    first = starts[student]
    failed_before = np.zeros(n + 1, dtype=np.int64)  # entry p counts courses 0 .. p-1
    np.cumsum(courses.failed, out=failed_before[1:])
    sums = np.empty((n, 2))
    sums[:, 0] = courses.attendance
    sums[:, 1] = courses.score
    _running_sums(sums, starts, n_courses)
    totals = _Window(
        terms=(rank + 1).astype(np.float64),
        taken=(end - first + 1).astype(np.float64),
        failed=(failed_before[end + 1] - failed_before[first]).astype(np.float64),
        attendance=sums[end, 0],
        score=sums[end, 1],
        elapsed=None,
    )
    return student, term, following, totals


@dataclass(frozen=True, eq=False)
class VectorTable:
    """Every defined as-of vector of a cohort, as arrays.

    Row r is the vector of student row_student[r] as of the term `names`
    gives it. Student i (cohort order, which is student id order) owns the
    rows first[i] .. first[i] + count[i] - 1, as of each term from just after
    its first course term through one past its final one: the earlier
    windows are empty, and windows only grow. Labels are -1 for enrolled
    students, and exit is past every ordinal for them.
    """

    spec: FeatureSetSpec
    terms_per_year: int
    student_ids: tuple[str, ...]
    entrance: np.ndarray  # per student, ordinals
    last: np.ndarray
    exit: np.ndarray
    first: np.ndarray
    count: np.ndarray
    X: np.ndarray  # (rows, features)
    labels: np.ndarray
    row_student: np.ndarray
    horizon: int  # ordinal of the cohort's last term

    @staticmethod
    def of(cohort: Cohort, spec: FeatureSetSpec) -> "VectorTable":
        tpy = cohort.terms_per_year
        students = cohort.students
        n_students = len(students)
        student, term, following, totals = _term_totals(cohort.course_table)
        # A course term's totals are the window of every as-of term after it
        # through the student's next course term.
        covered = following - term
        group = np.repeat(np.arange(len(term)), covered)
        row_student = student[group]
        as_of = term[group] + 1 + np.arange(len(group)) - np.repeat(np.cumsum(covered) - covered, covered)
        count = np.bincount(row_student, minlength=n_students)
        first = np.cumsum(count) - count
        entrance = np.fromiter((to_ordinal(s.entrance, tpy) for s in students), np.int64, n_students)
        last = entrance.copy()
        has = count > 0
        last[has] = as_of[first[has] + count[has] - 1] - 1
        never = np.iinfo(np.int64).max
        exits = np.fromiter(
            (never if s.exit_term is None else to_ordinal(s.exit_term, tpy) for s in students), np.int64, n_students
        )
        elapsed = (as_of - entrance[row_student]).astype(np.float64)
        window = _Window(*(field[group] for field in totals[:5]), elapsed=elapsed)
        static = np.array(
            [[dict(s.static_attrs)[name] for name in spec.static_names] for s in students], dtype=np.float64
        ).reshape(n_students, len(spec.static_names))
        X = np.empty((len(row_student), len(spec.names)), dtype=np.float64)
        X[:, : len(spec.static_names)] = static[row_student]
        for j, name in enumerate(spec.time_features, start=len(spec.static_names)):
            X[:, j] = TIME_FEATURES[name](window)

        labels = np.fromiter(
            (-1 if (label := student_label(s)) is None else label for s in students), np.int64, n_students
        )
        return VectorTable(
            spec=spec,
            terms_per_year=tpy,
            student_ids=tuple(s.student_id for s in students),
            entrance=entrance,
            last=last,
            exit=exits,
            first=first,
            count=count,
            X=X,
            labels=labels[row_student],
            row_student=row_student,
            horizon=to_ordinal(cohort.range.hi, tpy),
        )

    # Populations at a reference ordinal o, in cohort order.

    def exited_before(self, o: int) -> np.ndarray:
        """Students who exited strictly before o."""
        return np.flatnonzero(self.exit < o)

    def exited_from(self, o: int) -> np.ndarray:
        """Students active at o who exited within the window."""
        return np.flatnonzero((o <= self.exit) & (self.exit <= self.horizon) & (self.entrance <= o))

    def enrolled(self, o: int) -> np.ndarray:
        """Students still enrolled who entered at or before o."""
        return np.flatnonzero((self.exit == np.iinfo(self.exit.dtype).max) & (self.entrance <= o))

    # Choices for students si (cohort positions), with a reason code where a
    # vector is undefined; a split records it as the student's exclusion.

    def at_end(self, si: np.ndarray) -> Pick:
        """Full-history vectors, as of one term past the final activity."""
        n = self.count[si]
        return Pick(self.first[si] + n - 1, np.minimum(n, 1), np.full(len(si), "no_course_records"))

    def at_last(self, si: np.ndarray) -> Pick:
        """Vectors at the start of the final active term."""
        n = self.count[si]
        reason = np.where(self.last[si] <= self.entrance[si], "single_term_history", "empty_window")
        return Pick(self.first[si] + n - 2, (n >= 2).astype(np.int64), reason)

    def history(self, si: np.ndarray) -> Pick:
        """Every vector from just after entrance through the final active term."""
        n = self.count[si]
        return Pick(self.first[si], np.maximum(n - 1, 0), np.full(len(si), "single_term_history"))

    def as_of(self, si: np.ndarray, o: int) -> Pick:
        """Vectors over everything before o, however old."""
        n = self.count[si]
        i = np.minimum(n - 2 + (o - self.last[si]), n - 1)  # past the end: the full history
        reason = np.where(o <= self.entrance[si], "starts_at_reference_term", "no_records_before_reference")
        return Pick(self.first[si] + i, (i >= 0).astype(np.int64), reason, o)

    def take(self, idx: np.ndarray, as_of: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Rows idx as a feature matrix and labels.

        With as_of, each row is reported as of that ordinal; of the
        aggregates only elapsed_terms reads the as-of term itself.
        """
        X = self.X[idx]
        if as_of is not None and "elapsed_terms" in self.spec.time_features:
            j = len(self.spec.static_names) + self.spec.time_features.index("elapsed_terms")
            X[:, j] = as_of - self.entrance[self.row_student[idx]]
        return X, self.labels[idx]

    def names(self, idx: np.ndarray, as_of: int | None = None) -> list[tuple[str, Term]]:
        """The (student id, as-of term) of rows idx, each as of as_of if given."""
        student = self.row_student[idx]
        if as_of is None:  # student i's rows run as of last[i] + 2 - count[i] onward
            ords = (idx + (self.last + 2 - self.count - self.first)[student]).tolist()
        else:
            ords = [as_of] * len(idx)
        terms = {o: from_ordinal(o, self.terms_per_year) for o in set(ords)}
        ids = self.student_ids
        return [(ids[i], terms[o]) for i, o in zip(student.tolist(), ords)]


class VectorCache(dict):
    """A cohort's vector tables, keyed by `FeatureSetSpec`: the memo that
    `Cohort.vector_tables` holds and `vector_table` fills."""


def vector_table(cohort: Cohort, spec: FeatureSetSpec | None = None) -> VectorTable:
    """The cohort's vectors under spec (default: its static attributes and the
    canonical aggregates), built on the first call for the pair and kept with
    the cohort, so replaying a split rebuilds byte-identical datasets without
    recomputing histories."""
    spec = spec if spec is not None else FeatureSetSpec.for_cohort(cohort)
    tables = cohort.vector_tables
    if spec not in tables:
        tables[spec] = VectorTable.of(cohort, spec)
    return tables[spec]
