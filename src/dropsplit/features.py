"""Incremental per-student feature vectors.

A student's vector as of term t summarizes only the course records strictly
before t, so walking t forward replays exactly what was knowable at the start
of each term. The canonical layout is the student's static attributes followed
by five history aggregates; vectors over an empty history are undefined rather
than zero-filled, and callers decide how to count the exclusion.

The public vector functions build one vector from one student's running
totals; they are the reference. `VectorCache` holds a whole cohort's vectors
as one `VectorTable` of arrays, built on first use: every defined as-of vector
as a matrix row in (student id, as-of term) order, each student's rows
contiguous. Choosing vectors is then index arithmetic over a population and
copying them is one gather, and both paths compute each aggregate from the same
`TIME_FEATURES` formulas over sums added in the same order.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .records import Cohort, EnrollmentStatus, StudentStructure
from .terms import DEFAULT_TERMS_PER_YEAR, Term, from_ordinal, iter_terms, next_term, to_ordinal

CANONICAL_TIME_FEATURES = (
    "completed_terms",
    "courses_taken",
    "courses_failed",
    "mean_attendance",
    "mean_score",
)


class FeatureWindowError(ValueError):
    """Requested as-of term lies outside the student's valid domain."""


class UndefinedFeatureVector(Exception):
    """The vector is not computable; callers exclude the student and log why."""

    def __init__(self, student_id: str, reason: str) -> None:
        super().__init__(f"student {student_id}: {reason}")
        self.student_id = student_id
        self.reason = reason


class _Window(NamedTuple):
    """The records before an as-of term, as floats: scalars for one vector,
    arrays with one entry per vector for a table."""

    terms: float  # distinct course terms
    taken: float
    failed: float
    attendance: float  # sums added left to right from 0.0
    score: float
    elapsed: float  # as-of ordinal minus entrance ordinal


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


@dataclass(frozen=True)
class FeatureVector:
    student_id: str
    as_of: Term
    values: tuple[float, ...]
    label: int | None


def student_label(s: StudentStructure) -> int | None:
    """0 for dropout, 1 for graduated, None while still enrolled."""
    if s.status is EnrollmentStatus.DROPOUT:
        return 0
    if s.status is EnrollmentStatus.GRADUATED:
        return 1
    return None


def _spec_for(s: StudentStructure, spec: FeatureSetSpec | None) -> FeatureSetSpec:
    if spec is not None:
        return spec
    return FeatureSetSpec(static_names=tuple(name for name, _ in s.static_attrs))


@dataclass(frozen=True)
class _Ledger:
    """Running totals over one student's courses, one entry per distinct term.

    Entry j covers the courses of the first j course terms, added left to
    right, so a mean over the window before a term is bit-equal to
    ``sum(window) / len(window)``.
    """

    student: StudentStructure
    terms_per_year: int
    entrance: int  # ordinal of the entrance term
    terms: tuple[int, ...]  # distinct course-term ordinals, ascending
    taken: tuple[int, ...]  # the four totals have len(terms) + 1 entries
    failed: tuple[int, ...]
    attendance: tuple[float, ...]
    score: tuple[float, ...]

    @staticmethod
    def of(s: StudentStructure, terms_per_year: int) -> "_Ledger":
        ords = [to_ordinal(c.term, terms_per_year) for c in s.courses]
        n = len(ords)
        ends = [0] + [k for k in range(1, n + 1) if k == n or ords[k] != ords[k - 1]]

        def totals(items, start) -> tuple:
            sums = list(accumulate(items, initial=start))
            return tuple(sums[k] for k in ends)

        return _Ledger(
            student=s,
            terms_per_year=terms_per_year,
            entrance=to_ordinal(s.entrance, terms_per_year),
            terms=tuple(ords[k - 1] for k in ends[1:]),
            taken=tuple(ends),
            failed=totals((c.result == 0 for c in s.courses), 0),
            attendance=totals((c.attendance_pct for c in s.courses), 0.0),
            score=totals((c.score for c in s.courses), 0.0),
        )


def _vector(led: _Ledger, as_of: Term, spec: FeatureSetSpec, empty_reason: str) -> FeatureVector:
    """The vector over the records strictly before as_of; raises if there are none."""
    s = led.student
    o = to_ordinal(as_of, led.terms_per_year)
    j = bisect_left(led.terms, o)
    if j == 0:
        raise UndefinedFeatureVector(s.student_id, empty_reason)
    static = dict(s.static_attrs)
    window = _Window(
        terms=float(j),
        taken=float(led.taken[j]),
        failed=float(led.failed[j]),
        attendance=led.attendance[j],
        score=led.score[j],
        elapsed=float(o - led.entrance),
    )
    values = [static[name] for name in spec.static_names]
    values += [TIME_FEATURES[name](window) for name in spec.time_features]
    return FeatureVector(
        student_id=s.student_id,
        as_of=as_of,
        values=tuple(values),
        label=student_label(s),
    )


def feature_vector(
    s: StudentStructure,
    t: Term,
    spec: FeatureSetSpec | None = None,
    terms_per_year: int = DEFAULT_TERMS_PER_YEAR,
) -> FeatureVector:
    """Vector as of the start of term t, over records in [entrance .. t).

    t must lie strictly after the entrance term (an entrance-term vector would
    have no history) and at most one term past the last recorded activity.
    """
    end = next_term(s.last, terms_per_year)
    if t <= s.entrance or t > end:
        raise FeatureWindowError(
            f"student {s.student_id}: as-of term {t} outside ({s.entrance} .. {end}]"
        )
    return _vector(_Ledger.of(s, terms_per_year), t, _spec_for(s, spec), "empty_window")


def vector_as_of(
    s: StudentStructure,
    t: Term,
    spec: FeatureSetSpec | None = None,
    terms_per_year: int = DEFAULT_TERMS_PER_YEAR,
) -> FeatureVector:
    """Reference-term vector: everything recorded before t, however old.

    Unlike :func:`feature_vector` this accepts t past the student's final
    activity, where the vector simply covers the full history. Used for test
    rows pinned to a prediction term.
    """
    if t <= s.entrance:
        raise UndefinedFeatureVector(s.student_id, "starts_at_reference_term")
    return _vector(_Ledger.of(s, terms_per_year), t, _spec_for(s, spec), "no_records_before_reference")


def vector_at_last(
    s: StudentStructure,
    spec: FeatureSetSpec | None = None,
    terms_per_year: int = DEFAULT_TERMS_PER_YEAR,
) -> FeatureVector:
    """Vector at the start of the student's final active term.

    Undefined for single-term students (their final term is the entrance term,
    and entrance-term vectors are out of scope); signalled, not raised as a
    crash, so callers can count the exclusion.
    """
    if s.last <= s.entrance:
        raise UndefinedFeatureVector(s.student_id, "single_term_history")
    return feature_vector(s, s.last, spec, terms_per_year)


def vector_at_end(
    s: StudentStructure,
    spec: FeatureSetSpec | None = None,
    terms_per_year: int = DEFAULT_TERMS_PER_YEAR,
) -> FeatureVector:
    """Vector one term past the final activity, i.e. over the complete history."""
    end = next_term(s.last, terms_per_year)
    return _vector(_Ledger.of(s, terms_per_year), end, _spec_for(s, spec), "no_course_records")


def expand_history(
    s: StudentStructure,
    lo: Term,
    hi: Term,
    spec: FeatureSetSpec | None = None,
    terms_per_year: int = DEFAULT_TERMS_PER_YEAR,
) -> list[FeatureVector]:
    """One vector per term in [lo .. hi], sharing the student's label.

    lo is clamped up to the term after entrance (entrance-term vectors are out
    of scope); terms whose window is still empty are skipped. An empty clamped
    range yields an empty list.
    """
    end = next_term(s.last, terms_per_year)
    if hi > end:
        raise FeatureWindowError(f"student {s.student_id}: range end {hi} past {end}")
    lo = max(lo, next_term(s.entrance, terms_per_year))
    led = _Ledger.of(s, terms_per_year)
    resolved = _spec_for(s, spec)
    out = []
    for t in iter_terms(lo, hi, terms_per_year):
        try:
            out.append(_vector(led, t, resolved, "empty_window"))
        except UndefinedFeatureVector:
            continue
    return out


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


def _term_totals(students: tuple[StudentStructure, ...], tpy: int):
    """Totals through each course term of each student, as arrays.

    One entry per (student, distinct course term), in cohort and term order:
    the student's position, the term's ordinal, the ordinal of the student's
    next course term (one past the term for the final one), and a `_Window`,
    without elapsed terms, over the student's courses through that term.
    """
    n_courses = np.fromiter((len(s.courses) for s in students), np.int64, len(students))
    ends = np.cumsum(n_courses)
    starts = ends - n_courses
    courses = [c for s in students for c in s.courses]
    n = len(courses)
    index = np.fromiter((c.term.index for c in courses), np.int64, n)
    if n and index.max() > tpy:
        to_ordinal(courses[int(np.argmax(index > tpy))].term, tpy)  # raises, naming the term
    ords = np.fromiter((c.term.year for c in courses), np.int64, n) * tpy + index - 1
    closes = np.ones(n, dtype=bool)  # at the last course of a term
    closes[:-1] = ords[1:] != ords[:-1]
    closes[ends[n_courses > 0] - 1] = True
    end = np.flatnonzero(closes)
    student = np.searchsorted(ends, end, side="right")
    term = ords[end]
    groups = np.bincount(student, minlength=len(students))
    rank = np.arange(len(end)) - (np.cumsum(groups) - groups)[student]  # the student's earlier course terms
    final = rank == groups[student] - 1
    following = np.append(term[1:], 0)
    following[final] = term[final] + 1
    first = starts[student]
    failed_before = np.zeros(n + 1, dtype=np.int64)  # entry p counts courses 0 .. p-1
    np.cumsum(np.fromiter((c.result == 0 for c in courses), bool, n), out=failed_before[1:])
    sums = np.empty((n, 2))
    sums[:, 0] = np.fromiter((c.attendance_pct for c in courses), np.float64, n)
    sums[:, 1] = np.fromiter((c.score for c in courses), np.float64, n)
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

    Row r is the vector of student row_student[r] as of rows[r][1]. Student i
    (cohort order, which is student id order) owns the rows first[i] ..
    first[i] + count[i] - 1, as of each term from just after its first course
    term through one past its final one: the earlier windows are empty, and
    windows only grow. Labels are -1 for enrolled students, and exit is past
    every ordinal for them.
    """

    spec: FeatureSetSpec
    terms_per_year: int
    student_ids: tuple[str, ...]
    index: dict[str, int]  # student id -> cohort position
    entrance: np.ndarray  # per student, ordinals
    last: np.ndarray
    exit: np.ndarray
    first: np.ndarray
    count: np.ndarray
    X: np.ndarray  # (rows, features)
    labels: np.ndarray
    row_student: np.ndarray
    rows: list[tuple[str, Term]]  # (student id, as-of term) of each row
    horizon: int  # ordinal of the cohort's last term

    @staticmethod
    def of(cohort: Cohort, spec: FeatureSetSpec) -> "VectorTable":
        tpy = cohort.terms_per_year
        students = cohort.students
        n_students = len(students)
        student, term, following, totals = _term_totals(students, tpy)
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
        student_ids = tuple(s.student_id for s in students)
        terms = {o: from_ordinal(o, tpy) for o in np.unique(as_of).tolist()}
        spans = zip(student_ids, (last + 2 - count).tolist(), (last + 2).tolist())
        return VectorTable(
            spec=spec,
            terms_per_year=tpy,
            student_ids=student_ids,
            index={sid: i for i, sid in enumerate(student_ids)},
            entrance=entrance,
            last=last,
            exit=exits,
            first=first,
            count=count,
            X=X,
            labels=labels[row_student],
            row_student=row_student,
            rows=[(sid, terms[o]) for sid, lo, hi in spans for o in range(lo, hi)],
            horizon=to_ordinal(cohort.range.hi, tpy),
        )

    # Populations at a reference ordinal o, in cohort order.

    def exited_before(self, o: int) -> np.ndarray:
        """Students who exited strictly before o (as `subset_exited_before`)."""
        return np.flatnonzero(self.exit < o)

    def exited_from(self, o: int) -> np.ndarray:
        """Students active at o who exited within the window (as `subset_exited_from`)."""
        return np.flatnonzero((o <= self.exit) & (self.exit <= self.horizon) & (self.entrance <= o))

    # Choices for students si (cohort positions), with the reason codes of the
    # public functions where a vector is undefined.

    def at_end(self, si: np.ndarray) -> Pick:
        """Full-history vectors, as `vector_at_end`."""
        n = self.count[si]
        return Pick(self.first[si] + n - 1, np.minimum(n, 1), np.full(len(si), "no_course_records"))

    def at_last(self, si: np.ndarray) -> Pick:
        """Vectors at the start of the final active term, as `vector_at_last`."""
        n = self.count[si]
        reason = np.where(self.last[si] <= self.entrance[si], "single_term_history", "empty_window")
        return Pick(self.first[si] + n - 2, (n >= 2).astype(np.int64), reason)

    def history(self, si: np.ndarray) -> Pick:
        """Every vector from just after entrance through the final active term."""
        n = self.count[si]
        return Pick(self.first[si], np.maximum(n - 1, 0), np.full(len(si), "single_term_history"))

    def as_of(self, si: np.ndarray, o: int) -> Pick:
        """Vectors over everything before o, as `vector_as_of`."""
        n = self.count[si]
        i = np.minimum(n - 2 + (o - self.last[si]), n - 1)  # past the end: the full history
        reason = np.where(o <= self.entrance[si], "starts_at_reference_term", "no_records_before_reference")
        return Pick(self.first[si] + i, (i >= 0).astype(np.int64), reason, o)

    def take(self, idx: np.ndarray, as_of: int | None = None) -> tuple[np.ndarray, np.ndarray, list[tuple[str, Term]]]:
        """Rows idx as a feature matrix, labels and (student id, as-of term) pairs.

        With as_of, each row is reported as of that ordinal; of the
        aggregates only elapsed_terms reads the as-of term itself.
        """
        X = self.X[idx]
        rows = self.rows
        if as_of is None:
            return X, self.labels[idx], [rows[r] for r in idx.tolist()]
        if "elapsed_terms" in self.spec.time_features:
            j = len(self.spec.static_names) + self.spec.time_features.index("elapsed_terms")
            X[:, j] = as_of - self.entrance[self.row_student[idx]]
        t = from_ordinal(as_of, self.terms_per_year)
        return X, self.labels[idx], [(rows[r][0], t) for r in idx.tolist()]


class VectorCache:
    """A cohort's vectors for repeated split construction.

    The `VectorTable` is built once, on first use, so replaying a split
    rebuilds byte-identical datasets without recomputing histories. The
    accessors return `FeatureVector`s built from its rows, equal to what the
    public functions return, and raise the same `UndefinedFeatureVector`.
    """

    def __init__(self, cohort: Cohort, spec: FeatureSetSpec | None = None) -> None:
        self.cohort = cohort
        self.spec = spec if spec is not None else FeatureSetSpec.for_cohort(cohort)
        self.terms_per_year = cohort.terms_per_year

    @cached_property
    def table(self) -> VectorTable:
        return VectorTable.of(self.cohort, self.spec)

    def _vectors(self, pick: Pick) -> tuple[FeatureVector, ...]:
        start, count = int(pick.start[0]), int(pick.count[0])
        X, labels, rows = self.table.take(np.arange(start, start + count), pick.as_of)
        return tuple(
            FeatureVector(sid, as_of, tuple(values), None if label < 0 else label)
            for (sid, as_of), values, label in zip(rows, X.tolist(), labels.tolist())
        )

    def _one(self, s: StudentStructure, pick: Pick) -> FeatureVector:
        if not pick.count[0]:
            raise UndefinedFeatureVector(s.student_id, str(pick.reason[0]))
        return self._vectors(pick)[0]

    def _position(self, s: StudentStructure) -> np.ndarray:
        return np.array([self.table.index[s.student_id]])

    def at_end(self, s: StudentStructure) -> FeatureVector:
        return self._one(s, self.table.at_end(self._position(s)))

    def at_last(self, s: StudentStructure) -> FeatureVector:
        return self._one(s, self.table.at_last(self._position(s)))

    def history(self, s: StudentStructure) -> tuple[FeatureVector, ...]:
        """Vectors for every term from just after entrance through the final one."""
        return self._vectors(self.table.history(self._position(s)))

    def as_of(self, s: StudentStructure, t: Term) -> FeatureVector:
        return self._one(s, self.table.as_of(self._position(s), to_ordinal(t, self.terms_per_year)))
