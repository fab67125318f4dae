from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import pytest

from dropsplit.records import (
    Cohort,
    CourseTable,
    EnrollmentStatus,
    IngestConfig,
    StudentStructure,
    _CourseColumns,
    check_reference,
    ingest,
)
from dropsplit.splits import DatasetMeta, LabeledDataset
from dropsplit.synthgen import GeneratorConfig, generate, write_courses_csv, write_students_csv
from dropsplit.terms import DEFAULT_TERMS_PER_YEAR, Term, TermRange, from_ordinal, term_distance, to_ordinal

ATTRS = (("entrance_age", 18.0), ("sex_code", 1.0), ("degree_code", 2.0))


class Row(NamedTuple):
    """One course row: what `build_cohort` takes, and `rows` reads back."""

    term: Term
    score: float
    attendance_pct: float
    result: int
    course_code: str = "C0"


def build_cohort(students, window: TermRange | None = None, terms_per_year: int = DEFAULT_TERMS_PER_YEAR) -> Cohort:
    """A cohort built from rows, its course store first, as ingest builds one.

    Each student is (id, entrance, status, exit or None, courses[, attrs]):
    a term is a `Term` or a (year, index) pair, a status an
    `EnrollmentStatus` or its text, attrs `ATTRS` unless given, and each course a `Row` or (year, index, score,
    attendance_pct, result[, course_code]). A student's courses must be
    sorted by term, none before its entrance or after its exit; an error
    names the first student that breaks a rule. The window defaults to the
    earliest entrance through the term after the latest course or entrance.
    """
    tpy = terms_per_year
    people = [
        (sid, _term(entrance), EnrollmentStatus(status), _term(exit_term), attrs[0] if attrs else ATTRS)
        for sid, entrance, status, exit_term, _, *attrs in students
    ]
    courses = [[c if isinstance(c, Row) else Row(Term(*c[:2]), *c[2:]) for c in s[4]] for s in students]
    flat = [c for cs in courses for c in cs]
    count = np.array(list(map(len, courses)), np.int64)
    term = np.array([to_ordinal(c.term, tpy) for c in flat], np.int64)
    owner = np.repeat(np.arange(len(people)), count)
    entrance = np.array([to_ordinal(p[1], tpy) for p in people], np.int64)
    exit_at = np.array([np.iinfo(np.int64).max if p[3] is None else to_ordinal(p[3], tpy) for p in people], np.int64)
    earlier = np.zeros(len(flat), bool)
    earlier[1:] = (owner[1:] == owner[:-1]) & (term[1:] < term[:-1])
    rules = [
        (term < entrance[owner], "course at {term} before entrance {entrance}"),
        (earlier, "courses not sorted by term"),
        (term > exit_at[owner], "course at {term} after exit term {exit}"),
    ]
    for bad, rule in rules:
        if bad.any():
            i = int(bad.argmax())
            sid, entrance_term, _, exit_term, _ = people[owner[i]]
            raise ValueError(f"student {sid}: " + rule.format(term=flat[i].term, entrance=entrance_term, exit=exit_term))
    codes: dict[str, int] = {}
    table = CourseTable(
        count=count,
        term=term,
        failed=np.array([c.result == 0 for c in flat], bool),
        attendance=np.array([c.attendance_pct for c in flat], np.float64),
        score=np.array([c.score for c in flat], np.float64),
    )
    store = _CourseColumns(table, np.array([codes.setdefault(c.course_code, len(codes)) for c in flat], np.int64), list(codes))
    built = tuple(
        StudentStructure(sid, attrs, entrance_term, status, exit_term, range(*span))
        for (sid, entrance_term, status, exit_term, attrs), span in zip(people, store.spans())
    )
    if window is None:
        window = TermRange(from_ordinal(int(entrance.min()), tpy), from_ordinal(int(term.max(initial=entrance.max())) + 1, tpy))
    return Cohort(students=built, range=window, course_columns=store, terms_per_year=tpy)


def _term(t: Term | tuple[int, int] | None) -> Term | None:
    return Term(*t) if isinstance(t, tuple) else t


def rows(c: Cohort, s: StudentStructure) -> list[Row]:
    """s's course rows, read from its cohort's course store."""
    table, store, i = c.course_table, c.course_columns, slice(s.courses.start, s.courses.stop)
    return [
        Row(from_ordinal(o, c.terms_per_year), score, attendance, 0 if failed else 1, store.codes[k])
        for o, score, attendance, failed, k in zip(
            table.term[i].tolist(), table.score[i].tolist(), table.attendance[i].tolist(), table.failed[i].tolist(), store.code[i].tolist()
        )
    ]


def last(c: Cohort, s: StudentStructure) -> Term:
    """The term of s's latest course, or its entrance if it has none."""
    return from_ordinal(int(c.course_table.term[s.courses.stop - 1]), c.terms_per_year) if s.courses else s.entrance


def naive_values(c: Cohort, s: StudentStructure, t: Term, spec):
    """Reference vector values of s as of t: filter the window of its rows,
    then apply sum and len; None when the window is empty. Independent of
    `VectorTable`."""
    window = [row for row in rows(c, s) if row.term < t]
    if not window:
        return None
    aggregates = {
        "completed_terms": float(len({row.term for row in window})),
        "courses_taken": float(len(window)),
        "courses_failed": float(sum(1 for row in window if row.result == 0)),
        "mean_attendance": sum(row.attendance_pct for row in window) / len(window),
        "mean_score": sum(row.score for row in window) / len(window),
        "elapsed_terms": float(term_distance(s.entrance, t, c.terms_per_year)),
    }
    static = dict(s.static_attrs)
    return tuple(static[n] for n in spec.static_names) + tuple(aggregates[n] for n in spec.time_features)


@dataclass(frozen=True)
class FeatureVector:
    """One reference vector: values as of a term, with the student's label."""

    student_id: str
    as_of: Term
    values: tuple[float, ...]
    label: int | None


class UndefinedFeatureVector(Exception):
    """A reference vector that cannot be computed, with the exclusion reason."""

    def __init__(self, student_id: str, reason: str) -> None:
        super().__init__(f"student {student_id}: {reason}")
        self.student_id = student_id
        self.reason = reason


# The population oracle: the reference-term populations as per-object
# filters, in cohort order. Independent of `VectorTable`.


def subset_exited_before(c: Cohort, t: Term) -> list[StudentStructure]:
    """Students who graduated or dropped out strictly before the reference term."""
    check_reference(c, t)
    return [s for s in c.students if s.exited and s.exit_term < t]


def subset_exited_from(c: Cohort, t: Term) -> list[StudentStructure]:
    """Students active at the reference term whose exit falls inside the window."""
    check_reference(c, t)
    return [s for s in c.students if s.exited and t <= s.exit_term <= c.range.hi and s.entrance <= t]


def subset_enrolled(c: Cohort, t: Term) -> list[StudentStructure]:
    """Students still enrolled at the data horizon with entrance at or before t."""
    check_reference(c, t)
    return [s for s in c.students if not s.exited and s.entrance <= t]


def from_arrays(X, y, feature_names: tuple[str, ...] = (), role: str = "train") -> LabeledDataset:
    """Plain arrays as a dataset, for tests that bypass splitting; the rows
    carry placeholder provenance."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rows = tuple((f"r{i}", Term(1, 1)) for i in range(len(y)))
    names = feature_names or tuple(f"f{j}" for j in range(X.shape[1]))
    return LabeledDataset(X=X, y=y, rows=rows, meta=DatasetMeta(role, names, ()))


ALICE = (  # the worked arithmetic example used across the feature tests
    "alice",
    (2012, 1),
    "graduated",
    (2013, 2),
    [
        (2012, 1, 8.0, 90.0, 1, "C1"),
        (2012, 1, 4.0, 70.0, 0, "C2"),
        (2012, 2, 6.0, 80.0, 1, "C3"),
        (2013, 1, 7.0, 85.0, 1, "C4"),
        (2013, 2, 9.0, 95.0, 1, "C5"),
    ],
)


@pytest.fixture
def tiny_cohort() -> Cohort:
    students = [
        ALICE,
        ("bob", (2012, 1), "dropout", (2012, 2), [(2012, 1, 5.0, 60.0, 1), (2012, 2, 2.0, 40.0, 0)]),
        ("carol", (2013, 1), "dropout", (2013, 1), [(2013, 1, 3.0, 50.0, 0)]),
        (
            "dave",
            (2012, 2),
            "enrolled",
            None,
            [(2012, 2, 7.0, 88.0, 1), (2013, 1, 7.5, 90.0, 1), (2013, 2, 8.0, 92.0, 1), (2014, 1, 6.5, 85.0, 1)],
        ),
        (
            "erin",
            (2013, 2),
            "graduated",
            (2015, 2),
            [
                (2013, 2, 9.0, 96.0, 1),
                (2014, 1, 8.5, 94.0, 1),
                (2014, 2, 9.5, 97.0, 1),
                (2015, 1, 8.0, 93.0, 1),
                (2015, 2, 9.0, 95.0, 1),
            ],
        ),
        # Registered exit well after the last recorded activity.
        ("frank", (2014, 1), "dropout", (2015, 1), [(2014, 1, 1.0, 20.0, 0)]),
        # No records at all: inactive, still enrolled.
        ("gina", (2014, 2), "enrolled", None, []),
    ]
    return build_cohort(students, TermRange(Term(2012, 1), Term(2016, 2)), terms_per_year=2)


@pytest.fixture(scope="session")
def medium_synth() -> Cohort:
    cfg = GeneratorConfig(seed=2024, range_start=Term(2009, 1), range_end=Term(2015, 2), intake_per_term=12)
    return generate(cfg).cohort


def ingest_written(cohort: Cohort, directory) -> Cohort:
    """The cohort written to CSV files in `directory` and ingested back."""
    sp, cp = directory / "students.csv", directory / "courses.csv"
    write_students_csv(cohort, sp)
    write_courses_csv(cohort, cp)
    cfg = IngestConfig(range_start=cohort.range.lo, range_end=cohort.range.hi, terms_per_year=cohort.terms_per_year)
    return ingest(sp, cp, cfg).cohort


def reference_truncate(c: Cohort, t: Term) -> Cohort:
    """The cohort keeping only the course rows strictly before t, filtered
    row by row and built anew: the reference for `truncate_records`, which
    masks the cohort's course columns instead."""
    students = [
        (s.student_id, s.entrance, s.status, s.exit_term, [row for row in rows(c, s) if row.term < t], s.static_attrs)
        for s in c.students
    ]
    return build_cohort(students, c.range, c.terms_per_year)
