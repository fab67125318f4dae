from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from dropsplit.records import (
    Cohort,
    CourseRecord,
    EnrollmentStatus,
    IngestConfig,
    StudentStructure,
    check_reference,
    ingest,
)
from dropsplit.splits import DatasetMeta, LabeledDataset
from dropsplit.synthgen import GeneratorConfig, generate, write_courses_csv, write_students_csv
from dropsplit.terms import DEFAULT_TERMS_PER_YEAR, Term, TermRange, term_distance

ATTRS = (("entrance_age", 18.0), ("sex_code", 1.0), ("degree_code", 2.0))


def course(year: int, index: int, score: float, att: float, result: int, code: str = "C0") -> CourseRecord:
    return CourseRecord(course_code=code, term=Term(year, index), score=score, attendance_pct=att, result=result)


def make_student(
    sid: str,
    entrance: tuple[int, int],
    status: str,
    exit_term: tuple[int, int] | None,
    courses: list[CourseRecord],
    attrs: tuple = ATTRS,
) -> StudentStructure:
    return StudentStructure(
        student_id=sid,
        static_attrs=attrs,
        entrance=Term(*entrance),
        status=EnrollmentStatus(status),
        exit_term=Term(*exit_term) if exit_term else None,
        courses=tuple(sorted(courses, key=lambda c: (c.term.year, c.term.index))),
    )


def naive_values(s, t, spec, terms_per_year=DEFAULT_TERMS_PER_YEAR):
    """Reference vector values as of t: filter the window, then apply sum and
    len; None when the window is empty. Independent of `VectorTable`."""
    window = [c for c in s.courses if c.term < t]
    if not window:
        return None
    aggregates = {
        "completed_terms": float(len({c.term for c in window})),
        "courses_taken": float(len(window)),
        "courses_failed": float(sum(1 for c in window if c.result == 0)),
        "mean_attendance": sum(c.attendance_pct for c in window) / len(window),
        "mean_score": sum(c.score for c in window) / len(window),
        "elapsed_terms": float(term_distance(s.entrance, t, terms_per_year)),
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


@pytest.fixture
def alice() -> StudentStructure:
    # Matches the worked arithmetic example used across the feature tests.
    return make_student(
        "alice",
        (2012, 1),
        "graduated",
        (2013, 2),
        [
            course(2012, 1, 8.0, 90.0, 1, "C1"),
            course(2012, 1, 4.0, 70.0, 0, "C2"),
            course(2012, 2, 6.0, 80.0, 1, "C3"),
            course(2013, 1, 7.0, 85.0, 1, "C4"),
            course(2013, 2, 9.0, 95.0, 1, "C5"),
        ],
    )


@pytest.fixture
def tiny_cohort(alice) -> Cohort:
    students = [
        alice,
        make_student(
            "bob",
            (2012, 1),
            "dropout",
            (2012, 2),
            [course(2012, 1, 5.0, 60.0, 1), course(2012, 2, 2.0, 40.0, 0)],
        ),
        make_student("carol", (2013, 1), "dropout", (2013, 1), [course(2013, 1, 3.0, 50.0, 0)]),
        make_student(
            "dave",
            (2012, 2),
            "enrolled",
            None,
            [
                course(2012, 2, 7.0, 88.0, 1),
                course(2013, 1, 7.5, 90.0, 1),
                course(2013, 2, 8.0, 92.0, 1),
                course(2014, 1, 6.5, 85.0, 1),
            ],
        ),
        make_student(
            "erin",
            (2013, 2),
            "graduated",
            (2015, 2),
            [
                course(2013, 2, 9.0, 96.0, 1),
                course(2014, 1, 8.5, 94.0, 1),
                course(2014, 2, 9.5, 97.0, 1),
                course(2015, 1, 8.0, 93.0, 1),
                course(2015, 2, 9.0, 95.0, 1),
            ],
        ),
        # Registered exit well after the last recorded activity.
        make_student("frank", (2014, 1), "dropout", (2015, 1), [course(2014, 1, 1.0, 20.0, 0)]),
        # No records at all: inactive, still enrolled.
        make_student("gina", (2014, 2), "enrolled", None, []),
    ]
    return Cohort(students=tuple(students), range=TermRange(Term(2012, 1), Term(2016, 2)), terms_per_year=2)


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
    """The cohort keeping only the course records strictly before t, filtered
    record by record: the reference for `truncate_records`, which masks the
    cohort's course columns instead."""
    students = tuple(
        StudentStructure(
            student_id=s.student_id,
            static_attrs=s.static_attrs,
            entrance=s.entrance,
            status=s.status,
            exit_term=s.exit_term,
            courses=tuple(rec for rec in s.courses if rec.term < t),
        )
        for s in c.students
    )
    return Cohort(students=students, range=c.range, terms_per_year=c.terms_per_year)


def eager_rebuild(cohort: Cohort) -> Cohort:
    """The same cohort with every student built through the constructor."""
    students = tuple(
        StudentStructure(
            student_id=s.student_id,
            static_attrs=s.static_attrs,
            entrance=s.entrance,
            status=s.status,
            exit_term=s.exit_term,
            courses=tuple(s.courses),
        )
        for s in cohort.students
    )
    return Cohort(students=students, range=cohort.range, terms_per_year=cohort.terms_per_year)
