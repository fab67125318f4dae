"""Ingestion of longitudinal academic records into validated cohorts.

Two CSV files describe a cohort: one row per student (identity, entrance term,
final enrollment status, optional exit term, static attributes) and one row per
course taken. Ingestion normalizes mini-terms onto the main calendar, codes
non-numeric attributes to integers, enforces the structural invariants, and
reports every rejected row with a reason.

A cohort has two views of its course records. `StudentStructure` and
`CourseRecord` objects are the view the API and the tests use; `CourseTable`
holds the same records as arrays, the view the feature table reads. Ingest
reads each cell once, parses each distinct term, number and course code text
once (records that repeat one share its object), and builds both views in one
pass. `synthgen.generate` builds both views too. A cohort built from objects
(truncated, or put together by hand) derives its table from them on first use.
"""

from __future__ import annotations

import csv
import gc
import math
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .terms import (
    DEFAULT_TERMS_PER_YEAR,
    Term,
    TermParseError,
    TermRange,
    parse_term,
    to_ordinal,
)


class IngestError(ValueError):
    """Input file violates the schema or a structural invariant."""


class ReferenceTermError(ValueError):
    """A reference term falls outside the cohort's term range."""


class EnrollmentStatus(Enum):
    GRADUATED = "graduated"
    DROPOUT = "dropout"
    ENROLLED = "enrolled"


@dataclass(frozen=True, slots=True)  # one per course row: slots keep each small
class CourseRecord:
    course_code: str
    term: Term
    score: float
    attendance_pct: float
    result: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 10.0:
            raise ValueError(f"score {self.score} outside [0, 10]")
        if not 0.0 <= self.attendance_pct <= 100.0:
            raise ValueError(f"attendance {self.attendance_pct} outside [0, 100]")
        if self.result not in (0, 1):
            raise ValueError(f"result must be 0 or 1, got {self.result}")


@dataclass(frozen=True)
class StudentStructure:
    """One student's static attributes, status, and course history.

    Courses are sorted by term. ``last`` is the latest term with any course
    record, falling back to the entrance term for students with no records
    (those carry no computable time-based features and are flagged inactive).
    """

    student_id: str
    static_attrs: tuple[tuple[str, float], ...]
    entrance: Term
    status: EnrollmentStatus
    exit_term: Term | None
    courses: tuple[CourseRecord, ...]

    def __post_init__(self) -> None:
        sid = self.student_id
        # Terms order as (year, index); comparing those tuples keeps these
        # checks cheap on long histories.
        keys = [(c.term.year, c.term.index) for c in self.courses]
        if keys and min(keys) < (self.entrance.year, self.entrance.index):
            early = next(c.term for c in self.courses if c.term < self.entrance)
            raise ValueError(f"student {sid}: course at {early} before entrance {self.entrance}")
        if keys != sorted(keys):
            raise ValueError(f"student {sid}: courses not sorted by term")
        if self.status is EnrollmentStatus.ENROLLED:
            if self.exit_term is not None:
                raise ValueError(f"student {sid}: enrolled students cannot carry an exit term")
        else:
            if self.exit_term is None:
                raise ValueError(f"student {sid}: status {self.status.value} requires an exit term")
            if self.exit_term < self.entrance:
                raise ValueError(f"student {sid}: exit {self.exit_term} before entrance {self.entrance}")
            if self.last > self.exit_term:
                raise ValueError(f"student {sid}: course records after exit term {self.exit_term}")

    @property
    def last(self) -> Term:
        return self.courses[-1].term if self.courses else self.entrance

    @property
    def inactive(self) -> bool:
        return not self.courses

    @property
    def exited(self) -> bool:
        return self.status is not EnrollmentStatus.ENROLLED


class CourseTable(NamedTuple):
    """A cohort's course records as columns.

    count has one entry per student, in cohort order. The other columns have
    one entry per course: each student's courses are contiguous, in cohort
    order, and in the order of the student's `courses`.
    """

    count: np.ndarray  # courses per student
    term: np.ndarray  # term ordinal
    failed: np.ndarray  # result == 0
    attendance: np.ndarray
    score: np.ndarray

    @staticmethod
    def of(students: tuple[StudentStructure, ...], terms_per_year: int) -> "CourseTable":
        """The table of the students' course records, read from the objects."""
        courses = [c for s in students for c in s.courses]
        n = len(courses)
        index = np.fromiter((c.term.index for c in courses), np.int64, n)
        if n and index.max() > terms_per_year:
            to_ordinal(courses[int(np.argmax(index > terms_per_year))].term, terms_per_year)  # raises, naming the term
        return CourseTable(
            count=np.fromiter((len(s.courses) for s in students), np.int64, len(students)),
            term=np.fromiter((c.term.year for c in courses), np.int64, n) * terms_per_year + index - 1,
            failed=np.fromiter((c.result == 0 for c in courses), bool, n),
            attendance=np.fromiter((c.attendance_pct for c in courses), np.float64, n),
            score=np.fromiter((c.score for c in courses), np.float64, n),
        )


@dataclass(frozen=True)
class Cohort:
    """All ingested students whose entrance falls inside the study window.

    `course_table` is the students' course records as columns. A caller that
    built them already passes them as `table` (ingest does); otherwise they
    are derived from the students on first use.
    """

    students: tuple[StudentStructure, ...]
    range: TermRange
    terms_per_year: int = DEFAULT_TERMS_PER_YEAR
    table: InitVar[CourseTable | None] = None

    _by_id: dict[str, StudentStructure] = field(init=False, repr=False, compare=False)

    def __post_init__(self, table: CourseTable | None) -> None:
        by_id: dict[str, StudentStructure] = {}
        names: tuple[str, ...] | None = None
        for s in self.students:
            if s.student_id in by_id:
                raise ValueError(f"duplicate student id {s.student_id}")
            by_id[s.student_id] = s
            if s.entrance not in self.range:
                raise ValueError(
                    f"student {s.student_id}: entrance {s.entrance} outside {self.range.lo}..{self.range.hi}"
                )
            attr_names = tuple(name for name, _ in s.static_attrs)
            if names is None:
                names = attr_names
            elif attr_names != names:
                raise ValueError(f"student {s.student_id}: static attribute names differ across cohort")
        ids = [s.student_id for s in self.students]
        if ids != sorted(ids):
            raise ValueError("cohort students must be sorted by student id")
        object.__setattr__(self, "_by_id", by_id)
        if table is not None:
            object.__setattr__(self, "course_table", table)

    @cached_property
    def course_table(self) -> CourseTable:
        return CourseTable.of(self.students, self.terms_per_year)

    @property
    def static_attr_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.students[0].static_attrs) if self.students else ()

    def student(self, student_id: str) -> StudentStructure:
        return self._by_id[student_id]


def check_reference(c: Cohort, t: Term) -> None:
    if t not in c.range:
        raise ReferenceTermError(f"reference term {t} outside cohort range {c.range.lo}..{c.range.hi}")


def subset_exited_before(c: Cohort, t: Term) -> list[StudentStructure]:
    """Students who graduated or dropped out strictly before the reference term."""
    check_reference(c, t)
    return [s for s in c.students if s.exited and s.exit_term < t]


def subset_exited_from(c: Cohort, t: Term) -> list[StudentStructure]:
    """Students active at the reference term whose exit falls inside the window."""
    check_reference(c, t)
    return [
        s
        for s in c.students
        if s.exited and t <= s.exit_term <= c.range.hi and s.entrance <= t
    ]


def subset_enrolled(c: Cohort, t: Term) -> list[StudentStructure]:
    """Students still enrolled at the data horizon with entrance at or before t."""
    check_reference(c, t)
    return [s for s in c.students if not s.exited and s.entrance <= t]


def truncate_records(c: Cohort, t: Term) -> Cohort:
    """Copy of the cohort keeping only course records strictly before t.

    Statuses and exit terms are untouched; this is the audit tool for checking
    that a test row uses no information recorded at or after the reference term.
    """
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


@dataclass
class IngestConfig:
    """Calendar and normalization settings for one ingestion run."""

    range_start: Term
    range_end: Term
    terms_per_year: int = DEFAULT_TERMS_PER_YEAR
    miniterm_map: dict[str, int] = field(default_factory=dict)
    attr_codes: dict[str, dict[str, int]] | None = None


@dataclass
class IngestResult:
    """Validated cohort plus the bookkeeping needed for the run manifest."""

    cohort: Cohort
    rejected_courses: list[tuple[int, str, str]]  # (row number, student id, reason)
    dropped_students: int
    duplicate_rows: int
    attr_codes: dict[str, dict[str, int]]


_STUDENT_COLUMNS = ("student_id", "entrance_term", "status", "exit_term")
_COURSE_COLUMNS = ("student_id", "course_code", "term", "score", "attendance_pct", "result")


def _read_csv(fh, name: str, required: tuple[str, ...]) -> tuple[list[str], Iterator[list[str]]]:
    """The header and the data rows of a CSV file, blank lines skipped.

    Every data row must have one cell per header column; the first that does
    not raises, naming the file and its row (the header is row 1).
    """
    reader = csv.reader(fh)
    header = next(reader, [])
    missing = [c for c in required if c not in header]
    if missing:
        raise IngestError(f"{name}: missing columns {missing}")

    def rows() -> Iterator[list[str]]:
        for rownum, cells in enumerate((cells for cells in reader if cells), start=2):
            if len(cells) != len(header):
                raise IngestError(f"{name}: row {rownum}: {len(cells)} cells, the header has {len(header)}")
            yield cells

    return header, rows()


class _TermCells:
    """Term cells as (term, ordinal) pairs, each distinct text parsed once.

    Mini-term tags map onto main terms; a malformed cell raises `IngestError`
    naming its row.
    """

    def __init__(self, cfg: IngestConfig) -> None:
        self.cfg = cfg
        self.parsed: dict[str, tuple[Term, int]] = {}

    def __call__(self, text: str, row: int) -> tuple[Term, int]:
        hit = self.parsed.get(text)
        if hit is None:
            tpy = self.cfg.terms_per_year
            try:
                term = parse_term(text.strip(), tpy, self.cfg.miniterm_map)
            except TermParseError as exc:
                raise IngestError(f"row {row}: {exc}") from None
            hit = self.parsed[text] = (term, to_ordinal(term, tpy))
        return hit


def _column_index(header: list[str]) -> dict[str, int]:
    """Column name -> position; a repeated name means its last column."""
    return {name: j for j, name in enumerate(header)}


def _code_static_attrs(
    rows: list[list[str]],
    column: dict[str, int],
    names: list[str],
    provided: dict[str, dict[str, int]] | None,
    file: str,
) -> tuple[dict[str, dict[str, int]], dict[str, list[float]]]:
    """Turn raw attribute strings into floats, integer-coding non-numeric columns.

    Codes are assigned by sorted unique value so the same data always yields the
    same coding; a provided dictionary must cover every observed value. A
    numeric column must be finite: a nan or inf there raises, naming the row.
    """
    codes: dict[str, dict[str, int]] = {}
    values: dict[str, list[float]] = {}
    for name in names:
        j = column[name]
        text = [cells[j].strip() for cells in rows]
        try:
            numbers = [float(v) for v in text]
        except ValueError:
            pass
        else:
            if not all(map(math.isfinite, numbers)):
                i = next(i for i, v in enumerate(numbers) if not math.isfinite(v))
                raise IngestError(f"{file}: row {i + 2}: column {name!r} has non-finite value {text[i]!r}")
            values[name] = numbers
            continue
        if provided and name in provided:
            mapping = provided[name]
            missing = sorted(set(text) - set(mapping))
            if missing:
                i = next(i for i, v in enumerate(text) if v not in mapping)
                raise IngestError(
                    f"{file}: row {i + 2}: attribute {name!r}: values {missing} absent from coding dictionary"
                )
        else:
            mapping = {v: i for i, v in enumerate(sorted(set(text)))}
        codes[name] = mapping
        values[name] = [float(mapping[v]) for v in text]
    return codes, values


_RESULTS = {"0": 0, "1": 1}


class _Memo(dict):
    """``memo[key]`` is ``make(key)``, made once per distinct key."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Hold off the cyclic garbage collector while a cohort's records are built.

    Allocating containers starts a collection every few hundred objects, and
    the older generations' passes walk every record built so far, yet records
    form no reference cycles, so those passes free nothing. The collector
    resumes, if it was on, when the builder (`ingest`, `synthgen.generate`)
    returns or raises.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@_collector_paused()
def ingest(students_path: str | Path, courses_path: str | Path, cfg: IngestConfig) -> IngestResult:
    """Read, validate, and normalize the two input CSVs into a Cohort.

    Schema violations abort with the offending row number. Course rows that
    reference unknown or out-of-range students, duplicate an earlier row byte
    for byte, or fall after a student's registered exit are collected into the
    rejects list instead. Each student's courses are kept in (term, file row)
    order, in the objects and in the cohort's `CourseTable` alike.
    """
    students_path, courses_path = Path(students_path), Path(courses_path)
    with students_path.open(newline="", encoding="utf-8") as fh:
        header, rows = _read_csv(fh, students_path.name, _STUDENT_COLUMNS)
        student_rows = list(rows)
    column = _column_index(header)
    attr_names = [c for c in header if c not in _STUDENT_COLUMNS]
    attr_codes, attr_values = _code_static_attrs(student_rows, column, attr_names, cfg.attr_codes, students_path.name)
    attr_columns = [attr_values[name] for name in attr_names]
    window = TermRange(cfg.range_start, cfg.range_end)
    term_cell = _TermCells(cfg)

    # sid -> (row number, (entrance, ordinal), status, (exit, ordinal) or None, attributes)
    parsed: dict[str, tuple] = {}
    dropped = 0
    for i, cells in enumerate(student_rows):
        rownum = i + 2  # header is row 1
        sid = cells[column["student_id"]].strip()
        if not sid:
            raise IngestError(f"row {rownum}: empty student_id")
        if sid in parsed:
            raise IngestError(f"row {rownum}: duplicate student_id {sid!r}")
        entrance = term_cell(cells[column["entrance_term"]], rownum)
        status_text = cells[column["status"]].strip().lower()
        try:
            status = EnrollmentStatus(status_text)
        except ValueError:
            raise IngestError(f"row {rownum}: unknown status {status_text!r}") from None
        exit_text = cells[column["exit_term"]].strip()
        if status is EnrollmentStatus.ENROLLED:
            if exit_text:
                raise IngestError(f"row {rownum}: enrolled student {sid} carries exit term {exit_text!r}")
            exit_term = None
        else:
            if not exit_text:
                raise IngestError(f"row {rownum}: student {sid} with status {status.value} lacks an exit term")
            exit_term = term_cell(exit_text, rownum)
        if entrance[0] not in window:
            dropped += 1
            continue
        attrs = tuple(zip(attr_names, (values[i] for values in attr_columns)))
        parsed[sid] = (rownum, entrance, status, exit_term, attrs)

    ids = sorted(parsed)  # cohort order
    position = {sid: k for k, sid in enumerate(ids)}
    entrance_of = [parsed[sid][1][1] for sid in ids]
    exit_of = [math.inf if parsed[sid][3] is None else parsed[sid][3][1] for sid in ids]

    rejects: list[tuple[int, str, str]] = []
    duplicates = 0
    # Each distinct score, attendance or course code text is parsed once, and
    # the records that hold it share one object: a course file repeats a few
    # thousand numbers and codes across all its rows.
    numbers, codes = _Memo(float), _Memo(str.strip)
    seen_lines: set[str | tuple[str, ...]] = set()
    # One entry per kept course, in file order.
    records: list[CourseRecord] = []
    owner: list[int] = []
    ordinal: list[int] = []
    results: list[int] = []
    attendances: list[float] = []
    scores: list[float] = []
    with courses_path.open(newline="", encoding="utf-8") as fh:
        header, rows = _read_csv(fh, courses_path.name, _COURSE_COLUMNS)
        column = _column_index(header)
        c_sid, c_code, c_term = column["student_id"], column["course_code"], column["term"]
        c_score, c_attendance, c_result = column["score"], column["attendance_pct"], column["result"]
        for rownum, cells in enumerate(rows, start=2):
            # The joined line holds under a third of the memory of the tuple
            # of its cells. It stands for the row only when no cell holds a
            # NUL; other rows keep their tuple, which never equals a string.
            key = "\x00".join(cells)
            if key.count("\x00") != len(cells) - 1:
                key = tuple(cells)
            if key in seen_lines:
                duplicates += 1
                continue
            seen_lines.add(key)
            sid = cells[c_sid].strip()
            term, o = term_cell(cells[c_term], rownum)
            try:
                score = numbers[cells[c_score]]
            except ValueError:
                raise IngestError(f"row {rownum}: column 'score' has non-numeric value {cells[c_score]!r}") from None
            try:
                attendance = numbers[cells[c_attendance]]
            except ValueError:
                raise IngestError(
                    f"row {rownum}: column 'attendance_pct' has non-numeric value {cells[c_attendance]!r}"
                ) from None
            result = _RESULTS.get(cells[c_result].strip())
            if result is None:
                raise IngestError(f"row {rownum}: result must be 0 or 1, got {cells[c_result].strip()!r}")
            try:  # the record checks the score and attendance ranges
                record = CourseRecord(codes[cells[c_code]], term, score, attendance, result)
            except ValueError as exc:
                raise IngestError(f"row {rownum}: {exc}") from None
            k = position.get(sid)
            if k is None:
                rejects.append((rownum, sid, "unknown_student"))
                continue
            if o < entrance_of[k]:
                raise IngestError(f"row {rownum}: course term {term} before entrance of student {sid}")
            if o > exit_of[k]:
                # Registered exit wins over trailing activity; keep the row out.
                rejects.append((rownum, sid, "after_exit"))
                continue
            records.append(record)
            owner.append(k)
            ordinal.append(o)
            results.append(result)
            attendances.append(attendance)
            scores.append(score)
    del seen_lines

    student, terms = np.array(owner, dtype=np.int64), np.array(ordinal, dtype=np.int64)
    # Cohort order, then term order; lexsort is stable, so file order within a term.
    order = np.lexsort((terms, student))
    table = CourseTable(
        count=np.bincount(student, minlength=len(ids)),
        term=terms[order],
        failed=(np.array(results, dtype=np.int64) == 0)[order],
        attendance=np.array(attendances, dtype=np.float64)[order],
        score=np.array(scores, dtype=np.float64)[order],
    )
    records = [records[r] for r in order.tolist()]
    students = []
    ends = np.cumsum(table.count).tolist()
    for sid, start, end in zip(ids, [0] + ends[:-1], ends):
        rownum, (entrance, _), status, exit_term, attrs = parsed[sid]
        try:
            students.append(
                StudentStructure(
                    student_id=sid,
                    static_attrs=attrs,
                    entrance=entrance,
                    status=status,
                    exit_term=None if exit_term is None else exit_term[0],
                    courses=tuple(records[start:end]),
                )
            )
        except ValueError as exc:
            raise IngestError(f"row {rownum}: {exc}") from None
    cohort = Cohort(students=tuple(students), range=window, terms_per_year=cfg.terms_per_year, table=table)
    return IngestResult(
        cohort=cohort,
        rejected_courses=rejects,
        dropped_students=dropped,
        duplicate_rows=duplicates,
        attr_codes=attr_codes,
    )
