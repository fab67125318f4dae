"""Ingestion of longitudinal academic records into validated cohorts.

Two CSV files describe a cohort: one row per student (identity, entrance term,
final enrollment status, optional exit term, static attributes) and one row per
course taken. Ingestion normalizes mini-terms onto the main calendar, codes
non-numeric attributes to integers, enforces the structural invariants, and
reports every rejected row with a reason.

A cohort keeps its course records in one store, `_CourseColumns`: a
`CourseTable` of arrays, which the feature table, the splits and the final
stage read, plus each course's code as an index into the distinct code texts.
`StudentStructure` and `CourseRecord` objects are a view of that store, made
on read: `ingest`, `synthgen.generate` and `truncate_records` build only the
columns, and a student makes its `courses` from its span of them the first
time they are read, and keeps them. Records made so share one object per
distinct code, term and number. A cohort put together by hand from objects
derives its store from them on first use.
"""

from __future__ import annotations

import csv
import gc
import math
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, field, fields
from enum import Enum
from functools import cached_property, partial
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .terms import (
    DEFAULT_TERMS_PER_YEAR,
    Term,
    TermParseError,
    TermRange,
    from_ordinal,
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

    A student of an ingested, generated or truncated cohort makes its
    ``courses`` from the cohort's course columns on first read
    (`_CoursesOnFirstRead`). It compares, prints, hashes, copies and pickles
    as one built with the same records.
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
        self._check_exit()
        if self.exited and self.last > self.exit_term:
            raise ValueError(f"student {sid}: course records after exit term {self.exit_term}")

    def _check_exit(self) -> None:
        """The checks that read no course: status against exit term, and exit
        before entrance."""
        sid = self.student_id
        if self.status is EnrollmentStatus.ENROLLED:
            if self.exit_term is not None:
                raise ValueError(f"student {sid}: enrolled students cannot carry an exit term")
        else:
            if self.exit_term is None:
                raise ValueError(f"student {sid}: status {self.status.value} requires an exit term")
            if self.exit_term < self.entrance:
                raise ValueError(f"student {sid}: exit {self.exit_term} before entrance {self.entrance}")

    @classmethod
    def _on_demand(cls, columns: _CourseColumns, start: int, end: int, **attrs) -> StudentStructure:
        """A student whose `courses` are rows [start, end) of `columns`, made
        into records on first read.

        The caller vouches for the course checks of `__post_init__` (sorted by
        term, none before entrance or after exit); the others run here.
        """
        s = cls.__new__(cls)
        s.__dict__.update(attrs, _columns=(columns, start, end))
        s._check_exit()
        return s

    def __getstate__(self) -> dict:
        # Copies and pickles carry the records, not the cohort's columns.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def last(self) -> Term:
        return self.courses[-1].term if self.courses else self.entrance

    @property
    def inactive(self) -> bool:
        return not self.courses

    @property
    def exited(self) -> bool:
        return self.status is not EnrollmentStatus.ENROLLED


class _CoursesOnFirstRead:
    """`StudentStructure.courses` of a student made by `_on_demand`: made from
    its span of the cohort's columns on first read, then kept in the instance.

    A non-data descriptor: a student holding its `courses` (built through
    `__init__`, or read once) answers from its own `__dict__`.
    """

    def __get__(self, s: StudentStructure | None, owner: type | None = None):
        if s is None:
            return self
        try:
            columns, start, end = s.__dict__.pop("_columns")
        except KeyError:
            raise AttributeError(f"{type(s).__name__!r} object has no attribute 'courses'") from None
        courses = s.__dict__["courses"] = columns.records(start, end)
        return courses


# Set after the class is made, so the dataclass sees no default for `courses`.
StudentStructure.courses = _CoursesOnFirstRead()


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


class _CourseColumns:
    """A cohort's course records as columns, the one store of them: its
    `CourseTable`, plus each course's code as an index into the distinct code
    texts `codes`.

    `records(start, end)` makes rows [start, end) into `CourseRecord`s. Records
    made from one store share one object per distinct code, term ordinal and
    number: numbers are keyed by their bits, so -0.0 and 0.0 stay apart.
    """

    def __init__(self, table: CourseTable, code: np.ndarray, codes: list[str], terms_per_year: int) -> None:
        self.table, self.code, self.codes = table, code, codes
        self.terms = _Memo(partial(from_ordinal, terms_per_year=terms_per_year))  # a partial pickles
        self.numbers: dict[int, float] = {}

    @classmethod
    def of(cls, students: tuple[StudentStructure, ...], terms_per_year: int) -> _CourseColumns:
        """The store of the students' course records, read from the objects."""
        courses = [c for s in students for c in s.courses]
        n = len(courses)
        index = np.fromiter((c.term.index for c in courses), np.int64, n)
        if n and index.max() > terms_per_year:
            to_ordinal(courses[int(np.argmax(index > terms_per_year))].term, terms_per_year)  # raises, naming the term
        code_index: dict[str, int] = {}
        table = CourseTable(
            count=np.fromiter((len(s.courses) for s in students), np.int64, len(students)),
            term=np.fromiter((c.term.year for c in courses), np.int64, n) * terms_per_year + index - 1,
            failed=np.fromiter((c.result == 0 for c in courses), bool, n),
            attendance=np.fromiter((c.attendance_pct for c in courses), np.float64, n),
            score=np.fromiter((c.score for c in courses), np.float64, n),
        )
        code = np.fromiter((code_index.setdefault(c.course_code, len(code_index)) for c in courses), np.int64, n)
        return cls(table, code, list(code_index), terms_per_year)

    def spans(self) -> Iterator[tuple[int, int]]:
        """Each student's rows, as (start, end), in cohort order."""
        ends = np.cumsum(self.table.count).tolist()
        return zip([0, *ends], ends)

    def records(self, start: int, end: int) -> tuple[CourseRecord, ...]:
        table, codes, terms, numbers = self.table, self.codes, self.terms, self.numbers

        def shared(column: np.ndarray) -> list[float]:
            part = column[start:end]
            return [numbers.setdefault(b, v) for b, v in zip(part.view(np.int64).tolist(), part.tolist())]

        return tuple(
            map(
                CourseRecord,
                [codes[k] for k in self.code[start:end].tolist()],
                [terms[o] for o in table.term[start:end].tolist()],
                shared(table.score),
                shared(table.attendance),
                (~table.failed[start:end]).view(np.uint8).tolist(),
            )
        )


@dataclass(frozen=True)
class Cohort:
    """All ingested students whose entrance falls inside the study window.

    `course_columns` is the store of the students' course records, and
    `course_table` its table. A caller whose students read their records from
    a store passes it as `columns` (ingest, `synthgen.generate` and
    `truncate_records` do); otherwise it is derived from the students' records
    on first use. `vector_tables` keeps the cohort's feature tables.
    """

    students: tuple[StudentStructure, ...]
    range: TermRange
    terms_per_year: int = DEFAULT_TERMS_PER_YEAR
    columns: InitVar[_CourseColumns | None] = None

    _by_id: dict[str, StudentStructure] = field(init=False, repr=False, compare=False)

    def __post_init__(self, columns: _CourseColumns | None) -> None:
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
        if columns is not None:
            object.__setattr__(self, "course_columns", columns)

    @cached_property
    def course_columns(self) -> _CourseColumns:
        return _CourseColumns.of(self.students, self.terms_per_year)

    @property
    def course_table(self) -> CourseTable:
        return self.course_columns.table

    @cached_property
    def vector_tables(self) -> VectorCache:
        """The cohort's `features.VectorTable`s by feature set, each built by
        `features.vector_table` on first use."""
        from .features import VectorCache  # features imports this module

        return VectorCache()

    @property
    def static_attr_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.students[0].static_attrs) if self.students else ()

    def student(self, student_id: str) -> StudentStructure:
        return self._by_id[student_id]


def check_reference(c: Cohort, t: Term) -> None:
    if t not in c.range:
        raise ReferenceTermError(f"reference term {t} outside cohort range {c.range.lo}..{c.range.hi}")


def truncate_records(c: Cohort, t: Term) -> Cohort:
    """Copy of the cohort keeping only course records strictly before t.

    Statuses and exit terms are untouched; this is the audit tool for checking
    that a test row uses no information recorded at or after the reference term.
    A mask over the cohort's course columns picks the rows kept, and the copy's
    students make their records from them on first read.
    """
    columns, n = c.course_columns, len(c.students)
    table = columns.table
    keep = table.term < to_ordinal(t, c.terms_per_year)
    count = np.bincount(np.repeat(np.arange(n), table.count)[keep], minlength=n)
    kept = _CourseColumns(
        CourseTable(count, *(column[keep] for column in table[1:])), columns.code[keep], columns.codes, c.terms_per_year
    )
    plain = [f.name for f in fields(StudentStructure) if f.name != "courses"]
    students = tuple(
        StudentStructure._on_demand(kept, start, end, **{name: getattr(s, name) for name in plain})
        for s, (start, end) in zip(c.students, kept.spans())
    )
    return Cohort(students=students, range=c.range, terms_per_year=c.terms_per_year, columns=kept)


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
            numbers = [_number(v) for v in text]
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


def _number(text: str) -> float:
    """`float(text)`, but only for ASCII text without `_`: `1_0` and non-ASCII
    digits raise `ValueError`, while `nan`, `inf`, exponents and blanks stay."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not a number: {text!r}")
    return float(text)


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
    """Hold off the cyclic garbage collector while `ingest` builds a cohort.

    Allocating containers starts a collection every few hundred objects, and
    the older generations' passes walk every object built so far, yet the
    rows and students form no reference cycles, so those passes free
    nothing; `ingest` makes a few objects per course row. `synthgen.generate`
    keeps courses as columns and makes only a few objects per student, and
    runs without the pause, which did not pay there. The collector resumes,
    if it was on, when `ingest` returns or raises.
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
    order in the cohort's `CourseTable`, and made into records in that order
    when first read.
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

    # Freed before the courses file is read, so that its rows reuse the memory;
    # on the README cohort, about 4 MB less stays resident after ingest.
    del student_rows
    ids = sorted(parsed)  # cohort order
    position = {sid: k for k, sid in enumerate(ids)}
    entrance_of = [parsed[sid][1][1] for sid in ids]
    exit_of = [math.inf if parsed[sid][3] is None else parsed[sid][3][1] for sid in ids]

    rejects: list[tuple[int, str, str]] = []
    duplicates = 0
    # Each distinct score, attendance or course code text is parsed once: a
    # course file repeats a few thousand numbers and codes across all its rows.
    # A code is kept as its index among the distinct stripped codes.
    numbers, code_index = _Memo(_number), {}
    code_ids = _Memo(lambda text: code_index.setdefault(text.strip(), len(code_index)))
    seen_lines: set[str | tuple[str, ...]] = set()
    # One entry per kept course, in file order.
    owner: list[int] = []
    code: list[int] = []
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
            if not 0.0 <= score <= 10.0:
                raise IngestError(f"row {rownum}: score {score} outside [0, 10]")
            if not 0.0 <= attendance <= 100.0:
                raise IngestError(f"row {rownum}: attendance {attendance} outside [0, 100]")
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
            owner.append(k)
            code.append(code_ids[cells[c_code]])
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
    columns = _CourseColumns(table, np.array(code, dtype=np.int64)[order], list(code_index), cfg.terms_per_year)
    students = []
    for sid, (start, end) in zip(ids, columns.spans()):
        rownum, (entrance, _), status, exit_term, attrs = parsed[sid]
        try:
            students.append(
                StudentStructure._on_demand(
                    columns,
                    start,
                    end,
                    student_id=sid,
                    static_attrs=attrs,
                    entrance=entrance,
                    status=status,
                    exit_term=None if exit_term is None else exit_term[0],
                )
            )
        except ValueError as exc:
            raise IngestError(f"row {rownum}: {exc}") from None
    cohort = Cohort(students=tuple(students), range=window, terms_per_year=cfg.terms_per_year, columns=columns)
    return IngestResult(
        cohort=cohort,
        rejected_courses=rejects,
        dropped_students=dropped,
        duplicate_rows=duplicates,
        attr_codes=attr_codes,
    )
