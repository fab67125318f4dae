"""Ingestion of longitudinal academic records into validated cohorts.

Two CSV files describe a cohort: one row per student (identity, entrance term,
final enrollment status, optional exit term, static attributes) and one row per
course taken. Ingestion normalizes mini-terms onto the main calendar, codes
non-numeric attributes to integers, enforces the structural invariants, and
reports every rejected row with a reason.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterator

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


@dataclass(frozen=True)
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
        for c in self.courses:
            if c.term < self.entrance:
                raise ValueError(f"student {sid}: course at {c.term} before entrance {self.entrance}")
        if any(self.courses[i].term > self.courses[i + 1].term for i in range(len(self.courses) - 1)):
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


@dataclass(frozen=True)
class Cohort:
    """All ingested students whose entrance falls inside the study window."""

    students: tuple[StudentStructure, ...]
    range: TermRange
    terms_per_year: int = DEFAULT_TERMS_PER_YEAR

    _by_id: dict[str, StudentStructure] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
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


def _parse_record_term(text: str, cfg: IngestConfig, row: int) -> Term:
    """Parse a term cell, remapping configured mini-term tags onto main terms."""
    text = text.strip()
    head, dot, tail = text.partition(".")
    if dot and tail in cfg.miniterm_map:
        try:
            year = int(head)
        except ValueError:
            raise IngestError(f"row {row}: malformed term {text!r}") from None
        return Term(year, cfg.miniterm_map[tail])
    try:
        return parse_term(text, cfg.terms_per_year)
    except TermParseError as exc:
        raise IngestError(f"row {row}: {exc}") from None


def _parse_float(text: str, column: str, row: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise IngestError(f"row {row}: column {column!r} has non-numeric value {text!r}") from None


def _code_static_attrs(
    raw: list[dict[str, str]], names: list[str], provided: dict[str, dict[str, int]] | None
) -> tuple[dict[str, dict[str, int]], dict[str, list[float]]]:
    """Turn raw attribute strings into floats, integer-coding non-numeric columns.

    Codes are assigned by sorted unique value so the same data always yields the
    same coding; a provided dictionary must cover every observed value.
    """
    codes: dict[str, dict[str, int]] = {}
    values: dict[str, list[float]] = {name: [] for name in names}
    for name in names:
        column = [r[name].strip() for r in raw]
        try:
            values[name] = [float(v) for v in column]
            continue
        except ValueError:
            pass
        if provided and name in provided:
            mapping = provided[name]
            missing = sorted(set(column) - set(mapping))
            if missing:
                raise IngestError(f"attribute {name!r}: values {missing} absent from coding dictionary")
        else:
            mapping = {v: i for i, v in enumerate(sorted(set(column)))}
        codes[name] = mapping
        values[name] = [float(mapping[v]) for v in column]
    return codes, values


def ingest(students_path: str | Path, courses_path: str | Path, cfg: IngestConfig) -> IngestResult:
    """Read, validate, and normalize the two input CSVs into a Cohort.

    Schema violations abort with the offending row number. Course rows that
    reference unknown or out-of-range students, duplicate an earlier row byte
    for byte, or fall after a student's registered exit are collected into the
    rejects list instead.
    """
    students_path, courses_path = Path(students_path), Path(courses_path)
    with students_path.open(newline="", encoding="utf-8") as fh:
        header, rows = _read_csv(fh, students_path.name, _STUDENT_COLUMNS)
        attr_names = [c for c in header if c not in _STUDENT_COLUMNS]
        student_rows = [dict(zip(header, cells)) for cells in rows]

    attr_codes, attr_values = _code_static_attrs(student_rows, attr_names, cfg.attr_codes)
    window = TermRange(cfg.range_start, cfg.range_end)

    parsed: dict[str, dict] = {}
    dropped = 0
    for i, row in enumerate(student_rows):
        rownum = i + 2  # header is row 1
        sid = row["student_id"].strip()
        if not sid:
            raise IngestError(f"row {rownum}: empty student_id")
        if sid in parsed:
            raise IngestError(f"row {rownum}: duplicate student_id {sid!r}")
        entrance = _parse_record_term(row["entrance_term"], cfg, rownum)
        status_text = row["status"].strip().lower()
        try:
            status = EnrollmentStatus(status_text)
        except ValueError:
            raise IngestError(f"row {rownum}: unknown status {status_text!r}") from None
        exit_text = row["exit_term"].strip()
        if status is EnrollmentStatus.ENROLLED:
            if exit_text:
                raise IngestError(f"row {rownum}: enrolled student {sid} carries exit term {exit_text!r}")
            exit_term = None
        else:
            if not exit_text:
                raise IngestError(f"row {rownum}: student {sid} with status {status.value} lacks an exit term")
            exit_term = _parse_record_term(exit_text, cfg, rownum)
        if entrance not in window:
            dropped += 1
            continue
        parsed[sid] = {
            "entrance": entrance,
            "status": status,
            "exit": exit_term,
            "attrs": tuple((name, attr_values[name][i]) for name in attr_names),
            "courses": [],
        }

    rejects: list[tuple[int, str, str]] = []
    duplicates = 0
    seen_lines: set[tuple[str, ...]] = set()
    with courses_path.open(newline="", encoding="utf-8") as fh:
        header, rows = _read_csv(fh, courses_path.name, _COURSE_COLUMNS)
        for i, cells in enumerate(rows):
            rownum = i + 2
            key = tuple(cells)
            if key in seen_lines:
                duplicates += 1
                continue
            seen_lines.add(key)
            row = dict(zip(header, cells))
            sid = row["student_id"].strip()
            term = _parse_record_term(row["term"], cfg, rownum)
            score = _parse_float(row["score"], "score", rownum)
            attendance = _parse_float(row["attendance_pct"], "attendance_pct", rownum)
            result_text = row["result"].strip()
            if result_text not in ("0", "1"):
                raise IngestError(f"row {rownum}: result must be 0 or 1, got {result_text!r}")
            if not 0.0 <= score <= 10.0:
                raise IngestError(f"row {rownum}: score {score} outside [0, 10]")
            if not 0.0 <= attendance <= 100.0:
                raise IngestError(f"row {rownum}: attendance {attendance} outside [0, 100]")
            entry = parsed.get(sid)
            if entry is None:
                rejects.append((rownum, sid, "unknown_student"))
                continue
            if term < entry["entrance"]:
                raise IngestError(f"row {rownum}: course term {term} before entrance of student {sid}")
            if entry["exit"] is not None and term > entry["exit"]:
                # Registered exit wins over trailing activity; keep the row out.
                rejects.append((rownum, sid, "after_exit"))
                continue
            entry["courses"].append(
                CourseRecord(
                    course_code=row["course_code"].strip(),
                    term=term,
                    score=score,
                    attendance_pct=attendance,
                    result=int(result_text),
                )
            )

    students = []
    for sid in sorted(parsed):
        entry = parsed[sid]
        courses = sorted(entry["courses"], key=lambda c: to_ordinal(c.term, cfg.terms_per_year))
        students.append(
            StudentStructure(
                student_id=sid,
                static_attrs=entry["attrs"],
                entrance=entry["entrance"],
                status=entry["status"],
                exit_term=entry["exit"],
                courses=tuple(courses),
            )
        )
    cohort = Cohort(students=tuple(students), range=window, terms_per_year=cfg.terms_per_year)
    return IngestResult(
        cohort=cohort,
        rejected_courses=rejects,
        dropped_students=dropped,
        duplicate_rows=duplicates,
        attr_codes=attr_codes,
    )
