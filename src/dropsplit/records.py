"""Ingestion of longitudinal academic records into validated cohorts.

Two CSV files describe a cohort: one row per student (identity, entrance term,
final enrollment status, optional exit term, static attributes) and one row per
course taken. Ingestion normalizes mini-terms onto the main calendar, codes
non-numeric attributes to integers, enforces the structural invariants, and
reports every rejected row with a reason.

The courses file is read by columns, a bounded block of lines at a time.
Cells are read as `csv.reader` reads them, quoting and CRLF line ends
included. Each column's cell texts become int32 ids through one dict per
column, so each distinct text is parsed and checked once, and every row check
is a mask over the ids. A course row whose ids, and so whose cells, equal an
earlier row's is a duplicate and is dropped.

A cohort keeps its course records in one store, `_CourseColumns`: a
`CourseTable` of arrays, which the feature table, the splits and the final
stage read, plus each course's code as an index into the distinct code texts.
A `StudentStructure` holds a student's identity, attributes, status and terms,
and as `courses` the range of the student's rows in that store. `ingest`,
`synthgen.generate` and `truncate_records` build the store first, then the
students from its spans.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import chain, islice
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


@dataclass(frozen=True)
class StudentStructure:
    """One student's static attributes, status, and course rows.

    ``courses`` is the range of the student's rows in the cohort's course
    store (`Cohort.course_columns`). Whoever builds the store vouches that a
    student's rows are sorted by term, none before the entrance or after the
    exit term; the checks here read no course.
    """

    student_id: str
    static_attrs: tuple[tuple[str, float], ...]
    entrance: Term
    status: EnrollmentStatus
    exit_term: Term | None
    courses: range

    def __post_init__(self) -> None:
        sid = self.student_id
        if self.status is EnrollmentStatus.ENROLLED:
            if self.exit_term is not None:
                raise ValueError(f"student {sid}: enrolled students cannot carry an exit term")
        else:
            if self.exit_term is None:
                raise ValueError(f"student {sid}: status {self.status.value} requires an exit term")
            if self.exit_term < self.entrance:
                raise ValueError(f"student {sid}: exit {self.exit_term} before entrance {self.entrance}")

    @property
    def exited(self) -> bool:
        return self.status is not EnrollmentStatus.ENROLLED


class CourseTable(NamedTuple):
    """A cohort's course records as columns.

    count has one entry per student, in cohort order. The other columns have
    one entry per course: each student's courses are contiguous, in cohort
    order, and a student's `courses` is the range of them.
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

    Two stores are equal when their table columns are, dtype and bytes (so
    -0.0 and 0.0 differ), and so are their rows' code texts.
    """

    def __init__(self, table: CourseTable, code: np.ndarray, codes: list[str]) -> None:
        self.table, self.code, self.codes = table, code, codes

    def spans(self) -> Iterator[tuple[int, int]]:
        """Each student's rows, as (start, end), in cohort order."""
        ends = np.cumsum(self.table.count).tolist()
        return zip([0, *ends], ends)

    def _code_texts(self) -> list[str]:
        return [self.codes[k] for k in self.code.tolist()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _CourseColumns):
            return NotImplemented
        same = (a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(self.table, other.table))
        return all(same) and self._code_texts() == other._code_texts()

    def __repr__(self) -> str:
        columns = (f"{name}={column.dtype}{column.tolist()}" for name, column in self.table._asdict().items())
        return f"_CourseColumns({', '.join(columns)}, code={self._code_texts()})"


@dataclass(frozen=True)
class Cohort:
    """All ingested students whose entrance falls inside the study window.

    `course_columns` is the one store of the students' course records, and
    `course_table` its table; each student's `courses` are its span of rows
    there. `vector_tables` keeps the cohort's feature tables.
    """

    students: tuple[StudentStructure, ...]
    range: TermRange
    course_columns: _CourseColumns
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
        if [s.courses for s in self.students] != [range(*span) for span in self.course_columns.spans()]:
            raise ValueError("students' courses must be their spans of the course store, in cohort order")
        object.__setattr__(self, "_by_id", by_id)

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
    A mask over the cohort's course columns picks the rows kept.
    """
    columns, n = c.course_columns, len(c.students)
    table = columns.table
    keep = table.term < to_ordinal(t, c.terms_per_year)
    count = np.bincount(np.repeat(np.arange(n), table.count)[keep], minlength=n)
    kept = _CourseColumns(CourseTable(count, *(column[keep] for column in table[1:])), columns.code[keep], columns.codes)
    students = tuple(replace(s, courses=range(*span)) for s, span in zip(c.students, kept.spans()))
    return Cohort(students=students, range=c.range, course_columns=kept, terms_per_year=c.terms_per_year)


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

    Every data row must have one cell per header column, and `csv.reader`
    must read every row; the first row that fails raises, naming the file and
    its row (the header is row 1).
    """
    errors: list[str] = []
    reader = _csv_rows(fh, errors)
    header = next(reader, [])
    if errors:
        raise IngestError(f"{name}: row 1: {errors[0]}")
    missing = [c for c in required if c not in header]
    if missing:
        raise IngestError(f"{name}: missing columns {missing}")

    def rows() -> Iterator[list[str]]:
        rownum = 1
        for rownum, cells in enumerate((cells for cells in reader if cells), start=2):
            if len(cells) != len(header):
                raise IngestError(f"{name}: row {rownum}: {len(cells)} cells, the header has {len(header)}")
            yield cells
        if errors:
            raise IngestError(f"{name}: row {rownum + 1}: {errors[0]}")

    return header, rows()


class _TermCells(dict):
    """Term cell text -> (term, ordinal), or the text of its parse error; each
    distinct text is parsed once. Mini-term tags map onto main terms.

    Called with a row number, a cell's (term, ordinal) or an `IngestError`
    naming the row.
    """

    def __init__(self, cfg: IngestConfig) -> None:
        super().__init__()
        self.cfg = cfg

    def __missing__(self, text: str) -> tuple[Term, int] | str:
        tpy = self.cfg.terms_per_year
        try:
            term = parse_term(text.strip(), tpy, self.cfg.miniterm_map)
        except TermParseError as exc:
            hit = self[text] = str(exc)
        else:
            hit = self[text] = (term, to_ordinal(term, tpy))
        return hit

    def __call__(self, text: str, row: int) -> tuple[Term, int]:
        hit = self[text]
        if isinstance(hit, str):
            raise IngestError(f"row {row}: {hit}")
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


class _Ids(dict):
    """Cell text -> int id, ids given in order of first lookup."""

    def __missing__(self, text: str) -> int:
        i = self[text] = len(self)
        return i


_BLOCK_ROWS = 1 << 13  # lines read at a time; bounds the cell texts alive at once


def _tokens(fh) -> Iterator[tuple[list[int], list[str], str | None]]:
    """Each block of up to `_BLOCK_ROWS` lines of fh, as the cell count of
    each non-blank row, all their cells, row after row, and the error of the
    row after them, or None.

    Cells are read as `csv.reader` reads them. Lines are split on commas until
    a block holds a `"`, `\r` or NUL, the characters a csv reader does more
    with than split; that block and the rest of the file go through
    `csv.reader`. A row `csv.reader` cannot read, such as one with a cell
    longer than `csv.field_size_limit()`, ends the blocks with its error.
    """
    limit = csv.field_size_limit()
    while lines := list(islice(fh, _BLOCK_ROWS)):
        text = "".join(lines)
        if '"' in text or "\r" in text or "\x00" in text:
            break
        if "\n" in lines:  # a blank line holds no row
            lines = [line for line in lines if line != "\n"]
            text = "".join(lines)
        error = None
        if max(map(len, lines), default=0) > limit:
            long = [max(map(len, line.rstrip("\n").split(","))) > limit for line in lines]
            if any(long):
                lines, error = lines[: long.index(True)], f"field larger than field limit ({limit})"
                text = "".join(lines)
        cells = text.replace("\n", ",").split(",") if text else []
        if text.endswith("\n"):
            cells.pop()
        yield [line.count(",") + 1 for line in lines], cells, error
        if error:
            return
    errors: list[str] = []
    reader = _csv_rows(chain(lines, fh), errors)
    while (rows := list(islice(reader, _BLOCK_ROWS))) or errors:
        rows = [cells for cells in rows if cells]
        yield list(map(len, rows)), list(chain.from_iterable(rows)), errors.pop() if errors else None


def _csv_rows(lines, errors: list[str]) -> Iterator[list[str]]:
    """The rows `csv.reader` reads from lines; a `csv.Error` ends them, and
    its text is appended to errors."""
    try:
        yield from csv.reader(lines)
    except csv.Error as exc:
        errors.append(str(exc))


def _course_cells(fh, name: str, width: int) -> Iterator[list[str]]:
    """The cells of the data rows after the header of a courses file, a
    block at a time, row after row. A row without `width` cells, or one
    `csv.reader` cannot read, raises `IngestError` naming it (the header is
    row 1, and blank rows are not counted), once the rows before it have
    been yielded."""
    rownum = 2  # of the block's first row
    for widths, cells, error in _tokens(fh):
        good = len(widths) if widths.count(width) == len(widths) else next(i for i, n in enumerate(widths) if n != width)
        del cells[good * width :]
        yield cells
        if good < len(widths):
            raise IngestError(f"{name}: row {rownum + good}: {widths[good]} cells, the header has {width}")
        rownum += good
        if error:
            raise IngestError(f"{name}: row {rownum}: {error}")


def _repeats(ids: list[np.ndarray], sizes: list[int]) -> np.ndarray:
    """True for each row whose ids, one array per column, equal an earlier
    row's. sizes[j] bounds the ids of column j.

    The columns are folded into one int64 key, most significant first; when
    the next fold could overflow, the key is first renumbered densely.
    """
    key, span = np.zeros(len(ids[0]), np.int64), 1
    for column, size in zip(ids, sizes):
        if span * size >= 1 << 63:
            key = np.unique(key, return_inverse=True)[1]
            span = int(key.max()) + 1
        key, span = key * size + column, span * size
    order = np.argsort(key, kind="stable")  # the first of equal keys is the first in the file
    repeat = np.zeros(len(key), bool)
    repeat[order[1:]] = key[order[1:]] == key[order[:-1]]
    return repeat


_NEVER = np.iinfo(np.int64).max  # the exit ordinal of an enrolled student


def _numbers(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """`_number` of each text, nan where it raises, and where it does not."""
    values, ok = [], []
    for text in texts:
        try:
            values.append(_number(text))
            ok.append(True)
        except ValueError:
            values.append(math.nan)
            ok.append(False)
    return np.array(values, np.float64), np.array(ok, bool)


def _read_courses(
    path: Path, term_cell: _TermCells, students: list[str], entrance_of: np.ndarray, exit_of: np.ndarray
) -> tuple[_CourseColumns, list[tuple[int, str, str]], int]:
    """The cohort's course store read from the courses file, with the rejected
    rows and the count of duplicate rows.

    Each column's cell texts become int32 ids, one dict per column, so each
    distinct text is parsed and checked once, and every row check is a mask
    over the ids. A row is a duplicate when its ids equal an earlier row's.
    students are the cohort's student ids; entrance_of and exit_of hold their
    ordinals by position, plus one entry for a student not in the cohort.
    """
    with path.open(newline="", encoding="utf-8") as fh:
        header, _ = _read_csv(fh, path.name, _COURSE_COLUMNS)
        width = len(header)
        dicts = [_Ids() for _ in header]
        blocks, late = [[np.empty(0, np.int32)] * width], None
        try:
            for cells in _course_cells(fh, path.name, width):
                n = len(cells) // width
                blocks.append([np.fromiter(map(d.__getitem__, cells[j::width]), np.int32, n) for j, d in enumerate(dicts)])
        except IngestError as exc:
            late = exc  # a row without a cell per column: a row before it may hold an earlier error
    # The cells as ids, a column each; this also frees the last block's texts.
    cells = [np.concatenate(parts) for parts in zip(*blocks)]
    del blocks
    live = ~_repeats(cells, list(map(len, dicts)))
    column = _column_index(header)
    sid_ids, code_ids, term_ids, score_ids, attendance_ids, result_ids = (cells[column[c]] for c in _COURSE_COLUMNS)
    sid_texts, code_texts, term_texts, score_texts, attendance_texts, result_texts = (
        list(dicts[column[c]]) for c in _COURSE_COLUMNS
    )

    # Each distinct text parsed and checked once, then spread over the rows.
    sids = [text.strip() for text in sid_texts]
    position = {sid: k for k, sid in enumerate(students)}
    owner = np.array([position.get(sid, -1) for sid in sids], np.int64)[sid_ids]  # -1: not in the cohort
    terms = [term_cell[text] for text in term_texts]  # (term, ordinal), or the parse error
    term_ok = np.array([not isinstance(hit, str) for hit in terms], bool)
    ordinal = np.array([hit[1] if ok else 0 for hit, ok in zip(terms, term_ok)], np.int64)[term_ids]
    score, score_ok = _numbers(score_texts)
    attendance, attendance_ok = _numbers(attendance_texts)
    result = np.array([_RESULTS.get(text.strip(), -1) for text in result_texts], np.int64)
    known = owner >= 0

    # In the order each row's cells are checked; the first failing check of
    # the first failing row, in file order, names the error.
    checks = [
        (~term_ok[term_ids], lambda i: terms[term_ids[i]]),
        (~score_ok[score_ids], lambda i: f"column 'score' has non-numeric value {score_texts[score_ids[i]]!r}"),
        (
            ~attendance_ok[attendance_ids],
            lambda i: f"column 'attendance_pct' has non-numeric value {attendance_texts[attendance_ids[i]]!r}",
        ),
        (result[result_ids] < 0, lambda i: f"result must be 0 or 1, got {result_texts[result_ids[i]].strip()!r}"),
        (~((score >= 0.0) & (score <= 10.0))[score_ids], lambda i: f"score {float(score[score_ids[i]])} outside [0, 10]"),
        (
            ~((attendance >= 0.0) & (attendance <= 100.0))[attendance_ids],
            lambda i: f"attendance {float(attendance[attendance_ids[i]])} outside [0, 100]",
        ),
        (
            known & (ordinal < entrance_of[owner]),
            lambda i: f"course term {terms[term_ids[i]][0]} before entrance of student {sids[sid_ids[i]]}",
        ),
    ]
    bad = live & np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        i = int(bad.argmax())
        raise IngestError(f"row {i + 2}: " + next(message(i) for mask, message in checks if mask[i]))
    if late is not None:
        raise late

    # Registered exit wins over trailing activity; keep the row out.
    after = known & (ordinal > exit_of[owner])
    rejected = np.flatnonzero(live & (~known | after))
    rejects = [
        (i + 2, sids[k], "after_exit" if exited else "unknown_student")
        for i, k, exited in zip(rejected.tolist(), sid_ids[rejected].tolist(), after[rejected].tolist())
    ]
    kept = np.flatnonzero(live & known & ~after)
    # Cohort order, then term order; lexsort is stable, so file order within a term.
    rows = kept[np.lexsort((ordinal[kept], owner[kept]))]
    table = CourseTable(
        count=np.bincount(owner[kept], minlength=len(students)),
        term=ordinal[rows],
        failed=result[result_ids[rows]] == 0,
        attendance=attendance[attendance_ids[rows]],
        score=score[score_ids[rows]],
    )
    # A code is kept as its index among the distinct stripped codes of the file.
    stripped = _Ids()
    code = np.array([stripped[text.strip()] for text in code_texts], np.int64)[code_ids[rows]]
    columns = _CourseColumns(table, code, list(stripped))
    return columns, rejects, len(live) - int(live.sum())


def ingest(students_path: str | Path, courses_path: str | Path, cfg: IngestConfig) -> IngestResult:
    """Read, validate, and normalize the two input CSVs into a Cohort.

    Schema violations abort with the offending row number: the first bad row
    in the file, rows counted without blank lines and the header as row 1.
    Course rows that reference unknown or out-of-range students, or fall
    after a student's registered exit, are collected into the rejects list
    instead; a course row whose cells equal an earlier row's is dropped and
    counted as a duplicate. Each student's courses are kept in (term, file
    row) order in the cohort's `CourseTable`.
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
    # By cohort position, and one entry more for a student not in the cohort.
    entrance_of = np.array([parsed[sid][1][1] for sid in ids] + [0], np.int64)
    exit_of = np.array([_NEVER if parsed[sid][3] is None else parsed[sid][3][1] for sid in ids] + [0], np.int64)
    columns, rejects, duplicates = _read_courses(courses_path, term_cell, ids, entrance_of, exit_of)
    students = []
    for sid, span in zip(ids, columns.spans()):
        rownum, (entrance, _), status, exit_term, attrs = parsed[sid]
        try:
            students.append(StudentStructure(sid, attrs, entrance, status, None if exit_term is None else exit_term[0], range(*span)))
        except ValueError as exc:
            raise IngestError(f"row {rownum}: {exc}") from None
    cohort = Cohort(students=tuple(students), range=window, course_columns=columns, terms_per_year=cfg.terms_per_year)
    return IngestResult(
        cohort=cohort,
        rejected_courses=rejects,
        dropped_students=dropped,
        duplicate_rows=duplicates,
        attr_codes=attr_codes,
    )
