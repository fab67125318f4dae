from __future__ import annotations

import copy
import csv
import dataclasses
import gc
import io
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dropsplit import records
from dropsplit.features import vector_table
from dropsplit.records import (
    _COURSE_COLUMNS,
    _STUDENT_COLUMNS,
    CourseTable,
    EnrollmentStatus,
    IngestConfig,
    IngestError,
    IngestResult,
    ReferenceTermError,
    StudentStructure,
    ingest,
    truncate_records,
)
from dropsplit.splits import SplitApproach, SplitRequest, build_split
from dropsplit.synthgen import GeneratorConfig, generate
from dropsplit.terms import Term, TermParseError, TermRange, iter_terms, next_term, parse_term, to_ordinal

from conftest import (
    ALICE,
    Row,
    build_cohort,
    ingest_written,
    last,
    reference_truncate,
    rows,
    subset_enrolled,
    subset_exited_before,
    subset_exited_from,
)

STUDENTS_CSV = """student_id,entrance_term,status,exit_term,age,sex
s1,2012.1,graduated,2013.2,18,F
s2,2012.2,dropout,2013.1,22,M
s3,2013.1,enrolled,,19,F
"""

COURSES_CSV = """student_id,course_code,term,score,attendance_pct,result
s1,MATH1,2012.1,7.5,90,1
s1,PHYS1,2012.2,6.0,85,1
s1,MATH2,2013.1,8.0,95,1
s1,PHYS2,2013.2,9.0,92,1
s2,MATH1,2012.2,4.0,60,0
s2,MATH1,2013.1,5.5,70,1
s3,MATH1,2013.1,7.0,88,1
"""


def default_config(**overrides) -> IngestConfig:
    base = dict(range_start=Term(2012, 1), range_end=Term(2016, 2), terms_per_year=2)
    base.update(overrides)
    return IngestConfig(**base)


def quoted(text: str) -> str:
    """The CSV text with every cell quoted and CRLF line ends."""
    out = io.StringIO()
    csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(csv.reader(io.StringIO(text)))
    return out.getvalue()


def write_inputs(tmp_path, students=STUDENTS_CSV, courses=COURSES_CSV):
    sp = tmp_path / "students.csv"
    cp = tmp_path / "courses.csv"
    sp.write_text(students, encoding="utf-8")
    cp.write_text(courses, encoding="utf-8")
    return sp, cp


class TestIngest:
    def test_two_student_fixture(self, tmp_path):
        sp, cp = write_inputs(tmp_path)
        result = ingest(sp, cp, default_config())
        cohort = result.cohort
        assert len(cohort.students) == 3
        s1 = cohort.student("s1")
        assert s1.status is EnrollmentStatus.GRADUATED
        terms = [row.term for row in rows(cohort, s1)]
        assert terms == sorted(terms)
        assert last(cohort, s1) == Term(2013, 2)
        # sex is non-numeric and gets a deterministic sorted coding: F=0, M=1
        assert result.attr_codes == {"sex": {"F": 0, "M": 1}}
        assert dict(s1.static_attrs) == {"age": 18.0, "sex": 0.0}
        assert all(cohort.student(s.student_id) is s for s in cohort.students)
        with pytest.raises(KeyError, match="nobody"):
            cohort.student("nobody")

    def test_ingest_is_deterministic(self, tmp_path):
        sp, cp = write_inputs(tmp_path)
        first = ingest(sp, cp, default_config())
        second = ingest(sp, cp, default_config())
        assert first.cohort == second.cohort

    def test_miniterm_mapping(self, tmp_path):
        courses = COURSES_CSV + "s1,SUMMER,2012.S1,8.0,100,1\n"
        sp, cp = write_inputs(tmp_path, courses=courses)
        result = ingest(sp, cp, default_config(miniterm_map={"S1": 2}))
        summer = [row for row in rows(result.cohort, result.cohort.student("s1")) if row.course_code == "SUMMER"]
        assert summer[0].term == Term(2012, 2)

    def test_unmapped_miniterm_is_schema_error(self, tmp_path):
        courses = COURSES_CSV + "s1,SUMMER,2012.S1,8.0,100,1\n"
        sp, cp = write_inputs(tmp_path, courses=courses)
        with pytest.raises(IngestError, match="row 9"):
            ingest(sp, cp, default_config())

    def test_dropout_without_exit_term_is_error(self, tmp_path):
        students = STUDENTS_CSV.replace("s2,2012.2,dropout,2013.1", "s2,2012.2,dropout,")
        sp, cp = write_inputs(tmp_path, students=students)
        with pytest.raises(IngestError, match="row 3"):
            ingest(sp, cp, default_config())

    def test_score_out_of_range_is_error_with_row(self, tmp_path):
        courses = COURSES_CSV.replace("s2,MATH1,2012.2,4.0", "s2,MATH1,2012.2,14.0")
        sp, cp = write_inputs(tmp_path, courses=courses)
        with pytest.raises(IngestError, match="row 6"):
            ingest(sp, cp, default_config())

    def test_missing_column_is_error(self, tmp_path):
        sp, cp = write_inputs(tmp_path, courses="student_id,course_code,term\n")
        with pytest.raises(IngestError, match="missing columns"):
            ingest(sp, cp, default_config())

    def test_orphan_course_rows_are_rejected_not_fatal(self, tmp_path):
        courses = COURSES_CSV + "ghost,MATH1,2013.1,5.0,50,1\n"
        sp, cp = write_inputs(tmp_path, courses=courses)
        result = ingest(sp, cp, default_config())
        assert (9, "ghost", "unknown_student") in result.rejected_courses

    def test_entrance_outside_range_drops_student(self, tmp_path):
        students = STUDENTS_CSV + "s4,2005.1,graduated,2008.2,30,M\n"
        sp, cp = write_inputs(tmp_path, students=students)
        result = ingest(sp, cp, default_config())
        assert result.dropped_students == 1
        assert all(s.student_id != "s4" for s in result.cohort.students)

    def test_byte_duplicate_course_rows_dropped(self, tmp_path):
        courses = COURSES_CSV + "s1,MATH1,2012.1,7.5,90,1\n"
        sp, cp = write_inputs(tmp_path, courses=courses)
        result = ingest(sp, cp, default_config())
        assert result.duplicate_rows == 1

    def test_duplicate_test_is_exact_for_cells_holding_nul(self, tmp_path):
        # These two rows join to the same NUL-separated line; only the first
        # is a course of s1, the second names an unknown student. A row
        # holding a NUL is still a duplicate of its own byte copy.
        first = "s1,\x00X,2012.1,7.5,90,1\n"
        courses = COURSES_CSV + first + "s1\x00,X,2012.1,7.5,90,1\n" + first
        result = ingest(*write_inputs(tmp_path, courses=courses), default_config())
        assert result.duplicate_rows == 1
        assert result.rejected_courses == [(10, "s1\x00", "unknown_student")]
        assert "\x00X" in [row.course_code for row in rows(result.cohort, result.cohort.student("s1"))]

    def test_retake_rows_are_kept(self, tmp_path):
        # Same course in a different term is a real retake, not a duplicate.
        result = ingest(*write_inputs(tmp_path), default_config())
        assert [row.course_code for row in rows(result.cohort, result.cohort.student("s2"))] == ["MATH1", "MATH1"]

    def test_course_after_exit_rejected_with_warning(self, tmp_path):
        courses = COURSES_CSV + "s2,LATE1,2014.1,6.0,70,1\n"
        sp, cp = write_inputs(tmp_path, courses=courses)
        result = ingest(sp, cp, default_config())
        assert (9, "s2", "after_exit") in result.rejected_courses
        assert last(result.cohort, result.cohort.student("s2")) == Term(2013, 1)

    def test_enrolled_student_with_exit_term_is_error(self, tmp_path):
        students = STUDENTS_CSV.replace("s3,2013.1,enrolled,", "s3,2013.1,enrolled,2014.1")
        sp, cp = write_inputs(tmp_path, students=students)
        with pytest.raises(IngestError, match="s3"):
            ingest(sp, cp, default_config())

    def test_provided_attr_codes_must_cover_values(self, tmp_path):
        sp, cp = write_inputs(tmp_path)
        cfg = default_config(attr_codes={"sex": {"F": 0}})
        message = "students.csv: row 3: attribute 'sex': values ['M'] absent from coding dictionary"
        with pytest.raises(IngestError, match=re.escape(message)):
            ingest(sp, cp, cfg)


def _is_term(text: str) -> bool:
    try:
        parse_term(text, 2)
    except TermParseError:
        return False
    return True


def _is_score(text: str) -> bool:
    try:
        return 0.0 <= _reference_number(text) <= 10.0
    except ValueError:
        return False


_CELL = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=8)
# Per file, the columns garbled and values no ingest may accept there.
_GARBLE = {
    "students": {
        "entrance_term": _CELL.filter(lambda v: not _is_term(v)),
        "status": _CELL.filter(lambda v: v.strip().lower() not in ("graduated", "dropout", "enrolled")),
    },
    "courses": {
        "term": _CELL.filter(lambda v: not _is_term(v)),
        "score": _CELL.filter(lambda v: not _is_score(v)),
        "result": _CELL.filter(lambda v: v.strip() not in ("0", "1")),
    },
}


@st.composite
def malformed_inputs(draw):
    """The fixture files with one data row cut short, extended, or with one
    garbled cell; returns both texts, the file changed and its row number."""
    texts = {"students": STUDENTS_CSV, "courses": COURSES_CSV}
    name = draw(st.sampled_from(sorted(texts)))
    header, *rows = list(csv.reader(io.StringIO(texts[name])))
    i = draw(st.integers(0, len(rows) - 1))
    cells = rows[i]
    mutation = draw(st.sampled_from(["cut", "extend", "garble"]))
    if mutation == "cut":
        cells = cells[: draw(st.integers(1, len(cells) - 1))]
    elif mutation == "extend":
        cells = cells + draw(st.lists(_CELL, min_size=1, max_size=3))
    else:
        column = draw(st.sampled_from(sorted(_GARBLE[name])))
        cells = list(cells)
        cells[header.index(column)] = draw(_GARBLE[name][column])
    rows[i] = cells
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    texts[name] = out.getvalue()
    return texts, name, i + 2  # the header is row 1


@settings(max_examples=150, deadline=None)
@given(malformed_inputs())
def test_malformed_row_is_ingest_error_naming_its_row(tmp_path_factory, case):
    texts, name, rownum = case
    for how in (str, quoted):
        sp, cp = write_inputs(tmp_path_factory.mktemp("fuzz"), how(texts["students"]), how(texts["courses"]))
        with pytest.raises(IngestError, match=rf"row {rownum}\b"):
            ingest(sp, cp, default_config())


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("students.csv", STUDENTS_CSV.replace("s2,2012.2,dropout,2013.1,22,M", "s2,2012.2,dropout"), "row 3: 3 cells"),
        ("courses.csv", COURSES_CSV.replace("s2,MATH1,2013.1,5.5,70,1", "s2,MATH1,2013.1,5.5,70"), "row 7: 5 cells"),
        ("courses.csv", COURSES_CSV.replace("s1,MATH1,2012.1,7.5,90,1", "s1,MATH1,2012.1,7.5,90,1,x"), "row 2: 7 cells"),
    ],
)
def test_row_with_wrong_cell_count_names_file_and_row(tmp_path, name, text, message):
    texts = {"students.csv": STUDENTS_CSV, "courses.csv": COURSES_CSV, name: text}
    sp, cp = write_inputs(tmp_path, texts["students.csv"], texts["courses.csv"])
    with pytest.raises(IngestError, match=re.escape(f"{name}: {message}")):
        ingest(sp, cp, default_config())


def test_students_cell_past_the_csv_field_limit_names_its_row(tmp_path):
    limit = csv.field_size_limit()
    students = STUDENTS_CSV.replace("s2,2012.2,dropout,2013.1,22,M", "s2,2012.2,dropout,2013.1,22," + "M" * (limit + 1))
    message = f"students.csv: row 3: field larger than field limit ({limit})"
    with pytest.raises(IngestError, match=re.escape(message)):
        ingest(*write_inputs(tmp_path, students=students), default_config())


def test_courses_header_cell_past_the_csv_field_limit_names_row_1(tmp_path):
    limit = csv.field_size_limit()
    courses = COURSES_CSV.replace("result\n", "result," + "x" * (limit + 1) + "\n", 1)
    message = f"courses.csv: row 1: field larger than field limit ({limit})"
    with pytest.raises(IngestError, match=re.escape(message)):
        ingest(*write_inputs(tmp_path, courses=courses), default_config())


class TestStudentStructure:
    def test_a_student_without_courses_has_an_empty_range(self):
        cohort = build_cohort([("x", (2013, 1), "enrolled", None, [])])
        assert cohort.students[0].courses == range(0, 0)
        assert last(cohort, cohort.students[0]) == Term(2013, 1)

    def test_course_before_entrance_rejected(self):
        with pytest.raises(ValueError, match=re.escape("student x: course at 2012.1 before entrance 2013.1")):
            build_cohort([("x", (2013, 1), "enrolled", None, [(2012, 1, 5.0, 50.0, 1)])])

    def test_exit_required_for_exited(self):
        with pytest.raises(ValueError, match="requires an exit term"):
            StudentStructure("x", (), Term(2013, 1), EnrollmentStatus.DROPOUT, None, range(0))

    def test_courses_after_exit_rejected(self):
        with pytest.raises(ValueError, match=re.escape("student x: course at 2013.2 after exit term 2013.1")):
            build_cohort([("x", (2013, 1), "dropout", (2013, 1), [(2013, 2, 5.0, 50.0, 1)])])


class TestSubsets:
    def brute_force(self, cohort, t):
        lo, hi = cohort.range.lo, cohort.range.hi
        before = [
            s
            for s in cohort.students
            if s.status in (EnrollmentStatus.GRADUATED, EnrollmentStatus.DROPOUT)
            and lo <= s.exit_term < t
        ]
        onward = [
            s
            for s in cohort.students
            if s.status in (EnrollmentStatus.GRADUATED, EnrollmentStatus.DROPOUT)
            and t <= s.exit_term <= hi
            and s.entrance <= t
        ]
        enrolled = [
            s for s in cohort.students if s.status is EnrollmentStatus.ENROLLED and s.entrance <= t
        ]
        return before, onward, enrolled

    @staticmethod
    def populations(cohort, t):
        """The student ids of the table's populations at t: exited before,
        exited from, enrolled."""
        tab = vector_table(cohort)
        o = to_ordinal(t, cohort.terms_per_year)
        return tuple(
            [tab.student_ids[i] for i in idx] for idx in (tab.exited_before(o), tab.exited_from(o), tab.enrolled(o))
        )

    def test_boundary_membership(self, tiny_cohort):
        before, _, _ = self.populations(tiny_cohort, Term(2014, 1))
        assert set(before) == {"alice", "bob", "carol"}
        # frank exited exactly at 2015.1: boundary exit >= T goes to the onward set
        before, onward, _ = self.populations(tiny_cohort, Term(2015, 1))
        assert set(onward) == {"erin", "frank"}
        assert "frank" not in before

    def test_entrance_filter_on_onward_set(self, tiny_cohort):
        _, onward, _ = self.populations(tiny_cohort, Term(2013, 1))
        # erin entered 2013.2 > T, so she is not yet observable at T
        assert "erin" not in onward

    def test_matches_brute_force_everywhere(self, medium_synth):
        """The table's populations, and the test suite's population oracle,
        equal the brute force in order."""
        for t in iter_terms(medium_synth.range.lo, medium_synth.range.hi):
            expected = self.brute_force(medium_synth, t)
            ids = tuple([s.student_id for s in side] for side in expected)
            assert self.populations(medium_synth, t) == ids
            assert subset_exited_before(medium_synth, t) == expected[0]
            assert subset_exited_from(medium_synth, t) == expected[1]
            assert subset_enrolled(medium_synth, t) == expected[2]

    def test_disjoint_and_exhaustive(self, medium_synth):
        for t in iter_terms(medium_synth.range.lo, medium_synth.range.hi):
            before, onward, enrolled = map(set, self.populations(medium_synth, t))
            assert not before & onward
            assert not (before | onward) & enrolled

    def test_monotone_growth(self, medium_synth):
        previous: set[str] = set()
        enrolled_prev = -1
        for t in iter_terms(medium_synth.range.lo, medium_synth.range.hi):
            before, _, enrolled = self.populations(medium_synth, t)
            assert previous <= set(before)
            previous = set(before)
            assert len(enrolled) >= enrolled_prev
            enrolled_prev = len(enrolled)

    def test_reference_term_outside_range(self, tiny_cohort):
        with pytest.raises(ReferenceTermError):
            build_split(tiny_cohort, SplitRequest(SplitApproach.B1, Term(2011, 2)))
        with pytest.raises(ReferenceTermError):
            build_split(tiny_cohort, SplitRequest(SplitApproach.B4T, Term(2017, 1)))


class TestCohort:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_cohort([ALICE, ALICE], TermRange(Term(2012, 1), Term(2016, 2)))

    def test_rejects_entrance_outside_range(self):
        with pytest.raises(ValueError, match="outside"):
            build_cohort([ALICE], TermRange(Term(2013, 1), Term(2016, 2)))

    def test_rejects_mismatched_attr_names(self):
        other = ("zed", (2013, 1), "enrolled", None, [], (("height", 1.8),))
        with pytest.raises(ValueError, match="attribute names"):
            build_cohort([ALICE, other], TermRange(Term(2012, 1), Term(2016, 2)))

    def test_rejects_courses_that_are_not_the_students_spans(self, tiny_cohort):
        alice, bob, *others = tiny_cohort.students
        for courses in (range(0, 4), range(1, 6), (0, 1, 2, 3, 4)):
            students = (dataclasses.replace(alice, courses=courses), bob, *others)
            with pytest.raises(ValueError, match="spans of the course store"):
                dataclasses.replace(tiny_cohort, students=students)
        with pytest.raises(ValueError, match="spans of the course store"):
            dataclasses.replace(tiny_cohort, students=tiny_cohort.students[:-1])  # gina's span is left over


def test_truncate_records_drops_only_late_courses(tiny_cohort):
    t = Term(2013, 1)
    cut = truncate_records(tiny_cohort, t)
    for original, truncated in zip(tiny_cohort.students, cut.students):
        assert truncated.status is original.status
        assert truncated.exit_term == original.exit_term
        assert all(row.term < t for row in rows(cut, truncated))
        assert [row for row in rows(tiny_cohort, original) if row.term < t] == rows(cut, truncated)


@pytest.mark.parametrize("source", ["generated", "ingested", "tiny"])
def test_truncate_records_equals_the_record_filter(source, medium_synth, tiny_cohort, tmp_path):
    cohort = ingest_written(medium_synth, tmp_path) if source == "ingested" else {"generated": medium_synth, "tiny": tiny_cohort}[source]
    tpy = cohort.terms_per_year
    for t in iter_terms(cohort.range.lo, next_term(cohort.range.hi, tpy), tpy):
        got, want = truncate_records(cohort, t), reference_truncate(cohort, t)
        assert got == want and repr(got) == repr(want), t
        for name, built, expected in zip(CourseTable._fields, got.course_table, want.course_table):
            assert built.dtype == expected.dtype and built.tobytes() == expected.tobytes(), (t, name)


# --- the row-by-row ingest as a reference -------------------------------------
#
# The ingest this module replaced: one dict per row, a regex parse of every term
# cell, Term comparisons, range checks here and again in the record classes.
# The new ingest must return the same result and raise the same IngestError on
# every input below. Its term grammar is narrower on purpose (a mini-term year
# must be four ASCII digits, like a main year), so the generated term cells
# avoid the forms where the two grammars differ; the tests further up cover
# those.

_REFERENCE_TERM_RE = re.compile(r"^(\d{4})\.(\d+)$")


def _reference_parse_term(text: str, terms_per_year: int) -> Term:
    m = _REFERENCE_TERM_RE.match(text.strip())
    if m is None:
        raise TermParseError(f"malformed term {text!r}, expected YYYY.K")
    year, index = int(m.group(1)), int(m.group(2))
    if not 1 <= index <= terms_per_year:
        raise TermParseError(f"term index {index} in {text!r} outside 1..{terms_per_year}")
    return Term(year, index)


def _reference_record_term(text: str, cfg: IngestConfig, row: int) -> Term:
    text = text.strip()
    head, dot, tail = text.partition(".")
    if dot and tail in cfg.miniterm_map:
        try:
            year = int(head)
        except ValueError:
            raise IngestError(f"row {row}: malformed term {text!r}") from None
        return Term(year, cfg.miniterm_map[tail])
    try:
        return _reference_parse_term(text, cfg.terms_per_year)
    except TermParseError as exc:
        raise IngestError(f"row {row}: {exc}") from None


def _reference_number(text: str) -> float:
    """A number cell is ASCII, holds no underscore, and otherwise reads as `float` reads it."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return float(text)


def _reference_float(text: str, column: str, row: int) -> float:
    try:
        return _reference_number(text)
    except ValueError:
        raise IngestError(f"row {row}: column {column!r} has non-numeric value {text!r}") from None


def _reference_code_static_attrs(raw, names, provided):
    codes: dict[str, dict[str, int]] = {}
    values: dict[str, list[float]] = {name: [] for name in names}
    for name in names:
        column = [r[name].strip() for r in raw]
        try:
            values[name] = [_reference_number(v) for v in column]
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


def _reference_csv(path: Path, required: tuple[str, ...]):
    """The header and the data rows of a CSV file, read with `csv.reader`.
    Blank rows are skipped and not counted (the header is row 1); a row
    without one cell per header column raises when it is reached."""
    with path.open(newline="", encoding="utf-8") as fh:
        header, *body = list(csv.reader(fh)) or [[]]
    missing = [c for c in required if c not in header]
    if missing:
        raise IngestError(f"{path.name}: missing columns {missing}")

    def data():
        for rownum, cells in enumerate((cells for cells in body if cells), start=2):
            if len(cells) != len(header):
                raise IngestError(f"{path.name}: row {rownum}: {len(cells)} cells, the header has {len(header)}")
            yield cells

    return header, data()


def reference_ingest(students_path, courses_path, cfg: IngestConfig) -> IngestResult:
    students_path, courses_path = Path(students_path), Path(courses_path)
    header, data = _reference_csv(students_path, _STUDENT_COLUMNS)
    attr_names = [c for c in header if c not in _STUDENT_COLUMNS]
    student_rows = [dict(zip(header, cells)) for cells in data]

    attr_codes, attr_values = _reference_code_static_attrs(student_rows, attr_names, cfg.attr_codes)
    window = TermRange(cfg.range_start, cfg.range_end)

    parsed: dict[str, dict] = {}
    dropped = 0
    for i, row in enumerate(student_rows):
        rownum = i + 2
        sid = row["student_id"].strip()
        if not sid:
            raise IngestError(f"row {rownum}: empty student_id")
        if sid in parsed:
            raise IngestError(f"row {rownum}: duplicate student_id {sid!r}")
        entrance = _reference_record_term(row["entrance_term"], cfg, rownum)
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
            exit_term = _reference_record_term(exit_text, cfg, rownum)
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
    header, data = _reference_csv(courses_path, _COURSE_COLUMNS)
    for i, cells in enumerate(data):
        rownum = i + 2
        key = tuple(cells)
        if key in seen_lines:
            duplicates += 1
            continue
        seen_lines.add(key)
        row = dict(zip(header, cells))
        sid = row["student_id"].strip()
        term = _reference_record_term(row["term"], cfg, rownum)
        score = _reference_float(row["score"], "score", rownum)
        attendance = _reference_float(row["attendance_pct"], "attendance_pct", rownum)
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
            rejects.append((rownum, sid, "after_exit"))
            continue
        entry["courses"].append(Row(term, score, attendance, int(result_text), row["course_code"].strip()))

    students = []
    for sid in sorted(parsed):
        entry = parsed[sid]
        courses = sorted(entry["courses"], key=lambda c: to_ordinal(c.term, cfg.terms_per_year))
        students.append((sid, entry["entrance"], entry["status"], entry["exit"], courses, entry["attrs"]))
    cohort = build_cohort(students, window, cfg.terms_per_year)
    return IngestResult(
        cohort=cohort,
        rejected_courses=rejects,
        dropped_students=dropped,
        duplicate_rows=duplicates,
        attr_codes=attr_codes,
    )


_BAD_TERMS = ["2012.x", "12.1", "2012.9", "", "2012.0", "2012.S2"]


@st.composite
def ingest_inputs(draw):
    """Students and courses CSV texts and a config, near the fixture's shape.

    Half the examples are clean; the dirty half also draws malformed cells,
    unknown or repeated ids, exits before entrance and courses before
    entrance. Both halves have mini-terms, out-of-window entrances, rows after
    exit, retakes within a term, byte-duplicate rows and attribute codes.
    """
    tpy = draw(st.sampled_from([2, 3]))
    miniterms = draw(st.sampled_from([{}, {"S1": 1, "V": tpy}]))
    lo, hi = 2010 * tpy, 2014 * tpy - 1  # the window, as ordinals
    dirty = draw(st.booleans())

    def term_text(o: int) -> str:
        year, k = divmod(o, tpy)
        tags = [tag for tag, index in miniterms.items() if index == k + 1]
        if tags and draw(st.booleans()):
            return f"{year}.{draw(st.sampled_from(tags))}"
        return draw(st.sampled_from([f"{year}.{k + 1}", f" {year}.{k + 1} "]))

    def cell(valid: list[str], bad: list[str]) -> str:
        if bad and dirty and draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from(bad))
        return draw(st.sampled_from(valid))

    ids = [f"s{i}" for i in draw(st.permutations(range(1, 7)))[: draw(st.integers(1, 6))]]
    if dirty and draw(st.integers(0, 3)) == 0:
        ids[-1] = draw(st.sampled_from(["", " ", ids[0], f" {ids[0]}"]))
    students, entrance, exit_offset = [], {}, {}
    for sid in ids:
        o = draw(st.integers(lo - 2, hi))  # before lo: out of the window
        status = draw(st.sampled_from(["graduated", "dropout", "enrolled", " Dropout "]))
        if status.strip().lower() == "enrolled":
            exit_text = cell([""], ["2012.1"])
        else:
            exit_offset[sid] = draw(st.integers(-1 if dirty else 0, 8))
            exit_text = term_text(o + exit_offset[sid])
        cells = [sid, term_text(o), status, exit_text, cell(["18", "19.5", " 21 ", "1e1"], []), cell(["F", "M", "X", "nan"], [])]
        if dirty and draw(st.integers(0, 9)) == 0:
            cells[draw(st.sampled_from([1, 2, 3]))] = draw(st.sampled_from(_BAD_TERMS + ["foo"]))
        students.append(cells)
        entrance[sid] = o
    if all(row[5] == "nan" for row in students):
        students[0][5] = "F"  # keep sex categorical: a numeric nan column is an error now
    codes = draw(st.sampled_from([None, {"sex": {"F": 0, "M": 1, "X": 2, "nan": 3}}]))
    if dirty and draw(st.integers(0, 3)) == 0:
        codes = {"sex": {"F": 0, "M": 1}}  # misses X and nan

    courses = []
    for _ in range(draw(st.integers(0, 25))):
        sid = draw(st.sampled_from(ids + ["ghost"]))
        base = entrance.get(sid.strip(), lo)
        o = base + draw(st.integers(-1 if dirty else 0, 9))
        term = draw(st.sampled_from(_BAD_TERMS)) if dirty and draw(st.integers(0, 9)) == 0 else term_text(o)
        courses.append(
            [
                sid,
                draw(st.sampled_from(["C1", "C2", " C3 "])),
                term,
                cell(["7.5", "4", "10", "0", " 6.25 ", "5e0", "3.1"], ["10.5", "-1", "x", "nan", ""]),
                cell(["90", "100", "0", "55.5", "72.25"], ["101", "abc", "inf"]),
                cell(["0", "1", " 1 "], ["2", "", "yes"]),
            ]
        )
    for _ in range(draw(st.integers(0, 3)) if courses else 0):
        courses.insert(draw(st.integers(0, len(courses))), list(draw(st.sampled_from(courses))))

    def text(header, rows) -> str:
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([header, *rows])
        return out.getvalue()

    cfg = IngestConfig(
        range_start=Term(2010, 1),
        range_end=Term(2013, tpy),
        terms_per_year=tpy,
        miniterm_map=dict(miniterms),
        attr_codes=codes,
    )
    return text([*_STUDENT_COLUMNS, "age", "sex"], students), text(list(_COURSE_COLUMNS), courses), cfg


@settings(max_examples=400, deadline=None)
@given(ingest_inputs())
def test_ingest_matches_reference(tmp_path_factory, case):
    """ingest agrees with the reference on the plain text, and gives the same
    on a copy with every cell quoted and CRLF line ends."""
    students, courses, cfg = case
    sp, cp = write_inputs(tmp_path_factory.mktemp("reference"), students, courses)
    inputs = [(sp, cp), write_inputs(tmp_path_factory.mktemp("quoted"), quoted(students), quoted(courses))]
    try:
        expected = reference_ingest(sp, cp, cfg)
    except IngestError as exc:
        for paths in inputs:
            with pytest.raises(IngestError) as got:
                ingest(*paths, cfg)
            if str(exc).startswith("attribute "):  # now also names the file and a row
                assert re.fullmatch(rf"students\.csv: row \d+: {re.escape(str(exc))}", str(got.value))
            else:
                assert str(got.value) == str(exc)
        return
    except ValueError as exc:
        # The reference let an exit before the entrance reach StudentStructure,
        # whose bare ValueError named no row; ingest names the student's row.
        assert "before entrance" in str(exc)
        for paths in inputs:
            with pytest.raises(IngestError, match=rf"^row \d+: {re.escape(str(exc))}$"):
                ingest(*paths, cfg)
        return
    for paths in inputs:
        assert_ingested(ingest(*paths, cfg), expected)


def assert_ingested(got: IngestResult, expected: IngestResult) -> None:
    """got equals expected, down to the bytes of the course table."""
    assert got.cohort == expected.cohort
    assert repr(got.cohort) == repr(expected.cohort)  # also tells 1 from True and 1.0
    assert got.rejected_courses == expected.rejected_courses
    assert got.dropped_students == expected.dropped_students
    assert got.duplicate_rows == expected.duplicate_rows
    assert got.attr_codes == expected.attr_codes
    derived = expected.cohort.course_table  # the reference cohort is built from its rows
    for name, built, want in zip(CourseTable._fields, got.cohort.course_table, derived):
        assert built.dtype == want.dtype and built.shape == want.shape, name
        assert built.tobytes() == want.tobytes(), name


# Rows 9 to 14, with blank lines between them: a duplicate of row 2, a row of
# an unknown student and its duplicate, a row after s2's exit, row 2 again
# with every cell quoted and a CRLF line end, and one kept row.
_EDGE_ROWS = (
    "\ns1,MATH1,2012.1,7.5,90,1\nghost,MATH1,2013.1,5.0,50,1\n\n\nghost,MATH1,2013.1,5.0,50,1\n"
    's2,LATE1,2014.1,6.0,70,1\n"s1","MATH1","2012.1","7.5","90","1"\r\ns3,PHYS1,2013.2,8.0,90,1\n'
)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_blocks_edges_keep_rows_duplicates_and_rejects(tmp_path, monkeypatch, block):
    sp, cp = write_inputs(tmp_path, courses=COURSES_CSV + _EDGE_ROWS)
    whole = ingest(sp, cp, default_config())
    monkeypatch.setattr(records, "_BLOCK_ROWS", block)
    got = ingest(sp, cp, default_config())
    assert got.duplicate_rows == 3
    assert got.rejected_courses == [(10, "ghost", "unknown_student"), (12, "s2", "after_exit")]
    assert [row.course_code for row in rows(got.cohort, got.cohort.student("s3"))] == ["MATH1", "PHYS1"]
    assert_ingested(got, whole)


@pytest.mark.parametrize("block", [1, 2, 3, records._BLOCK_ROWS])
@pytest.mark.parametrize(
    "rows, message",
    [
        # a bad term after a blank line, then a row one cell short
        ("s1,MATH1,2012.1,7.5,90,1\n\ns1,MATH1,2012.x,7.5,90,1\ns1,MATH1\n", "row 10: malformed term '2012.x'"),
        ("s1,MATH1,2012.1,7.5,90,1\n\ns1,MATH1\ns1,MATH1,2012.x,7.5,90,1\n", "courses.csv: row 10: 2 cells"),
        # the same, quoted
        ('"s1","M"\n\n"s1","MATH1","2012.x","7.5","90","1"\n', "courses.csv: row 9: 2 cells"),
        ('s1,MATH1,2012.1,7.5,90,1\n\n"s1","MATH1","2012.x","7.5","90","1"\n"s1"\n', "row 10: malformed term '2012.x'"),
    ],
)
def test_first_bad_row_across_blocks_names_its_row(tmp_path, monkeypatch, block, rows, message):
    monkeypatch.setattr(records, "_BLOCK_ROWS", block)
    sp, cp = write_inputs(tmp_path, courses=COURSES_CSV + rows)
    with pytest.raises(IngestError, match=re.escape(message)):
        ingest(sp, cp, default_config())


@pytest.mark.parametrize("block", [1, 2, records._BLOCK_ROWS])
@pytest.mark.parametrize("form", ["plain", "quoted"])
def test_cell_past_the_csv_field_limit_names_its_row(tmp_path, monkeypatch, block, form):
    # Row 9 holds a cell of csv.field_size_limit() characters, which csv
    # reads; row 10 holds one a character longer, which it refuses.
    limit = csv.field_size_limit()
    cells = [["s3", "C" * limit, "2013.2", "8.0", "90", "1"], ["s3", "D" * (limit + 1), "2013.2", "8.0", "90", "1"]]

    def ingest_rows(cells):
        out = io.StringIO()
        if form == "quoted":
            csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(cells)
        else:
            csv.writer(out, lineterminator="\n").writerows(cells)
        return ingest(*write_inputs(tmp_path, courses=COURSES_CSV + "\n" + out.getvalue()), default_config())

    monkeypatch.setattr(records, "_BLOCK_ROWS", block)
    cohort = ingest_rows(cells[:1]).cohort
    assert "C" * limit in [row.course_code for row in rows(cohort, cohort.student("s3"))]
    with pytest.raises(IngestError, match=re.escape(f"courses.csv: row 10: field larger than field limit ({limit})")):
        ingest_rows(cells)
    cells[0][2] = "2012.x"  # an earlier bad row names the error
    with pytest.raises(IngestError, match=re.escape("row 9: malformed term '2012.x'")):
        ingest_rows(cells)


def test_repeats_renumbers_a_key_that_would_overflow():
    rng = np.random.default_rng(0)
    ids = [rng.integers(0, 3, 300) for _ in range(4)]
    seen: set[tuple[int, ...]] = set()
    want = []
    for row in zip(*(column.tolist() for column in ids)):
        want.append(row in seen)
        seen.add(row)
    for sizes in ([3] * 4, [2**40] * 4):  # the second would overflow int64 at each later fold
        assert records._repeats(ids, sizes).tolist() == want


class TestTermGrammar:
    @pytest.mark.parametrize("term", ["20_12.V", "+2012.V", "\u0662\u0660\u0661\u0662.V", "2012 .V", "20x.V"])
    def test_miniterm_year_is_four_ascii_digits(self, tmp_path, term):
        sp, cp = write_inputs(tmp_path, courses=COURSES_CSV + f"s1,SUMMER,{term},8.0,100,1\n")
        with pytest.raises(IngestError, match=re.escape(f"row 9: malformed term {term!r}")):
            ingest(sp, cp, default_config(miniterm_map={"V": 2}))

    @pytest.mark.parametrize("term", ["20_12.1", "+2012.1", "\u0662\u0660\u0661\u0662.1", "2012.\u0661"])
    def test_main_term_is_ascii_digits(self, tmp_path, term):
        sp, cp = write_inputs(tmp_path, courses=COURSES_CSV + f"s1,LATE,{term},8.0,100,1\n")
        with pytest.raises(IngestError, match=re.escape(f"row 9: malformed term {term!r}")):
            ingest(sp, cp, default_config())

    def test_miniterm_cells_map_in_both_files(self, tmp_path):
        students = STUDENTS_CSV.replace("s2,2012.2,dropout,2013.1", "s2,2012.V,dropout,2013.S")
        sp, cp = write_inputs(tmp_path, students=students)
        s2 = ingest(sp, cp, default_config(miniterm_map={"V": 2, "S": 1})).cohort.student("s2")
        assert (s2.entrance, s2.exit_term) == (Term(2012, 2), Term(2013, 1))


class TestAttributeValues:
    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", " NaN "])
    def test_non_finite_numeric_attribute_is_error(self, tmp_path, value):
        students = STUDENTS_CSV.replace("s2,2012.2,dropout,2013.1,22,M", f"s2,2012.2,dropout,2013.1,{value},M")
        sp, cp = write_inputs(tmp_path, students=students)
        message = f"students.csv: row 3: column 'age' has non-finite value {value.strip()!r}"
        with pytest.raises(IngestError, match=re.escape(message)):
            ingest(sp, cp, default_config())

    def test_categorical_nan_text_keeps_its_code(self, tmp_path):
        students = STUDENTS_CSV.replace("s3,2013.1,enrolled,,19,F", "s3,2013.1,enrolled,,19,nan")
        result = ingest(*write_inputs(tmp_path, students=students), default_config())
        assert result.attr_codes == {"sex": {"F": 0, "M": 1, "nan": 2}}
        assert dict(result.cohort.student("s3").static_attrs)["sex"] == 2.0


class TestNumberCells:
    """A number cell is ASCII and holds no underscore; otherwise it reads as
    `float` reads it."""

    @pytest.mark.parametrize(
        "row, column, text",
        [
            ("s1,MATH1,2012.1,1_0,90,1", "score", "1_0"),
            ("s1,MATH1,2012.1,7.5,9_0,1", "attendance_pct", "9_0"),
            ("s1,MATH1,2012.1, \u0667.5 ,90,1", "score", " \u0667.5 "),
            ("s1,MATH1,2012.1,7.5,\uff19\uff10,1", "attendance_pct", "\uff19\uff10"),
        ],
    )
    def test_course_number_outside_the_grammar_is_error(self, tmp_path, row, column, text):
        sp, cp = write_inputs(tmp_path, courses=COURSES_CSV + row + "\n")
        message = f"row 9: column {column!r} has non-numeric value {text!r}"
        with pytest.raises(IngestError, match=re.escape(message)):
            ingest(sp, cp, default_config())

    @pytest.mark.parametrize("text, value", [(" 5e0 ", 5.0), ("1E1", 10.0), (" .5", 0.5), ("+7", 7.0)])
    def test_course_number_reads_as_float_reads_it(self, tmp_path, text, value):
        sp, cp = write_inputs(tmp_path, courses=COURSES_CSV + f"s3,LATE,2013.2,{text},90,1\n")
        cohort = ingest(sp, cp, default_config()).cohort
        assert cohort.course_table.score[cohort.student("s3").courses][-1] == value

    @pytest.mark.parametrize("value", ["2_0", "\u0662\u0660"])
    def test_attribute_outside_the_grammar_is_coded_like_words(self, tmp_path, value):
        students = STUDENTS_CSV.replace("s2,2012.2,dropout,2013.1,22,M", f"s2,2012.2,dropout,2013.1,{value},M")
        result = ingest(*write_inputs(tmp_path, students=students), default_config())
        assert result.attr_codes["age"] == {"18": 0, "19": 1, value: 2}
        assert dict(result.cohort.student("s2").static_attrs)["age"] == 2.0


def test_ingest_leaves_the_collector_as_it_found_it(tmp_path):
    sp, cp = write_inputs(tmp_path)
    assert gc.isenabled()
    ingest(sp, cp, default_config())
    assert gc.isenabled()
    with pytest.raises(IngestError):
        ingest(sp, cp, default_config(attr_codes={"sex": {"F": 0}}))
    assert gc.isenabled()
    gc.disable()
    try:
        ingest(sp, cp, default_config())
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_exit_before_entrance_names_the_student_row(tmp_path):
    students = STUDENTS_CSV.replace("s3,2013.1,enrolled,", "s3,2013.1,dropout,2012.2")
    sp, cp = write_inputs(tmp_path, students=students, courses=COURSES_CSV.replace("s3,MATH1,2013.1,7.0,88,1\n", ""))
    with pytest.raises(IngestError, match=re.escape("row 4: student s3: exit 2012.2 before entrance 2013.1")):
        ingest(sp, cp, default_config())


def test_unsorted_courses_rejected():
    with pytest.raises(ValueError, match=re.escape("student x: courses not sorted by term")):
        build_cohort([("x", (2012, 1), "enrolled", None, [(2012, 2, 5.0, 50.0, 1), (2012, 1, 5.0, 50.0, 1)])])


def test_unsorted_course_before_entrance_names_the_first():
    courses = [(2013, 1, 5.0, 50.0, 1), (2012, 1, 5.0, 50.0, 1), (2011, 1, 5.0, 50.0, 1)]
    with pytest.raises(ValueError, match=re.escape("student x: course at 2012.1 before entrance 2012.2")):
        build_cohort([("w", (2012, 1), "enrolled", None, []), ("x", (2012, 2), "enrolled", None, courses)])


# --- the course store ------------------------------------------------------------


def _spans(cohort):
    ends = np.cumsum(cohort.course_table.count).tolist()
    return [range(start, end) for start, end in zip([0, *ends], ends)]


@pytest.mark.parametrize("source", ["generated", "ingested", "truncated"])
def test_courses_are_each_students_row_range(source, medium_synth, tmp_path):
    """`len(s.courses)` is a student's course count, read without making an
    object per course, and `s.courses` the range of its rows in the store."""
    cohort = {
        "generated": lambda: medium_synth,
        "ingested": lambda: ingest_written(medium_synth, tmp_path),
        "truncated": lambda: truncate_records(medium_synth, Term(2012, 1)),
    }[source]()
    assert [len(s.courses) for s in cohort.students] == cohort.course_table.count.tolist()
    assert all(type(s.courses) is range for s in cohort.students)
    assert [s.courses for s in cohort.students] == _spans(cohort)
    assert len(cohort.course_columns.code) == len(cohort.course_table.term) == sum(map(len, _spans(cohort)))


@pytest.mark.parametrize("source", ["generated", "ingested"])
def test_copies_and_pickles_carry_the_columns(source, tmp_path):
    cohort = generate(GeneratorConfig(seed=11, range_start=Term(2009, 1), range_end=Term(2011, 2), intake_per_term=10)).cohort
    if source == "ingested":
        cohort = ingest_written(cohort, tmp_path)
    from_rows = reference_truncate(cohort, next_term(cohort.range.hi))  # every row kept, built anew
    for how in (copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))):
        got = how(cohort)
        assert got == cohort == from_rows and repr(got) == repr(cohort) == repr(from_rows)
        for built, want in zip(got.course_table, from_rows.course_table):
            assert built.dtype == want.dtype and built.tobytes() == want.tobytes()
        assert [got.course_columns.codes[k] for k in got.course_columns.code.tolist()] == [
            row.course_code for s in from_rows.students for row in rows(from_rows, s)
        ]


def test_stores_compare_bytes_dtypes_and_code_texts(tiny_cohort):
    store = tiny_cohort.course_columns
    table, n = store.table, len(store.codes)
    renumbered = records._CourseColumns(table, n - 1 - store.code, [*reversed(store.codes), "unused"])
    assert renumbered == store and repr(renumbered) == repr(store)
    zeros = np.zeros_like(table.score)
    signed = [records._CourseColumns(table._replace(score=z), store.code, store.codes) for z in (zeros, -zeros)]
    assert np.array_equal(*(s.table.score for s in signed)) and signed[0] != signed[1]
    changes = [
        records._CourseColumns(table._replace(count=table.count.astype(np.int32)), store.code, store.codes),
        records._CourseColumns(table, store.code, ["X" + code for code in store.codes]),
    ]
    for changed in changes:
        assert changed != store and repr(changed) != repr(store)
    assert dataclasses.replace(tiny_cohort, course_columns=changes[0]) != tiny_cohort


def test_public_surface_is_unchanged():
    names = [f.name for f in dataclasses.fields(StudentStructure)]
    assert names == ["student_id", "static_attrs", "entrance", "status", "exit_term", "courses"]
    assert CourseTable._fields == ("count", "term", "failed", "attendance", "score")
    with pytest.raises(TypeError):
        StudentStructure("x", (), Term(2012, 1), EnrollmentStatus.ENROLLED, None)  # courses has no default


def test_signed_zeros_keep_their_sign(tmp_path):
    courses = COURSES_CSV + "s3,Z1,2013.2,-0,-0.0,1\ns3,Z2,2013.2,0,0,1\n"
    cohort = ingest(*write_inputs(tmp_path, courses=courses), default_config()).cohort
    table, z1, z2 = cohort.course_table, *cohort.student("s3").courses[1:]
    assert [math.copysign(1.0, v) for v in (table.score[z1], table.attendance[z1])] == [-1.0, -1.0]
    assert [math.copysign(1.0, v) for v in (table.score[z2], table.attendance[z2])] == [1.0, 1.0]
