from __future__ import annotations

import csv
import gc
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dropsplit.records import (
    _COURSE_COLUMNS,
    _STUDENT_COLUMNS,
    Cohort,
    CourseRecord,
    CourseTable,
    EnrollmentStatus,
    IngestConfig,
    IngestError,
    IngestResult,
    ReferenceTermError,
    StudentStructure,
    _read_csv,
    ingest,
    subset_enrolled,
    subset_exited_before,
    subset_exited_from,
    truncate_records,
)
from dropsplit.terms import Term, TermParseError, TermRange, iter_terms, parse_term, to_ordinal

from conftest import course, make_student

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
        assert [c.term for c in s1.courses] == sorted(c.term for c in s1.courses)
        assert s1.last == Term(2013, 2)
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

    def test_repeated_cells_share_one_object(self, tmp_path):
        sp, cp = write_inputs(tmp_path, courses=COURSES_CSV + "s3,PHYS1,2013.2,8.0,90,1\n")
        cohort = ingest(sp, cp, default_config()).cohort
        s1, s2, s3 = (cohort.student(sid).courses for sid in ("s1", "s2", "s3"))
        assert s1[0].course_code is s2[0].course_code is s3[0].course_code == "MATH1"
        assert s3[1].score is s1[2].score == 8.0
        assert s3[1].attendance_pct is s1[0].attendance_pct == 90.0

    def test_miniterm_mapping(self, tmp_path):
        courses = COURSES_CSV + "s1,SUMMER,2012.S1,8.0,100,1\n"
        sp, cp = write_inputs(tmp_path, courses=courses)
        result = ingest(sp, cp, default_config(miniterm_map={"S1": 2}))
        summer = [c for c in result.cohort.student("s1").courses if c.course_code == "SUMMER"]
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
        assert "\x00X" in [c.course_code for c in result.cohort.student("s1").courses]

    def test_retake_rows_are_kept(self, tmp_path):
        # Same course in a different term is a real retake, not a duplicate.
        result = ingest(*write_inputs(tmp_path), default_config())
        s2 = result.cohort.student("s2")
        assert [c.course_code for c in s2.courses] == ["MATH1", "MATH1"]

    def test_course_after_exit_rejected_with_warning(self, tmp_path):
        courses = COURSES_CSV + "s2,LATE1,2014.1,6.0,70,1\n"
        sp, cp = write_inputs(tmp_path, courses=courses)
        result = ingest(sp, cp, default_config())
        assert (9, "s2", "after_exit") in result.rejected_courses
        assert result.cohort.student("s2").last == Term(2013, 1)

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
        return 0.0 <= float(text) <= 10.0
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
    sp, cp = write_inputs(tmp_path_factory.mktemp("fuzz"), texts["students"], texts["courses"])
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


class TestStudentStructure:
    def test_last_falls_back_to_entrance(self):
        s = make_student("x", (2013, 1), "enrolled", None, [])
        assert s.last == Term(2013, 1)
        assert s.inactive

    def test_course_before_entrance_rejected(self):
        with pytest.raises(ValueError, match="before entrance"):
            make_student("x", (2013, 1), "enrolled", None, [course(2012, 1, 5.0, 50.0, 1)])

    def test_exit_required_for_exited(self):
        with pytest.raises(ValueError, match="requires an exit term"):
            make_student("x", (2013, 1), "dropout", None, [])

    def test_courses_after_exit_rejected(self):
        with pytest.raises(ValueError, match="after exit"):
            make_student("x", (2013, 1), "dropout", (2013, 1), [course(2013, 2, 5.0, 50.0, 1)])


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

    def test_boundary_membership(self, tiny_cohort):
        t = Term(2014, 1)
        before = subset_exited_before(tiny_cohort, t)
        assert {s.student_id for s in before} == {"alice", "bob", "carol"}
        # frank exited exactly at 2015.1: boundary exit >= T goes to the onward set
        onward = subset_exited_from(tiny_cohort, Term(2015, 1))
        assert {s.student_id for s in onward} == {"erin", "frank"}
        assert "frank" not in {s.student_id for s in subset_exited_before(tiny_cohort, Term(2015, 1))}

    def test_entrance_filter_on_onward_set(self, tiny_cohort):
        onward = subset_exited_from(tiny_cohort, Term(2013, 1))
        # erin entered 2013.2 > T, so she is not yet observable at T
        assert "erin" not in {s.student_id for s in onward}

    def test_matches_brute_force_everywhere(self, medium_synth):
        for t in iter_terms(medium_synth.range.lo, medium_synth.range.hi):
            before, onward, enrolled = self.brute_force(medium_synth, t)
            assert subset_exited_before(medium_synth, t) == before
            assert subset_exited_from(medium_synth, t) == onward
            assert subset_enrolled(medium_synth, t) == enrolled

    def test_disjoint_and_exhaustive(self, medium_synth):
        for t in iter_terms(medium_synth.range.lo, medium_synth.range.hi):
            before = {s.student_id for s in subset_exited_before(medium_synth, t)}
            onward = {s.student_id for s in subset_exited_from(medium_synth, t)}
            enrolled = {s.student_id for s in subset_enrolled(medium_synth, t)}
            assert not before & onward
            assert not (before | onward) & enrolled

    def test_monotone_growth(self, medium_synth):
        previous: set[str] = set()
        enrolled_prev = -1
        for t in iter_terms(medium_synth.range.lo, medium_synth.range.hi):
            current = {s.student_id for s in subset_exited_before(medium_synth, t)}
            assert previous <= current
            previous = current
            n_enrolled = len(subset_enrolled(medium_synth, t))
            assert n_enrolled >= enrolled_prev
            enrolled_prev = n_enrolled

    def test_reference_term_outside_range(self, tiny_cohort):
        with pytest.raises(ReferenceTermError):
            subset_exited_before(tiny_cohort, Term(2011, 2))
        with pytest.raises(ReferenceTermError):
            subset_enrolled(tiny_cohort, Term(2017, 1))


class TestCohort:
    def test_rejects_duplicate_ids(self, alice):
        with pytest.raises(ValueError, match="duplicate"):
            Cohort(
                students=(alice, alice),
                range=TermRange(Term(2012, 1), Term(2016, 2)),
            )

    def test_rejects_entrance_outside_range(self, alice):
        with pytest.raises(ValueError, match="outside"):
            Cohort(students=(alice,), range=TermRange(Term(2013, 1), Term(2016, 2)))

    def test_rejects_mismatched_attr_names(self, alice):
        other = make_student("zed", (2013, 1), "enrolled", None, [], attrs=(("height", 1.8),))
        with pytest.raises(ValueError, match="attribute names"):
            Cohort(students=(alice, other), range=TermRange(Term(2012, 1), Term(2016, 2)))


def test_truncate_records_drops_only_late_courses(tiny_cohort):
    t = Term(2013, 1)
    cut = truncate_records(tiny_cohort, t)
    for original, truncated in zip(tiny_cohort.students, cut.students):
        assert truncated.status is original.status
        assert truncated.exit_term == original.exit_term
        assert all(c.term < t for c in truncated.courses)
        assert [c for c in original.courses if c.term < t] == list(truncated.courses)


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


def _reference_float(text: str, column: str, row: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise IngestError(f"row {row}: column {column!r} has non-numeric value {text!r}") from None


def _reference_code_static_attrs(raw, names, provided):
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


def reference_ingest(students_path, courses_path, cfg: IngestConfig) -> IngestResult:
    students_path, courses_path = Path(students_path), Path(courses_path)
    with students_path.open(newline="", encoding="utf-8") as fh:
        header, rows = _read_csv(fh, students_path.name, _STUDENT_COLUMNS)
        attr_names = [c for c in header if c not in _STUDENT_COLUMNS]
        student_rows = [dict(zip(header, cells)) for cells in rows]

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
    students, courses, cfg = case
    sp, cp = write_inputs(tmp_path_factory.mktemp("reference"), students, courses)
    try:
        expected = reference_ingest(sp, cp, cfg)
    except IngestError as exc:
        with pytest.raises(IngestError) as got:
            ingest(sp, cp, cfg)
        if str(exc).startswith("attribute "):  # now also names the file and a row
            assert re.fullmatch(rf"students\.csv: row \d+: {re.escape(str(exc))}", str(got.value))
        else:
            assert str(got.value) == str(exc)
        return
    except ValueError as exc:
        # The reference let an exit before the entrance reach StudentStructure,
        # whose bare ValueError named no row; ingest names the student's row.
        assert "before entrance" in str(exc)
        with pytest.raises(IngestError, match=rf"^row \d+: {re.escape(str(exc))}$"):
            ingest(sp, cp, cfg)
        return
    got = ingest(sp, cp, cfg)
    assert got.cohort == expected.cohort
    assert repr(got.cohort) == repr(expected.cohort)  # also tells 1 from True and 1.0
    assert got.rejected_courses == expected.rejected_courses
    assert got.dropped_students == expected.dropped_students
    assert got.duplicate_rows == expected.duplicate_rows
    assert got.attr_codes == expected.attr_codes
    derived = CourseTable.of(expected.cohort.students, cfg.terms_per_year)
    for name, built, want in zip(CourseTable._fields, got.cohort.course_table, derived):
        assert built.dtype == want.dtype and built.shape == want.shape, name
        assert built.tobytes() == want.tobytes(), name


def test_cohort_derives_its_course_table_from_objects(tiny_cohort):
    table = tiny_cohort.course_table
    assert table is tiny_cohort.course_table  # built once
    assert table.count.tolist() == [len(s.courses) for s in tiny_cohort.students]
    courses = [c for s in tiny_cohort.students for c in s.courses]
    assert table.term.tolist() == [to_ordinal(c.term, 2) for c in courses]
    assert table.failed.tolist() == [c.result == 0 for c in courses]
    assert table.attendance.tolist() == [c.attendance_pct for c in courses]
    assert table.score.tolist() == [c.score for c in courses]
    with pytest.raises(ValueError, match="index beyond"):
        Cohort(students=tiny_cohort.students, range=tiny_cohort.range, terms_per_year=1).course_table


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
    with pytest.raises(ValueError, match="not sorted"):
        StudentStructure(
            student_id="x",
            static_attrs=(),
            entrance=Term(2012, 1),
            status=EnrollmentStatus.ENROLLED,
            exit_term=None,
            courses=(course(2012, 2, 5.0, 50.0, 1), course(2012, 1, 5.0, 50.0, 1)),
        )


def test_unsorted_course_before_entrance_names_the_first():
    with pytest.raises(ValueError, match=re.escape("course at 2012.1 before entrance 2012.2")):
        StudentStructure(
            student_id="x",
            static_attrs=(),
            entrance=Term(2012, 2),
            status=EnrollmentStatus.ENROLLED,
            exit_term=None,
            courses=(course(2013, 1, 5.0, 50.0, 1), course(2012, 1, 5.0, 50.0, 1), course(2011, 1, 5.0, 50.0, 1)),
        )
