from __future__ import annotations

import pytest

from dropsplit.records import (
    Cohort,
    EnrollmentStatus,
    IngestConfig,
    IngestError,
    ReferenceTermError,
    ingest,
    subset_enrolled,
    subset_exited_before,
    subset_exited_from,
    truncate_records,
)
from dropsplit.terms import Term, TermRange, iter_terms

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
        with pytest.raises(IngestError, match="sex"):
            ingest(sp, cp, cfg)


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
