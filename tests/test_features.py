from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dropsplit.features import (
    CANONICAL_TIME_FEATURES,
    FeatureSetSpec,
    VectorCache,
    VectorTable,
    student_label,
    vector_table,
)
from dropsplit.records import Cohort
from dropsplit.terms import Term, iter_terms, next_term, prev_term, term_distance, to_ordinal

from conftest import ALICE, ATTRS, FeatureVector, Row, build_cohort, last, naive_values

STATIC = (18.0, 1.0, 2.0)
ONLY = np.zeros(1, dtype=np.int64)  # the one student of a one-student table


def time_block(vec):
    return vec.values[len(STATIC):]


def table_vectors(tab, pick):
    """The vectors of the rows a table pick chose for its first student."""
    start, count = int(pick.start[0]), int(pick.count[0])
    idx = np.arange(start, start + count)
    X, y = tab.take(idx, pick.as_of)
    rows = tab.names(idx, pick.as_of)
    return [FeatureVector(sid, t, tuple(v), None if lb < 0 else lb) for (sid, t), v, lb in zip(rows, X.tolist(), y.tolist())]


def table_outcome(tab, pick):
    """The values of the one vector a table pick chose, or the reason it is undefined."""
    return table_vectors(tab, pick)[0].values if pick.count[0] else str(pick.reason[0])


@pytest.fixture
def alice() -> Cohort:
    """alice alone in a cohort, over the entrance through one term past the last course."""
    return build_cohort([ALICE])


def pick_one(c, choose, spec=None, sid=None):
    """The vector choose picks from c's table for its student sid (by
    default its only one), or the reason it is undefined."""
    tab = vector_table(c, spec)
    pick = choose(tab, ONLY if sid is None else np.array([tab.student_ids.index(sid)]))
    return table_vectors(tab, pick)[0] if pick.count[0] else str(pick.reason[0])


def as_of(t):
    return lambda tab, si: tab.as_of(si, to_ordinal(t))


def row_names(tab):
    """The (student id, as-of term) of every row of a table."""
    return tab.names(np.arange(len(tab.X)))


def student_rows(tab):
    """Every row of a one-student table, as vectors."""
    return table_vectors(tab, tab.history(ONLY)) + table_vectors(tab, tab.at_end(ONLY))


class TestFeatureVector:
    def test_hand_computed_full_window(self, alice):
        # courses before 2013.1: (8, 90, pass), (4, 70, fail), (6, 80, pass)
        vec = pick_one(alice, as_of(Term(2013, 1)))
        assert vec.values[: len(STATIC)] == STATIC
        completed, taken, failed, mean_att, mean_score = time_block(vec)
        assert completed == 2.0
        assert taken == 3.0
        assert failed == 1.0
        assert mean_att == pytest.approx(80.0)
        assert mean_score == pytest.approx(6.0)

    def test_hand_computed_first_term_only(self, alice):
        vec = pick_one(alice, as_of(Term(2012, 2)))
        completed, taken, failed, mean_att, mean_score = time_block(vec)
        assert completed == 1.0
        assert taken == 2.0
        assert failed == 1.0
        assert mean_att == pytest.approx(80.0)
        assert mean_score == pytest.approx(6.0)

    def test_records_at_or_after_as_of_are_invisible(self, alice):
        vec = pick_one(alice, as_of(Term(2013, 1)))
        *fields, courses = ALICE
        bumped = build_cohort([(*fields, sorted([*courses, (2013, 1, 0.0, 0.0, 0, "HACK")], key=lambda c: c[:2]))])
        assert pick_one(bumped, as_of(Term(2013, 1))).values == vec.values

    def test_domain_errors(self, alice):
        # Rows run as of each term after entrance through one past the final activity.
        tab = vector_table(alice)
        assert [t for _, t in row_names(tab)] == [Term(2012, 2), Term(2013, 1), Term(2013, 2), Term(2014, 1)]
        assert pick_one(alice, as_of(Term(2012, 1))) == "starts_at_reference_term"  # entrance term itself
        assert pick_one(alice, as_of(Term(2011, 2))) == "starts_at_reference_term"
        # Past the end there is no row of its own: the full history, as of that term.
        past = pick_one(alice, as_of(Term(2014, 2)))
        assert past.as_of == Term(2014, 2)
        assert past.values == pick_one(alice, VectorTable.at_end).values

    def test_empty_window_is_undefined_not_crash(self):
        # First record only in the second enrolled term: the 2013.2 window is empty.
        s = build_cohort([("gap", (2013, 1), "enrolled", None, [(2014, 1, 6.0, 80.0, 1)])])
        assert pick_one(s, as_of(Term(2013, 2))) == "no_records_before_reference"
        assert pick_one(s, VectorTable.at_last) == "empty_window"

    def test_label_mapping(self, alice, tiny_cohort):
        assert student_label(tiny_cohort.student("alice")) == 1
        assert student_label(tiny_cohort.student("bob")) == 0
        assert student_label(tiny_cohort.student("dave")) is None
        assert pick_one(alice, as_of(Term(2013, 1))).label == 1
        assert pick_one(tiny_cohort, VectorTable.at_end, sid="dave").label is None


class TestNamedVectors:
    def test_vector_at_end_covers_everything(self, alice):
        vec = pick_one(alice, VectorTable.at_end)
        assert vec.as_of == Term(2014, 1)
        completed, taken, failed, mean_att, mean_score = time_block(vec)
        assert (completed, taken, failed) == (4.0, 5.0, 1.0)
        assert mean_score == pytest.approx((8 + 4 + 6 + 7 + 9) / 5)

    def test_at_end_is_as_of_one_past_last(self, alice):
        direct = pick_one(alice, as_of(next_term(last(alice, alice.students[0]))))
        assert pick_one(alice, VectorTable.at_end) == direct

    def test_vector_at_last_excludes_final_term(self, alice):
        vec = pick_one(alice, VectorTable.at_last)
        assert vec.as_of == Term(2013, 2)
        completed, taken, failed, _, _ = time_block(vec)
        assert (completed, taken) == (3.0, 4.0)

    def test_single_term_student_has_no_last_vector(self, tiny_cohort):
        assert pick_one(tiny_cohort, VectorTable.at_last, sid="carol") == "single_term_history"
        assert isinstance(pick_one(tiny_cohort, VectorTable.at_end, sid="carol"), FeatureVector)

    def test_inactive_student_has_nothing(self, tiny_cohort):
        assert pick_one(tiny_cohort, VectorTable.at_end, sid="gina") == "no_course_records"
        assert pick_one(tiny_cohort, VectorTable.at_last, sid="gina") == "single_term_history"


class TestVectorAsOf:
    def test_matches_table_row_inside_domain(self, alice):
        tab = vector_table(alice)
        row = row_names(tab).index(("alice", Term(2013, 1)))
        vec = pick_one(alice, as_of(Term(2013, 1)))
        assert vec.values == tuple(tab.X[row]) == naive_values(alice, alice.students[0], Term(2013, 1), tab.spec)

    def test_accepts_terms_past_end(self, tiny_cohort):
        # frank's last activity is 2014.1 but his registered exit is 2015.1;
        # at reference 2015.1 his vector is simply his full pre-reference history.
        vec = pick_one(tiny_cohort, as_of(Term(2015, 1)), sid="frank")
        assert vec.as_of == Term(2015, 1)
        assert time_block(vec) == time_block(pick_one(tiny_cohort, VectorTable.at_end, sid="frank"))

    def test_requires_history_before_reference(self, alice):
        assert pick_one(alice, as_of(Term(2012, 1))) == "starts_at_reference_term"


class TestExpandHistory:
    def test_row_per_term(self, alice):
        tab = vector_table(alice)
        vectors = table_vectors(tab, tab.history(ONLY))
        assert len(vectors) == term_distance(Term(2012, 1), last(alice, alice.students[0]))
        assert [v.as_of for v in vectors] == [Term(2012, 2), Term(2013, 1), Term(2013, 2)]
        assert all(v.label == 1 for v in vectors)

    def test_adding_end_term_adds_exactly_one(self, alice):
        through_end = student_rows(vector_table(alice))
        alice_last = last(alice, alice.students[0])
        assert len(through_end) == term_distance(Term(2012, 1), alice_last) + 1
        assert through_end[-1].as_of == next_term(alice_last)

    def test_lower_bound_is_clamped(self, alice):
        # No vector is as of the entrance term or earlier.
        tab = vector_table(alice)
        assert table_vectors(tab, tab.history(ONLY))[0].as_of == next_term(Term(2012, 1))
        assert all(t > Term(2012, 1) for _, t in row_names(tab))

    def test_empty_range_yields_empty_list(self, tiny_cohort):
        tab = vector_table(tiny_cohort)
        pick = tab.history(np.array([tab.student_ids.index("carol")]))
        assert table_vectors(tab, pick) == []
        assert pick.reason[0] == "single_term_history"

    def test_counters_are_monotone(self, alice):
        vectors = student_rows(vector_table(alice))
        for name in ("completed_terms", "courses_taken", "courses_failed"):
            pos = len(ATTRS) + CANONICAL_TIME_FEATURES.index(name)
            series = [v.values[pos] for v in vectors]
            assert series == sorted(series)


completed_pos = len(ATTRS) + CANONICAL_TIME_FEATURES.index("completed_terms")


@st.composite
def random_students(draw):
    n_courses = draw(st.integers(1, 12))
    entrance = Term(2010, draw(st.integers(1, 2)))
    courses = []
    t = entrance
    for i in range(n_courses):
        score, attendance = draw(st.floats(0, 10, allow_nan=False)), draw(st.floats(0, 100, allow_nan=False))
        courses.append(Row(t, score, attendance, draw(st.integers(0, 1)), f"C{i}"))
        if draw(st.booleans()):
            t = next_term(t)
    return ("h", entrance, "graduated", t, courses)  # as build_cohort takes a student


def outcome(vec):
    """A picked vector's values, or the reason it is undefined."""
    return vec if isinstance(vec, str) else vec.values


@settings(max_examples=60, deadline=None)
@given(random_students(), st.integers(1, 10))
def test_no_leakage_property(student, offset):
    """Deleting records at or after the as-of term never changes the vector."""
    sid, entrance, _, _, courses = student
    t = entrance
    for _ in range(offset):
        t = next_term(t)
    t = min(t, next_term(courses[-1].term))
    censored = (sid, entrance, "enrolled", None, [c for c in courses if c.term < t])
    assert outcome(pick_one(build_cohort([censored]), as_of(t))) == outcome(pick_one(build_cohort([student]), as_of(t)))


@settings(max_examples=60, deadline=None)
@given(random_students())
def test_windows_nest(student):
    vectors = student_rows(vector_table(build_cohort([student])))
    taken_pos = len(ATTRS) + CANONICAL_TIME_FEATURES.index("courses_taken")
    series = [v.values[taken_pos] for v in vectors]
    assert series == sorted(series)


FULL_SPEC = FeatureSetSpec(
    static_names=tuple(name for name, _ in ATTRS),
    time_features=CANONICAL_TIME_FEATURES + ("elapsed_terms",),
)


@settings(max_examples=60, deadline=None)
@given(random_students(), st.integers(0, 2))
def test_vectors_match_naive_reference(drawn, gap):
    """The table's rows and picks equal the naive window computation.

    The entrance moves back by `gap` terms so some windows after entrance are
    empty. As-of terms run from entrance through two terms past the end.
    """
    sid, entrance, *fields = drawn
    for _ in range(gap):
        entrance = prev_term(entrance)
    c = build_cohort([(sid, entrance, *fields)])
    s = c.students[0]
    end = next_term(last(c, s))
    tab = vector_table(c, FULL_SPEC)
    for t in iter_terms(entrance, next_term(next_term(end))):
        expected = naive_values(c, s, t, FULL_SPEC)
        as_of_reason = "starts_at_reference_term" if t <= entrance else expected or "no_records_before_reference"
        assert table_outcome(tab, tab.as_of(ONLY, to_ordinal(t))) == as_of_reason
        # A term has a row of its own exactly when it lies in (entrance .. end]
        # and its window holds a record.
        assert ((s.student_id, t) in row_names(tab)) == (t <= end and expected is not None)
    at_end = naive_values(c, s, end, FULL_SPEC) or "no_course_records"
    assert table_outcome(tab, tab.at_end(ONLY)) == at_end
    s_last = last(c, s)
    at_last = "single_term_history" if s_last <= entrance else naive_values(c, s, s_last, FULL_SPEC) or "empty_window"
    assert table_outcome(tab, tab.at_last(ONLY)) == at_last
    history = [v for t in iter_terms(next_term(entrance), s_last) if (v := naive_values(c, s, t, FULL_SPEC))]
    assert [v.values for v in table_vectors(tab, tab.history(ONLY))] == history


class TestSpecAndCache:
    def test_unknown_time_feature_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            FeatureSetSpec(static_names=(), time_features=("bogus",))

    def test_elapsed_terms_alternative(self, alice):
        spec = FeatureSetSpec(static_names=(), time_features=("elapsed_terms", "courses_taken"))
        vec = pick_one(alice, as_of(Term(2013, 1)), spec)
        assert vec.values == (2.0, 3.0)

    def test_cache_matches_direct_computation(self, tiny_cohort):
        """The cohort table's picks equal the naive vectors, student by student."""
        tab = vector_table(tiny_cohort)
        spec = tab.spec
        for k, s in enumerate(tiny_cohort.students):
            si = np.array([k])

            def naive(t):
                return FeatureVector(s.student_id, t, naive_values(tiny_cohort, s, t, spec), student_label(s))

            s_last = last(tiny_cohort, s)
            if s_last > s.entrance:
                assert table_vectors(tab, tab.at_last(si)) == [naive(s_last)]
            if s.courses:
                assert table_vectors(tab, tab.at_end(si)) == [naive(next_term(s_last))]
                assert table_vectors(tab, tab.history(si)) == [
                    naive(t) for t in iter_terms(next_term(s.entrance), s_last) if naive_values(tiny_cohort, s, t, spec)
                ]

    def test_cache_replays_undefined_outcomes(self, tiny_cohort):
        tab = vector_table(tiny_cohort)
        gina = np.array([tab.student_ids.index("gina")])
        for _ in range(2):
            pick = vector_table(tiny_cohort).at_end(gina)
            assert table_vectors(tab, pick) == []
            assert pick.reason[0] == "no_course_records"

    def test_a_cohort_keeps_one_table_per_feature_set(self, tiny_cohort):
        spec = FeatureSetSpec.for_cohort(tiny_cohort)
        courses_only = FeatureSetSpec(static_names=(), time_features=("courses_taken",))
        assert type(tiny_cohort.vector_tables) is VectorCache and not tiny_cohort.vector_tables
        tab = vector_table(tiny_cohort)
        assert vector_table(tiny_cohort, spec) is tab and tab.spec == spec
        assert vector_table(tiny_cohort, courses_only).spec == courses_only
        assert list(tiny_cohort.vector_tables) == [spec, courses_only]

    def test_a_filled_memo_leaves_the_cohort_as_it_was(self, tiny_cohort):
        fresh = dataclasses.replace(tiny_cohort)
        vector_table(tiny_cohort)
        vector_table(tiny_cohort, FeatureSetSpec(static_names=(), time_features=("elapsed_terms",)))
        assert tiny_cohort == fresh and repr(tiny_cohort) == repr(fresh)
        for how in (copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))):
            got = how(tiny_cohort)
            assert got == fresh and repr(got) == repr(fresh)
            assert vector_table(got).X.tobytes() == vector_table(fresh).X.tobytes()

    def test_a_dropped_cohort_frees_its_tables(self, tiny_cohort):
        """The memo holds no reference back to its cohort, so dropping the
        cohort frees its tables without the cyclic collector."""
        cohort = dataclasses.replace(tiny_cohort)
        tab = weakref.ref(vector_table(cohort))
        enabled = gc.isenabled()
        gc.disable()
        try:
            del cohort
            assert tab() is None
        finally:
            if enabled:
                gc.enable()

    def test_for_cohort_uses_cohort_attr_names(self, tiny_cohort):
        spec = FeatureSetSpec.for_cohort(tiny_cohort)
        assert spec.names == ("entrance_age", "sex_code", "degree_code") + CANONICAL_TIME_FEATURES
