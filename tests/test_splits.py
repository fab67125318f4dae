from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dropsplit.features import CANONICAL_TIME_FEATURES, FeatureSetSpec, student_label, vector_table
from dropsplit.records import truncate_records
from dropsplit.rng import Xoshiro256StarStar
from dropsplit import splits
from dropsplit.splits import (
    RULES,
    DatasetMeta,
    Exclusion,
    LabeledDataset,
    SplitApproach,
    SplitError,
    SplitRequest,
    apply_rule,
    build_split,
    split_sides,
)
from dropsplit.terms import Term, TermRange, from_ordinal, iter_terms, next_term, term_distance, to_ordinal

from conftest import (
    FeatureVector,
    Row,
    UndefinedFeatureVector,
    build_cohort,
    last,
    naive_values,
    subset_enrolled,
    subset_exited_before,
    subset_exited_from,
)

T_MID = Term(2012, 1)


def included_train_students(cohort, t):
    """Students exited before t with more than one active term (the closed-form oracle)."""
    return [s for s in subset_exited_before(cohort, t) if last(cohort, s) > s.entrance]


class TestSplitA:
    def test_sizes_match_source_populations(self, medium_synth):
        train, test = build_split(medium_synth, SplitRequest(SplitApproach.A, T_MID, seed=1))
        before = subset_exited_before(medium_synth, T_MID)
        onward = subset_exited_from(medium_synth, T_MID)
        assert train.n == len(before)
        assert test.n == len(onward)
        assert not train.student_ids & test.student_ids
        pool = {s.student_id for s in before} | {s.student_id for s in onward}
        assert train.student_ids | test.student_ids == pool

    def test_same_seed_same_partition(self, medium_synth):
        first = build_split(medium_synth, SplitRequest(SplitApproach.A, T_MID, seed=99))
        second = build_split(medium_synth, SplitRequest(SplitApproach.A, T_MID, seed=99))
        assert first[0].rows == second[0].rows
        assert np.array_equal(first[0].X, second[0].X)
        assert first[1].rows == second[1].rows

    def test_different_seed_different_partition(self, medium_synth):
        a = build_split(medium_synth, SplitRequest(SplitApproach.A, T_MID, seed=1))
        b = build_split(medium_synth, SplitRequest(SplitApproach.A, T_MID, seed=2))
        assert a[0].student_ids != b[0].student_ids

    def test_rows_use_full_history_vectors(self, medium_synth):
        spec = FeatureSetSpec.for_cohort(medium_synth)
        train, test = build_split(medium_synth, SplitRequest(SplitApproach.A, T_MID, seed=5))
        by_id = {s.student_id: s for s in medium_synth.students}
        for ds in (train, test):
            for i, (sid, as_of) in enumerate(ds.rows):
                end = next_term(last(medium_synth, by_id[sid]))
                assert as_of == end
                assert tuple(ds.X[i]) == naive_values(medium_synth, by_id[sid], end, spec)

    def test_train_membership_frequency_is_uniform(self, tiny_cohort):
        # 5 exited students at 2014.1, train side picks 3, so every student
        # should land in train with frequency 3/5 give or take sampling noise.
        t = Term(2014, 1)
        counts: Counter[str] = Counter()
        n_seeds = 1000
        for seed in range(n_seeds):
            train, _ = build_split(tiny_cohort, SplitRequest(SplitApproach.A, t, seed=seed))
            counts.update(train.student_ids)
        reference, _ = build_split(tiny_cohort, SplitRequest(SplitApproach.A, t, seed=0))
        pool = len(subset_exited_before(tiny_cohort, t)) + len(subset_exited_from(tiny_cohort, t))
        assert pool == 5
        expected = reference.n / pool
        assert set(counts) == {"alice", "bob", "carol", "erin", "frank"}
        for sid, hits in counts.items():
            assert abs(hits / n_seeds - expected) < 0.05, sid

    def test_empty_side_raises(self, medium_synth):
        with pytest.raises(SplitError, match="exited before"):
            build_split(medium_synth, SplitRequest(SplitApproach.A, medium_synth.range.lo, seed=0))


class TestSplitB1:
    def test_membership_is_temporal(self, medium_synth):
        train, test = build_split(medium_synth, SplitRequest(SplitApproach.B1, T_MID))
        before = {s.student_id for s in subset_exited_before(medium_synth, T_MID)}
        onward = {s.student_id for s in subset_exited_from(medium_synth, T_MID)}
        assert train.student_ids == before
        assert test.student_ids == onward

    def test_pool_equals_split_a_pool(self, medium_synth):
        a_train, a_test = build_split(medium_synth, SplitRequest(SplitApproach.A, T_MID, seed=3))
        b_train, b_test = build_split(medium_synth, SplitRequest(SplitApproach.B1, T_MID))
        assert a_train.student_ids | a_test.student_ids == b_train.student_ids | b_test.student_ids

    def test_counts_match_subset_oracle(self, medium_synth):
        for t in [Term(2011, 1), T_MID, Term(2013, 2)]:
            train, test = build_split(medium_synth, SplitRequest(SplitApproach.B1, t))
            assert train.n == len(subset_exited_before(medium_synth, t))
            assert test.n == len(subset_exited_from(medium_synth, t))


class TestSplitB2:
    def test_excludes_single_term_students_both_sides(self, medium_synth):
        b1_train, b1_test = build_split(medium_synth, SplitRequest(SplitApproach.B1, T_MID))
        b2_train, b2_test = build_split(medium_synth, SplitRequest(SplitApproach.B2, T_MID))
        single_before = [s for s in subset_exited_before(medium_synth, T_MID) if last(medium_synth, s) == s.entrance]
        single_onward = [s for s in subset_exited_from(medium_synth, T_MID) if last(medium_synth, s) == s.entrance]
        assert b2_train.n == b1_train.n - len(single_before)
        assert b2_test.n == b1_test.n - len(single_onward)
        reasons = {e.reason for ds in (b2_train, b2_test) for e in ds.meta.exclusions}
        if single_before or single_onward:
            assert reasons == {"single_term_history"}

    def test_rows_match_per_student_recomputation(self, medium_synth):
        spec = FeatureSetSpec.for_cohort(medium_synth)
        train, test = build_split(medium_synth, SplitRequest(SplitApproach.B2, T_MID))
        by_id = {s.student_id: s for s in medium_synth.students}
        for ds in (train, test):
            for i, (sid, as_of) in enumerate(ds.rows):
                assert as_of == last(medium_synth, by_id[sid])
                assert tuple(ds.X[i]) == naive_values(medium_synth, by_id[sid], as_of, spec)

    def test_test_rows_can_use_post_reference_records(self, medium_synth):
        # The documented leak: a student still active at T contributes a test
        # row whose window extends past T.
        _, test = build_split(medium_synth, SplitRequest(SplitApproach.B2, T_MID))
        by_id = {s.student_id: s for s in medium_synth.students}
        assert any(last(medium_synth, by_id[sid]) > T_MID for sid, _ in test.rows)


class TestSplitB2T:
    def test_test_rows_pinned_at_reference(self, medium_synth):
        _, test = build_split(medium_synth, SplitRequest(SplitApproach.B2T, T_MID))
        assert all(as_of == T_MID for _, as_of in test.rows)

    def test_train_identical_to_b2_train(self, medium_synth):
        b2_train, _ = build_split(medium_synth, SplitRequest(SplitApproach.B2, T_MID))
        b2t_train, _ = build_split(medium_synth, SplitRequest(SplitApproach.B2T, T_MID))
        assert b2_train.rows == b2t_train.rows
        assert np.array_equal(b2_train.X, b2t_train.X)

    def test_exclusion_reasons(self, medium_synth):
        _, test = build_split(medium_synth, SplitRequest(SplitApproach.B2T, T_MID))
        onward = subset_exited_from(medium_synth, T_MID)
        excluded = {e.student_id for e in test.meta.exclusions}
        assert test.n + len(excluded) == len(onward)
        for e in test.meta.exclusions:
            assert e.reason in ("starts_at_reference_term", "no_records_before_reference")

    def test_test_count_does_not_exceed_b2(self, medium_synth):
        for t in [Term(2011, 2), T_MID, Term(2013, 1)]:
            _, b2_test = build_split(medium_synth, SplitRequest(SplitApproach.B2, t))
            _, b2t_test = build_split(medium_synth, SplitRequest(SplitApproach.B2T, t))
            assert b2t_test.n <= b2_test.n

    def test_rows_survive_truncation(self, medium_synth):
        # The no-leakage property: rebuild from a cohort truncated at T.
        original_train, original_test = build_split(medium_synth, SplitRequest(SplitApproach.B2T, T_MID))
        cut = truncate_records(medium_synth, T_MID)
        _, cut_test = build_split(cut, SplitRequest(SplitApproach.B2T, T_MID))
        assert original_test.rows == cut_test.rows
        assert np.array_equal(original_test.X, cut_test.X)


class TestSplitB3T:
    def test_row_count_closed_form(self, medium_synth):
        train, _ = build_split(medium_synth, SplitRequest(SplitApproach.B3T, T_MID))
        expected = sum(
            term_distance(s.entrance, last(medium_synth, s)) for s in included_train_students(medium_synth, T_MID)
        )
        assert train.n == expected

    def test_b2_train_rows_are_a_subset(self, medium_synth):
        b2_train, _ = build_split(medium_synth, SplitRequest(SplitApproach.B2, T_MID))
        b3t_train, _ = build_split(medium_synth, SplitRequest(SplitApproach.B3T, T_MID))
        b3t_rows = set(b3t_train.rows)
        b3t_values = {row: tuple(b3t_train.X[i]) for i, row in enumerate(b3t_train.rows)}
        for i, row in enumerate(b2_train.rows):
            assert row in b3t_rows
            assert tuple(b2_train.X[i]) == b3t_values[row]

    def test_test_identical_to_b2t(self, medium_synth):
        _, b2t_test = build_split(medium_synth, SplitRequest(SplitApproach.B2T, T_MID))
        _, b3t_test = build_split(medium_synth, SplitRequest(SplitApproach.B3T, T_MID))
        assert b2t_test.rows == b3t_test.rows
        assert np.array_equal(b2t_test.X, b3t_test.X)


class TestSplitB4T:
    def test_adds_one_row_per_included_student(self, medium_synth):
        b3t_train, _ = build_split(medium_synth, SplitRequest(SplitApproach.B3T, T_MID))
        b4t_train, _ = build_split(medium_synth, SplitRequest(SplitApproach.B4T, T_MID))
        assert b4t_train.n == b3t_train.n + len(included_train_students(medium_synth, T_MID))

    def test_added_rows_are_full_history_vectors(self, medium_synth):
        b3t_train, _ = build_split(medium_synth, SplitRequest(SplitApproach.B3T, T_MID))
        b4t_train, _ = build_split(medium_synth, SplitRequest(SplitApproach.B4T, T_MID))
        extra = set(b4t_train.rows) - set(b3t_train.rows)
        by_id = {s.student_id: s for s in medium_synth.students}
        spec = FeatureSetSpec.for_cohort(medium_synth)
        values = {row: tuple(b4t_train.X[i]) for i, row in enumerate(b4t_train.rows)}
        for sid, as_of in extra:
            assert as_of == next_term(last(medium_synth, by_id[sid]))
            assert values[(sid, as_of)] == naive_values(medium_synth, by_id[sid], as_of, spec)

    def test_test_identical_to_b2t(self, medium_synth):
        _, b2t_test = build_split(medium_synth, SplitRequest(SplitApproach.B2T, T_MID))
        _, b4t_test = build_split(medium_synth, SplitRequest(SplitApproach.B4T, T_MID))
        assert b2t_test.rows == b4t_test.rows
        assert np.array_equal(b2t_test.X, b4t_test.X)


class TestCrossCutting:
    @pytest.mark.parametrize("approach", list(SplitApproach))
    def test_student_disjointness(self, medium_synth, approach):
        train, test = build_split(medium_synth, SplitRequest(approach, T_MID, seed=4))
        assert not train.student_ids & test.student_ids

    @pytest.mark.parametrize(
        "approach", [SplitApproach.B1, SplitApproach.B2, SplitApproach.B2T, SplitApproach.B3T, SplitApproach.B4T]
    )
    def test_temporal_membership_against_table_rule(self, medium_synth, approach):
        train, test = build_split(medium_synth, SplitRequest(approach, T_MID))
        before = {s.student_id for s in subset_exited_before(medium_synth, T_MID)}
        onward = {s.student_id for s in subset_exited_from(medium_synth, T_MID)}
        assert train.student_ids <= before
        assert test.student_ids <= onward
        by_id = {s.student_id: s for s in medium_synth.students}
        spec = FeatureSetSpec.for_cohort(medium_synth)
        # as-of rule per approach, recomputed independently per row
        for i, (sid, as_of) in enumerate(train.rows):
            s = by_id[sid]
            if approach is SplitApproach.B1:
                assert tuple(train.X[i]) == naive_values(medium_synth, s, next_term(last(medium_synth, s)), spec)
            elif approach in (SplitApproach.B2, SplitApproach.B2T):
                assert tuple(train.X[i]) == naive_values(medium_synth, s, last(medium_synth, s), spec)
            else:
                assert tuple(train.X[i]) == naive_values(medium_synth, s, as_of, spec)

    @pytest.mark.parametrize("approach", list(SplitApproach))
    def test_rows_sorted_by_student_then_term(self, medium_synth, approach):
        train, test = build_split(medium_synth, SplitRequest(approach, T_MID, seed=8))
        for ds in (train, test):
            keys = [(sid, (as_of.year, as_of.index)) for sid, as_of in ds.rows]
            assert keys == sorted(keys)

    @pytest.mark.parametrize("approach", list(SplitApproach))
    def test_labels_are_binary(self, medium_synth, approach):
        train, test = build_split(medium_synth, SplitRequest(approach, T_MID, seed=8))
        for ds in (train, test):
            assert set(np.unique(ds.y)) <= {0, 1}

    def test_shared_cache_is_equivalent(self, medium_synth):
        """A split cut from the table the cohort keeps equals one cut from a
        table built afresh."""
        vector_table(medium_synth)
        for approach in SplitApproach:
            with_cache = build_split(medium_synth, SplitRequest(approach, T_MID, seed=6))
            medium_synth.vector_tables.clear()
            without = build_split(medium_synth, SplitRequest(approach, T_MID, seed=6))
            for a, b in zip(with_cache, without):
                assert a.rows == b.rows
                assert np.array_equal(a.X, b.X)
                assert np.array_equal(a.y, b.y)

    def test_inactive_at_reference_student_keeps_full_history_row(self, tiny_cohort):
        # frank stopped attending in 2014.1 but exits at 2015.1: at T=2014.2 he
        # is still a legitimate test case, carried with his pre-T history.
        t = Term(2014, 2)
        _, test = build_split(tiny_cohort, SplitRequest(SplitApproach.B2T, t))
        assert "frank" in test.student_ids
        row = [i for i, (sid, _) in enumerate(test.rows) if sid == "frank"][0]
        assert test.rows[row][1] == t


    def test_unlabeled_row_names_its_student(self, tiny_cohort):
        # dave is enrolled, so no population of a split holds that student;
        # a caller that hands dave to a rule gets an error naming dave, from
        # the dataset and from the integer side alike.
        tab = vector_table(tiny_cohort)
        t = Term(2014, 1)
        si = np.array([tab.student_ids.index(sid) for sid in ("bob", "dave")])
        with pytest.raises(ValueError, match="student dave has no label"):
            apply_rule(SplitApproach.B1, "train", si, t, tab)
        side = splits._choose(RULES[SplitApproach.B1].train, si, to_ordinal(t), tab)
        with pytest.raises(ValueError, match="student dave has no label"):
            side.xy(tab)


class TestSharedCache:
    def test_cache_of_the_same_features_is_used(self, medium_synth):
        medium_synth.vector_tables.clear()
        spec = FeatureSetSpec.for_cohort(medium_synth)
        train, test = build_split(medium_synth, SplitRequest(SplitApproach.B1, T_MID), spec=spec)
        assert list(medium_synth.vector_tables) == [spec]
        assert vector_table(medium_synth) is medium_synth.vector_tables[spec]
        assert train.X.shape[1] == test.X.shape[1] == len(spec.names)


def test_split_request_rejects_seed_outside_64_bits():
    assert SplitRequest(SplitApproach.A, T_MID, seed=2**64 - 1).seed == 2**64 - 1
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must lie"):
            SplitRequest(SplitApproach.A, T_MID, seed=bad)


# --- the per-vector reference for the row-index path ---
#
# Each rule returns conftest FeatureVectors from the naive filter-then-sum
# reference, one student at a time, over the conftest population oracle, and
# raises UndefinedFeatureVector with the reason code a split records for the
# exclusion; rows are sorted by (student id, as-of ordinal) and copied one
# vector at a time.


def _ref_vector(c, s, t, spec, reason):
    values = naive_values(c, s, t, spec)
    if values is None:
        raise UndefinedFeatureVector(s.student_id, reason)
    return FeatureVector(s.student_id, t, values, student_label(s))


def _ref_final(c, s, t, spec):
    return (_ref_vector(c, s, next_term(last(c, s), c.terms_per_year), spec, "no_course_records"),)


def _ref_last(c, s, t, spec):
    if last(c, s) <= s.entrance:
        raise UndefinedFeatureVector(s.student_id, "single_term_history")
    return (_ref_vector(c, s, last(c, s), spec, "empty_window"),)


def _ref_reference(c, s, t, spec):
    if t <= s.entrance:
        raise UndefinedFeatureVector(s.student_id, "starts_at_reference_term")
    return (_ref_vector(c, s, t, spec, "no_records_before_reference"),)


def _ref_expanded(c, s, t, spec):
    tpy = c.terms_per_year
    history = tuple(
        FeatureVector(s.student_id, u, values, student_label(s))
        for u in iter_terms(next_term(s.entrance, tpy), last(c, s), tpy)
        if (values := naive_values(c, s, u, spec)) is not None
    )
    if not history:
        raise UndefinedFeatureVector(s.student_id, "single_term_history")
    return history


def _ref_expanded_and_final(c, s, t, spec):
    return _ref_expanded(c, s, t, spec) + _ref_final(c, s, t, spec)


REF_RULES = {
    SplitApproach.A: (_ref_final, _ref_final),
    SplitApproach.B1: (_ref_final, _ref_final),
    SplitApproach.B2: (_ref_last, _ref_last),
    SplitApproach.B2T: (_ref_last, _ref_reference),
    SplitApproach.B3T: (_ref_expanded, _ref_reference),
    SplitApproach.B4T: (_ref_expanded_and_final, _ref_reference),
}


def ref_collect(rule, c, students, t, spec, role, exclusions):
    out = []
    for s in students:
        try:
            out.extend(rule(c, s, t, spec))
        except UndefinedFeatureVector as exc:
            exclusions.append(Exclusion(s.student_id, role, exc.reason))
    return out


def ref_materialize(vectors, role, exclusions, spec, tpy):
    vectors = sorted(vectors, key=lambda v: (v.student_id, to_ordinal(v.as_of, tpy)))
    X = np.empty((len(vectors), len(spec.names)), dtype=np.float64)
    y = np.empty(len(vectors), dtype=np.int64)
    for i, v in enumerate(vectors):
        X[i] = v.values
        y[i] = v.label
    meta = DatasetMeta(role, spec.names, tuple(exclusions))
    return LabeledDataset(X=X, y=y, rows=tuple((v.student_id, v.as_of) for v in vectors), meta=meta)


def ref_build_split(c, approach, t, seed, spec):
    tpy = c.terms_per_year
    before, onward = subset_exited_before(c, t), subset_exited_from(c, t)
    train_rule, test_rule = REF_RULES[approach]
    if approach is SplitApproach.A:
        excl = []
        vecs_before = ref_collect(train_rule, c, before, t, spec, "pool", excl)
        vecs_onward = ref_collect(test_rule, c, onward, t, spec, "pool", excl)
        if not vecs_before:
            raise SplitError(f"no students exited before reference term {t}")
        if not vecs_onward:
            raise SplitError(f"no students active at {t} exited within the window")
        pool = sorted(vecs_before + vecs_onward, key=lambda v: v.student_id)
        Xoshiro256StarStar(seed).shuffle(pool)
        n_train = len(vecs_before)
        return (
            ref_materialize(pool[:n_train], "train", excl, spec, tpy),
            ref_materialize(pool[n_train:], "test", [], spec, tpy),
        )
    sides = []
    for rule, role, students in ((train_rule, "train", before), (test_rule, "test", onward)):
        excl = []
        vectors = ref_collect(rule, c, students, t, spec, role, excl)
        sides.append(ref_materialize(vectors, role, excl, spec, tpy))
    train, test = sides
    if not train.n:
        raise SplitError(f"train side empty: no student exited before {t} with a usable vector")
    if not test.n:
        raise SplitError(f"test side empty: no student active at {t} exited within the window with a usable vector")
    return train, test


def split_or_error(build, *args):
    try:
        return build(*args)
    except SplitError as exc:
        return str(exc)


def same_dataset(a, b):
    return (
        a.X.shape == b.X.shape
        and a.X.tobytes() == b.X.tobytes()
        and a.y.dtype == b.y.dtype
        and np.array_equal(a.y, b.y)
        and a.rows == b.rows
        and a.meta == b.meta
    )


FULL_SPEC = FeatureSetSpec(
    static_names=("age", "code"), time_features=CANONICAL_TIME_FEATURES + ("elapsed_terms",)
)
WINDOW = TermRange(Term(2010, 1), Term(2013, 2))


@st.composite
def small_cohorts(draw):
    """Up to seven students entering in a four-year window, with gap terms,
    several courses per term, students without courses, activity and exits
    past the window, exits long after the last course, and enrolled students."""
    lo, hi = to_ordinal(WINDOW.lo), to_ordinal(WINDOW.hi)
    students = []
    for i in range(draw(st.integers(1, 7))):
        entrance = draw(st.integers(lo, hi))
        o, courses = entrance, []
        for k in range(draw(st.integers(0, 5))):
            o += draw(st.integers(0 if k == 0 else 1, 2))
            for _ in range(draw(st.integers(1, 3))):
                courses.append(
                    Row(
                        from_ordinal(o),
                        draw(st.floats(0, 10, allow_nan=False)),
                        draw(st.floats(0, 100, allow_nan=False)),
                        draw(st.integers(0, 1)),
                        f"C{len(courses)}",
                    )
                )
        status = draw(st.sampled_from(["graduated", "dropout", "enrolled"]))
        exit_term = None if status == "enrolled" else from_ordinal(o + draw(st.integers(0, 3)))
        attrs = (("age", float(draw(st.integers(17, 40)))), ("code", draw(st.floats(-1e3, 1e3))))
        students.append((f"s{i}", from_ordinal(entrance), status, exit_term, courses, attrs))
    return build_cohort(students, WINDOW)


@settings(max_examples=80, deadline=None)
@given(small_cohorts(), st.sampled_from([None, FULL_SPEC]), st.integers(0, 2**32))
def test_row_index_path_matches_per_vector_reference(cohort, spec, seed):
    """Every approach at every reference term equals the per-vector path, bit
    for bit: X bytes, labels, rows, and exclusions with reasons and order."""
    resolved = spec or FeatureSetSpec.for_cohort(cohort)
    for t in iter_terms(WINDOW.lo, WINDOW.hi):
        for approach in SplitApproach:
            got = split_or_error(build_split, cohort, SplitRequest(approach, t, seed), spec)
            expected = split_or_error(ref_build_split, cohort, approach, t, seed, resolved)
            if isinstance(expected, str):
                assert got == expected
            else:
                assert not isinstance(got, str), got
                assert all(same_dataset(a, b) for a, b in zip(got, expected))


@settings(max_examples=80, deadline=None)
@given(small_cohorts(), st.sampled_from([None, FULL_SPEC]))
def test_reference_term_test_sides_survive_truncation(cohort, spec):
    """A *T test side rebuilt from the records before T is the same dataset."""
    for t in iter_terms(WINDOW.lo, WINDOW.hi):
        cut = truncate_records(cohort, t)
        for approach in (SplitApproach.B2T, SplitApproach.B3T, SplitApproach.B4T):
            got = split_or_error(build_split, cohort, SplitRequest(approach, t), spec)
            rebuilt = split_or_error(build_split, cut, SplitRequest(approach, t), spec)
            if isinstance(got, str):
                assert got == rebuilt
            else:
                assert same_dataset(got[1], rebuilt[1])


@settings(max_examples=80, deadline=None)
@given(small_cohorts(), st.integers(0, 2**32))
def test_rows_and_exclusions_account_for_each_population(cohort, seed):
    """On each side every student of the population is a row or an exclusion, never both."""
    for t in iter_terms(WINDOW.lo, WINDOW.hi):
        before = {s.student_id for s in subset_exited_before(cohort, t)}
        onward = {s.student_id for s in subset_exited_from(cohort, t)}
        for approach in SplitApproach:
            split = split_or_error(build_split, cohort, SplitRequest(approach, t, seed))
            if isinstance(split, str):
                continue
            sides = [(split[0], before), (split[1], onward)]
            if approach is SplitApproach.A:  # pooled: both sides draw on both populations
                sides = [(split, before | onward)]
            for side, population in sides:
                datasets = side if isinstance(side, tuple) else (side,)
                in_rows = [ds.student_ids for ds in datasets]
                excluded = [e.student_id for ds in datasets for e in ds.meta.exclusions]
                assert len(excluded) == len(set(excluded))
                assert not set(excluded) & set().union(*in_rows)
                assert set(excluded).union(*in_rows) == population


@settings(max_examples=40, deadline=None)
@given(small_cohorts(), st.integers(0, 2**32))
def test_sides_count_what_the_datasets_hold(cohort, seed):
    """`split_sides` is `build_split` without provenance: the same X and y,
    and students, rows and exclusions counted as the datasets hold them."""
    tab = vector_table(cohort)
    for t in iter_terms(WINDOW.lo, WINDOW.hi):
        for approach in SplitApproach:
            request = SplitRequest(approach, t, seed)
            sides = split_or_error(split_sides, cohort, request)
            datasets = split_or_error(build_split, cohort, request)
            if isinstance(datasets, str):
                assert sides == datasets
                continue
            for side, ds in zip(sides, datasets):
                X, y = side.xy(tab)
                assert X.tobytes() == ds.X.tobytes() and y.tolist() == ds.y.tolist()
                assert (side.students, len(side.rows)) == (len(ds.student_ids), ds.n)
                excluded = [(tab.student_ids[i], r) for i, r in zip(side.excluded.tolist(), side.reasons.tolist())]
                assert excluded == [(e.student_id, e.reason) for e in ds.meta.exclusions]


@settings(max_examples=40, deadline=None)
@given(small_cohorts(), st.sampled_from([a for a in SplitApproach if a is not SplitApproach.A]))
def test_apply_rule_sorts_rows_and_keeps_population_order(cohort, approach):
    """Rows come out in (student id, as-of) order whatever the population
    order; exclusions follow the population order."""
    tab = vector_table(cohort)
    t = Term(2012, 1)
    exited = subset_exited_from(cohort, t) + subset_exited_before(cohort, t)
    si = np.array([tab.student_ids.index(s.student_id) for s in exited], dtype=np.int64)
    for role in ("train", "test"):
        forward = apply_rule(approach, role, si, t, tab)
        backward = apply_rule(approach, role, si[::-1], t, tab)
        keys = [(sid, to_ordinal(as_of)) for sid, as_of in forward.rows]
        assert keys == sorted(keys)
        assert backward.rows == forward.rows and backward.X.tobytes() == forward.X.tobytes()
        assert backward.meta.exclusions == forward.meta.exclusions[::-1]
        assert [e.student_id for e in forward.meta.exclusions] == [
            s.student_id for s in exited if s.student_id in {e.student_id for e in forward.meta.exclusions}
        ]


@settings(max_examples=80, deadline=None)
@given(small_cohorts())
def test_table_populations_equal_the_subset_oracle(cohort):
    """At every term of the range the table's populations are, in order, the
    cohort positions of the `subset_*` students: enrolled students and
    students entering after the term included."""
    tab = vector_table(cohort)
    for t in iter_terms(WINDOW.lo, WINDOW.hi):
        o = to_ordinal(t)
        for got, subset in (
            (tab.exited_before(o), subset_exited_before),
            (tab.exited_from(o), subset_exited_from),
            (tab.enrolled(o), subset_enrolled),
        ):
            assert got.tolist() == [tab.student_ids.index(s.student_id) for s in subset(cohort, t)]
