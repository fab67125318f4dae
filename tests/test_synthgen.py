from __future__ import annotations

import gc
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dropsplit import rng, synthgen
from dropsplit.records import CourseRecord, CourseTable, EnrollmentStatus, IngestConfig, IngestError, ingest
from dropsplit.rng import Draws, Xoshiro256StarStar, derive_seed
from dropsplit.synthgen import (
    GeneratorConfig,
    RegimeChange,
    TruthRow,
    format_stats,
    generate,
    read_truth_csv,
    validate,
    write_courses_csv,
    write_students_csv,
    write_truth_csv,
)
from dropsplit.terms import Term, iter_terms, next_term, term_distance


def small_config(**overrides) -> GeneratorConfig:
    base = dict(
        seed=7,
        range_start=Term(2009, 1),
        range_end=Term(2014, 2),
        intake_per_term=20,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


# --- the one-student reference simulation ----------------------------------
#
# The simulator as first written: one student at a time, one draw and one
# Python float at a time. `generate` steps all students of a lane chunk
# together in numpy and must give the same cohort, student for student.


def reference_clamp(x: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, x))


def reference_hazard(cfg, ability, fail_frac, behind_terms, k, current) -> float:
    if cfg.hazard_baseline <= 0.0:
        return 0.0
    if cfg.hazard_baseline >= 1.0:
        return 1.0
    logit = math.log(cfg.hazard_baseline / (1.0 - cfg.hazard_baseline))
    logit += cfg.hazard_ability_weight * (-ability)
    logit += cfg.hazard_fail_weight * fail_frac
    logit += cfg.hazard_behind_weight * behind_terms
    if k <= cfg.early_terms:
        logit += cfg.hazard_early_multiplier
    rc = cfg.regime_change
    if rc is not None and current >= rc.term:
        logit += rc.hazard_shift
    try:
        return 1.0 / (1.0 + math.exp(-logit))
    except OverflowError:  # the scalar simulation raised here before
        return 0.0


def simulate_student(cfg: GeneratorConfig, entrance: Term, gen: Draws):
    """One student's career: (static attributes, all courses, status, exit term)."""
    ability = gen.normal(cfg.ability_mean, cfg.ability_std)
    admission = round(
        reference_clamp(5.0 + cfg.admission_ability_gain * ability + gen.normal(0.0, cfg.admission_noise_std), 0.0, 10.0),
        2,
    )
    static_attrs = (
        ("entrance_age", float(17 + gen.randbelow(8))),
        ("sex_code", float(gen.randbelow(2))),
        ("degree_code", float(gen.randbelow(cfg.degree_count))),
        ("admission_score", admission),
    )
    courses: list[CourseRecord] = []
    current = entrance
    passed_total = 0
    prev_fail_frac = 0.0
    pace = cfg.passes_required / cfg.degree_length_terms
    for k in range(1, cfg.max_terms + 1):
        behind_terms = max(0.0, (pace * (k - 1) - passed_total) / pace)
        p = reference_hazard(cfg, ability, prev_fail_frac, behind_terms, k, current)
        collapsing = gen.random() < p
        span = cfg.courses_max - cfg.courses_min + 1
        n_courses = cfg.courses_min + gen.randbelow(span)
        fails = 0
        for _ in range(n_courses):
            code = f"C{gen.randbelow(120):03d}"
            score = (
                cfg.score_base
                + cfg.score_ability_gain * ability
                - cfg.score_behind_drop * behind_terms
                + gen.normal(0.0, cfg.score_noise_std)
            )
            att = (
                cfg.attendance_base
                + cfg.attendance_ability_gain * ability
                - cfg.attendance_behind_drop * behind_terms
                + gen.normal(0.0, cfg.attendance_noise_std)
            )
            if collapsing:
                score *= cfg.collapse_score_factor
                att *= cfg.collapse_attendance_factor
            score = round(reference_clamp(score, 0.0, 10.0), 2)
            att = round(reference_clamp(att, 0.0, 100.0), 2)
            result = 1 if score >= cfg.pass_score else 0
            fails += 1 - result
            courses.append(CourseRecord(course_code=code, term=current, score=score, attendance_pct=att, result=result))
        if collapsing:
            return static_attrs, courses, EnrollmentStatus.DROPOUT, current
        passed_total += n_courses - fails
        prev_fail_frac = fails / n_courses
        done = k >= cfg.degree_length_terms and passed_total >= cfg.passes_required
        if done or k >= cfg.max_terms:
            return static_attrs, courses, EnrollmentStatus.GRADUATED, current
        current = next_term(current, cfg.terms_per_year)
    raise AssertionError("max_terms >= 1 ends every career")


class CountingStream(Xoshiro256StarStar):
    words = 0

    def next_u64(self) -> int:
        self.words += 1
        return super().next_u64()


def signed(items) -> list:
    """Attributes or courses with each float as its repr, which tells -0.0 from 0.0."""
    out = []
    for item in items:
        fields = item if isinstance(item, tuple) else (item.course_code, item.term, item.score, item.attendance_pct, item.result)
        out.append(tuple(repr(v) if isinstance(v, float) else v for v in fields))
    return out


def assert_matches_reference(cfg: GeneratorConfig) -> list[int]:
    """`generate` equals the reference student by student; returns each student's word count."""
    synth = generate(cfg)
    entrances = [e for e in iter_terms(cfg.range_start, cfg.range_end, cfg.terms_per_year) for _ in range(cfg.intake_per_term)]
    assert len(synth.cohort.students) == len(entrances)
    words = []
    for index, (student, entrance) in enumerate(zip(synth.cohort.students, entrances)):
        gen = CountingStream(derive_seed(cfg.seed, index))
        attrs, courses, status, exit_term = simulate_student(cfg, entrance, gen)
        words.append(gen.words)
        assert student.student_id == f"S{index:06d}"
        assert student.entrance == entrance
        assert signed(student.static_attrs) == signed(attrs)
        assert signed(student.courses) == signed(tuple(c for c in courses if c.term <= cfg.range_end))
        if exit_term <= cfg.range_end:
            assert (student.status, student.exit_term) == (status, exit_term)
            assert student.student_id not in synth.truth
        else:
            assert (student.status, student.exit_term) == (EnrollmentStatus.ENROLLED, None)
            assert synth.truth[student.student_id] == TruthRow(status=status, exit_term=exit_term)
    assert len(synth.truth) == sum(1 for s in synth.cohort.students if s.status is EnrollmentStatus.ENROLLED)
    # The table handed to the cohort is the one its objects give.
    table = CourseTable.of(synth.cohort.students, cfg.terms_per_year)
    assert all(a.dtype == b.dtype and a.tolist() == b.tolist() for a, b in zip(synth.cohort.course_table, table))
    return words


def active_terms(s) -> int:
    return len({c.term for c in s.courses})


class TestGenerate:
    def test_zero_hazard_means_no_dropouts(self):
        cfg = small_config(hazard_baseline=0.0, hazard_ability_weight=0.0, hazard_fail_weight=0.0, hazard_early_multiplier=0.0)
        cohort = generate(cfg).cohort
        assert all(s.status is not EnrollmentStatus.DROPOUT for s in cohort.students)
        # everyone with enough terms graduates, between the nominal and capped lengths
        for s in cohort.students:
            if s.status is EnrollmentStatus.GRADUATED:
                taken = term_distance(s.entrance, s.exit_term) + 1
                assert cfg.degree_length_terms <= taken <= cfg.max_terms

    def test_certain_hazard_everyone_drops_after_first_term(self):
        cfg = small_config(hazard_baseline=1.0)
        cohort = generate(cfg).cohort
        exited = [s for s in cohort.students if s.exited]
        assert exited
        assert all(s.status is EnrollmentStatus.DROPOUT for s in exited)
        assert all(s.exit_term == s.entrance for s in exited)

    def test_same_seed_same_cohort(self):
        a = generate(small_config())
        b = generate(small_config())
        assert a.cohort == b.cohort
        assert a.truth == b.truth

    def test_students_draw_their_scalar_streams(self, monkeypatch):
        # Student i reads the scalar stream of derive_seed(seed, i). Long
        # careers read past the first lane block, and the cohort spans more
        # than one chunk of lanes.
        cfg = small_config(seed=2**64 - 1, max_terms=14, courses_max=9, intake_per_term=3)
        monkeypatch.setattr(synthgen, "_LANES", 7)
        words = assert_matches_reference(cfg)
        assert len(words) > 7
        assert max(words) > rng._BLOCK

    def test_collector_paused_while_generating(self, monkeypatch):
        states = []
        real = synthgen._simulate_chunk

        def spy(*args):
            states.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(synthgen, "_simulate_chunk", spy)
        assert gc.isenabled()
        generate(small_config(intake_per_term=2))
        assert states and not any(states)
        assert gc.isenabled()

    def test_different_seeds_differ(self):
        assert generate(small_config(seed=1)).cohort != generate(small_config(seed=2)).cohort

    def test_dropouts_have_shorter_histories(self):
        cohort = generate(GeneratorConfig(seed=3, range_start=Term(2009, 1), range_end=Term(2016, 2), intake_per_term=70)).cohort
        drop = [active_terms(s) for s in cohort.students if s.status is EnrollmentStatus.DROPOUT]
        grad = [active_terms(s) for s in cohort.students if s.status is EnrollmentStatus.GRADUATED]
        assert drop and grad
        mean_drop = sum(drop) / len(drop)
        mean_grad = sum(grad) / len(grad)
        assert mean_drop < mean_grad
        # Mann-Whitney style check via normal approximation: the gap must be
        # decisive, not a fluke (z beyond the 1% tail).
        n1, n2 = len(drop), len(grad)
        u = sum(1 for d in drop for g in grad if d < g) + 0.5 * sum(
            1 for d in drop for g in grad if d == g
        )
        mean_u = n1 * n2 / 2
        sd_u = math.sqrt(n1 * n2 * (n1 + n2 + 1) / 12)
        z = (u - mean_u) / sd_u
        assert z > 2.33

    def test_enrolled_students_carry_sealed_truth(self):
        synth = generate(small_config())
        enrolled = {s.student_id for s in synth.cohort.students if not s.exited}
        assert set(synth.truth) == enrolled
        for sid, row in synth.truth.items():
            assert row.exit_term > synth.cohort.range.hi
            assert row.status in (EnrollmentStatus.GRADUATED, EnrollmentStatus.DROPOUT)

    def test_every_student_has_entrance_term_records(self):
        cohort = generate(small_config()).cohort
        for s in cohort.students:
            assert s.courses
            assert s.courses[0].term == s.entrance

    def test_early_hazard_multiplier_shifts_dropouts_earlier(self):
        fractions = []
        for mult in (0.0, 0.7, 1.4, 2.1, 2.8):
            cfg = small_config(hazard_early_multiplier=mult, intake_per_term=60)
            cohort = generate(cfg).cohort
            drops = [s for s in cohort.students if s.status is EnrollmentStatus.DROPOUT]
            short = sum(1 for s in drops if active_terms(s) <= cfg.early_terms)
            fractions.append(short / len(drops))
        assert fractions == sorted(fractions)
        assert fractions[-1] > fractions[0]

    def test_regime_change_raises_post_change_dropout_rate(self):
        change = Term(2012, 1)
        cfg = small_config(regime_change=RegimeChange(term=change, hazard_shift=1.5), intake_per_term=60)
        cohort = generate(cfg).cohort
        baseline = generate(small_config(intake_per_term=60)).cohort

        def realized_dropout_share(c, lo_entrance, hi_entrance):
            group = [s for s in c.students if lo_entrance <= s.entrance <= hi_entrance]
            drops = sum(1 for s in group if s.status is EnrollmentStatus.DROPOUT)
            return drops / len(group)

        # entrants after the change live entirely under the raised hazard
        shifted = realized_dropout_share(cohort, change, cohort.range.hi)
        unshifted = realized_dropout_share(baseline, change, baseline.range.hi)
        assert shifted > unshifted + 0.05

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(intake_per_term=0)
        with pytest.raises(ValueError):
            GeneratorConfig(hazard_baseline=1.5)
        with pytest.raises(ValueError):
            GeneratorConfig(courses_min=5, courses_max=3)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(degree_count=0), "degree_count must be >= 1, got 0"),
            (dict(score_base=math.nan), "score_base must be finite, got nan"),
            (dict(attendance_noise_std=math.inf), "attendance_noise_std must be finite, got inf"),
            (dict(hazard_baseline=math.nan), "hazard_baseline must be finite, got nan"),
            (dict(ability_mean=-math.inf), "ability_mean must be finite, got -inf"),
            (dict(regime_change=RegimeChange(Term(2012, 1), math.nan)), "regime_change.hazard_shift must be finite"),
        ],
    )
    def test_bad_setting_is_named(self, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            GeneratorConfig(**overrides)

    def test_seed_outside_64_bits_rejected(self):
        assert GeneratorConfig(seed=2**64 - 1).seed == 2**64 - 1
        for bad in (-1, 2**64):
            with pytest.raises(ValueError, match="seed must lie"):
                GeneratorConfig(seed=bad)


SEEDS = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))


def half_cents(lo: int, hi: int):
    """Values c / 100 + 0.005: ``np.round(v, 2)`` rounds many of them unlike Python's ``round``."""
    return st.integers(lo, hi).map(lambda c: c / 100 + 0.005)


@st.composite
def generator_configs(draw) -> GeneratorConfig:
    """Small cohorts whose draws take every path of the lane simulation.

    Course spans and degree counts that are not powers of two make rejection
    draws; a span or degree count of 1 draws no word. A hazard of 0 keeps
    every student to the end of a long career, and with a small lane block
    its words run past several refills. Scores and attendance clamp at both
    ends, and a collapse factor of 0 turns a negative value into -0.0. With
    no gains and no noise, a score or attendance is its base, which may be a
    half cent.
    """
    courses_min = draw(st.integers(1, 5))
    degree_length = draw(st.integers(1, 8))
    regime = draw(st.one_of(st.none(), st.builds(RegimeChange, st.builds(Term, st.integers(2008, 2012), st.integers(1, 3)), st.floats(-3, 3))))
    return GeneratorConfig(
        seed=draw(SEEDS),
        terms_per_year=draw(st.sampled_from([1, 2, 3])),
        range_start=Term(2009, 1),
        range_end=Term(draw(st.integers(2009, 2011)), 1),
        intake_per_term=draw(st.integers(1, 3)),
        degree_length_terms=degree_length,
        max_terms=degree_length + draw(st.integers(0, 12)),
        courses_min=courses_min,
        courses_max=courses_min + draw(st.integers(0, 6)),
        degree_count=draw(st.integers(1, 11)),
        hazard_baseline=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 0.4))),
        regime_change=regime,
        score_base=draw(st.one_of(st.floats(-4, 14), half_cents(-400, 1400))),
        score_ability_gain=draw(st.sampled_from([0.0, 1.4])),
        score_behind_drop=draw(st.sampled_from([0.0, 0.35])),
        score_noise_std=draw(st.sampled_from([0.0, 1.4, 6.0])),
        attendance_base=draw(st.one_of(st.floats(-20, 120), half_cents(-2000, 12000))),
        attendance_noise_std=draw(st.sampled_from([0.0, 9.0])),
        collapse_score_factor=draw(st.sampled_from([0.0, 0.3])),
        collapse_attendance_factor=draw(st.sampled_from([0.0, 0.4])),
        pass_score=draw(st.floats(0, 10)),
    )


@settings(max_examples=60, deadline=None)
@given(cfg=generator_configs(), lanes=st.sampled_from([1, 2, 5, synthgen._LANES]), block=st.sampled_from([2, 16, rng._BLOCK]))
def test_generate_matches_one_student_reference(cfg, lanes, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthgen, "_LANES", lanes)
        mp.setattr(rng, "_BLOCK", block)
        assert_matches_reference(cfg)


def test_hazard_matches_reference_value_for_value():
    # numpy's exp differs from math.exp in the last ulp on some hosts; the
    # hazard must be the reference's to the bit.
    values = np.random.default_rng(3)
    n = 5000
    ability, fail_frac, behind = values.normal(size=n), values.random(n), values.uniform(0, 6, n)
    current = [Term(int(y), int(i)) for y, i in zip(values.integers(2009, 2016, n), values.integers(1, 3, n))]
    cfg = small_config(hazard_baseline=0.07, regime_change=RegimeChange(Term(2012, 2), 0.8))
    ordinal = np.array([2 * t.year + t.index - 1 for t in current])
    for k in (1, 3, 9):
        got = synthgen._hazard(cfg, ability, fail_frac, behind, k, ordinal >= 2 * 2012 + 1).tolist()
        want = [reference_hazard(cfg, *args, k, t) for *args, t in zip(ability.tolist(), fail_frac.tolist(), behind.tolist(), current)]
        assert list(map(repr, got)) == list(map(repr, want))


class TestRoundTrip:
    def test_csvs_reingest_to_identical_cohort(self, tmp_path):
        synth = generate(small_config())
        write_students_csv(synth.cohort, tmp_path / "students.csv")
        write_courses_csv(synth.cohort, tmp_path / "courses.csv")
        cfg = IngestConfig(
            range_start=synth.cohort.range.lo,
            range_end=synth.cohort.range.hi,
            terms_per_year=synth.cohort.terms_per_year,
        )
        result = ingest(tmp_path / "students.csv", tmp_path / "courses.csv", cfg)
        assert result.rejected_courses == []
        assert result.dropped_students == 0
        assert result.duplicate_rows == 0
        assert result.cohort == synth.cohort

    def test_same_seed_byte_identical_csvs(self, tmp_path):
        for tag in ("a", "b"):
            synth = generate(small_config())
            write_students_csv(synth.cohort, tmp_path / f"students_{tag}.csv")
            write_courses_csv(synth.cohort, tmp_path / f"courses_{tag}.csv")
            write_truth_csv(synth, tmp_path / f"truth_{tag}.csv")
        for name in ("students", "courses", "truth"):
            assert (tmp_path / f"{name}_a.csv").read_bytes() == (tmp_path / f"{name}_b.csv").read_bytes()

    def test_truth_csv_roundtrip(self, tmp_path):
        synth = generate(small_config())
        write_truth_csv(synth, tmp_path / "truth.csv")
        assert read_truth_csv(tmp_path / "truth.csv") == synth.truth

    @pytest.mark.parametrize(
        "text, message",
        [
            ("student_id,status,exit_term\nS1,dropout,2013.1\nS2,foo,2013.1\n", "truth.csv: row 3: 'foo' is not a valid"),
            ("student_id,status,exit_term\nS1,dropout,2013.x\n", "truth.csv: row 2: malformed term '2013.x'"),
            ("student_id,status,exit_term\nS1,dropout,2013.3\n", "truth.csv: row 2: term index 3"),
            ("student_id,status\nS1,dropout\n", "truth.csv: missing columns ['exit_term']"),
            ("student_id,status,exit_term\nS1,dropout\n", "truth.csv: row 2: 2 cells, the header has 3"),
            ("student_id,status,exit_term\nS1,dropout,2013.1\nS1,graduated,2015.2\n", "truth.csv: row 3: duplicate student_id 'S1'"),
        ],
    )
    def test_bad_truth_csv_names_file_and_row(self, tmp_path, text, message):
        (tmp_path / "truth.csv").write_text(text, encoding="utf-8")
        with pytest.raises(IngestError, match=re.escape(message)):
            read_truth_csv(tmp_path / "truth.csv")


class TestValidate:
    def test_counts_add_up(self):
        cohort = generate(small_config()).cohort
        stats = validate(cohort)
        assert stats.n_students == len(cohort.students)
        assert sum(stats.status_counts.values()) == stats.n_students
        assert sum(entered for _, entered, *_ in stats.entrance_cohorts) == stats.n_students
        assert sum(count for _, count in stats.records_histogram) == stats.n_students

    def test_format_is_stable_text(self):
        cohort = generate(small_config()).cohort
        text = format_stats(validate(cohort))
        assert text.startswith("students=")
        assert "records_per_student_histogram" in text
        assert format_stats(validate(cohort)) == text
