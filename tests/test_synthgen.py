from __future__ import annotations

import gc
import math
import re

import pytest

from dropsplit import rng, synthgen
from dropsplit.records import EnrollmentStatus, IngestConfig, IngestError, ingest
from dropsplit.rng import Xoshiro256StarStar, derive_seed
from dropsplit.synthgen import (
    GeneratorConfig,
    RegimeChange,
    format_stats,
    generate,
    read_truth_csv,
    validate,
    write_courses_csv,
    write_students_csv,
    write_truth_csv,
)
from dropsplit.terms import Term, iter_terms, term_distance


def small_config(**overrides) -> GeneratorConfig:
    base = dict(
        seed=7,
        range_start=Term(2009, 1),
        range_end=Term(2014, 2),
        intake_per_term=20,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


class CountingStream(Xoshiro256StarStar):
    words = 0

    def next_u64(self) -> int:
        self.words += 1
        return super().next_u64()


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
        got = generate(cfg).cohort.students
        entrances = [e for e in iter_terms(cfg.range_start, cfg.range_end, cfg.terms_per_year) for _ in range(3)]
        assert len(got) == len(entrances) > 7
        words = []
        for index, (student, entrance) in enumerate(zip(got, entrances)):
            gen = CountingStream(derive_seed(cfg.seed, index))
            attrs, courses, _, _ = synthgen._simulate_student(cfg, student.student_id, entrance, gen)
            assert student.static_attrs == attrs
            assert student.courses == tuple(c for c in courses if c.term <= cfg.range_end)
            words.append(gen.words)
        assert max(words) > rng._BLOCK

    def test_collector_paused_while_generating(self, monkeypatch):
        states = []
        real = synthgen._simulate_student

        def spy(*args):
            states.append(gc.isenabled())
            return real(*args)

        monkeypatch.setattr(synthgen, "_simulate_student", spy)
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

    def test_seed_outside_64_bits_rejected(self):
        assert GeneratorConfig(seed=2**64 - 1).seed == 2**64 - 1
        for bad in (-1, 2**64):
            with pytest.raises(ValueError, match="seed must lie"):
                GeneratorConfig(seed=bad)


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
