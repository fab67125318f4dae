"""Synthetic cohort generation with controllable dropout dynamics.

Each student carries a latent ability scalar that drives scores, attendance,
and a discrete-time logistic dropout hazard evaluated after every term, so
weaker histories both look worse and end sooner. Students still active at the
data horizon are emitted as enrolled, and their simulated continuation goes to
a sealed ground-truth table that the split and evaluation paths never read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .records import Cohort, CourseRecord, EnrollmentStatus, IngestError, StudentStructure, _column_index, _read_csv
from .rng import Xoshiro256StarStar, derive_seed
from .terms import (
    DEFAULT_TERMS_PER_YEAR,
    Term,
    TermRange,
    format_term,
    iter_terms,
    next_term,
    parse_term,
)


@dataclass(frozen=True)
class RegimeChange:
    """Structural shift: from `term` on, the dropout hazard logit moves by `shift`."""

    term: Term
    hazard_shift: float


@dataclass
class GeneratorConfig:
    """Knobs for the cohort simulator.

    Graduation requires both the nominal number of terms and an accumulated
    pass count, so weaker students run long before finishing (capped at
    max_terms); that spread keeps enrollment duration from being a giveaway
    feature. hazard_baseline is the per-term dropout probability at average
    covariates; the other hazard weights act on its log-odds.
    """

    seed: int = 42
    terms_per_year: int = DEFAULT_TERMS_PER_YEAR
    range_start: Term = Term(2009, 1)
    range_end: Term = Term(2019, 1)
    intake_per_term: int = 150
    degree_length_terms: int = 8
    max_terms: int = 12
    passes_required: int | None = None  # default: 3 passes per nominal term
    courses_min: int = 3
    courses_max: int = 6
    ability_mean: float = 0.0
    ability_std: float = 1.0
    score_base: float = 6.2
    score_ability_gain: float = 1.4
    score_noise_std: float = 1.4
    attendance_base: float = 86.0
    attendance_ability_gain: float = 7.0
    attendance_noise_std: float = 9.0
    pass_score: float = 5.0
    admission_ability_gain: float = 1.1
    admission_noise_std: float = 0.9
    collapse_score_factor: float = 0.30
    collapse_attendance_factor: float = 0.40
    score_behind_drop: float = 0.35
    attendance_behind_drop: float = 2.5
    hazard_baseline: float = 0.02
    hazard_ability_weight: float = 0.5
    hazard_fail_weight: float = 1.2
    hazard_behind_weight: float = 0.5
    hazard_early_multiplier: float = 0.3
    early_terms: int = 2
    regime_change: RegimeChange | None = None
    degree_count: int = 8

    def __post_init__(self) -> None:
        if self.intake_per_term < 1:
            raise ValueError("intake_per_term must be >= 1")
        if self.degree_length_terms < 1:
            raise ValueError("degree_length_terms must be >= 1")
        if self.max_terms < self.degree_length_terms:
            raise ValueError("max_terms must be >= degree_length_terms")
        if not 1 <= self.courses_min <= self.courses_max:
            raise ValueError("need 1 <= courses_min <= courses_max")
        if not 0.0 <= self.hazard_baseline <= 1.0:
            raise ValueError("hazard_baseline is a probability in [0, 1]")
        if not 0.0 <= self.pass_score <= 10.0:
            raise ValueError("pass_score must lie in [0, 10]")
        if self.passes_required is None:
            self.passes_required = 3 * self.degree_length_terms


@dataclass(frozen=True)
class TruthRow:
    """Sealed continuation for a student emitted as enrolled."""

    status: EnrollmentStatus
    exit_term: Term


@dataclass
class SyntheticCohort:
    cohort: Cohort
    truth: dict[str, TruthRow]
    config: GeneratorConfig


def _clamp(x: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, x))


def _hazard(
    cfg: GeneratorConfig,
    ability: float,
    fail_frac: float,
    behind_terms: float,
    k: int,
    current: Term,
) -> float:
    """Per-term dropout probability after completing enrolled term k.

    behind_terms measures how many terms of passes the student is short of the
    graduation schedule; its weight makes struggling students increasingly
    likely to leave mid-degree instead of only in the first year.
    """
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
    return 1.0 / (1.0 + math.exp(-logit))


def _simulate_student(cfg: GeneratorConfig, sid: str, entrance: Term, gen: Xoshiro256StarStar):
    ability = gen.normal(cfg.ability_mean, cfg.ability_std)
    admission = round(_clamp(5.0 + cfg.admission_ability_gain * ability + gen.normal(0.0, cfg.admission_noise_std), 0.0, 10.0), 2)
    static_attrs = (
        ("entrance_age", float(17 + gen.randbelow(8))),
        ("sex_code", float(gen.randbelow(2))),
        ("degree_code", float(gen.randbelow(cfg.degree_count))),
        ("admission_score", admission),
    )
    courses: list[CourseRecord] = []
    current = entrance
    status: EnrollmentStatus | None = None
    exit_term: Term | None = None
    passed_total = 0
    prev_fail_frac = 0.0
    pace = cfg.passes_required / cfg.degree_length_terms
    for k in range(1, cfg.max_terms + 1):
        # Dropout is decided at the start of the term from the record so far;
        # the final term of a dropout is then lived in collapse. Falling behind
        # schedule depresses performance on its own, so exits are preceded by a
        # visible decline rather than arriving out of nowhere.
        behind_terms = max(0.0, (pace * (k - 1) - passed_total) / pace)
        p = _hazard(cfg, ability, prev_fail_frac, behind_terms, k, current)
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
            score = round(_clamp(score, 0.0, 10.0), 2)
            att = round(_clamp(att, 0.0, 100.0), 2)
            result = 1 if score >= cfg.pass_score else 0
            fails += 1 - result
            courses.append(CourseRecord(course_code=code, term=current, score=score, attendance_pct=att, result=result))
        if collapsing:
            status, exit_term = EnrollmentStatus.DROPOUT, current
            break
        passed_total += n_courses - fails
        prev_fail_frac = fails / n_courses
        done = k >= cfg.degree_length_terms and passed_total >= cfg.passes_required
        if done or k >= cfg.max_terms:
            status, exit_term = EnrollmentStatus.GRADUATED, current
            break
        current = next_term(current, cfg.terms_per_year)
    assert status is not None and exit_term is not None
    return static_attrs, courses, status, exit_term


def generate(cfg: GeneratorConfig) -> SyntheticCohort:
    """Generate one cohort; same config (and seed) always yields the same data.

    Students whose simulated exit falls past the horizon are recorded as
    enrolled with their courses truncated at the horizon; the simulated
    outcome is returned separately as sealed truth.
    """
    horizon = cfg.range_end
    students: list[StudentStructure] = []
    truth: dict[str, TruthRow] = {}
    index = 0
    for entrance in iter_terms(cfg.range_start, cfg.range_end, cfg.terms_per_year):
        for _ in range(cfg.intake_per_term):
            sid = f"S{index:06d}"
            gen = Xoshiro256StarStar(derive_seed(cfg.seed, index))
            static_attrs, courses, status, exit_term = _simulate_student(cfg, sid, entrance, gen)
            if exit_term <= horizon:
                students.append(
                    StudentStructure(
                        student_id=sid,
                        static_attrs=static_attrs,
                        entrance=entrance,
                        status=status,
                        exit_term=exit_term,
                        courses=tuple(courses),
                    )
                )
            else:
                recorded = tuple(c for c in courses if c.term <= horizon)
                students.append(
                    StudentStructure(
                        student_id=sid,
                        static_attrs=static_attrs,
                        entrance=entrance,
                        status=EnrollmentStatus.ENROLLED,
                        exit_term=None,
                        courses=recorded,
                    )
                )
                truth[sid] = TruthRow(status=status, exit_term=exit_term)
            index += 1
    cohort = Cohort(
        students=tuple(students),
        range=TermRange(cfg.range_start, cfg.range_end),
        terms_per_year=cfg.terms_per_year,
    )
    return SyntheticCohort(cohort=cohort, truth=truth, config=cfg)


# --- summary statistics -----------------------------------------------------


@dataclass
class CohortStats:
    n_students: int
    n_courses: int
    status_counts: dict[str, int]
    entrance_cohorts: list[tuple[int, int, int, int, int, float]]
    # (year, entered, dropouts, graduated, enrolled, dropout share of exited)
    terms_by_status: dict[str, tuple[float, int, int]]  # mean, min, max active terms
    records_histogram: list[tuple[str, int]]


def validate(c: Cohort) -> CohortStats:
    """Summary statistics used for eyeballing generated (or ingested) cohorts."""
    status_counts = {status.value: 0 for status in EnrollmentStatus}
    per_year: dict[int, list[int]] = {}
    terms_by_status: dict[str, list[int]] = {status.value: [] for status in EnrollmentStatus}
    records_counts: list[int] = []
    n_courses = 0
    for s in c.students:
        status_counts[s.status.value] += 1
        row = per_year.setdefault(s.entrance.year, [0, 0, 0, 0])
        row[0] += 1
        if s.status is EnrollmentStatus.DROPOUT:
            row[1] += 1
        elif s.status is EnrollmentStatus.GRADUATED:
            row[2] += 1
        else:
            row[3] += 1
        active_terms = len({rec.term for rec in s.courses})
        terms_by_status[s.status.value].append(active_terms)
        records_counts.append(len(s.courses))
        n_courses += len(s.courses)
    cohorts = []
    for year in sorted(per_year):
        entered, drop, grad, enrolled = per_year[year]
        exited = drop + grad
        share = drop / exited if exited else 0.0
        cohorts.append((year, entered, drop, grad, enrolled, share))
    summary = {}
    for status, values in terms_by_status.items():
        if values:
            summary[status] = (sum(values) / len(values), min(values), max(values))
        else:
            summary[status] = (0.0, 0, 0)
    buckets = [(0, 0), (1, 10), (11, 20), (21, 30), (31, 40), (41, 10**9)]
    histogram = []
    for lo, hi in buckets:
        label = f"{lo}-{hi}" if hi < 10**9 else f"{lo}+"
        histogram.append((label, sum(1 for v in records_counts if lo <= v <= hi)))
    return CohortStats(
        n_students=len(c.students),
        n_courses=n_courses,
        status_counts=status_counts,
        entrance_cohorts=cohorts,
        terms_by_status=summary,
        records_histogram=histogram,
    )


def format_stats(stats: CohortStats) -> str:
    lines = [
        f"students={stats.n_students}",
        f"course_records={stats.n_courses}",
    ]
    for status, count in sorted(stats.status_counts.items()):
        lines.append(f"status.{status}={count}")
    lines.append("entrance_year,entered,dropout,graduated,enrolled,dropout_share_of_exited")
    for year, entered, drop, grad, enrolled, share in stats.entrance_cohorts:
        lines.append(f"{year},{entered},{drop},{grad},{enrolled},{share:.4f}")
    lines.append("active_terms_by_status(mean,min,max)")
    for status, (mean, lo, hi) in sorted(stats.terms_by_status.items()):
        lines.append(f"{status},{mean:.3f},{lo},{hi}")
    lines.append("records_per_student_histogram")
    for label, count in stats.records_histogram:
        lines.append(f"{label},{count}")
    return "\n".join(lines) + "\n"


# --- CSV emission -----------------------------------------------------------


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def write_students_csv(c: Cohort, path: str | Path) -> None:
    path = Path(path)
    names = c.static_attr_names
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(("student_id", "entrance_term", "status", "exit_term") + names) + "\n")
        for s in c.students:
            exit_text = format_term(s.exit_term) if s.exit_term is not None else ""
            attrs = [_fmt(v) for _, v in s.static_attrs]
            fh.write(",".join([s.student_id, format_term(s.entrance), s.status.value, exit_text] + attrs) + "\n")


def write_courses_csv(c: Cohort, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("student_id,course_code,term,score,attendance_pct,result\n")
        for s in c.students:
            for rec in s.courses:
                fh.write(
                    ",".join(
                        [
                            s.student_id,
                            rec.course_code,
                            format_term(rec.term),
                            _fmt(rec.score),
                            _fmt(rec.attendance_pct),
                            str(rec.result),
                        ]
                    )
                    + "\n"
                )


def write_truth_csv(synth: SyntheticCohort, path: str | Path) -> None:
    """Sealed outcomes for enrolled students; only oracle tooling may read this."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("student_id,status,exit_term\n")
        for sid in sorted(synth.truth):
            row = synth.truth[sid]
            fh.write(f"{sid},{row.status.value},{format_term(row.exit_term)}\n")


_TRUTH_COLUMNS = ("student_id", "status", "exit_term")


def read_truth_csv(path: str | Path, terms_per_year: int = DEFAULT_TERMS_PER_YEAR) -> dict[str, TruthRow]:
    """The sealed outcomes written by :func:`write_truth_csv`.

    A bad file raises `IngestError` naming the file, and the row where a cell
    is bad.
    """
    path = Path(path)
    out: dict[str, TruthRow] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        header, rows = _read_csv(fh, path.name, _TRUTH_COLUMNS)
        column = _column_index(header)
        sid, status, exit_term = (column[name] for name in _TRUTH_COLUMNS)
        for rownum, cells in enumerate(rows, start=2):
            if cells[sid] in out:
                raise IngestError(f"{path.name}: row {rownum}: duplicate student_id {cells[sid]!r}")
            try:
                out[cells[sid]] = TruthRow(
                    status=EnrollmentStatus(cells[status]),
                    exit_term=parse_term(cells[exit_term], terms_per_year),
                )
            except ValueError as exc:
                raise IngestError(f"{path.name}: row {rownum}: {exc}") from None
    return out
