"""Synthetic cohort generation with controllable dropout dynamics.

Each student carries a latent ability scalar that drives scores, attendance,
and a discrete-time logistic dropout hazard evaluated after every term, so
weaker histories both look worse and end sooner. Students still active at the
data horizon are emitted as enrolled, and their simulated continuation goes to
a sealed ground-truth table that the split and evaluation paths never read.

Student i draws from its own xoshiro256** stream, seeded with
``derive_seed(seed, i)``. `generate` simulates the students of a lane chunk
together, one `rng.LaneDraws` lane each, one career term and one course slot
at a time, and each student makes its draws in the order a one-student
simulation makes them. The arithmetic runs on float64 arrays in the same
order of operations as on Python floats, which gives the same doubles; the
steps where numpy could differ stay Python's, value by value: `math.log`,
`math.cos` and `math.exp`, ``round(v, 2)``, and clamps that give +0.0 for
-0.0. A cohort is thus byte for byte that of the one-student simulation,
which the tests keep as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .records import (
    Cohort,
    CourseTable,
    EnrollmentStatus,
    IngestError,
    StudentStructure,
    _CourseColumns,
    _column_index,
    _read_csv,
)
from .rng import LaneDraws, check_seed, derive_seed
from .terms import (
    DEFAULT_TERMS_PER_YEAR,
    Term,
    TermRange,
    format_term,
    from_ordinal,
    iter_terms,
    parse_term,
    to_ordinal,
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
        check_seed(self.seed)
        settings = [(f.name, getattr(self, f.name)) for f in fields(self)]
        if self.regime_change is not None:
            settings.append(("regime_change.hazard_shift", self.regime_change.hazard_shift))
        for name, value in settings:
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.degree_count < 1:
            raise ValueError(f"degree_count must be >= 1, got {self.degree_count}")
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


def _clamp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``min(hi, max(lo, v))`` of every value v, as Python computes it.

    `max` keeps ``lo`` unless v is greater, so -0.0 clamps to +0.0 at a bound
    of 0.0 (where ``np.maximum`` gives -0.0), and so would a nan.
    """
    x = np.where(x > lo, x, lo)
    return np.where(x < hi, x, hi)


def _round2(x: np.ndarray) -> np.ndarray:
    """Python's ``round(v, 2)`` of every value; ``np.round`` can differ in the last ulp."""
    return np.fromiter(map(round, x.tolist(), repeat(2)), np.float64, len(x))


def _exp(x: float) -> float:
    """`math.exp`, or inf where it overflows: a hazard logit below about -709 gives 0.0."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _hazard(
    cfg: GeneratorConfig,
    ability: np.ndarray,
    fail_frac: np.ndarray,
    behind_terms: np.ndarray,
    k: int,
    changed: np.ndarray,
) -> np.ndarray:
    """Per-term dropout probability of each student after enrolled term k.

    behind_terms measures how many terms of passes a student is short of the
    graduation schedule; its weight makes struggling students increasingly
    likely to leave mid-degree instead of only in the first year. changed
    marks the students whose current term is under the regime change.
    """
    if cfg.hazard_baseline <= 0.0:
        return np.zeros(len(ability))
    if cfg.hazard_baseline >= 1.0:
        return np.ones(len(ability))
    logit = math.log(cfg.hazard_baseline / (1.0 - cfg.hazard_baseline)) + cfg.hazard_ability_weight * -ability
    logit = logit + cfg.hazard_fail_weight * fail_frac
    logit = logit + cfg.hazard_behind_weight * behind_terms
    if k <= cfg.early_terms:
        logit = logit + cfg.hazard_early_multiplier
    if cfg.regime_change is not None:
        logit = np.where(changed, logit + cfg.regime_change.hazard_shift, logit)
    return 1.0 / (1.0 + np.fromiter(map(_exp, (-logit).tolist()), np.float64, len(logit)))


# Students simulated together, one numpy lane each.
_LANES = 512
# Course codes are C000 to C119.
_COURSE_CODES = tuple(f"C{i:03d}" for i in range(120))
_STATIC_NAMES = ("entrance_age", "sex_code", "degree_code", "admission_score")


def _simulate_chunk(cfg: GeneratorConfig, seeds: list[int], entrance: np.ndarray) -> tuple:
    """Simulate the careers of the students with these stream seeds and entrance ordinals.

    All students step together, one career term and one course slot at a
    time; a student draws from the lane of its chunk position and lets it go
    when it exits. Each student makes the draws of the one-student
    simulation, in its order: the ability and admission normals; entrance
    age, sex and degree; each term, the collapse uniform and the course
    count; each course, its code, then the score and attendance normals.

    Returns ``(static, dropout, exit_term, courses)``: per student, the
    (age, sex, degree, admission) attributes, whether it left as a dropout
    (else it graduated) and its exit term ordinal; and per course, in the
    order simulated, the columns (student, term ordinal, index into
    `_COURSE_CODES`, score, attendance, passed).
    """
    n = len(seeds)
    draws = LaneDraws(seeds)
    lanes = np.arange(n)
    ability = draws.normal(lanes, cfg.ability_mean, cfg.ability_std)
    admission = 5.0 + cfg.admission_ability_gain * ability + draws.normal(lanes, 0.0, cfg.admission_noise_std)
    static = list(
        zip(
            (17 + draws.randbelow(lanes, 8)).astype(np.float64).tolist(),
            draws.randbelow(lanes, 2).astype(np.float64).tolist(),
            draws.randbelow(lanes, cfg.degree_count).astype(np.float64).tolist(),
            _round2(_clamp(admission, 0.0, 10.0)).tolist(),
        )
    )
    dropout = np.zeros(n, dtype=bool)
    exit_term = np.zeros(n, dtype=np.int64)
    changed_from = math.inf
    if cfg.regime_change is not None:  # the first ordinal whose term is at or after the change
        rc, tpy = cfg.regime_change.term, cfg.terms_per_year
        changed_from = rc.year * tpy + min(rc.index, tpy + 1) - 1
    span = cfg.courses_max - cfg.courses_min + 1
    pace = cfg.passes_required / cfg.degree_length_terms
    # The active students: chunk position (their lane), and the state their careers carry.
    who, current = lanes, entrance
    passed_total = np.zeros(n, dtype=np.int64)
    prev_fail_frac = np.zeros(n)
    parts: list[tuple[np.ndarray, ...]] = []
    for k in range(1, cfg.max_terms + 1):
        # Dropout is decided at the start of the term from the record so far;
        # the final term of a dropout is then lived in collapse. Falling behind
        # schedule depresses performance on its own, so exits are preceded by a
        # visible decline rather than arriving out of nowhere.
        behind_terms = _clamp((pace * (k - 1) - passed_total) / pace, 0.0, math.inf)
        p = _hazard(cfg, ability, prev_fail_frac, behind_terms, k, current >= changed_from)
        collapsing = draws.random(who) < p
        n_courses = cfg.courses_min + draws.randbelow(who, span)
        slots = []
        for slot in range(cfg.courses_max):
            taking = np.flatnonzero(n_courses > slot)
            if not len(taking):
                break
            lanes = who[taking]
            code = draws.randbelow(lanes, len(_COURSE_CODES))
            score_noise = draws.normal(lanes, 0.0, cfg.score_noise_std)
            attendance_noise = draws.normal(lanes, 0.0, cfg.attendance_noise_std)
            slots.append((taking, code, score_noise, attendance_noise))
        taking, code, score_noise, attendance_noise = map(np.concatenate, zip(*slots))
        a, behind, collapse = ability[taking], behind_terms[taking], collapsing[taking]
        score = cfg.score_base + cfg.score_ability_gain * a - cfg.score_behind_drop * behind + score_noise
        att = cfg.attendance_base + cfg.attendance_ability_gain * a - cfg.attendance_behind_drop * behind + attendance_noise
        score = _round2(_clamp(np.where(collapse, score * cfg.collapse_score_factor, score), 0.0, 10.0))
        att = _round2(_clamp(np.where(collapse, att * cfg.collapse_attendance_factor, att), 0.0, 100.0))
        passed = score >= cfg.pass_score
        parts.append((who[taking], current[taking], code, score, att, passed))
        fails = np.bincount(taking[~passed], minlength=len(who))
        passed_total = passed_total + (n_courses - fails)
        prev_fail_frac = fails / n_courses
        done = collapsing | (k >= cfg.max_terms)
        if k >= cfg.degree_length_terms:
            done |= passed_total >= cfg.passes_required
        dropout[who[collapsing]] = True
        exit_term[who[done]] = current[done]
        stay = np.flatnonzero(~done)
        if not len(stay):
            break
        draws.release(who[done])
        who, ability, passed_total, prev_fail_frac = who[stay], ability[stay], passed_total[stay], prev_fail_frac[stay]
        current = current[stay] + 1
    return static, dropout, exit_term, tuple(map(np.concatenate, zip(*parts)))


def generate(cfg: GeneratorConfig) -> SyntheticCohort:
    """Generate one cohort; same config (and seed) always yields the same data.

    Student i draws from the stream of ``derive_seed(cfg.seed, i)``. Students
    whose simulated exit falls past the horizon are recorded as enrolled with
    their courses truncated at the horizon; the simulated outcome is returned
    separately as sealed truth. The chunks' simulated course columns, code
    included, are joined into the cohort's one course store, and each student's
    `courses` are its span of it, as an ingested student's are.
    """
    window = TermRange(cfg.range_start, cfg.range_end)
    tpy = cfg.terms_per_year
    horizon = to_ordinal(cfg.range_end, tpy)
    entrances = [
        entrance
        for entrance in iter_terms(cfg.range_start, cfg.range_end, cfg.terms_per_year)
        for _ in range(cfg.intake_per_term)
    ]
    people: list[dict] = []  # each student's fields but its courses
    truth: dict[str, TruthRow] = {}
    columns: list[tuple[np.ndarray, ...]] = []
    for first in range(0, len(entrances), _LANES):
        indices = range(first, min(first + _LANES, len(entrances)))
        entrance = np.array([to_ordinal(entrances[i], tpy) for i in indices], dtype=np.int64)
        static, dropout, exit_ordinal, courses = _simulate_chunk(cfg, [derive_seed(cfg.seed, i) for i in indices], entrance)
        # The recorded courses, student by student, each student's in the
        # order simulated.
        student, term, code, score, att, passed = courses
        recorded = np.flatnonzero(term <= horizon)
        order = recorded[np.argsort(student[recorded], kind="stable")]
        count = np.bincount(student[order], minlength=len(indices))
        columns.append((count, term[order], ~passed[order], att[order], score[order], code[order]))
        exits = zip(dropout.tolist(), exit_ordinal.tolist())
        for index, values, (dropped, exit_at) in zip(indices, static, exits):
            sid = f"S{index:06d}"
            status = EnrollmentStatus.DROPOUT if dropped else EnrollmentStatus.GRADUATED
            exit_term = from_ordinal(exit_at, tpy)
            if exit_at > horizon:
                truth[sid] = TruthRow(status=status, exit_term=exit_term)
                status, exit_term = EnrollmentStatus.ENROLLED, None
            attrs = tuple(zip(_STATIC_NAMES, values))
            people.append(dict(student_id=sid, static_attrs=attrs, entrance=entrances[index], status=status, exit_term=exit_term))
    *table, code = map(np.concatenate, zip(*columns))
    store = _CourseColumns(CourseTable(*table), code, list(_COURSE_CODES))
    students = tuple(StudentStructure(**attrs, courses=range(*span)) for attrs, span in zip(people, store.spans()))
    cohort = Cohort(students=students, range=window, course_columns=store, terms_per_year=tpy)
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
    # Records and distinct active terms per student, read from the course
    # table: a student's courses are contiguous and sorted by term, so each
    # change of student or term starts a new active term.
    table = c.course_table
    records_counts = table.count.tolist()
    student = np.repeat(np.arange(len(c.students)), table.count)
    starts = np.ones(len(student), dtype=bool)
    starts[1:] = (student[1:] != student[:-1]) | (table.term[1:] != table.term[:-1])
    active = np.bincount(student[starts], minlength=len(c.students)).tolist()
    for s, active_terms in zip(c.students, active):
        status_counts[s.status.value] += 1
        row = per_year.setdefault(s.entrance.year, [0, 0, 0, 0])
        row[0] += 1
        if s.status is EnrollmentStatus.DROPOUT:
            row[1] += 1
        elif s.status is EnrollmentStatus.GRADUATED:
            row[2] += 1
        else:
            row[3] += 1
        terms_by_status[s.status.value].append(active_terms)
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
        n_courses=sum(records_counts),
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


class _Memo(dict):
    """``memo[key]`` is ``make(key)``, made once per distinct key."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


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
    """One row per course record, written from the cohort's course columns;
    each distinct term and number is formatted once."""
    path = Path(path)
    store, tpy = c.course_columns, c.terms_per_year
    table = store.table
    term_text, number = _Memo(lambda o: format_term(from_ordinal(o, tpy))), _Memo(_fmt)
    rows = zip(
        chain.from_iterable(map(repeat, (s.student_id for s in c.students), table.count.tolist())),
        map(store.codes.__getitem__, store.code.tolist()),
        map(term_text.__getitem__, table.term.tolist()),
        map(number.__getitem__, table.score.tolist()),
        map(number.__getitem__, table.attendance.tolist()),
        (~table.failed).view(np.uint8).tolist(),
    )
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write("student_id,course_code,term,score,attendance_pct,result\n")
        fh.writelines(f"{sid},{code},{term},{score},{att},{result}\n" for sid, code, term, score, att, result in rows)


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
