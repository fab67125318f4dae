"""Incremental per-student feature vectors.

A student's vector as of term t summarizes only the course records strictly
before t, so walking t forward replays exactly what was knowable at the start
of each term. The canonical layout is the student's static attributes followed
by five history aggregates; vectors over an empty history are undefined rather
than zero-filled, and callers decide how to count the exclusion.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

from .records import Cohort, EnrollmentStatus, StudentStructure
from .terms import DEFAULT_TERMS_PER_YEAR, Term, iter_terms, next_term, term_distance, to_ordinal

CANONICAL_TIME_FEATURES = (
    "completed_terms",
    "courses_taken",
    "courses_failed",
    "mean_attendance",
    "mean_score",
)


class FeatureWindowError(ValueError):
    """Requested as-of term lies outside the student's valid domain."""


class UndefinedFeatureVector(Exception):
    """The vector is not computable; callers exclude the student and log why."""

    def __init__(self, student_id: str, reason: str) -> None:
        super().__init__(f"student {student_id}: {reason}")
        self.student_id = student_id
        self.reason = reason


# Each aggregate reads the ledger entry j that covers the window before the
# as-of term, whose ordinal is o.
TIME_FEATURES = {
    "completed_terms": lambda led, j, o: float(j),
    "courses_taken": lambda led, j, o: float(led.taken[j]),
    "courses_failed": lambda led, j, o: float(led.failed[j]),
    "mean_attendance": lambda led, j, o: led.attendance[j] / led.taken[j],
    "mean_score": lambda led, j, o: led.score[j] / led.taken[j],
    # Calendar terms since entrance, counting gap terms; the alternative to
    # completed_terms for callers who want wall-clock progress.
    "elapsed_terms": lambda led, j, o: float(o - led.entrance),
}


@dataclass(frozen=True)
class FeatureSetSpec:
    """Which static attributes and history aggregates make up a vector."""

    static_names: tuple[str, ...]
    time_features: tuple[str, ...] = CANONICAL_TIME_FEATURES

    def __post_init__(self) -> None:
        unknown = [name for name in self.time_features if name not in TIME_FEATURES]
        if unknown:
            raise ValueError(f"unknown time-based features: {unknown}")

    @property
    def names(self) -> tuple[str, ...]:
        return self.static_names + self.time_features

    @staticmethod
    def for_cohort(cohort: Cohort, time_features: tuple[str, ...] = CANONICAL_TIME_FEATURES) -> "FeatureSetSpec":
        return FeatureSetSpec(static_names=cohort.static_attr_names, time_features=time_features)


@dataclass(frozen=True)
class FeatureVector:
    student_id: str
    as_of: Term
    values: tuple[float, ...]
    label: int | None


def student_label(s: StudentStructure) -> int | None:
    """0 for dropout, 1 for graduated, None while still enrolled."""
    if s.status is EnrollmentStatus.DROPOUT:
        return 0
    if s.status is EnrollmentStatus.GRADUATED:
        return 1
    return None


def _spec_for(s: StudentStructure, spec: FeatureSetSpec | None) -> FeatureSetSpec:
    if spec is not None:
        return spec
    return FeatureSetSpec(static_names=tuple(name for name, _ in s.static_attrs))


@dataclass(frozen=True)
class _Ledger:
    """Running totals over one student's courses, one entry per distinct term.

    Entry j covers the courses of the first j course terms, added left to
    right, so a mean over the window before a term is bit-equal to
    ``sum(window) / len(window)``.
    """

    student: StudentStructure
    terms_per_year: int
    entrance: int  # ordinal of the entrance term
    terms: tuple[int, ...]  # distinct course-term ordinals, ascending
    taken: tuple[int, ...]  # the four totals have len(terms) + 1 entries
    failed: tuple[int, ...]
    attendance: tuple[float, ...]
    score: tuple[float, ...]

    @staticmethod
    def of(s: StudentStructure, terms_per_year: int) -> "_Ledger":
        ords = [to_ordinal(c.term, terms_per_year) for c in s.courses]
        n = len(ords)
        ends = [0] + [k for k in range(1, n + 1) if k == n or ords[k] != ords[k - 1]]

        def totals(items, start) -> tuple:
            sums = list(accumulate(items, initial=start))
            return tuple(sums[k] for k in ends)

        return _Ledger(
            student=s,
            terms_per_year=terms_per_year,
            entrance=to_ordinal(s.entrance, terms_per_year),
            terms=tuple(ords[k - 1] for k in ends[1:]),
            taken=tuple(ends),
            failed=totals((c.result == 0 for c in s.courses), 0),
            attendance=totals((c.attendance_pct for c in s.courses), 0.0),
            score=totals((c.score for c in s.courses), 0.0),
        )


def _vector(led: _Ledger, as_of: Term, spec: FeatureSetSpec, empty_reason: str) -> FeatureVector:
    """The vector over the records strictly before as_of; raises if there are none."""
    s = led.student
    o = to_ordinal(as_of, led.terms_per_year)
    j = bisect_left(led.terms, o)
    if j == 0:
        raise UndefinedFeatureVector(s.student_id, empty_reason)
    static = dict(s.static_attrs)
    values = [static[name] for name in spec.static_names]
    values += [TIME_FEATURES[name](led, j, o) for name in spec.time_features]
    return FeatureVector(
        student_id=s.student_id,
        as_of=as_of,
        values=tuple(values),
        label=student_label(s),
    )


def feature_vector(
    s: StudentStructure,
    t: Term,
    spec: FeatureSetSpec | None = None,
    terms_per_year: int = DEFAULT_TERMS_PER_YEAR,
) -> FeatureVector:
    """Vector as of the start of term t, over records in [entrance .. t).

    t must lie strictly after the entrance term (an entrance-term vector would
    have no history) and at most one term past the last recorded activity.
    """
    end = next_term(s.last, terms_per_year)
    if t <= s.entrance or t > end:
        raise FeatureWindowError(
            f"student {s.student_id}: as-of term {t} outside ({s.entrance} .. {end}]"
        )
    return _vector(_Ledger.of(s, terms_per_year), t, _spec_for(s, spec), "empty_window")


def vector_as_of(
    s: StudentStructure,
    t: Term,
    spec: FeatureSetSpec | None = None,
    terms_per_year: int = DEFAULT_TERMS_PER_YEAR,
) -> FeatureVector:
    """Reference-term vector: everything recorded before t, however old.

    Unlike :func:`feature_vector` this accepts t past the student's final
    activity, where the vector simply covers the full history. Used for test
    rows pinned to a prediction term.
    """
    if t <= s.entrance:
        raise UndefinedFeatureVector(s.student_id, "starts_at_reference_term")
    return _vector(_Ledger.of(s, terms_per_year), t, _spec_for(s, spec), "no_records_before_reference")


def vector_at_last(
    s: StudentStructure,
    spec: FeatureSetSpec | None = None,
    terms_per_year: int = DEFAULT_TERMS_PER_YEAR,
) -> FeatureVector:
    """Vector at the start of the student's final active term.

    Undefined for single-term students (their final term is the entrance term,
    and entrance-term vectors are out of scope); signalled, not raised as a
    crash, so callers can count the exclusion.
    """
    if s.last <= s.entrance:
        raise UndefinedFeatureVector(s.student_id, "single_term_history")
    return feature_vector(s, s.last, spec, terms_per_year)


def vector_at_end(
    s: StudentStructure,
    spec: FeatureSetSpec | None = None,
    terms_per_year: int = DEFAULT_TERMS_PER_YEAR,
) -> FeatureVector:
    """Vector one term past the final activity, i.e. over the complete history."""
    end = next_term(s.last, terms_per_year)
    return _vector(_Ledger.of(s, terms_per_year), end, _spec_for(s, spec), "no_course_records")


def expand_history(
    s: StudentStructure,
    lo: Term,
    hi: Term,
    spec: FeatureSetSpec | None = None,
    terms_per_year: int = DEFAULT_TERMS_PER_YEAR,
) -> list[FeatureVector]:
    """One vector per term in [lo .. hi], sharing the student's label.

    lo is clamped up to the term after entrance (entrance-term vectors are out
    of scope); terms whose window is still empty are skipped. An empty clamped
    range yields an empty list.
    """
    end = next_term(s.last, terms_per_year)
    if hi > end:
        raise FeatureWindowError(f"student {s.student_id}: range end {hi} past {end}")
    lo = max(lo, next_term(s.entrance, terms_per_year))
    led = _Ledger.of(s, terms_per_year)
    resolved = _spec_for(s, spec)
    out = []
    for t in iter_terms(lo, hi, terms_per_year):
        try:
            out.append(_vector(led, t, resolved, "empty_window"))
        except UndefinedFeatureVector:
            continue
    return out


class VectorCache:
    """Memoized per-student vectors for repeated split construction.

    The one memo holds, per student, the vectors as of every term from just
    after entrance through one term past the final activity, leaving out the
    leading terms whose window is still empty (windows only grow, so the
    defined vectors are a suffix of that range). Replaying a split therefore
    rebuilds byte-identical datasets without recomputing histories.
    """

    def __init__(self, cohort: Cohort, spec: FeatureSetSpec | None = None) -> None:
        self.spec = spec if spec is not None else FeatureSetSpec.for_cohort(cohort)
        self.terms_per_year = cohort.terms_per_year
        self._vectors: dict[str, tuple[FeatureVector, ...]] = {}

    def _through_end(self, s: StudentStructure) -> tuple[FeatureVector, ...]:
        vectors = self._vectors.get(s.student_id)
        if vectors is None:
            end = next_term(s.last, self.terms_per_year)
            vectors = tuple(expand_history(s, s.entrance, end, self.spec, self.terms_per_year))
            self._vectors[s.student_id] = vectors
        return vectors

    # Each accessor picks an index into the memo; where none fits, the public
    # function gives the undefined outcome and its reason, or the vector past
    # the end term, which is the full history as of a later term.

    def at_end(self, s: StudentStructure) -> FeatureVector:
        vectors = self._through_end(s)
        if vectors:
            return vectors[-1]
        return vector_at_end(s, self.spec, self.terms_per_year)

    def at_last(self, s: StudentStructure) -> FeatureVector:
        vectors = self._through_end(s)
        if len(vectors) >= 2:
            return vectors[-2]
        return vector_at_last(s, self.spec, self.terms_per_year)

    def history(self, s: StudentStructure) -> tuple[FeatureVector, ...]:
        """Vectors for every term from just after entrance through the final one."""
        return self._through_end(s)[:-1]

    def as_of(self, s: StudentStructure, t: Term) -> FeatureVector:
        vectors = self._through_end(s)
        i = len(vectors) - 2 + term_distance(s.last, t, self.terms_per_year)
        if 0 <= i < len(vectors):
            return vectors[i]
        return vector_as_of(s, t, self.spec, self.terms_per_year)
