"""Academic-term arithmetic.

A term is an exact (year, index) pair ordered lexicographically; the textual
form is ``YYYY.K`` (e.g. ``2012.2``). The number of terms per year is a
calendar parameter rather than a constant, defaulting to two semesters.
Ingestion may also map mini-term tags (``YYYY.S1``) onto main term indexes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

DEFAULT_TERMS_PER_YEAR = 2

_TERM_RE = re.compile(r"([0-9]{4})\.(.*)")


class TermParseError(ValueError):
    """Textual term could not be parsed."""


@dataclass(frozen=True, order=True)
class Term:
    """One academic period. Ordering is (year, index); index counts from 1."""

    year: int
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"term index must be >= 1, got {self.index}")

    def __str__(self) -> str:
        return format_term(self)


@dataclass(frozen=True)
class TermRange:
    """Inclusive window of terms, lo <= hi."""

    lo: Term
    hi: Term

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty term range: {self.lo}..{self.hi}")

    def __contains__(self, t: Term) -> bool:
        return self.lo <= t <= self.hi


def to_ordinal(t: Term, terms_per_year: int = DEFAULT_TERMS_PER_YEAR) -> int:
    """Map a term to a global sequential position on the calendar."""
    if terms_per_year < 1:
        raise ValueError(f"terms_per_year must be >= 1, got {terms_per_year}")
    if t.index > terms_per_year:
        raise ValueError(f"term {t} has index beyond {terms_per_year} terms per year")
    return t.year * terms_per_year + (t.index - 1)


def from_ordinal(n: int, terms_per_year: int = DEFAULT_TERMS_PER_YEAR) -> Term:
    year, idx = divmod(n, terms_per_year)
    return Term(year, idx + 1)


def next_term(t: Term, terms_per_year: int = DEFAULT_TERMS_PER_YEAR) -> Term:
    """Successor in calendar order; wraps the year after the last index."""
    return from_ordinal(to_ordinal(t, terms_per_year) + 1, terms_per_year)


def prev_term(t: Term, terms_per_year: int = DEFAULT_TERMS_PER_YEAR) -> Term:
    """Predecessor in calendar order; inverse of :func:`next_term`."""
    return from_ordinal(to_ordinal(t, terms_per_year) - 1, terms_per_year)


def term_distance(a: Term, b: Term, terms_per_year: int = DEFAULT_TERMS_PER_YEAR) -> int:
    """Signed number of steps from a to b (0 when equal, positive when a < b)."""
    return to_ordinal(b, terms_per_year) - to_ordinal(a, terms_per_year)


def iter_terms(lo: Term, hi: Term, terms_per_year: int = DEFAULT_TERMS_PER_YEAR) -> Iterator[Term]:
    """Yield every term from lo to hi inclusive."""
    for n in range(to_ordinal(lo, terms_per_year), to_ordinal(hi, terms_per_year) + 1):
        yield from_ordinal(n, terms_per_year)


def parse_term(
    text: str, terms_per_year: int = DEFAULT_TERMS_PER_YEAR, miniterms: Mapping[str, int] | None = None
) -> Term:
    """Parse ``YYYY.K`` into a Term, validating K against the calendar.

    The year is four ASCII digits and K is ASCII digits, unless K is a key of
    miniterms: then it is a mini-term tag and the term takes the main index it
    maps to.
    """
    m = _TERM_RE.fullmatch(text.strip())
    if m is not None and miniterms and m.group(2) in miniterms:
        return Term(int(m.group(1)), miniterms[m.group(2)])
    if m is None or not (m.group(2).isascii() and m.group(2).isdigit()):
        raise TermParseError(f"malformed term {text!r}, expected YYYY.K")
    year, index = int(m.group(1)), int(m.group(2))
    if not 1 <= index <= terms_per_year:
        raise TermParseError(
            f"term index {index} in {text!r} outside 1..{terms_per_year}"
        )
    return Term(year, index)


def format_term(t: Term) -> str:
    return f"{t.year}.{t.index}"
