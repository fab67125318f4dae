from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from dropsplit.terms import (
    Term,
    TermParseError,
    TermRange,
    format_term,
    iter_terms,
    next_term,
    parse_term,
    prev_term,
    term_distance,
    to_ordinal,
)

terms = st.builds(Term, year=st.integers(1900, 2100), index=st.integers(1, 2))
calendars = st.integers(1, 4)


def test_next_wraps_year():
    assert next_term(Term(2012, 2)) == Term(2013, 1)


def test_next_within_year():
    assert next_term(Term(2012, 1)) == Term(2012, 2)


def test_prev_wraps_year():
    assert prev_term(Term(2013, 1)) == Term(2012, 2)
    assert prev_term(Term(2019, 1)) == Term(2018, 2)


def test_three_terms_per_year_calendar():
    assert next_term(Term(2012, 3), terms_per_year=3) == Term(2013, 1)
    assert prev_term(Term(2013, 1), terms_per_year=3) == Term(2012, 3)


@given(terms)
def test_prev_next_inverse(t):
    assert prev_term(next_term(t)) == t
    assert next_term(prev_term(t)) == t


@given(st.integers(1, 3), st.integers(1990, 2050), st.integers(0, 40))
def test_distance_counts_steps(tpy, year, steps):
    t1 = Term(year, 1)
    t2 = t1
    for _ in range(steps):
        t2 = next_term(t2, tpy)
    assert term_distance(t1, t2, tpy) == steps
    assert term_distance(t2, t1, tpy) == -steps


def test_ordering_is_lexicographic():
    assert Term(2012, 2) < Term(2013, 1)
    assert Term(2012, 1) < Term(2012, 2)
    assert sorted([Term(2013, 1), Term(2012, 2), Term(2012, 1)]) == [
        Term(2012, 1),
        Term(2012, 2),
        Term(2013, 1),
    ]


def test_parse_known_values():
    assert parse_term("2012.2") == Term(2012, 2)
    assert parse_term("2009.1") == Term(2009, 1)


def test_parse_rejects_out_of_range_index():
    with pytest.raises(TermParseError, match="2012.3"):
        parse_term("2012.3", terms_per_year=2)


@pytest.mark.parametrize("text", ["2012", "12.1", "2012.0", "abcd.1", "2012.two", ""])
def test_parse_rejects_malformed(text):
    with pytest.raises(TermParseError):
        parse_term(text)


@pytest.mark.parametrize("text", ["\u0662\u0660\u0661\u0662.1", "2012.\u0661", "20_12.1", "+2012.1", "2012 .1", "12012.1"])
def test_parse_takes_ascii_digits_only(text):
    with pytest.raises(TermParseError, match="malformed"):
        parse_term(text)


def test_parse_miniterm_tags():
    assert parse_term("2012.S1", 2, {"S1": 2}) == Term(2012, 2)
    assert parse_term(" 2012.1 ", 2, {"1": 2}) == Term(2012, 2)  # a tag wins over an index
    for text in ("20_12.S1", "+2012.S1", "\u0662\u0660\u0661\u0662.S1", "2012.S2", "2012.s1"):
        with pytest.raises(TermParseError, match="malformed"):
            parse_term(text, 2, {"S1": 2})


@given(terms)
def test_parse_format_roundtrip(t):
    assert parse_term(format_term(t)) == t


def test_iter_terms_inclusive():
    got = list(iter_terms(Term(2012, 1), Term(2013, 1)))
    assert got == [Term(2012, 1), Term(2012, 2), Term(2013, 1)]


def test_term_range_contains():
    rng = TermRange(Term(2012, 1), Term(2013, 2))
    assert Term(2012, 2) in rng
    assert Term(2014, 1) not in rng


def test_term_range_rejects_inverted():
    with pytest.raises(ValueError):
        TermRange(Term(2013, 1), Term(2012, 1))


def test_index_must_be_positive():
    with pytest.raises(ValueError):
        Term(2012, 0)


def test_ordinal_rejects_index_beyond_calendar():
    with pytest.raises(ValueError):
        to_ordinal(Term(2012, 3), terms_per_year=2)
