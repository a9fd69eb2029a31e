"""Calendar arithmetic, the expression recognizer, and normalization."""

import re
import sys
from dataclasses import replace
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolm.corpus import word_spans
from chronolm.errors import GranularityRefinementError, UnresolvableExpression
from chronolm.objectives import build_labelspace
from chronolm.synth import synth_corpus
from chronolm.temporal import (
    MONTH_NAMES,
    WEEKDAY_NAMES,
    _GATES,
    _RULES,
    Granularity,
    TemporalExpression,
    TimePoint,
    annotate,
    days_in_month,
    distance,
    is_leap_year,
    normalize,
    point_from_index,
    recognize,
    render,
    time_index,
    truncate,
    _fold,
    _Gates,
    _spans,
)

import oracles
from oracles import build_day_numbers, day_distance, leap, month_distance

ANCHOR = TimePoint(2007, 2, 23)


# ---------------------------------------------------------------- TimePoint

def test_granularity_ordering():
    assert Granularity.YEAR < Granularity.MONTH < Granularity.DAY


def test_timepoint_granularity_derived_from_fields():
    assert TimePoint(1999).granularity is Granularity.YEAR
    assert TimePoint(1999, 4).granularity is Granularity.MONTH
    assert TimePoint(1999, 4, 7).granularity is Granularity.DAY


def test_timepoint_rejects_day_without_month():
    with pytest.raises(ValueError):
        TimePoint(1999, None, 7)


def test_timepoint_rejects_calendar_invalid_day():
    with pytest.raises(ValueError):
        TimePoint(1999, 2, 29)
    TimePoint(2000, 2, 29)  # leap year, fine


def test_isoformat_parse_round_trip():
    for text in ("1999", "1999-04", "1999-04-07"):
        assert TimePoint.parse(text).isoformat() == text


def test_parse_rejects_garbage():
    for bad in ("99", "1999-13", "1999-00-01", "1999-02-30", "noise", ""):
        with pytest.raises(ValueError):
            TimePoint.parse(bad)


def test_truncate_frozen_values():
    assert truncate(ANCHOR, Granularity.MONTH) == TimePoint(2007, 2)
    assert truncate(ANCHOR, Granularity.YEAR) == TimePoint(2007)
    assert truncate(ANCHOR, Granularity.DAY) == ANCHOR


def test_truncate_refuses_refinement():
    with pytest.raises(GranularityRefinementError):
        truncate(TimePoint(2007), Granularity.MONTH)
    with pytest.raises(GranularityRefinementError):
        truncate(TimePoint(2007, 2), Granularity.DAY)


@pytest.mark.parametrize("point, g, message", [
    (TimePoint(2007), Granularity.MONTH, "cannot refine year value 2007 to month"),
    (TimePoint(2007), Granularity.DAY, "cannot refine year value 2007 to day"),
    (TimePoint(2007, 2), Granularity.DAY, "cannot refine month value 2007-02 to day"),
])
def test_time_index_refuses_refinement_as_truncate_does(point, g, message):
    for fn in (truncate, time_index):
        with pytest.raises(GranularityRefinementError, match=f"^{message}$"):
            fn(point, g)


# ------------------------------------------------------- calendar arithmetic

def test_leap_rules_match_oracle():
    for year in (1600, 1700, 1900, 2000, 2004, 2023, 2100, 2400):
        assert is_leap_year(year) == leap(year)


def test_days_in_month_february():
    assert days_in_month(2000, 2) == 29
    assert days_in_month(1900, 2) == 28
    assert days_in_month(2004, 2) == 29
    assert days_in_month(2005, 2) == 28


def test_distance_frozen_month_value():
    assert distance(TimePoint(2007, 2), TimePoint(2006, 11), Granularity.MONTH) == 3


def test_day_distance_against_day_iteration_oracle():
    numbers = build_day_numbers(1998, 2002)
    cases = [
        ((2000, 2, 28), (2000, 3, 1)),
        ((1999, 12, 31), (2000, 1, 1)),
        ((1998, 1, 1), (2002, 12, 31)),
        ((2001, 6, 15), (2001, 6, 15)),
    ]
    for a, b in cases:
        expected = day_distance(numbers, a, b)
        got = distance(TimePoint(*a), TimePoint(*b), Granularity.DAY)
        assert got == expected


def test_index_round_trip_all_granularities():
    points = [TimePoint(1987), TimePoint(1987, 6), TimePoint(1987, 6, 15)]
    for p in points:
        g = p.granularity
        assert point_from_index(time_index(p, g), g) == p


@given(
    y1=st.integers(1900, 2100), m1=st.integers(1, 12),
    y2=st.integers(1900, 2100), m2=st.integers(1, 12),
)
def test_month_distance_matches_oracle(y1, m1, y2, m2):
    got = distance(TimePoint(y1, m1), TimePoint(y2, m2), Granularity.MONTH)
    assert got == month_distance((y1, m1), (y2, m2))


@given(st.integers(1600, 2400), st.integers(1, 12), st.integers(1, 28),
       st.integers(-500, 500))
@settings(max_examples=200)
def test_day_index_shift_consistency(y, m, d, delta):
    # moving by delta day indices then measuring distance gives |delta|
    p = TimePoint(y, m, d)
    q = point_from_index(time_index(p, Granularity.DAY) + delta, Granularity.DAY)
    assert distance(p, q, Granularity.DAY) == abs(delta)


# ------------------------------------------------------------------- render

def test_render_each_granularity():
    assert render(TimePoint(1987)) == "1987"
    assert render(TimePoint(1987, 1)) == "January 1987"
    assert render(TimePoint(1987, 1, 12)) == "January 12, 1987"


@given(st.integers(1000, 2999), st.integers(1, 12), st.integers(1, 28))
@settings(max_examples=150)
def test_render_round_trips_through_recognizer(y, m, d):
    for point in (TimePoint(y), TimePoint(y, m), TimePoint(y, m, d)):
        text = render(point)
        exprs = recognize(text)
        assert len(exprs) == 1
        expr = exprs[0]
        assert text[expr.start:expr.end] == text
        assert normalize(expr, ANCHOR) == point


# --------------------------------------------------------------- recognizer

def test_recognize_reference_document():
    text = ("The charges were filed in 1993, but last December the case "
            "reopened; a hearing is set for yesterday.")
    exprs = annotate(text, ANCHOR)
    surfaces = [e.surface for e in exprs]
    assert surfaces == ["1993", "last December", "yesterday"]
    assert exprs[0].normalized == TimePoint(1993)
    assert exprs[0].granularity is Granularity.YEAR
    assert exprs[1].normalized == TimePoint(2006, 12)
    assert exprs[1].granularity is Granularity.MONTH
    assert exprs[2].normalized == TimePoint(2007, 2, 22)
    assert exprs[2].granularity is Granularity.DAY


def test_recognize_spans_index_source_text():
    text = "Signed on March 4, 1921 and revised in 1987."
    for e in recognize(text):
        assert text[e.start:e.end] == e.surface


@pytest.mark.parametrize("text", [
    "999 years ago", "in 999 years", "999 months ago", "in 999 weeks",
    "twelve days ago", "last year", "next December", "Friday", "tomorrow",
])
def test_relative_spans_are_resolvable_without_an_anchor(text):
    # recognize probes every resolver at one fixed anchor, from which no
    # relative expression leaves years 1-9999.
    expr, = recognize(text)
    assert expr.resolvable


def test_iso_date_formats():
    for text, expected in [
        ("2021-03-04", TimePoint(2021, 3, 4)),
        ("2021/03/04", TimePoint(2021, 3, 4)),
    ]:
        exprs = recognize(text)
        assert len(exprs) == 1
        assert normalize(exprs[0], ANCHOR) == expected


def test_iso_date_mixed_separators_not_a_date():
    exprs = recognize("2021-03/04")
    # no full mixed-separator date; the year prefix still matches
    assert all(e.surface != "2021-03/04" for e in exprs)


def test_month_name_forms():
    exprs = recognize("in January 1987 and on January 12, 1987")
    surfaces = {e.surface for e in exprs}
    assert "January 1987" in surfaces
    assert "January 12, 1987" in surfaces


def test_longest_match_wins_over_bare_year():
    exprs = recognize("January 12, 1987")
    assert [e.surface for e in exprs] == ["January 12, 1987"]


def test_bare_year_window():
    assert [e.surface for e in recognize("born in 1066 maybe")] == ["1066"]
    assert recognize("item 0999") == []
    assert recognize("year 3000") == []
    assert recognize("id 19871") == []  # digit context blocks the match
    # So does any word character: "x1999" and "1999b" are each one token.
    assert recognize("the x1999 ledger and 1999b too") == []
    assert recognize("_1999 1999_ é1999 1999é") == []
    assert [e.surface for e in recognize("(1999) -1999- 1999.")] == ["1999"] * 3


def test_relative_counts():
    cases = [
        ("3 days ago", TimePoint(2007, 2, 20)),
        ("three days ago", TimePoint(2007, 2, 20)),
        ("in 2 weeks", TimePoint(2007, 3, 9)),
        ("two months ago", TimePoint(2006, 12)),
        ("in 1 year", TimePoint(2008)),
    ]
    for text, expected in cases:
        exprs = recognize(text)
        assert len(exprs) == 1, text
        assert normalize(exprs[0], ANCHOR) == expected, text


def test_last_next_units():
    cases = [
        ("last year", TimePoint(2006)),
        ("next year", TimePoint(2008)),
        ("last month", TimePoint(2007, 1)),
        ("next month", TimePoint(2007, 3)),
        ("last week", TimePoint(2007, 2, 16)),
        ("next week", TimePoint(2007, 3, 2)),
    ]
    for text, expected in cases:
        exprs = recognize(text)
        assert normalize(exprs[0], ANCHOR) == expected, text


def test_last_month_name_strictly_before_anchor():
    # anchor is 2007-02-23: last December is 2006, last January 2007
    dec = recognize("last December")[0]
    jan = recognize("last January")[0]
    assert normalize(dec, ANCHOR) == TimePoint(2006, 12)
    assert normalize(jan, ANCHOR) == TimePoint(2007, 1)


def test_next_month_name_strictly_after_anchor():
    mar = recognize("next March")[0]
    feb = recognize("next February")[0]
    assert normalize(mar, ANCHOR) == TimePoint(2007, 3)
    assert normalize(feb, ANCHOR) == TimePoint(2008, 2)


def test_bare_weekday_most_recent_before_anchor():
    # 2007-02-23 is a Friday
    assert normalize(recognize("on Friday")[0], ANCHOR) == TimePoint(2007, 2, 16)
    assert normalize(recognize("on Thursday")[0], ANCHOR) == TimePoint(2007, 2, 22)
    assert normalize(recognize("on Saturday")[0], ANCHOR) == TimePoint(2007, 2, 17)


def test_last_next_weekday():
    assert normalize(recognize("last Friday")[0], ANCHOR) == TimePoint(2007, 2, 16)
    assert normalize(recognize("next Friday")[0], ANCHOR) == TimePoint(2007, 3, 2)


def test_relative_day_words():
    assert normalize(recognize("today")[0], ANCHOR) == TimePoint(2007, 2, 23)
    assert normalize(recognize("yesterday")[0], ANCHOR) == TimePoint(2007, 2, 22)
    assert normalize(recognize("tomorrow")[0], ANCHOR) == TimePoint(2007, 2, 24)


def test_vague_and_decade_recognized_but_unresolvable():
    for text in ("the 1980s", "recently", "nowadays", "soon"):
        exprs = recognize(text)
        assert len(exprs) == 1, text
        assert not exprs[0].resolvable
        with pytest.raises(UnresolvableExpression):
            normalize(exprs[0], ANCHOR)


def test_calendar_invalid_absolute_marked_unresolvable():
    exprs = recognize("February 30, 1999")
    assert len(exprs) == 1
    assert not exprs[0].resolvable


def test_annotate_fills_normalized_and_flags():
    exprs = annotate("It rained recently, then again on 2004-08-01.", ANCHOR)
    by_surface = {e.surface: e for e in exprs}
    assert by_surface["recently"].normalized is None
    assert by_surface["2004-08-01"].normalized == TimePoint(2004, 8, 1)


def test_recognize_returns_sorted_non_overlapping():
    text = "From January 1987 to March 4, 1921, and 1993 too."
    exprs = recognize(text)
    for first, second in zip(exprs, exprs[1:]):
        assert first.end <= second.start


def test_normalize_week_counts_at_day_granularity():
    expr = recognize("2 weeks ago")[0]
    point = normalize(expr, ANCHOR)
    assert point == TimePoint(2007, 2, 9)
    assert point.granularity is Granularity.DAY


def test_expression_requires_resolvable_when_normalized():
    with pytest.raises(ValueError):
        TemporalExpression(0, 4, "1999", normalized=TimePoint(1999),
                           resolvable=False)


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
               max_size=80))
@settings(max_examples=200)
def test_recognize_never_crashes_and_spans_are_sane(text):
    for e in recognize(text):
        assert 0 <= e.start < e.end <= len(text)
        assert text[e.start:e.end] == e.surface


# ------------------------------------------------------------ calendar edges

@pytest.mark.parametrize("text,anchor", [
    ("next year", TimePoint(9999, 6, 1)),
    ("in 1 year", TimePoint(9999, 6, 1)),
    ("999 years ago", TimePoint(500, 1, 1)),
    ("last month", TimePoint(1, 1, 1)),
    ("in 12 months", TimePoint(9999, 12, 1)),
    ("next December", TimePoint(9999, 12, 31)),
    ("last January", TimePoint(1, 1, 1)),
    ("last Friday", TimePoint(1, 1, 1)),
    ("Monday", TimePoint(1, 1, 1)),
    ("next Friday", TimePoint(9999, 12, 31)),
    ("yesterday", TimePoint(1, 1, 1)),
])
def test_shift_off_the_calendar_is_unresolvable(text, anchor):
    expr, = annotate(text, anchor)
    assert expr.surface == text
    assert expr.normalized is None and not expr.resolvable
    with pytest.raises(UnresolvableExpression):
        normalize(expr, anchor)


def test_shifts_to_the_calendar_ends_still_resolve():
    assert annotate("last year", TimePoint(2, 6, 1))[0].normalized == TimePoint(1)
    assert annotate("next month", TimePoint(9999, 11, 30))[0].normalized == \
        TimePoint(9999, 12)
    assert annotate("next year", TimePoint(9998, 1, 1))[0].normalized == TimePoint(9999)


# ------------------------------------------------- gates against the oracle

_VOCABULARY = (
    MONTH_NAMES + WEEKDAY_NAMES
    + ("one", "two", "seven", "twelve", "3", "12", "999", "1999", "2000", "05",
       "1990s", "0s", "day", "days", "week", "weeks", "month", "months", "year",
       "years", "ago", "in", "last", "next", "the", "today", "yesterday",
       "tomorrow", "recently", "nowadays", "soon", "x", "-", "/", ",")
    # Characters re.IGNORECASE folds onto ASCII letters that str.lower() does
    # not: the long s, the Kelvin sign, the dotless i and the dotted capital I.
    + ("ſoon", "3 weeKs ago", "ın", "İn")
)
_SEPARATORS = (" ", "", "-", "/", ", ", "\t", "  ")


@st.composite
def vocabulary_texts(draw, vocabulary=_VOCABULARY):
    parts = []
    for word in draw(st.lists(st.sampled_from(vocabulary), max_size=8)):
        case = draw(st.sampled_from(("keep", "lower", "upper", "title", "mixed")))
        if case == "mixed":
            flips = draw(st.lists(st.booleans(), min_size=len(word),
                                  max_size=len(word)))
            word = "".join(c.upper() if f else c for c, f in zip(word, flips))
        elif case != "keep":
            word = getattr(word, case)()
        parts += [word, draw(st.sampled_from(_SEPARATORS))]
    return "".join(parts)


_EDGE_ANCHORS = (date(1, 1, 1), date(1, 1, 31), date(500, 1, 1),
                 date(9999, 6, 1), date(9999, 12, 31))
anchors = st.one_of(st.sampled_from(_EDGE_ANCHORS),
                    st.dates(min_value=date(1, 1, 1), max_value=date(9999, 12, 31)))


def _as_tuples(exprs):
    return [(e.start, e.end, e.surface,
             None if e.normalized is None
             else (e.normalized.year, e.normalized.month, e.normalized.day),
             e.resolvable) for e in exprs]


_WORD_CHAR = re.compile(r"\w")


def _unglued(text, spans):
    """The frozen tagger's spans less those with a word character just
    before or after.  Only its bare_year rule, whose guards looked at
    digits alone, made such spans ("x1999"); the current rule rejects them.
    Every other candidate is at least five characters long or needs a word
    boundary at both ends, so no span those four digits shut out returns."""
    return [s for s in spans
            if not any(_WORD_CHAR.match(text, i) for i in (s[0] - 1, s[1]) if i >= 0)]


def _oracle_annotate(text, anchor):
    """The frozen tagger's spans and values, with a value off the calendar
    (or a weekday shift that overflowed there) made unresolvable."""
    out = []
    for start, end, surface, _, resolvable in _unglued(text, oracles.recognize(text)):
        point = None
        if resolvable:
            try:
                point = oracles.normalize(surface, anchor)
            except (oracles.Unresolvable, OverflowError):
                pass
        if point is not None and not 1 <= point[0] <= 9999:
            point = None
        out.append((start, end, surface, point, point is not None))
    return out


@given(vocabulary_texts(), anchors)
@settings(max_examples=400, deadline=None)
def test_tagger_matches_frozen_oracle_on_vocabulary_texts(text, anchor):
    ymd = (anchor.year, anchor.month, anchor.day)
    assert _as_tuples(recognize(text)) == _unglued(text, oracles.recognize(text))
    got = _as_tuples(annotate(text, TimePoint(*ymd)))
    expected = _oracle_annotate(text, ymd)
    assert got == expected
    try:
        frozen = _unglued(text, oracles.annotate(text, ymd))
    except OverflowError:  # a weekday shift past the calendar's ends
        return
    # Equal to the frozen tagger except where its value is off the calendar.
    assert len(got) == len(frozen)
    for ours, theirs in zip(got, frozen):
        if ours != theirs:
            assert not 1 <= theirs[3][0] <= 9999
            assert ours == theirs[:3] + (None, False)


@given(st.one_of(vocabulary_texts(), st.text(alphabet="1290x_é -,./\t"), st.text()))
@settings(max_examples=300, deadline=None)
def test_every_span_starts_and_ends_on_a_token_boundary(text):
    # tokenize aligns an expression only to whole word-level tokens.
    tokens = word_spans(text)
    starts, ends = {t[1] for t in tokens}, {t[2] for t in tokens}
    for start, end, _, _ in _spans(text):
        assert start in starts and end in ends, (start, end)


@pytest.mark.parametrize("n_docs", [300, 2000, 150])
def test_tagger_matches_frozen_oracle_on_workload_corpora(n_docs):
    # The benchmark workloads' corpus sizes and label space, seeds 1-3.
    space = build_labelspace(TimePoint(1990, 1), TimePoint(1993, 12),
                             Granularity.MONTH)
    for seed in (1, 2, 3):
        for doc in synth_corpus(n_docs, space, seed=seed):
            stamp = doc.timestamp
            assert _as_tuples(annotate(doc.text, stamp)) == oracles.annotate(
                doc.text, (stamp.year, stamp.month, stamp.day))


# ------------------------------------- annotate against the every-rule loop

# Names spelled with the long s, which re.IGNORECASE matches to "s": the
# rules' first-letter lookaheads must let them through.
_LONG_S = ("ſeptember 1999", "ſeptember 5, 2000", "ſunday", "last ſaturday",
           "yeſterday")


def _every_rule(text, anchor):
    """The reference annotate: recognize, then normalize's loop over every
    rule on the surface of each resolvable span."""
    out = []
    for expr in recognize(text):
        point = None
        if expr.resolvable:
            try:
                point = normalize(expr, anchor)
            except UnresolvableExpression:
                pass
        out.append(replace(expr, normalized=point, resolvable=point is not None))
    return out


@given(vocabulary_texts(_VOCABULARY + _LONG_S), anchors)
@settings(max_examples=400, deadline=None)
def test_annotate_resolves_each_span_as_the_every_rule_loop(text, anchor):
    day = TimePoint(anchor.year, anchor.month, anchor.day)
    assert annotate(text, day) == _every_rule(text, day)
    # A month anchor still fails exactly when some span needs resolving.
    month = TimePoint(anchor.year, anchor.month)
    if any(e.resolvable for e in recognize(text)):
        with pytest.raises(ValueError):
            annotate(text, month)
    else:
        assert annotate(text, month) == recognize(text)


# ANCHOR is a Friday.  str.lower() keeps "ſ" and "ı" and turns "İ" into two
# code points, so a matched name is a key of the name tables only once
# folded: the frozen tagger in oracles.py raises on the first three and
# reads "dayſ" as years and "laſt" as "next".
@pytest.mark.parametrize("text, value", [
    ("ſeptember 1999", TimePoint(1999, 9)),
    ("FRİDAY", TimePoint(2007, 2, 16)),
    ("in fıve days", TimePoint(2007, 2, 28)),
    ("3 dayſ ago", TimePoint(2007, 2, 20)),
    ("laſt year", TimePoint(2006)),
    ("ſeptember 5, 2000", TimePoint(2000, 9, 5)),
    ("ſunday", TimePoint(2007, 2, 18)),
    ("next ſaturday", TimePoint(2007, 2, 24)),
    ("yeſterday", TimePoint(2007, 2, 22)),
    ("ſix weekſ ago", TimePoint(2007, 1, 12)),
])
def test_letters_ignorecase_folds_resolve_as_ascii(text, value):
    expr, = annotate(text, ANCHOR)
    assert (expr.surface, expr.normalized) == (text, value)
    assert normalize(expr, ANCHOR) == value


# --------------------------------------------------------------- rule gates

def _misses(gates, priority, text):
    """Whether the rule at priority matches text but gates shut it out."""
    return (gates.rules[priority].pattern.search(text) is not None
            and priority not in dict(gates.admitted(text)))


# Each gate literal is the only literal of its group in some witness.
_WITNESSES = (
    ["1999-05-05", "2000/05/05", "May 5, 2000", "May 2000", "1999", "2000",
     "last week", "next week", "today", "yesterday", "tomorrow",
     "the 1990s", "the 2000s", "recently", "nowadays", "soon"]
    + [f"{m} 5, 1999" for m in MONTH_NAMES] + [f"{m} 1999" for m in MONTH_NAMES]
    + [f"3 {u}s ago" for u in ("day", "week", "month", "year")]
    + [f"in 3 {u}s" for u in ("day", "week", "month", "year")]
    + list(WEEKDAY_NAMES)
)


def test_gate_literals_are_lowercase():
    for rule in _RULES:
        for group in rule.gate:
            assert group and all(lit == lit.lower() for lit in group), rule.name


@given(vocabulary_texts())
@settings(max_examples=400, deadline=None)
def test_gates_admit_every_rule_that_matches(text):
    for priority, rule in enumerate(_RULES):
        assert not _misses(_GATES, priority, text), rule.name


def test_gates_admit_every_rule_on_witnesses():
    for text in _WITNESSES:
        for priority, rule in enumerate(_RULES):
            assert not _misses(_GATES, priority, text), (rule.name, text)


def test_dropping_any_gate_literal_fails_soundness():
    # The soundness check above catches a gate with one literal missing.
    for priority, rule in enumerate(_RULES):
        for g, group in enumerate(rule.gate):
            for lit in group:
                gate = list(rule.gate)
                gate[g] = tuple(other for other in group if other != lit)
                rules = list(_RULES)
                rules[priority] = replace(rule, gate=tuple(gate))
                mutated = _Gates(tuple(rules))
                assert any(_misses(mutated, priority, text) for text in _WITNESSES), \
                    (rule.name, lit)


def test_fold_agrees_with_ignorecase_on_every_code_point():
    # Every character the regex engine matches against a gate literal's
    # character under re.IGNORECASE folds to that character.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    chars = {c for rule in _RULES for group in rule.gate for lit in group for c in lit}
    for c in sorted(chars):
        for m in re.finditer(re.escape(c), every, re.IGNORECASE):
            assert _fold(m.group()) == c, (c, hex(ord(m.group())))
