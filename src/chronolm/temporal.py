"""Temporal expressions: recognition, normalization, rendering, calendar arithmetic.

A time point carries one of three granularities (year, month, day) over the
proleptic Gregorian calendar, with no time zones.  The recognizer is a rule
inventory over plain English surface forms; normalization resolves relative
expressions against an anchor date.  Some recognized expressions (decades,
vague adverbs) have no normalization rule and stay unresolved.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Callable, Optional

from .errors import GranularityRefinementError, UnresolvableExpression

MONTH_NAMES = (
    "January", "February", "March", "April", "May", "June",
    "July", "August", "September", "October", "November", "December",
)
# Index matches date.weekday(): Monday is 0.
WEEKDAY_NAMES = (
    "Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday",
)


class Granularity(enum.IntEnum):
    """Calendar granularity with total order YEAR < MONTH < DAY."""

    YEAR = 0
    MONTH = 1
    DAY = 2

    @classmethod
    def parse(cls, name: str) -> "Granularity":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown granularity: {name!r}") from None

    def __str__(self) -> str:
        return self.name.lower()


_TIME_POINT_RX = re.compile(r"(\d{4})(?:-(\d{1,2})(?:-(\d{1,2}))?)?")


@dataclass(frozen=True, order=False)
class TimePoint:
    """A calendar point at year, month, or day granularity.

    month is present iff granularity is at least MONTH; day is present iff
    granularity is DAY.  Day-granularity points are validated as real
    calendar dates (years 1 through 9999).
    """

    year: int
    month: Optional[int] = None
    day: Optional[int] = None

    def __post_init__(self) -> None:
        if self.day is not None and self.month is None:
            raise ValueError("day requires month")
        if self.month is not None and not 1 <= self.month <= 12:
            raise ValueError(f"month out of range: {self.month}")
        if self.day is not None:
            date(self.year, self.month, self.day)  # raises ValueError if invalid

    @property
    def granularity(self) -> Granularity:
        if self.day is not None:
            return Granularity.DAY
        if self.month is not None:
            return Granularity.MONTH
        return Granularity.YEAR

    def isoformat(self) -> str:
        if self.day is not None:
            return f"{self.year:04d}-{self.month:02d}-{self.day:02d}"
        if self.month is not None:
            return f"{self.year:04d}-{self.month:02d}"
        return f"{self.year:04d}"

    @classmethod
    def parse(cls, text: str) -> "TimePoint":
        """Parse "YYYY", "YYYY-MM", or "YYYY-MM-DD"."""
        m = _TIME_POINT_RX.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"not a time point: {text!r}")
        year = int(m.group(1))
        month = int(m.group(2)) if m.group(2) else None
        day = int(m.group(3)) if m.group(3) else None
        return cls(year, month, day)

    def to_date(self) -> date:
        if self.granularity is not Granularity.DAY:
            raise GranularityRefinementError(
                f"{self.isoformat()} has no day-level date"
            )
        return date(self.year, self.month, self.day)

    @classmethod
    def from_date(cls, d: date) -> "TimePoint":
        return cls(d.year, d.month, d.day)


def is_leap_year(year: int) -> bool:
    return year % 4 == 0 and not (year % 100 == 0 and year % 400 != 0)


def days_in_month(year: int, month: int) -> int:
    if month == 2:
        return 29 if is_leap_year(year) else 28
    return (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)[month - 1]


def truncate(t: TimePoint, g: Granularity) -> TimePoint:
    """Project t onto a coarser (or equal) granularity by dropping finer fields."""
    if g > t.granularity:
        raise GranularityRefinementError(
            f"cannot refine {t.granularity} value {t.isoformat()} to {g}"
        )
    if g is Granularity.YEAR and t.month is not None:
        return TimePoint(t.year)
    if g is Granularity.MONTH and t.day is not None:
        return TimePoint(t.year, t.month)
    return t


def time_index(t: TimePoint, g: Granularity) -> int:
    """Linear position of t on the axis of granularity g.

    Years count as calendar years, months as months since year 0, days as
    proleptic Gregorian ordinals.  Requires t truncatable to g.
    """
    if g is Granularity.YEAR:
        return t.year
    if g is Granularity.MONTH and t.month is not None:
        return t.year * 12 + (t.month - 1)
    if t.day is None:
        truncate(t, g)  # raises GranularityRefinementError
    return date(t.year, t.month, t.day).toordinal()


def point_from_index(index: int, g: Granularity) -> TimePoint:
    """Inverse of time_index for granularity g."""
    if g is Granularity.YEAR:
        return TimePoint(index)
    if g is Granularity.MONTH:
        return TimePoint(index // 12, index % 12 + 1)
    return TimePoint.from_date(date.fromordinal(index))


def distance(a: TimePoint, b: TimePoint, g: Granularity) -> int:
    """Absolute number of granularity-g steps between a and b."""
    return abs(time_index(a, g) - time_index(b, g))


def render(t: TimePoint) -> str:
    """Render a time point as the canonical English surface form.

    The output round-trips through recognize and normalize for years in
    the recognizer's 1000..2999 window.
    """
    if t.granularity is Granularity.YEAR:
        return str(t.year)
    if t.granularity is Granularity.MONTH:
        return f"{MONTH_NAMES[t.month - 1]} {t.year}"
    return f"{MONTH_NAMES[t.month - 1]} {t.day}, {t.year}"


@dataclass(frozen=True)
class TemporalExpression:
    """A recognized temporal span of a text.

    start/end are code-point offsets (half-open) and surface is exactly
    text[start:end].  normalized is filled by the annotation step; resolvable
    marks expressions for which a normalization rule exists.
    """

    start: int
    end: int
    surface: str
    normalized: Optional[TimePoint] = None
    resolvable: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:
            raise ValueError("bad span")
        if self.normalized is not None and not self.resolvable:
            raise ValueError("normalized expression must be resolvable")

    @property
    def granularity(self) -> Optional[Granularity]:
        return None if self.normalized is None else self.normalized.granularity


_NUMBER_WORDS = {
    "one": 1, "two": 2, "three": 3, "four": 4, "five": 5, "six": 6,
    "seven": 7, "eight": 8, "nine": 9, "ten": 10, "eleven": 11, "twelve": 12,
}

_MONTH_RX = "|".join(m.lower() for m in MONTH_NAMES)
_WEEKDAY_RX = "|".join(w.lower() for w in WEEKDAY_NAMES)
_COUNT_RX = r"\d{1,3}|" + "|".join(_NUMBER_WORDS)
_YEAR_RX = r"[12]\d{3}"
_UNIT_RX = r"days?|weeks?|months?|years?"

_MONTH_NUM = {m.lower(): i + 1 for i, m in enumerate(MONTH_NAMES)}
_WEEKDAY_NUM = {w.lower(): i for i, w in enumerate(WEEKDAY_NAMES)}


def _one_of(words: tuple[str, ...]) -> str:
    """A group matching any of words, behind a lookahead for their first
    letters: the engine passes over a position with one class test instead
    of trying every word there.  Under re.IGNORECASE the class matches what
    the words do ("S" and "ſ" for "s")."""
    return f"(?=[{''.join(sorted({w[0] for w in words}))}])({'|'.join(words)})"


# re.IGNORECASE compares characters by their simple lowercase mapping and
# also pairs "ı" with "i" and "ſ" with "s"; str.lower() alone misses those
# two, and lowers "İ" (whose simple lowercase is "i") to two code points.
# Replacing them first makes a gate literal occur in the folded text
# whenever the regex engine can match it in the text, and turns a matched
# name ("ſeptember", "FRİDAY") into the key it is listed under;
# tests/test_temporal.py checks this against the engine over every code point.
def _fold(text: str) -> str:
    return text.replace("ı", "i").replace("ſ", "s").replace("İ", "i").lower()


def _count(text: str) -> int:
    text = _fold(text)
    return _NUMBER_WORDS[text] if text in _NUMBER_WORDS else int(text)


def _require_day_anchor(anchor: TimePoint) -> date:
    if anchor.granularity is not Granularity.DAY:
        raise ValueError("anchor must have day granularity")
    return anchor.to_date()


def _on_calendar(point: TimePoint) -> Optional[TimePoint]:
    """The point, or None when its year falls outside 1 through 9999."""
    return point if 1 <= point.year <= 9999 else None


def _safe_day(d: date, delta_days: int) -> Optional[TimePoint]:
    try:
        return TimePoint.from_date(d + timedelta(days=delta_days))
    except OverflowError:
        return None


def _last_weekday(anchor: date, target: int) -> Optional[TimePoint]:
    # Most recent such weekday strictly before the anchor.
    back = (anchor.weekday() - target) % 7
    return _safe_day(anchor, -(back or 7))


def _next_weekday(anchor: date, target: int) -> Optional[TimePoint]:
    forward = (target - anchor.weekday()) % 7
    return _safe_day(anchor, forward or 7)


def _resolve_iso(m: re.Match, anchor: TimePoint) -> Optional[TimePoint]:
    year, month, day = int(m.group(1)), int(m.group(3)), int(m.group(4))
    try:
        return TimePoint(year, month, day)
    except ValueError:
        return None


def _resolve_month_day_year(m: re.Match, anchor: TimePoint) -> Optional[TimePoint]:
    try:
        return TimePoint(int(m.group(3)), _MONTH_NUM[_fold(m.group(1))], int(m.group(2)))
    except ValueError:
        return None


def _resolve_month_year(m: re.Match, anchor: TimePoint) -> Optional[TimePoint]:
    return TimePoint(int(m.group(2)), _MONTH_NUM[_fold(m.group(1))])


def _shift(anchor: TimePoint, n: int, unit: str) -> Optional[TimePoint]:
    """Move n units from the anchor; negative n is the past."""
    base = _require_day_anchor(anchor)
    unit = _fold(unit).rstrip("s")
    if unit == "day":
        return _safe_day(base, n)
    if unit == "week":
        return _safe_day(base, 7 * n)
    if unit == "month":
        return _on_calendar(point_from_index(
            time_index(anchor, Granularity.MONTH) + n, Granularity.MONTH))
    return _on_calendar(TimePoint(anchor.year + n))


def _resolve_count_ago(m: re.Match, anchor: TimePoint) -> Optional[TimePoint]:
    return _shift(anchor, -_count(m.group(1)), m.group(2))


def _resolve_in_count(m: re.Match, anchor: TimePoint) -> Optional[TimePoint]:
    return _shift(anchor, _count(m.group(1)), m.group(2))


def _resolve_last_next(m: re.Match, anchor: TimePoint) -> Optional[TimePoint]:
    base = _require_day_anchor(anchor)
    backward = _fold(m.group(1)) == "last"
    word = _fold(m.group(2))
    if word in _MONTH_NUM:
        # Most recent (or next) such month strictly outside the anchor's month.
        target = _MONTH_NUM[word]
        if backward:
            year = anchor.year - (1 if target >= anchor.month else 0)
        else:
            year = anchor.year + (1 if target <= anchor.month else 0)
        return _on_calendar(TimePoint(year, target))
    if word in _WEEKDAY_NUM:
        target = _WEEKDAY_NUM[word]
        return _last_weekday(base, target) if backward else _next_weekday(base, target)
    return _shift(anchor, -1 if backward else 1, word)


def _resolve_weekday(m: re.Match, anchor: TimePoint) -> Optional[TimePoint]:
    return _last_weekday(_require_day_anchor(anchor), _WEEKDAY_NUM[_fold(m.group(1))])


def _resolve_relative_day(m: re.Match, anchor: TimePoint) -> Optional[TimePoint]:
    base = _require_day_anchor(anchor)
    offset = {"today": 0, "yesterday": -1, "tomorrow": 1}[_fold(m.group(1))]
    return _safe_day(base, offset)


def _resolve_bare_year(m: re.Match, anchor: TimePoint) -> Optional[TimePoint]:
    return TimePoint(int(m.group(1)))


@dataclass(frozen=True)
class _Rule:
    """A recognizer rule and the literals it cannot match without.

    gate is a tuple of literal groups: every match of pattern contains,
    for each group, at least one of its literals (lowercase, compared
    case-insensitively).  The rule does not scan a text that lacks a group.
    """

    name: str
    pattern: re.Pattern
    resolver: Optional[Callable[[re.Match, TimePoint], Optional[TimePoint]]]
    gate: tuple[tuple[str, ...], ...]


def _rule(name: str, rx: str, resolver, *gate: tuple[str, ...]) -> _Rule:
    return _Rule(name, re.compile(rx, re.IGNORECASE), resolver, gate)


_MONTHS = tuple(_MONTH_NUM)
_WEEKDAYS = tuple(_WEEKDAY_NUM)
_UNITS = ("day", "week", "month", "year")
_RELATIVE_DAYS = ("today", "yesterday", "tomorrow")
_CENTURY = ("1", "2")  # the first digit of _YEAR_RX

# Order encodes priority for equal-length overlaps and for normalization.
_RULES: tuple[_Rule, ...] = (
    _rule("iso_date", rf"\b({_YEAR_RX})([-/])(\d{{1,2}})\2(\d{{1,2}})\b", _resolve_iso,
          ("-", "/"), _CENTURY),
    _rule("month_day_year",
          rf"\b{_one_of(_MONTHS)}\s+(\d{{1,2}})\s*,\s*({_YEAR_RX})\b",
          _resolve_month_day_year, (",",), _MONTHS, _CENTURY),
    _rule("month_year", rf"\b{_one_of(_MONTHS)}\s+({_YEAR_RX})\b", _resolve_month_year,
          _MONTHS, _CENTURY),
    _rule("count_ago", rf"\b({_COUNT_RX})\s+({_UNIT_RX})\s+ago\b", _resolve_count_ago,
          ("ago",), _UNITS),
    _rule("in_count", rf"\bin\s+({_COUNT_RX})\s+({_UNIT_RX})\b", _resolve_in_count,
          ("in",), _UNITS),
    _rule("last_next",
          rf"\b(last|next)\s+({_MONTH_RX}|{_WEEKDAY_RX}|week|month|year)\b",
          _resolve_last_next, ("last", "next")),
    _rule("weekday", rf"\b{_one_of(_WEEKDAYS)}\b", _resolve_weekday, _WEEKDAYS),
    _rule("relative_day", rf"\b{_one_of(_RELATIVE_DAYS)}\b", _resolve_relative_day,
          _RELATIVE_DAYS),
    # No word character may touch the year ("x1999" is one token).  The one before
    # is checked after the year, so the pattern starts with a digit to skip to.
    _rule("bare_year", rf"({_YEAR_RX})(?<!\w{_YEAR_RX})(?!\w)", _resolve_bare_year,
          _CENTURY),
    _rule("decade", r"\b(?:the\s+)?[12]\d{2}0s\b", None, ("0s",), _CENTURY),
    _rule("vague", r"\b(recently|nowadays|soon)\b", None,
          ("recently", "nowadays", "soon")),
)


class _Gates:
    """Which rules a text can match, from one pass over their literal groups."""

    def __init__(self, rules: tuple[_Rule, ...]):
        self.rules = rules
        # Bit i of a presence mask stands for groups[i]; a rule needs the
        # bits of all its groups.
        self.groups = tuple(dict.fromkeys(g for rule in rules for g in rule.gate))
        self.needs = tuple(sum(1 << self.groups.index(g) for g in set(rule.gate))
                           for rule in rules)

    def admitted(self, text: str) -> list[tuple[int, _Rule]]:
        """(priority, rule) for each rule whose every literal group occurs in text."""
        folded = _fold(text)
        present = 0
        for bit, group in enumerate(self.groups):
            for lit in group:
                if lit in folded:
                    present |= 1 << bit
                    break
        return [(priority, rule)
                for priority, (rule, need) in enumerate(zip(self.rules, self.needs))
                if present & need == need]


_GATES = _Gates(_RULES)

# recognize probes every resolver at this anchor.  Absolute resolvers ignore
# it and fail only on an invalid calendar form ("1999-02-30"); from it no
# relative resolver leaves years 1-9999, because counts have at most 3 digits.
_PROBE_ANCHOR = TimePoint(2000, 1, 1)


def _spans(text: str) -> list[tuple[int, int, _Rule, re.Match]]:
    """(start, end, rule, match) of each recognized span, in text order.

    Only the rules _GATES admits scan the text.  Candidate matches are
    reconciled longest-first, so "March 5, 1999" wins over its inner bare
    year; an equal-length tie goes to the earlier start, then the earlier
    rule.  No two rules fullmatch the same string, so a span's rule is the
    first (and only) one in _RULES order that fullmatches its surface.
    """
    # (-length, start, priority) sorts the candidates and is unique to each.
    candidates = sorted((m.start() - m.end(), m.start(), priority, m.end(), rule, m)
                        for priority, rule in _GATES.admitted(text)
                        for m in rule.pattern.finditer(text))
    kept: list[tuple[int, int, _Rule, re.Match]] = []
    for _, start, _, end, rule, m in candidates:
        if all(end <= s or start >= e for s, e, _, _ in kept):
            kept.append((start, end, rule, m))
    kept.sort()
    return kept


def recognize(text: str) -> list[TemporalExpression]:
    """The spans annotate finds in text, without normalized values;
    resolvable marks spans a normalization rule can handle."""
    return [TemporalExpression(e.start, e.end, e.surface, None, e.resolvable)
            for e in annotate(text, _PROBE_ANCHOR)]


def normalize(expr: TemporalExpression, anchor: TimePoint) -> TimePoint:
    """Resolve an expression to a time point against a day-granularity anchor.

    Tries every rule in _RULES order on the whole surface.  Raises
    UnresolvableExpression when no rule produces a value, including a
    relative expression that would leave years 1 through 9999.
    """
    _require_day_anchor(anchor)
    for rule in _RULES:
        if rule.resolver is None:
            continue
        m = rule.pattern.fullmatch(expr.surface)
        if m is None:
            continue
        point = rule.resolver(m, anchor)
        if point is not None:
            return point
    raise UnresolvableExpression(f"no rule resolves {expr.surface!r}")


def annotate(text: str, anchor: TimePoint) -> list[TemporalExpression]:
    """Recognize and normalize in one pass: each span resolves with the
    match that found it, as normalize would resolve its surface.

    In the output, resolvable is true exactly when normalized is present.
    The anchor must have day granularity once a span resolves.
    """
    day_anchor = anchor.granularity is Granularity.DAY
    out = []
    for start, end, rule, m in _spans(text):
        point = None if rule.resolver is None else rule.resolver(m, anchor)
        if point is not None and not day_anchor:
            _require_day_anchor(anchor)  # raises; absolute resolvers skip it
        out.append(TemporalExpression(start, end, text[start:end], point,
                                      point is not None))
    return out
