"""Corpus loading, word-level vocabulary, tokenization, expression alignment.

Documents arrive as JSONL records with an id, a day-granularity timestamp,
and raw text.  The tokenizer splits on whitespace and punctuation boundaries;
punctuation marks are their own tokens.  Temporal expressions are aligned to
the minimal contiguous token range covering their character span.
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from . import util
from .errors import (
    AlignmentError,
    EmptyCorpus,
    InvalidTimestamp,
    MalformedRecord,
)
from .temporal import Granularity, TemporalExpression, TimePoint, render

PAD, UNK, CLS, SEP, MASK = 0, 1, 2, 3, 4
SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")

_TOKEN_RX = re.compile(r"\w+|[^\w\s]")
_TIMESTAMP_RX = re.compile(r"(\d{4})-(\d{2})-(\d{2})")

T = TypeVar("T")


@dataclass(frozen=True)
class Document:
    id: str
    timestamp: TimePoint  # day granularity
    text: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")
        if self.timestamp.granularity is not Granularity.DAY:
            raise ValueError("document timestamp must have day granularity")


def word_spans(text: str, lowercase: bool = False) -> list[tuple[str, int, int]]:
    """Split text into (form, start, end) word and punctuation tokens.

    The form is the vocabulary lookup key; spans index the original text.
    """
    out = []
    for m in _TOKEN_RX.finditer(text):
        form = m.group(0)
        out.append((form.lower() if lowercase else form, m.start(), m.end()))
    return out


def word_forms(text: str, lowercase: bool = False) -> list[str]:
    """The forms of word_spans(text, lowercase), without their offsets."""
    forms = _TOKEN_RX.findall(text)
    return list(map(str.lower, forms)) if lowercase else forms


class Vocab:
    """Dense token-to-id table, five fixed special tokens up front.  Texts are
    read under its case rule: with lowercase, every key is lowercased."""

    def __init__(self, tokens: Sequence[str], lowercase: bool = False):
        tokens = tuple(tokens)
        if tokens[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
            raise ValueError("vocabulary must start with the special tokens")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocabulary tokens must be unique")
        if any("\n" in t or t == "" for t in tokens):
            raise ValueError("tokens must be non-empty and newline-free")
        if lowercase:
            for t in tokens[len(SPECIAL_TOKENS):]:
                if t != t.lower():
                    raise ValueError(f"token {t!r} is cased, but lowercase is on: build "
                                     "the vocabulary under the same [tokenizer] lowercase")
        self.tokens = tokens
        self.lowercase = lowercase
        self._ids = {t: i for i, t in enumerate(tokens)}

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK)

    def encode(self, text: str) -> list[int]:
        """Ids of the text's word_forms under the vocabulary's case rule."""
        return list(map(self._ids.get, word_forms(text, self.lowercase), repeat(UNK)))

    def token_of(self, token_id: int) -> str:
        return self.tokens[token_id]

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def content_hash(self) -> str:
        return hashlib.sha256("\n".join(self.tokens).encode("utf-8")).hexdigest()

    def save(self, path: str) -> None:
        util.atomic_write_text(path, "\n".join(self.tokens) + "\n")

    @classmethod
    def load(cls, path: str, lowercase: bool = False) -> "Vocab":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
            return cls(tokens, lowercase)
        except ValueError as exc:  # also a file that is not UTF-8
            raise MalformedRecord(f"{path}: {exc}") from None


def parse_timestamp(stamp: str) -> TimePoint:
    """The day a document timestamp "YYYY-MM-DD" names."""
    m = _TIMESTAMP_RX.fullmatch(stamp)
    if m is None:
        raise InvalidTimestamp("timestamp must look like YYYY-MM-DD")
    try:
        return TimePoint(int(m[1]), int(m[2]), int(m[3]))
    except ValueError as exc:
        raise InvalidTimestamp(str(exc)) from None


def parse_document(
    obj: dict, timestamp: Callable[[str], TimePoint] = parse_timestamp,
) -> Document:
    """Validate one corpus record; timestamp parses its timestamp string."""
    for field in ("id", "timestamp", "text"):
        if field not in obj:
            raise MalformedRecord(f"missing field {field!r}")
    doc_id, stamp, text = obj["id"], obj["timestamp"], obj["text"]
    if not isinstance(doc_id, str) or not doc_id:
        raise MalformedRecord("id must be a non-empty string")
    if not isinstance(text, str):
        raise MalformedRecord("text must be a string")
    if not isinstance(stamp, str):
        raise InvalidTimestamp("timestamp must look like YYYY-MM-DD")
    return Document(doc_id, timestamp(stamp), text)


def _unseen(doc: Document, seen: set[str]) -> Document:
    """The document, once its id is added to seen; a repeated id is an error."""
    if doc.id in seen:
        raise MalformedRecord(f"duplicate id {doc.id!r}")
    seen.add(doc.id)
    return doc


def _documents(path: str, parse: Callable[[dict, set[str]], T]) -> Iterator[T]:
    """parse(record, ids seen so far) over a file's records, at least one."""
    seen: set[str] = set()
    count = 0
    for item in util.read_jsonl(path, lambda obj: parse(obj, seen)):
        count += 1
        yield item
    if count == 0:
        raise EmptyCorpus(f"no documents in {path}")


def load_corpus(path: str) -> Iterator[Document]:
    """Stream documents from a JSONL file, validating each record.

    Raises MalformedRecord (naming the file and line) on bad JSON, missing
    fields, or duplicate ids; InvalidTimestamp on calendar-invalid stamps;
    EmptyCorpus when the file holds no records.
    """
    stamps = util.Memo(parse_timestamp)
    yield from _documents(
        path, lambda obj, seen: _unseen(parse_document(obj, stamps.__getitem__), seen))


def build_vocab(
    docs: Iterable[Document],
    max_size: int,
    min_freq: int = 1,
    lowercase: bool = False,
    include_timestamps: bool = False,
) -> Vocab:
    """Rank word-level tokens by frequency, then lexicographically.

    max_size counts the special tokens; ids are assigned densely in rank
    order after the specials.  include_timestamps also counts each
    document's rendered timestamp, so sequences that splice rendered
    dates in front of the text stay in-vocabulary.
    """
    if max_size <= len(SPECIAL_TOKENS):
        raise ValueError(f"max_size must exceed {len(SPECIAL_TOKENS)}")
    if min_freq < 1:
        raise ValueError("min_freq must be at least 1")
    counts: Counter[str] = Counter()
    stamps: Counter[TimePoint] = Counter()
    n_docs = 0
    for doc in docs:
        n_docs += 1
        counts.update(word_forms(doc.text, lowercase))
        if include_timestamps:
            stamps[doc.timestamp] += 1
    # A document's rendered timestamp is counted apart from its text: the
    # space that would join them ends every token, so no token spans both.
    for stamp, n in stamps.items():
        for form in word_forms(render(stamp), lowercase):
            counts[form] += n
    if n_docs == 0:
        raise EmptyCorpus("no documents supplied")
    ranked = sorted(
        (t for t, c in counts.items() if c >= min_freq),
        key=lambda t: (-counts[t], t),
    )
    room = max_size - len(SPECIAL_TOKENS)
    return Vocab(SPECIAL_TOKENS + tuple(ranked[:room]), lowercase)


@dataclass(frozen=True)
class TemporalGroup:
    """A temporal expression mapped onto a token range [token_start, token_end)."""

    expression_index: int
    token_start: int
    token_end: int
    resolvable: bool
    normalized: Optional[TimePoint]

    def __post_init__(self) -> None:
        if not 0 <= self.token_start < self.token_end:
            raise ValueError("empty token range")

    @property
    def positions(self) -> range:
        return range(self.token_start, self.token_end)


@dataclass(frozen=True)
class TokenizedDoc:
    doc_id: str
    token_ids: tuple[int, ...]
    temporal_groups: tuple[TemporalGroup, ...]


def tokenize(
    doc: Document,
    vocab: Vocab,
    expressions: Sequence[TemporalExpression],
    max_len: Optional[int] = None,
) -> TokenizedDoc:
    """Tokenize under vocab's case rule and align expressions to token ranges.

    When max_len is given, tokens beyond max_len - 2 are cut (leaving room
    for the sequence delimiters added downstream) and groups wholly or
    partly beyond the cut are dropped.  A token lands in at most one group;
    when two expressions collide on a token, the later one is dropped.
    """
    matches = list(_TOKEN_RX.finditer(doc.text))
    kept = len(matches)
    if max_len is not None:
        if max_len < 3:
            raise ValueError("max_len must be at least 3")
        kept = min(kept, max_len - 2)
    forms = map(re.Match.group, matches[:kept])
    if vocab.lowercase:
        forms = map(str.lower, forms)
    starts = list(map(re.Match.start, matches))
    ends = list(map(re.Match.end, matches))

    # Tokens are sorted and disjoint, so the tokens an expression overlaps
    # are the run from the first one ending after its start to the last
    # one starting before its end.
    groups: list[TemporalGroup] = []
    for index, expr in enumerate(expressions):
        start = bisect_right(ends, expr.start)
        end = bisect_left(starts, expr.end)
        if end <= start:
            raise AlignmentError(
                f"doc {doc.id}: expression at {expr.start}:{expr.end} covers no token"
            )
        if starts[start] != expr.start or ends[end - 1] != expr.end:
            raise AlignmentError(
                f"doc {doc.id}: expression at {expr.start}:{expr.end} "
                "does not align with token boundaries"
            )
        if end > kept:
            continue  # dropped by truncation
        if groups and start < groups[-1].token_end:
            continue  # token already claimed by an earlier expression
        groups.append(TemporalGroup(index, start, end, expr.resolvable,
                                    expr.normalized))
    return TokenizedDoc(doc.id, tuple(map(vocab._ids.get, forms, repeat(UNK))),
                        tuple(groups))


def expression_to_json(expr: TemporalExpression) -> dict:
    return {
        "start": expr.start,
        "end": expr.end,
        "surface": expr.surface,
        "normalized": None if expr.normalized is None else expr.normalized.isoformat(),
        "granularity": None if expr.granularity is None else str(expr.granularity),
    }


def expression_from_json(
    obj: dict, point: Callable[[str], TimePoint] = TimePoint.parse,
) -> TemporalExpression:
    """Inverse of expression_to_json; raises ValueError on a malformed record.

    point parses the normalized string.
    """
    if not isinstance(obj, dict):
        raise ValueError("expression is not an object")
    for key in ("start", "end", "surface"):
        if key not in obj:
            raise ValueError(f"expression missing field {key!r}")
    start, end, surface = obj["start"], obj["end"], obj["surface"]
    normalized = obj.get("normalized")
    if type(start) is not int or type(end) is not int or not isinstance(surface, str):
        raise ValueError("expression start/end must be integers and surface a string")
    if normalized is not None and not isinstance(normalized, str):
        raise ValueError(f"expression normalized must be a string, not {normalized!r}")
    value = None if normalized is None else point(normalized)
    return TemporalExpression(start, end, surface, value, value is not None)


def tagged_to_json(doc: Document, expressions: Sequence[TemporalExpression]) -> dict:
    return {
        "id": doc.id,
        "timestamp": doc.timestamp.isoformat(),
        "text": doc.text,
        "expressions": [expression_to_json(e) for e in expressions],
    }


def load_tagged(path: str) -> Iterator[tuple[Document, list[TemporalExpression]]]:
    """Stream (document, expressions) pairs from a tagged JSONL file.

    Raises as load_corpus does, and MalformedRecord on a bad expression.
    Each distinct timestamp and normalized string is parsed once per call.
    """
    stamps, points = util.Memo(parse_timestamp), util.Memo(TimePoint.parse)

    def record(obj: dict, seen: set[str]) -> tuple[Document, list[TemporalExpression]]:
        if not isinstance(obj.get("expressions"), list):
            raise MalformedRecord("not a tagged record")
        doc = parse_document(obj, stamps.__getitem__)
        exprs = [expression_from_json(e, points.__getitem__) for e in obj["expressions"]]
        return _unseen(doc, seen), exprs

    yield from _documents(path, record)
