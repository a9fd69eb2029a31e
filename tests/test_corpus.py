"""Document loading, vocabulary, tokenization, expression alignment."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolm.corpus import (
    CLS,
    MASK,
    PAD,
    SEP,
    SPECIAL_TOKENS,
    UNK,
    Document,
    Vocab,
    build_vocab,
    load_corpus,
    load_tagged,
    tagged_to_json,
    tokenize,
    word_spans,
)
from chronolm.errors import (
    AlignmentError,
    EmptyCorpus,
    InvalidTimestamp,
    MalformedRecord,
)
from chronolm.temporal import TimePoint, annotate


def test_special_token_ids_are_pinned():
    assert (PAD, UNK, CLS, SEP, MASK) == (0, 1, 2, 3, 4)
    assert SPECIAL_TOKENS == ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")


def test_word_spans_splits_words_and_punctuation():
    spans = word_spans("Filed in 1993, case reopened.")
    forms = [f for f, _, _ in spans]
    assert forms == ["Filed", "in", "1993", ",", "case", "reopened", "."]
    for form, start, end in spans:
        assert "Filed in 1993, case reopened."[start:end] == form


def test_word_spans_lowercase_keeps_spans():
    text = "Filed IN 1993"
    spans = word_spans(text, lowercase=True)
    assert [f for f, _, _ in spans] == ["filed", "in", "1993"]
    for form, start, end in spans:
        assert text[start:end].lower() == form


@given(st.text(max_size=120))
@settings(max_examples=150)
def test_word_spans_cover_their_text(text):
    for form, start, end in word_spans(text):
        assert text[start:end] == form
        assert form.strip() == form
        assert form


def make_vocab(extra=()):
    return Vocab(SPECIAL_TOKENS + tuple(extra))


def test_vocab_lookup_and_unk():
    v = make_vocab(["case", "filed", "in"])
    assert v.id_of("case") == 5
    assert v.id_of("never-seen") == UNK
    assert v.token_of(5) == "case"
    assert "case" in v
    assert "missing" not in v


def test_vocab_requires_special_prefix():
    with pytest.raises(ValueError):
        Vocab(("a", "b"))
    with pytest.raises(ValueError):
        Vocab(SPECIAL_TOKENS + ("dup", "dup"))


def test_vocab_save_load_and_hash(tmp_path):
    v = make_vocab(["alpha", "beta"])
    path = tmp_path / "vocab.txt"
    v.save(str(path))
    loaded = Vocab.load(str(path))
    assert loaded.tokens == v.tokens
    assert loaded.content_hash() == v.content_hash()
    other = make_vocab(["alpha", "gamma"])
    assert other.content_hash() != v.content_hash()


def test_vocab_carries_its_case_rule(tmp_path):
    v = make_vocab(["filed", "in"])
    assert v.encode("Filed IN") == [UNK, UNK]
    lowered = Vocab(v.tokens, lowercase=True)
    assert lowered.encode("Filed IN") == [5, 6]
    path = tmp_path / "vocab.txt"
    v.save(str(path))
    assert Vocab.load(str(path), lowercase=True).encode("Filed IN") == [5, 6]
    docs = [Document("a", TimePoint(2000, 1, 1), "Filed IN March")]
    assert build_vocab(docs, max_size=20, lowercase=True).lowercase


def test_lowercase_vocab_rejects_cased_tokens(tmp_path):
    cased = SPECIAL_TOKENS + ("march", "March")
    Vocab(cased)  # without the rule, a cased token is fine
    with pytest.raises(ValueError, match="token 'March' is cased"):
        Vocab(cased, lowercase=True)
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join(cased) + "\n")
    needle = re.escape(f"{path}: token 'March' is cased, but")
    with pytest.raises(MalformedRecord, match=needle):
        Vocab.load(str(path), lowercase=True)


def test_lower_is_idempotent_on_every_code_point():
    # So every token build_vocab makes under lowercase passes the cased check.
    for c in map(chr, range(0x110000)):
        low = c.lower()
        assert low.lower() == low, hex(ord(c))


def test_build_vocab_frequency_then_lexical_order():
    docs = [
        Document("a", TimePoint(2000, 1, 1), "b b b a a c"),
        Document("b", TimePoint(2000, 1, 2), "c a"),
    ]
    v = build_vocab(docs, max_size=len(SPECIAL_TOKENS) + 3)
    # counts: a=3 b=3 c=2; ties break lexically
    assert v.tokens[len(SPECIAL_TOKENS):] == ("a", "b", "c")


def test_build_vocab_max_size_includes_specials():
    docs = [Document("a", TimePoint(2000, 1, 1), "x y z w")]
    v = build_vocab(docs, max_size=len(SPECIAL_TOKENS) + 2)
    assert v.size == len(SPECIAL_TOKENS) + 2


def test_build_vocab_min_freq():
    docs = [Document("a", TimePoint(2000, 1, 1), "x x y")]
    v = build_vocab(docs, max_size=100, min_freq=2)
    assert "x" in v
    assert "y" not in v


def write_jsonl(path, objs):
    with open(path, "w") as f:
        for o in objs:
            f.write(json.dumps(o) + "\n")


def test_load_corpus_round_trip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [
        {"id": "d1", "timestamp": "2001-05-20", "text": "hello world"},
    ])
    docs = list(load_corpus(str(path)))
    assert docs[0].id == "d1"
    assert docs[0].timestamp == TimePoint(2001, 5, 20)


def test_load_corpus_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "d1", "timestamp": "2001-05-20", "text": "x"}\nnot json\n')
    with pytest.raises(MalformedRecord, match="line 2"):
        list(load_corpus(str(path)))


def test_load_corpus_rejects_partial_timestamp(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_jsonl(path, [{"id": "d1", "timestamp": "2001-05", "text": "x"}])
    with pytest.raises(InvalidTimestamp):
        list(load_corpus(str(path)))


def test_load_corpus_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.jsonl"
    write_jsonl(path, [
        {"id": "d1", "timestamp": "2001-05-20", "text": "x"},
        {"id": "d1", "timestamp": "2001-05-21", "text": "y"},
    ])
    with pytest.raises(MalformedRecord, match="d1"):
        list(load_corpus(str(path)))


def test_load_tagged_rejects_duplicate_ids(tmp_path):
    doc = Document("d1", TimePoint(2001, 5, 20), "Filed in 1993.")
    record = tagged_to_json(doc, annotate(doc.text, doc.timestamp))
    path = tmp_path / "dup.jsonl"
    write_jsonl(path, [record, record])
    with pytest.raises(MalformedRecord, match="line 2: duplicate id 'd1'"):
        list(load_tagged(str(path)))


def test_load_corpus_empty_file_raises(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(EmptyCorpus):
        list(load_corpus(str(path)))


def test_tagged_round_trip(tmp_path):
    doc = Document("d1", TimePoint(2007, 2, 23),
                   "Filed in 1993, reopened yesterday.")
    exprs = annotate(doc.text, doc.timestamp)
    path = tmp_path / "tagged.jsonl"
    write_jsonl(path, [tagged_to_json(doc, exprs)])
    (loaded_doc, loaded_exprs), = load_tagged(str(path))
    assert loaded_doc == doc
    assert list(loaded_exprs) == list(exprs)


def test_tokenize_aligns_expressions_to_token_groups():
    doc = Document("d1", TimePoint(2007, 2, 23),
                   "Charges filed in 1993, but last December it reopened.")
    exprs = annotate(doc.text, doc.timestamp)
    vocab = build_vocab([doc], max_size=100)
    tok = tokenize(doc, vocab, exprs)
    assert len(tok.temporal_groups) == 2
    first, second = tok.temporal_groups
    spans = word_spans(doc.text)
    assert tok.token_ids == tuple(vocab.id_of(form) for form, _, _ in spans)
    # group token range re-covers the expression surface
    assert doc.text[spans[first.token_start][1]:spans[first.token_end - 1][2]] == "1993"
    covered = doc.text[spans[second.token_start][1]:spans[second.token_end - 1][2]]
    assert covered == "last December"
    assert second.token_end - second.token_start == 2


def test_tokenize_group_positions_property():
    doc = Document("d1", TimePoint(2007, 2, 23), "Meeting on March 4, 1921 here.")
    exprs = annotate(doc.text, doc.timestamp)
    vocab = build_vocab([doc], max_size=100)
    tok = tokenize(doc, vocab, exprs)
    g, = tok.temporal_groups
    assert list(g.positions) == list(range(g.token_start, g.token_end))
    # "March 4, 1921" tokenizes to March / 4 / , / 1921
    assert g.token_end - g.token_start == 4


def test_tokenize_unknown_tokens_map_to_unk():
    doc = Document("d1", TimePoint(2007, 2, 23), "alpha beta")
    vocab = make_vocab(["alpha"])
    tok = tokenize(doc, vocab, [])
    assert tok.token_ids == (5, UNK)


def test_tokenize_truncation_drops_cut_groups():
    words = ["w%d" % i for i in range(20)]
    text = " ".join(words) + " 1993"
    doc = Document("d1", TimePoint(2007, 2, 23), text)
    exprs = annotate(doc.text, doc.timestamp)
    vocab = build_vocab([doc], max_size=100)
    tok = tokenize(doc, vocab, exprs, max_len=12)
    assert len(tok.token_ids) == 10  # max_len minus the two frame slots
    assert tok.temporal_groups == ()


def test_tokenize_misaligned_expression_raises():
    from chronolm.temporal import TemporalExpression
    doc = Document("d1", TimePoint(2007, 2, 23), "plain words here")
    vocab = build_vocab([doc], max_size=100)
    bad = TemporalExpression(2, 7, "ain w", normalized=None, resolvable=False)
    with pytest.raises(AlignmentError):
        tokenize(doc, vocab, [bad])
