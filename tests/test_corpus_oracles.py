"""The offset-free tokenizer path against the frozen per-token forms in
oracles.py: word forms, vocabulary ranking, expression alignment, and the
bytes the CLI writes from them."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chronolm.cli
import chronolm.objectives
import oracles
from chronolm.cli import main
from chronolm.corpus import (
    SPECIAL_TOKENS,
    UNK,
    Document,
    TemporalGroup,
    TokenizedDoc,
    Vocab,
    build_vocab,
    tokenize,
    word_forms,
    word_spans,
)
from chronolm.errors import AlignmentError
from chronolm.temporal import TemporalExpression, TimePoint, render

# Characters whose case folding changes length or shape ("İ".lower() has two
# code points, "ß" and "ſ" have no one-letter partner), a combining mark,
# digits, punctuation and whitespace, so forms split and fold in odd ways.
_ALPHABET = list("aAbBzZ09_ .,-/:\t\n") + ["İ", "ß", "ſ", "Å", "̇", "é", "Σ", "ς"]
texts = st.one_of(
    st.text(alphabet=st.sampled_from(_ALPHABET), max_size=60),
    st.text(max_size=60),
)


@given(texts, st.booleans())
@settings(max_examples=300, deadline=None)
def test_word_forms_are_the_forms_of_word_spans(text, lowercase):
    assert word_forms(text, lowercase) == [f for f, _, _ in word_spans(text, lowercase)]
    assert word_spans(text, lowercase) == oracles.word_spans(text, lowercase)


def test_word_forms_fold_non_ascii_per_form():
    text = "İstanbul STRAßE ſoon"
    assert word_forms(text, lowercase=True) == [
        f for f, _, _ in oracles.word_spans(text, lowercase=True)]
    assert word_forms(text, lowercase=True)[0] == "i̇stanbul"


@st.composite
def tokenize_cases(draw):
    text = draw(texts)
    lowercase = draw(st.booleans())
    spans = oracles.word_spans(text)
    # A vocabulary read under lowercase holds no cased token.
    forms = [f for f, _, _ in oracles.word_spans(text, lowercase)]
    known = draw(st.lists(st.sampled_from(forms), unique=True)) if forms else []
    vocab = Vocab(SPECIAL_TOKENS + tuple(f for f in known if f not in SPECIAL_TOKENS),
                  lowercase)
    exprs = []
    for _ in range(draw(st.integers(0, 4))):
        if spans and draw(st.booleans()):
            # Token-aligned: the run of tokens i..j.
            i = draw(st.integers(0, len(spans) - 1))
            j = draw(st.integers(i, min(len(spans) - 1, i + 3)))
            start, end = spans[i][1], spans[j][2]
        else:
            # Anywhere, including past the end of the text.
            start = draw(st.integers(0, len(text) + 2))
            end = draw(st.integers(start + 1, len(text) + 4))
        normalized = draw(st.sampled_from([None, TimePoint(1990), TimePoint(1991, 5)]))
        exprs.append(TemporalExpression(start, end, text[start:end], normalized,
                                        normalized is not None or draw(st.booleans())))
    max_len = draw(st.one_of(st.none(), st.integers(0, 12)))
    return Document("d1", TimePoint(2000, 1, 1), text), vocab, exprs, max_len


def _oracle_tokenize(doc, vocab, exprs, max_len=None):
    ids = {t: i for i, t in enumerate(vocab.tokens)}
    plain = [(e.start, e.end, e.resolvable, e.normalized) for e in exprs]
    try:
        token_ids, _, groups = oracles.tokenize(
            doc.id, doc.text, ids, UNK, plain, vocab.lowercase, max_len)
    except oracles.AlignmentError as exc:
        raise AlignmentError(str(exc)) from None
    return TokenizedDoc(doc.id, token_ids, tuple(TemporalGroup(*g) for g in groups))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (AlignmentError, ValueError) as exc:
        return type(exc), str(exc)


@given(tokenize_cases())
@settings(max_examples=400, deadline=None)
def test_tokenize_matches_the_oracle(case):
    doc, vocab, exprs, max_len = case
    assert (_outcome(tokenize, doc, vocab, exprs, max_len)
            == _outcome(_oracle_tokenize, doc, vocab, exprs, max_len))


def test_tokenize_matches_the_oracle_on_each_error_and_cut():
    doc = Document("d1", TimePoint(2000, 1, 1), "in March 1990 , then 1991 ends")
    vocab = Vocab(SPECIAL_TOKENS + ("March", "1990"))

    def expr(start, end):
        return TemporalExpression(start, end, doc.text[start:end])

    cases = {
        "misaligned": [expr(4, 7)],
        "out of text": [expr(40, 44)],
        "between tokens": [expr(13, 14)],
        "overlapping": [expr(3, 13), expr(9, 13)],
        "cut by truncation": [expr(21, 25)],
    }
    for name, exprs in cases.items():
        for max_len in (None, 2, 5, 7):
            got = _outcome(tokenize, doc, vocab, exprs, max_len)
            assert got == _outcome(_oracle_tokenize, doc, vocab, exprs, max_len), name
    assert _outcome(tokenize, doc, vocab, cases["misaligned"])[0] is AlignmentError
    assert _outcome(tokenize, doc, vocab, cases["out of text"])[0] is AlignmentError
    assert len(tokenize(doc, vocab, cases["overlapping"]).temporal_groups) == 1
    assert tokenize(doc, vocab, cases["cut by truncation"], max_len=7).temporal_groups == ()


@given(
    st.lists(st.tuples(st.sampled_from([TimePoint(1990, 3, 4), TimePoint(1999, 12, 31),
                                        TimePoint(2001, 7, 1)]), texts),
             min_size=1, max_size=6),
    st.integers(len(SPECIAL_TOKENS) + 1, len(SPECIAL_TOKENS) + 25),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_build_vocab_matches_the_oracle(docs, max_size, min_freq, lowercase, stamps):
    documents = [Document(f"d{i}", ts, text) for i, (ts, text) in enumerate(docs)]
    texts_seen = [f"{render(ts)} {text}" if stamps else text for ts, text in docs]
    got = build_vocab(documents, max_size, min_freq, lowercase, include_timestamps=stamps)
    assert got.tokens == oracles.vocab_tokens(texts_seen, SPECIAL_TOKENS, max_size,
                                              min_freq, lowercase)


def test_build_vocab_breaks_count_ties_by_token():
    docs = [Document("a", TimePoint(2000, 1, 1), "b B a A ß ſ . ,")]
    for lowercase in (False, True):
        got = build_vocab(docs, 100, lowercase=lowercase)
        assert got.tokens == oracles.vocab_tokens([docs[0].text], SPECIAL_TOKENS, 100,
                                                  1, lowercase)


def _oracle_build_vocab(docs, max_size, min_freq=1, lowercase=False,
                        include_timestamps=False):
    texts_seen = [f"{render(d.timestamp)} {d.text}" if include_timestamps else d.text
                  for d in docs]
    return Vocab(oracles.vocab_tokens(texts_seen, SPECIAL_TOKENS, max_size, min_freq,
                                      lowercase), lowercase)


def _oracle_encode(self, text):
    return [self.id_of(form) for form, _, _ in oracles.word_spans(text, self.lowercase)]


def _chain(root, lowercase):
    """synth -> tag -> build-vocab -> build-dataset; sha256 of each output."""
    root.mkdir()
    (root / "run.cfg").write_text(
        "[run]\nseed = 5\n"
        f"[tokenizer]\nlowercase = {str(lowercase).lower()}\n"
        "[labelspace]\nstart = 1990-01\nend = 1991-12\ngranularity = month\n"
        "[model]\nd_model = 16\nn_layers = 1\nn_heads = 2\nd_ff = 32\nmax_len = 24\n")
    steps = (
        ["synth", "--n", 60, "--start", "1990-01", "--end", "1991-12",
         "--out", root / "corpus.jsonl"],
        ["tag", "--corpus", root / "corpus.jsonl", "--out", root / "tagged.jsonl"],
        ["build-vocab", "--corpus", root / "corpus.jsonl", "--max-size", 60,
         "--out", root / "vocab.txt"],
        ["build-dataset", "--tagged", root / "tagged.jsonl", "--vocab", root / "vocab.txt",
         "--objectives", "tamlm,dtp,tir", "--out", root / "dataset.jsonl"],
    )
    for argv in steps:
        assert main([str(a) for a in argv + ["--config", root / "run.cfg"]]) == 0
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
            for name in ("corpus.jsonl", "tagged.jsonl", "vocab.txt", "dataset.jsonl")}


@pytest.mark.parametrize("lowercase", [False, True])
def test_cli_chain_writes_the_oracle_bytes(tmp_path, monkeypatch, lowercase):
    fast = _chain(tmp_path / "fast", lowercase)
    monkeypatch.setattr(chronolm.cli, "build_vocab", _oracle_build_vocab)
    monkeypatch.setattr(chronolm.objectives, "tokenize", _oracle_tokenize)
    monkeypatch.setattr(Vocab, "encode", _oracle_encode)
    assert _chain(tmp_path / "oracle", lowercase) == fast
