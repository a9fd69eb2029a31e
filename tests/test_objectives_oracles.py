"""Per-epoch example building against the frozen per-document builders in
oracles.py: the batch-derived random streams, the array-speed masking
plans and the cached encodings must give the same examples, draw for draw."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from chronolm import util
from chronolm.corpus import SPECIAL_TOKENS, Document, TemporalGroup, TokenizedDoc, Vocab
from chronolm.corpus import build_vocab, tokenize
from chronolm.objectives import (
    LabelSpace,
    MaskAction,
    MaskPlan,
    Objective,
    PretrainExample,
    apply_plan,
    build_pretrain_example,
    build_tir,
    collect_expression_pool,
    dtp_label,
    example_provider,
    plan_mlm,
    plan_tamlm,
)
from chronolm.synth import synth_corpus
from chronolm.temporal import Granularity, TemporalExpression, TimePoint, annotate, render

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
seeds64 = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))


# ------------------------------------------------------------ random streams

@given(st.lists(seeds64, min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_pcg64_states_equal_numpy_seeding(seeds):
    want = [np.random.PCG64(s).state["state"] for s in seeds]
    got = util.pcg64_states(seeds)
    assert got == [(w["state"], w["inc"]) for w in want]


def test_pcg64_states_cover_the_entropy_edges():
    got = util.pcg64_states(EDGE_SEEDS)
    for seed, (state, inc) in zip(EDGE_SEEDS, got):
        want = np.random.PCG64(seed).state["state"]
        assert (state, inc) == (want["state"], want["inc"]), seed


keys = st.tuples(seeds64, st.text(max_size=6), st.integers(0, 3),
                 st.sampled_from(["mask", "tir"]))


@given(st.lists(keys, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_rng_streams_draw_as_rng_from(key_list):
    for key, rng in zip(key_list, util.rng_streams(key_list)):
        assert util.mix(*key) == oracles.mix(*key)
        ref = oracles.rng_from(*key)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random() == ref.random()
        assert int(rng.integers(5, 1000)) == int(ref.integers(5, 1000))
        assert rng.choice(40, size=3, replace=False).tolist() == \
            ref.choice(40, size=3, replace=False).tolist()
        assert rng.bit_generator.state == ref.bit_generator.state


@given(st.lists(st.one_of(st.integers(-2**70, 2**70), st.text(max_size=5),
                          st.none(), st.floats(allow_nan=False)), max_size=5))
@settings(max_examples=100, deadline=None)
def test_mix_equals_per_part_hashing(parts):
    assert util.mix(*parts) == oracles.mix(*parts)


# ------------------------------------------------------------ masking plans

def _plain_groups(tokdoc):
    return tuple((g.expression_index, g.token_start, g.token_end, g.resolvable,
                  g.normalized) for g in tokdoc.temporal_groups)


def _plain_plan(plan):
    return (plan.sampled_expressions, plan.masked_positions,
            tuple(a.value for a in plan.actions))


@st.composite
def hand_built_docs(draw):
    """Token documents whose groups may overlap, come unsorted or run past
    the last token, as a hand-built TokenizedDoc may."""
    n = draw(st.integers(0, 40))
    groups = []
    for i in range(draw(st.integers(0, 5))):
        start = draw(st.integers(0, n + 3))
        end = draw(st.integers(start + 1, start + 4))
        groups.append(TemporalGroup(i, start, end, True, None))
    ids = tuple(draw(st.lists(st.integers(5, 30), min_size=n, max_size=n)))
    return TokenizedDoc("d", ids, tuple(groups))


@given(hand_built_docs(), st.floats(0.0, 1.0), st.floats(0.01, 0.99), seeds64)
@settings(max_examples=200, deadline=None)
def test_plan_tamlm_matches_per_token_scan(tokdoc, ratio, budget, seed):
    got = plan_tamlm(tokdoc, ratio, budget, np.random.Generator(np.random.PCG64(seed)))
    ref = np.random.Generator(np.random.PCG64(seed))
    want = oracles.plan_tamlm(len(tokdoc.token_ids), _plain_groups(tokdoc),
                              ratio, budget, ref)
    assert _plain_plan(got) == want


@given(hand_built_docs(), st.floats(0.01, 0.99), seeds64)
@settings(max_examples=100, deadline=None)
def test_plan_mlm_matches_per_element_actions(tokdoc, budget, seed):
    got = plan_mlm(tokdoc, budget, np.random.Generator(np.random.PCG64(seed)))
    want = oracles.plan_mlm(len(tokdoc.token_ids), budget,
                            np.random.Generator(np.random.PCG64(seed)))
    assert _plain_plan(got) == want


_VOCABS = {}


def _vocab(size):
    if size not in _VOCABS:
        extra = tuple(f"t{i}" for i in range(size - len(SPECIAL_TOKENS)))
        _VOCABS[size] = Vocab(SPECIAL_TOKENS + extra)
    return _VOCABS[size]


@st.composite
def plans(draw):
    n = draw(st.integers(1, 60))
    ids = tuple(draw(st.lists(st.integers(5, 99), min_size=n, max_size=n)))
    positions = tuple(sorted(draw(st.sets(st.integers(0, n - 1)))))
    actions = tuple(draw(st.lists(st.sampled_from(list(MaskAction)),
                                  min_size=len(positions), max_size=len(positions))))
    tokdoc = TokenizedDoc("d", ids, ())
    return tokdoc, MaskPlan((), positions, actions)


@given(plans(), st.sampled_from([6, 7, 100, 2**8 + 1, 5000]), seeds64)
@settings(max_examples=150, deadline=None)
def test_apply_plan_draws_as_scalar_draws(case, vocab_size, seed):
    # One draw of k random ids must equal k scalar draws, and leave the
    # stream where they leave it.
    tokdoc, plan = case
    rng = np.random.Generator(np.random.PCG64(seed))
    ref = np.random.Generator(np.random.PCG64(seed))
    example = apply_plan(tokdoc, plan, _vocab(vocab_size), rng, dtp_label=3)
    want = oracles.apply_plan(tokdoc.token_ids, _plain_plan(plan), vocab_size, ref)
    assert (example.input_ids, example.mlm_labels, example.dtp_label) == (*want, 3)
    assert rng.bit_generator.state == ref.bit_generator.state


# ------------------------------------------------------------ whole epochs

def _synthetic_corpus():
    space = LabelSpace(Granularity.MONTH, TimePoint(1990, 1), TimePoint(1991, 12))
    docs = synth_corpus(24, space, noise=0.2, seed=3)
    return [(d, annotate(d.text, d.timestamp)) for d in docs]


def _hand_corpus():
    """Flush expressions, a granularity with one value (forced-kept slots),
    an unresolvable span and expressions past a short max_len."""
    def expr(text, surface, value, nth=0):
        start = -1
        for _ in range(nth + 1):
            start = text.index(surface, start + 1)
        return TemporalExpression(start, start + len(surface), surface, value,
                                  value is not None)

    t1 = "Filed on March 4 , 1921 and again 1987 1988 , recently ."
    t2 = "On March 4 , 1921 the board met ; in 1990 it closed after many long years ."
    return [
        (Document("h1", TimePoint(1990, 2, 3), t1),
         [expr(t1, "March 4 , 1921", TimePoint(1921, 3, 4)),
          expr(t1, "1987", TimePoint(1987)), expr(t1, "1988", TimePoint(1988)),
          expr(t1, "recently", None)]),
        (Document("h2", TimePoint(1991, 7, 9), t2),
         [expr(t2, "March 4 , 1921", TimePoint(1921, 3, 4)),
          expr(t2, "1990", TimePoint(1990))]),
    ]


_COMBOS = [
    frozenset(o for o in combo if o is not None)
    for combo in itertools.product((None, Objective.MLM, Objective.TAMLM),
                                   (None, Objective.DTP), (None, Objective.TIR))
    if any(combo)
]


def _plain(example):
    if isinstance(example, PretrainExample):
        return (example.doc_id, example.input_ids, example.mlm_labels,
                example.dtp_label)
    return (example.doc_id, example.input_ids,
            tuple((s.boundary_left, s.boundary_right, s.label) for s in example.slots),
            example.forced_kept)


def _oracle_epoch(tagged, vocab, objectives, space, seed, epoch, max_len):
    masking = ("tamlm" if Objective.TAMLM in objectives
               else "mlm" if Objective.MLM in objectives else None)
    pool = collect_expression_pool(tagged)

    def pool_entries(value):
        return [(e.surface, e.value) for e in pool.for_granularity(value.granularity)]

    out = []
    for doc, exprs in tagged:
        tokdoc = tokenize(doc, vocab, exprs, max_len=max_len)
        groups = _plain_groups(tokdoc)
        if objectives - {Objective.TIR}:
            label = (dtp_label(doc.timestamp, space)
                     if Objective.DTP in objectives else None)
            out.append(oracles.build_pretrain_example(
                doc.id, tokdoc.token_ids, groups, masking, label, 0.3, 0.15,
                vocab.size, seed, epoch))
        if Objective.TIR in objectives:
            out.append(oracles.build_tir(
                doc.id, vocab.encode(render(doc.timestamp)), tokdoc.token_ids, groups,
                pool_entries, 0.5, vocab.encode, seed, epoch, max_len))
    return out


@pytest.mark.parametrize("objectives", _COMBOS, ids=lambda c: "+".join(
    sorted(o.value for o in c)))
def test_provider_epochs_match_per_document_builders(objectives):
    space = LabelSpace(Granularity.MONTH, TimePoint(1921, 1), TimePoint(1991, 12))
    seen = {"random": 0, "replaced": 0, "forced": 0, "examples": 0}
    for corpus, lowercase, max_len in (
        (_synthetic_corpus(), False, None),
        (_synthetic_corpus(), True, 24),
        (_hand_corpus(), False, None),
        (_hand_corpus(), True, 14),
    ):
        texts = [d for d, _ in corpus]
        vocab = build_vocab(texts, max_size=60, lowercase=lowercase,
                            include_timestamps=True)
        for seed in (0, 7, 2**40 + 3):
            build = example_provider(corpus, vocab, objectives, space, seed=seed,
                                     max_len=max_len)
            for epoch in (0, 1, 2):
                examples = build(epoch)
                want = _oracle_epoch(corpus, vocab, objectives, space, seed,
                                     epoch, max_len)
                assert [_plain(e) for e in examples] == want, (
                    lowercase, max_len, seed, epoch)
                seen["examples"] += len(examples)
                for e in examples:
                    if isinstance(e, PretrainExample):
                        seen["random"] += sum(
                            label != oracles.IGNORE and i not in (oracles.MASK_ID, label)
                            for i, label in zip(e.input_ids, e.mlm_labels))
                    else:
                        seen["replaced"] += sum(s.label for s in e.slots)
                        seen["forced"] += len(e.forced_kept)
    assert seen["examples"]
    if Objective.TIR in objectives:
        assert seen["replaced"] and seen["forced"]
    if objectives & {Objective.MLM, Objective.TAMLM}:
        assert seen["random"]


def test_public_builders_with_a_seed_match_the_oracles():
    corpus = _synthetic_corpus() + _hand_corpus()
    vocab = build_vocab([d for d, _ in corpus], max_size=80, include_timestamps=True)
    space = LabelSpace(Granularity.MONTH, TimePoint(1921, 1), TimePoint(1991, 12))
    pool = collect_expression_pool(corpus)
    objectives = {Objective.TAMLM, Objective.DTP}
    for doc, exprs in corpus:
        tokdoc = tokenize(doc, vocab, exprs)
        for epoch in (0, 3):
            got = build_pretrain_example(doc, tokdoc, objectives, space, 0.3, 0.15,
                                         vocab, 5, epoch)
            want = oracles.build_pretrain_example(
                doc.id, tokdoc.token_ids, _plain_groups(tokdoc), "tamlm",
                dtp_label(doc.timestamp, space), 0.3, 0.15, vocab.size, 5, epoch)
            assert _plain(got) == want
            got = build_tir(doc, tokdoc, pool, 0.5, vocab, 5, epoch)
            want = oracles.build_tir(
                doc.id, vocab.encode(render(doc.timestamp)), tokdoc.token_ids,
                _plain_groups(tokdoc),
                lambda v: [(e.surface, e.value) for e in pool.for_granularity(v.granularity)],
                0.5, vocab.encode, 5, epoch)
            assert _plain(got) == want
