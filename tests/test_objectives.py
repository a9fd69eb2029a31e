"""Masking plans, label spaces, and replacement-detection examples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronolm.corpus import (
    CLS,
    MASK,
    SEP,
    SPECIAL_TOKENS,
    Document,
    Vocab,
    build_vocab,
    tokenize,
)
from chronolm.errors import EmptyRange, OutOfLabelSpace
from chronolm.objectives import (
    IGNORE_INDEX,
    TIR_KEPT,
    TIR_REPLACED,
    LabelSpace,
    ExpressionPool,
    MaskAction,
    Objective,
    PoolEntry,
    apply_plan,
    build_labelspace,
    build_pretrain_example,
    build_tir,
    collect_expression_pool,
    dtp_label,
    example_from_json,
    example_provider,
    plan_mlm,
    plan_tamlm,
    pretrain_example_to_json,
    tir_example_to_json,
)
from chronolm.temporal import Granularity, TimePoint, annotate
from chronolm.util import rng_from


# ------------------------------------------------------------- label spaces

def test_labelspace_sizes_frozen():
    ys = build_labelspace(TimePoint(1987), TimePoint(2007), Granularity.YEAR)
    ms = build_labelspace(TimePoint(1987, 1), TimePoint(2007, 6), Granularity.MONTH)
    assert ys.size == 21
    assert ms.size == 246


def test_dtp_label_frozen_values():
    ys = build_labelspace(TimePoint(1987), TimePoint(2007), Granularity.YEAR)
    ms = build_labelspace(TimePoint(1987, 1), TimePoint(2007, 6), Granularity.MONTH)
    t = TimePoint(2007, 2, 23)
    assert dtp_label(t, ms) == 241
    assert dtp_label(t, ys) == 20


def test_labelspace_truncates_bounds():
    s = LabelSpace(Granularity.YEAR, TimePoint(1987, 3, 2), TimePoint(1990, 7))
    assert s.start == TimePoint(1987)
    assert s.end == TimePoint(1990)
    assert s.size == 4


def test_labelspace_rejects_empty():
    with pytest.raises(EmptyRange):
        LabelSpace(Granularity.YEAR, TimePoint(2000), TimePoint(1999))


def test_labelspace_index_point_round_trip():
    s = build_labelspace(TimePoint(1999, 11), TimePoint(2000, 2), Granularity.MONTH)
    for i in range(s.size):
        assert s.index_of(s.point_at(i)) == i
    assert [p.isoformat() for p in s.points()] == [
        "1999-11", "1999-12", "2000-01", "2000-02"]


def test_labelspace_out_of_range():
    s = build_labelspace(TimePoint(1999), TimePoint(2001), Granularity.YEAR)
    with pytest.raises(OutOfLabelSpace):
        s.index_of(TimePoint(2002))


# -------------------------------------------------------------- mask plans

def corpus_doc(text, ts=TimePoint(2007, 2, 23), doc_id="d1"):
    doc = Document(doc_id, ts, text)
    exprs = annotate(doc.text, doc.timestamp)
    vocab = build_vocab([doc], max_size=500)
    return doc, vocab, tokenize(doc, vocab, exprs)


SAMPLE = ("The charges were filed in 1993, but last December the case "
          "reopened; a hearing is set for yesterday.")


def test_plan_tamlm_budget_and_protection():
    doc, vocab, tok = corpus_doc(SAMPLE)
    n = len(tok.token_ids)
    m = len(tok.temporal_groups)
    assert m == 3
    sampled_counts = set()
    for trial in range(50):
        plan = plan_tamlm(tok, 0.3, 0.15, rng_from(0, "t", trial))
        sampled_counts.add(len(plan.sampled_expressions))
        assert len(plan.sampled_expressions) == math.ceil(0.3 * m)
        covered = set()
        for gi in plan.sampled_expressions:
            covered.update(tok.temporal_groups[gi].positions)
        masked = set(plan.masked_positions)
        # every token of every sampled expression is masked
        assert covered <= masked
        # budget: max(ceil(beta*n), expression tokens)
        assert len(masked) == max(math.ceil(0.15 * n), len(covered))
        # unsampled groups fully protected
        for gi, g in enumerate(tok.temporal_groups):
            if gi not in plan.sampled_expressions:
                assert not (set(g.positions) & masked)
    assert sampled_counts == {1}


def test_plan_tamlm_never_splits_a_group():
    text = "Meeting on March 4, 1921 about the budget and other things."
    doc, vocab, tok = corpus_doc(text)
    g, = tok.temporal_groups
    for trial in range(50):
        plan = plan_tamlm(tok, 0.3, 0.15, rng_from(1, trial))
        masked = set(plan.masked_positions)
        overlap = set(g.positions) & masked
        assert overlap in (set(), set(g.positions))


def test_plan_tamlm_zero_ratio_still_protects():
    doc, vocab, tok = corpus_doc(SAMPLE)
    protected = set()
    for g in tok.temporal_groups:
        protected.update(g.positions)
    for trial in range(30):
        plan = plan_tamlm(tok, 0.0, 0.15, rng_from(2, trial))
        assert plan.sampled_expressions == ()
        assert not (set(plan.masked_positions) & protected)


def test_plan_mlm_uniform_no_protection():
    doc, vocab, tok = corpus_doc(SAMPLE)
    n = len(tok.token_ids)
    protected = set()
    for g in tok.temporal_groups:
        protected.update(g.positions)
    hit = False
    for trial in range(60):
        plan = plan_mlm(tok, 0.15, rng_from(3, trial))
        assert len(plan.masked_positions) == math.ceil(0.15 * n)
        if set(plan.masked_positions) & protected:
            hit = True
    assert hit  # uniform masking does reach temporal tokens


def test_action_rates_80_10_10():
    doc, vocab, tok = corpus_doc(SAMPLE)
    counts = {MaskAction.MASK: 0, MaskAction.RANDOM: 0, MaskAction.KEEP: 0}
    total = 0
    for trial in range(3000):
        plan = plan_tamlm(tok, 0.3, 0.15, rng_from(4, trial))
        for a in plan.actions:
            counts[a] += 1
            total += 1
    assert total >= 10000
    assert abs(counts[MaskAction.MASK] / total - 0.80) < 0.02
    assert abs(counts[MaskAction.RANDOM] / total - 0.10) < 0.015
    assert abs(counts[MaskAction.KEEP] / total - 0.10) < 0.015


def test_apply_plan_frames_and_labels():
    doc, vocab, tok = corpus_doc(SAMPLE)
    plan = plan_tamlm(tok, 0.3, 0.15, rng_from(5))
    ex = apply_plan(tok, plan, vocab, rng_from(6))
    ids, labels = ex.input_ids, ex.mlm_labels
    assert ids[0] == CLS and ids[-1] == SEP
    assert len(ids) == len(tok.token_ids) + 2
    assert labels[0] == IGNORE_INDEX and labels[-1] == IGNORE_INDEX
    masked = set(plan.masked_positions)
    for pos in range(len(tok.token_ids)):
        if pos in masked:
            assert labels[pos + 1] == tok.token_ids[pos]
        else:
            assert labels[pos + 1] == IGNORE_INDEX
            assert ids[pos + 1] == tok.token_ids[pos]
    for pos, action in zip(plan.masked_positions, plan.actions):
        if action is MaskAction.MASK:
            assert ids[pos + 1] == MASK
        elif action is MaskAction.KEEP:
            assert ids[pos + 1] == tok.token_ids[pos]
        else:
            assert ids[pos + 1] >= len(SPECIAL_TOKENS)


def test_build_pretrain_example_deterministic_per_epoch():
    doc, vocab, tok = corpus_doc(SAMPLE)
    space = build_labelspace(TimePoint(2000), TimePoint(2010), Granularity.YEAR)
    objectives = frozenset({Objective.TAMLM, Objective.DTP})
    a = build_pretrain_example(doc, tok, objectives, space, 0.3, 0.15, vocab,
                               seed=9, epoch=0)
    b = build_pretrain_example(doc, tok, objectives, space, 0.3, 0.15, vocab,
                               seed=9, epoch=0)
    c = build_pretrain_example(doc, tok, objectives, space, 0.3, 0.15, vocab,
                               seed=9, epoch=1)
    assert a == b
    assert a != c  # fresh plan per epoch
    assert a.dtp_label == space.index_of(TimePoint(2007))


def test_build_pretrain_example_dtp_only_has_no_masks():
    doc, vocab, tok = corpus_doc(SAMPLE)
    space = build_labelspace(TimePoint(2000), TimePoint(2010), Granularity.YEAR)
    ex = build_pretrain_example(doc, tok, frozenset({Objective.DTP}), space,
                                0.3, 0.15, vocab, seed=9)
    assert all(v == IGNORE_INDEX for v in ex.mlm_labels)
    assert ex.input_ids[1:-1] == tok.token_ids


# --------------------------------------------------------------------- TIR

def tir_fixture(n_docs=30, seed=0):
    """Documents sharing a pool of absolute month expressions."""
    months = ["January", "March", "July", "October"]
    docs = []
    for i in range(n_docs):
        month = months[i % len(months)]
        year = 1990 + (i % 5)
        text = (f"The committee met in {month} {year} and drafted the "
                f"report before the deadline.")
        docs.append(Document(f"d{i}", TimePoint(2000, 1, 1), text))
    vocab = build_vocab(docs, max_size=500, include_timestamps=True)
    tagged = [(d, annotate(d.text, d.timestamp)) for d in docs]
    toks = [tokenize(d, vocab, e) for d, e in tagged]
    pool = collect_expression_pool(tagged)
    return docs, vocab, toks, pool


def test_pool_deduplicates_and_groups_by_granularity():
    docs, vocab, toks, pool = tir_fixture()
    months = pool.for_granularity(Granularity.MONTH)
    surfaces = [e.surface for e in months]
    assert len(surfaces) == len(set(surfaces)) == 20
    assert all(e.value.granularity is Granularity.MONTH for e in months)


def pick_by_scan(pool, value, rng):
    """The candidate pick as a scan over the whole granularity bucket."""
    candidates = [entry for entry in pool.for_granularity(value.granularity)
                  if entry.value != value]
    if not candidates:
        return None
    return candidates[int(rng.integers(len(candidates)))]


def random_pools(rng):
    """Pools over few values with repeats: sorted by collection, or shuffled."""
    for trial in range(40):
        n = int(rng.integers(0, 12))
        years = rng.integers(1990, 1995, size=n)
        months = rng.integers(1, 4, size=n)
        pairs = [(f"s{i}", TimePoint(int(y)), TimePoint(int(y), int(m)))
                 for i, (y, m) in enumerate(zip(years, months))]
        entries = {
            Granularity.YEAR: tuple(PoolEntry(s, y) for s, y, _ in pairs),
            Granularity.MONTH: tuple(PoolEntry(s, m) for s, _, m in pairs),
        }
        yield ExpressionPool({g: e for g, e in entries.items() if e})
        # the same entries in value order, as collect_expression_pool sorts them
        yield ExpressionPool({
            g: tuple(sorted(e, key=lambda p: (p.value.year, p.value.month or 0,
                                              p.surface)))
            for g, e in entries.items() if e
        })


def test_pool_draw_other_matches_the_scan():
    rng = rng_from(0, "pool-oracle")
    queries = [TimePoint(y) for y in range(1989, 1996)]
    queries += [TimePoint(y, m) for y in range(1990, 1995) for m in (1, 2, 3, 7)]
    hand_built = ExpressionPool({Granularity.YEAR: (
        PoolEntry("b", TimePoint(1992)), PoolEntry("a", TimePoint(1990)),
        PoolEntry("c", TimePoint(1992)), PoolEntry("d", TimePoint(1991)),
        PoolEntry("e", TimePoint(1990)), PoolEntry("f", TimePoint(1992)),
    )})
    only_one_value = ExpressionPool({Granularity.YEAR: (
        PoolEntry("x", TimePoint(1990)), PoolEntry("y", TimePoint(1990)),
    )})
    pools = [hand_built, only_one_value, *random_pools(rng)]
    for p, pool in enumerate(pools):
        for q, value in enumerate(queries):
            for draw in range(5):
                fast, slow = rng_from(p, q, draw), rng_from(p, q, draw)
                assert pool.draw_other(value, fast) == pick_by_scan(pool, value, slow)
                # the same number of draws was taken from the stream
                assert fast.random() == slow.random()


def test_build_tir_shape_and_prefix():
    docs, vocab, toks, pool = tir_fixture()
    ex = build_tir(docs[0], toks[0], pool, 0.5, vocab, seed=1)
    assert ex.input_ids[0] == CLS
    assert ex.input_ids[-1] == SEP
    seps = [i for i, t in enumerate(ex.input_ids) if t == SEP]
    assert len(seps) == 2
    # prefix between CLS and first SEP renders the document timestamp
    prefix = [vocab.token_of(t) for t in ex.input_ids[1:seps[0]]]
    assert prefix == ["January", "1", ",", "2000"]
    for slot in ex.slots:
        assert 0 < slot.boundary_left < slot.boundary_right < len(ex.input_ids)
        assert slot.label in (TIR_KEPT, TIR_REPLACED)


def test_build_tir_replacement_same_granularity_different_value():
    docs, vocab, toks, pool = tir_fixture()
    replaced = kept = 0
    for i, (doc, tok) in enumerate(zip(docs, toks)):
        ex = build_tir(doc, tok, pool, 0.5, vocab, seed=2)
        gold, = tok.temporal_groups
        slot, = ex.slots
        inner = ex.input_ids[slot.boundary_left + 1:slot.boundary_right]
        original = [vocab.id_of(f) for f, _, _ in
                    __import__("chronolm.corpus", fromlist=["word_spans"])
                    .word_spans(doc.text)][gold.token_start:gold.token_end]
        if slot.label == TIR_REPLACED:
            replaced += 1
            assert list(inner) != list(original)
        else:
            kept += 1
            assert list(inner) == list(original)
    assert replaced and kept


def test_build_tir_rate_near_half():
    docs, vocab, toks, pool = tir_fixture(n_docs=80)
    total = replaced = 0
    for epoch in range(25):
        for doc, tok in zip(docs, toks):
            ex = build_tir(doc, tok, pool, 0.5, vocab, seed=3, epoch=epoch)
            for slot in ex.slots:
                total += 1
                replaced += slot.label == TIR_REPLACED
    assert total == 2000
    assert abs(replaced / total - 0.5) < 0.05


def test_build_tir_empty_pool_forces_kept():
    doc = Document("d0", TimePoint(2000, 1, 1),
                   "It happened in 1995 according to the files.")
    exprs = annotate(doc.text, doc.timestamp)
    vocab = build_vocab([doc], max_size=100)
    tok = tokenize(doc, vocab, exprs)
    pool = collect_expression_pool([(doc, exprs)])  # only this one value
    ex = build_tir(doc, tok, pool, 1.0, vocab, seed=4)
    slot, = ex.slots
    assert slot.label == TIR_KEPT
    assert ex.forced_kept == (0,)


def test_build_tir_unresolvable_expressions_pass_through():
    doc = Document("d0", TimePoint(2000, 1, 1),
                   "Recently the 1990s ended, in 1999 to be exact.")
    exprs = annotate(doc.text, doc.timestamp)
    vocab = build_vocab([doc], max_size=100)
    tok = tokenize(doc, vocab, exprs)
    pool = collect_expression_pool([(doc, exprs)])
    ex = build_tir(doc, tok, pool, 1.0, vocab, seed=5)
    # only the resolvable "1999" gets a slot
    assert len(ex.slots) <= 1


def test_tir_deterministic_per_seed_epoch():
    docs, vocab, toks, pool = tir_fixture()
    a = build_tir(docs[3], toks[3], pool, 0.5, vocab, seed=7, epoch=2)
    b = build_tir(docs[3], toks[3], pool, 0.5, vocab, seed=7, epoch=2)
    c = build_tir(docs[3], toks[3], pool, 0.5, vocab, seed=7, epoch=3)
    assert a == b
    assert (a.input_ids, tuple(s.label for s in a.slots)) != \
        (c.input_ids, tuple(s.label for s in c.slots)) or a == c


# ------------------------------------------------------------ serialization

def test_pretrain_example_json_round_trip():
    doc, vocab, tok = corpus_doc(SAMPLE)
    space = build_labelspace(TimePoint(2000), TimePoint(2010), Granularity.YEAR)
    ex = build_pretrain_example(doc, tok, frozenset({Objective.TAMLM,
                                                     Objective.DTP}),
                                space, 0.3, 0.15, vocab, seed=11)
    assert example_from_json(pretrain_example_to_json(ex)) == ex


def test_tir_example_json_round_trip():
    docs, vocab, toks, pool = tir_fixture()
    ex = build_tir(docs[1], toks[1], pool, 0.5, vocab, seed=12)
    assert example_from_json(tir_example_to_json(ex)) == ex


def test_objective_parse_set_and_format():
    s = Objective.parse_set("tamlm,dtp")
    assert s == frozenset({Objective.TAMLM, Objective.DTP})
    with pytest.raises(ValueError):
        Objective.parse_set("tamlm,bogus")
    with pytest.raises(ValueError):
        Objective.parse_set("mlm,tamlm")  # mutually exclusive


def test_example_provider_builds_both_kinds():
    docs, vocab, toks, pool = tir_fixture(n_docs=6)
    tagged = [(d, annotate(d.text, d.timestamp)) for d in docs]
    space = build_labelspace(TimePoint(1990), TimePoint(2000), Granularity.YEAR)
    provider = example_provider(
        tagged, vocab,
        frozenset({Objective.TAMLM, Objective.DTP, Objective.TIR}),
        space, seed=13)
    examples = provider(0)
    kinds = {type(e).__name__ for e in examples}
    assert kinds == {"PretrainExample", "TirExample"}
    assert len(examples) == 12  # one of each per document


# ---------------------------------------------------- budget law, by hand

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_budget_law_property(seed):
    doc, vocab, tok = corpus_doc(SAMPLE)
    n = len(tok.token_ids)
    plan = plan_tamlm(tok, 0.3, 0.15, rng_from(seed))
    covered = set()
    for gi in plan.sampled_expressions:
        covered.update(tok.temporal_groups[gi].positions)
    assert len(plan.masked_positions) == max(math.ceil(0.15 * n), len(covered))
    assert len(plan.actions) == len(plan.masked_positions)
