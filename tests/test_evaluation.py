"""Accuracy, error, random-guess baseline, and ranking metrics."""

import itertools
import math

import numpy as np
import pytest

from chronolm.corpus import SPECIAL_TOKENS, Vocab
from chronolm.errors import EmptyInput
from chronolm.evaluation import (
    Prediction,
    RankedDates,
    accuracy,
    mae,
    mean_average_precision,
    mrr,
    probe_representation,
    random_guess,
    similarity_rank,
)
from chronolm.model import EncoderCheckpoint, ModelConfig
from chronolm.objectives import build_labelspace
from chronolm.temporal import Granularity, TimePoint
from chronolm.util import rng_from

from oracles import (
    accuracy_percent,
    average_precision,
    mean_abs_error,
    reciprocal_rank,
)


# -------------------------------------------------------------- ACC and MAE

def test_accuracy_and_mae_small_case():
    g = Granularity.YEAR
    preds = [
        Prediction(TimePoint(1999), TimePoint(1999), g),
        Prediction(TimePoint(2001), TimePoint(1999), g),
        Prediction(TimePoint(1995), TimePoint(1999), g),
        Prediction(TimePoint(1999), TimePoint(1999), g),
    ]
    assert accuracy(preds) == 50.0
    assert mae(preds, g) == (0 + 2 + 4 + 0) / 4


def test_accuracy_truncates_to_prediction_granularity():
    g = Granularity.YEAR
    preds = [Prediction(TimePoint(1999), TimePoint(1999, 5, 2), g)]
    assert accuracy(preds) == 100.0
    assert mae(preds, g) == 0.0


def test_accuracy_perfect_predictions_score_100():
    g = Granularity.MONTH
    preds = [Prediction(TimePoint(1990 + i, 1 + i % 12),
                        TimePoint(1990 + i, 1 + i % 12), g)
             for i in range(12)]
    assert accuracy(preds) == 100.0
    assert mae(preds, g) == 0.0


def test_accuracy_empty_raises():
    with pytest.raises(EmptyInput):
        accuracy([])


def test_accuracy_matches_oracle_random_pairs():
    rng = rng_from(0, "acc-oracle")
    g = Granularity.MONTH
    for _ in range(50):
        n = int(rng.integers(1, 30))
        pairs = []
        preds = []
        for _ in range(n):
            p = (int(rng.integers(1990, 1993)), int(rng.integers(1, 13)))
            q = (int(rng.integers(1990, 1993)), int(rng.integers(1, 13)))
            pairs.append((p, q))
            preds.append(Prediction(TimePoint(*p), TimePoint(*q), g))
        assert accuracy(preds) == pytest.approx(accuracy_percent(pairs))
        diffs = [(a[0] * 12 + a[1]) - (b[0] * 12 + b[1]) for a, b in pairs]
        assert mae(preds, g) == pytest.approx(mean_abs_error(diffs))


# ---------------------------------------------------------- random baseline

def test_random_guess_analytic_values():
    space = build_labelspace(TimePoint(1987), TimePoint(2007), Granularity.YEAR)
    golds = [space.point_at(i % space.size) for i in range(210)]
    acc, err = random_guess(space, golds, trials=1000, seed=0)
    k = space.size
    assert abs(acc - 100.0 / k) < 0.3
    assert abs(err - (k * k - 1) / (3 * k)) < 0.15


def test_random_guess_deterministic():
    space = build_labelspace(TimePoint(1990), TimePoint(1999), Granularity.YEAR)
    golds = [TimePoint(1994)] * 20
    a = random_guess(space, golds, trials=50, seed=3)
    b = random_guess(space, golds, trials=50, seed=3)
    c = random_guess(space, golds, trials=50, seed=4)
    assert a == b
    assert a != c


# ------------------------------------------------------------- rank metrics

def ranked_from_order(order, relevant):
    """order lists year offsets; scores descend so ranking is exactly order."""
    ranking = tuple(
        (TimePoint(1900 + o), float(len(order) - i))
        for i, o in enumerate(order)
    )
    return RankedDates("q", ranking, frozenset(TimePoint(1900 + r)
                                               for r in relevant))


def test_mrr_frozen_value():
    a = ranked_from_order([0, 1, 2, 3, 4], [0])   # rank 1
    b = ranked_from_order([1, 2, 3, 0, 4], [0])   # rank 4
    assert mrr([a, b]) == pytest.approx(0.625, abs=1e-12)


def test_map_frozen_value():
    q = ranked_from_order([0, 1, 2, 3, 4], [0, 2])  # ranks 1 and 3
    assert mean_average_precision([q]) == pytest.approx(5 / 6, abs=1e-12)


def test_mrr_exhaustive_small():
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            for rel in range(n):
                q = ranked_from_order(list(perm), [rel])
                expected = reciprocal_rank(list(perm), rel)
                assert mrr([q]) == pytest.approx(expected, abs=1e-12)


def test_map_exhaustive_small():
    for n in range(1, 6):
        items = list(range(n))
        for perm in itertools.permutations(items):
            for r in range(1, n + 1):
                for rel in itertools.combinations(items, r):
                    q = ranked_from_order(list(perm), list(rel))
                    expected = average_precision(list(perm), set(rel))
                    got = mean_average_precision([q])
                    assert got == pytest.approx(expected, abs=1e-12)


def test_rank_metrics_random_large():
    rng = rng_from(1, "rank-oracle")
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        perm = list(rng.permutation(n))
        rel_count = int(rng.integers(1, n + 1))
        rel = list(rng.choice(n, size=rel_count, replace=False))
        q = ranked_from_order(perm, rel)
        assert mean_average_precision([q]) == pytest.approx(
            average_precision(perm, set(rel)), abs=1e-12)
        single = [int(rel[0])]
        q1 = ranked_from_order(perm, single)
        assert mrr([q1]) == pytest.approx(
            reciprocal_rank(perm, single[0]), abs=1e-12)


def test_mrr_requires_exactly_one_relevant():
    q = ranked_from_order([0, 1, 2], [0, 1])
    with pytest.raises(ValueError):
        mrr([q])


def test_rank_of_missing_relevant_contributes_zero():
    ranking = tuple((TimePoint(1900 + i), float(3 - i)) for i in range(3))
    q = RankedDates("q", ranking, frozenset({TimePoint(1999)}))
    assert q.rank_of(TimePoint(1999)) is None
    assert mrr([q]) == 0.0


# --------------------------------------------------- representation probing

def tiny_checkpoint():
    vocab = Vocab(SPECIAL_TOKENS + tuple(
        str(y) for y in range(1990, 2000)) + ("january", "treaty", "the"))
    cfg = ModelConfig(vocab_size=vocab.size, max_len=16, d_model=16,
                      n_layers=1, n_heads=2, d_ff=32, dropout=0.0, seed=2)
    return EncoderCheckpoint.fresh(cfg, vocab)


def test_probe_representation_shape():
    ckpt = tiny_checkpoint()
    vec = probe_representation(ckpt, "the treaty")
    assert vec.shape == (16,)
    np.testing.assert_array_equal(vec, probe_representation(ckpt, "the treaty"))


def test_similarity_rank_orders_all_candidates():
    ckpt = tiny_checkpoint()
    space = build_labelspace(TimePoint(1990), TimePoint(1999), Granularity.YEAR)
    ranked = similarity_rank(ckpt, "the treaty", space,
                             relevant=[TimePoint(1994)])
    assert len(ranked.ranking) == space.size
    scores = [s for _, s in ranked.ranking]
    assert scores == sorted(scores, reverse=True)
    assert ranked.rank_of(TimePoint(1994)) is not None
    points = {p for p, _ in ranked.ranking}
    assert points == set(space.points())


def test_similarity_rank_ties_break_toward_earlier_point():
    # an untrained encoder maps every bare year through the same [UNK]-free
    # pipeline; identical scores must order by label-space position
    ckpt = tiny_checkpoint()
    space = build_labelspace(TimePoint(3000), TimePoint(3005), Granularity.YEAR)
    # all six render to out-of-vocab single tokens, so all embeddings equal
    ranked = similarity_rank(ckpt, "the treaty", space)
    pts = [p for p, _ in ranked.ranking]
    assert pts == list(space.points())


def test_similarity_rank_puts_zero_vectors_last(monkeypatch):
    import chronolm.evaluation as evaluation

    ckpt = tiny_checkpoint()
    space = build_labelspace(TimePoint(1990), TimePoint(1993), Granularity.YEAR)
    zeroed = TimePoint(1991)
    real = evaluation.probe_representation

    def probe(checkpoint, text):
        vec = real(checkpoint, text)
        return np.zeros_like(vec) if text == "1991" else vec

    monkeypatch.setattr(evaluation, "probe_representation", probe)
    ranked = similarity_rank(ckpt, "the treaty", space)
    assert len(ranked.ranking) == 4
    last_point, last_score = ranked.ranking[-1]
    assert last_point == zeroed
    assert math.isnan(last_score)
    assert ranked.zero_vectors == (zeroed,)
    assert all(not math.isnan(s) for _, s in ranked.ranking[:-1])
