"""Evaluation protocols: accuracy and calendar error, random-guess baseline,
representation probing by cosine similarity, and ranked-retrieval metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Iterable, Optional, Sequence

import numpy as np

from . import util
from .errors import EmptyInput
from .model.checkpoint import EncoderCheckpoint
from .model.config import ModelConfig, TrainConfig
from .model.training import (
    LabeledExample,
    classify,
    encode,
    finetune,
    prepare_labeled,
    pretrain,
    text_input_ids,
)
from .objectives import (LabelSpace, Masking, Objective, example_provider,
                         format_objectives)
from .temporal import Granularity, TimePoint, distance, render, time_index, truncate


@dataclass(frozen=True)
class Prediction:
    """A predicted/gold pair judged at a granularity both can reach."""

    predicted: TimePoint
    gold: TimePoint
    granularity: Granularity


def predictions_from_picks(
    picks: Iterable[int],
    examples: Sequence[LabeledExample],
    space: LabelSpace,
) -> list[Prediction]:
    """Classifier picks (label-space indices) against the examples' gold
    times, judged at the space's granularity."""
    g = space.granularity
    points = util.Memo(space.point_at)
    return [Prediction(points[int(pick)], truncate(e.time, g), g)
            for pick, e in zip(picks, examples)]


def accuracy(predictions: Sequence[Prediction],
             g: Optional[Granularity] = None) -> float:
    """Percentage of predictions matching gold after truncation to g, by
    default to each prediction's own granularity."""
    if not predictions:
        raise EmptyInput("no predictions")
    # Two points match at granularity h exactly when their indices at h do.
    hits = sum(time_index(p.predicted, h) == time_index(p.gold, h)
               for p in predictions for h in [p.granularity if g is None else g])
    return 100.0 * hits / len(predictions)


def mae(predictions: Sequence[Prediction], g: Granularity) -> float:
    """Mean calendar distance between prediction and gold at granularity g."""
    if not predictions:
        raise EmptyInput("no predictions")
    total = sum(distance(p.predicted, p.gold, g) for p in predictions)
    return total / len(predictions)


def random_guess(
    space: LabelSpace,
    golds: Sequence[TimePoint],
    trials: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Mean accuracy and mean error of uniform guessing, averaged over trials."""
    if not golds:
        raise EmptyInput("no gold labels")
    rng = util.rng_from(seed, "random-guess")
    g = space.granularity
    gold_idx = np.array([space.index_of(truncate(t, g)) for t in golds])
    acc_sum = 0.0
    mae_sum = 0.0
    for _ in range(trials):
        picks = rng.integers(0, space.size, size=len(golds))
        acc_sum += 100.0 * float((picks == gold_idx).mean())
        mae_sum += float(np.abs(picks - gold_idx).mean())
    return acc_sum / trials, mae_sum / trials


def probe_representation(
    checkpoint: EncoderCheckpoint,
    text: str,
) -> np.ndarray:
    """Inference-mode first-position state for a delimited text."""
    if checkpoint.vocab is None:
        raise ValueError("checkpoint carries no vocabulary")
    ids = text_input_ids(text, checkpoint.vocab, checkpoint.config.max_len)
    return encode(checkpoint, ids)[0]


@dataclass(frozen=True)
class RankedDates:
    """Candidates of a label space ordered by similarity to one query.

    ranking holds (point, cosine) pairs, best first; zero_vectors records
    candidates whose representation had no direction to compare (they sort
    to the bottom).
    """

    query: str
    ranking: tuple[tuple[TimePoint, float], ...]
    relevant: frozenset[TimePoint] = frozenset()
    zero_vectors: tuple[TimePoint, ...] = ()

    def rank_of(self, point: TimePoint) -> Optional[int]:
        for i, (candidate, _) in enumerate(self.ranking, start=1):
            if candidate == point:
                return i
        return None


def _cosine(a: np.ndarray, b: np.ndarray) -> Optional[float]:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return None
    return float(a @ b) / (na * nb)


def similarity_rank(
    checkpoint: EncoderCheckpoint,
    query: str,
    space: LabelSpace,
    relevant: Iterable[TimePoint] = (),
) -> RankedDates:
    """Rank every point of a label space by cosine to the query's state.

    Candidates are embedded from their rendered surface forms.  Ties break
    toward the earlier point; zero-norm vectors rank last.
    """
    qvec = probe_representation(checkpoint, query)
    scored: list[tuple[float, int, TimePoint, float]] = []
    zeros: list[TimePoint] = []
    for index, point in enumerate(space.points()):
        cvec = probe_representation(checkpoint, render(point))
        cos = _cosine(qvec, cvec)
        if cos is None:
            zeros.append(point)
            scored.append((float("inf"), index, point, float("nan")))
        else:
            scored.append((-cos, index, point, cos))
    scored.sort(key=lambda item: (item[0], item[1]))
    ranking = tuple((point, score) for _, _, point, score in scored)
    return RankedDates(query, ranking, frozenset(relevant), tuple(zeros))


def mrr(ranked: Sequence[RankedDates]) -> float:
    """Mean reciprocal rank of each query's single relevant point."""
    if not ranked:
        raise EmptyInput("no ranked lists")
    total = 0.0
    for r in ranked:
        if len(r.relevant) != 1:
            raise ValueError("reciprocal rank needs exactly one relevant point")
        rank = r.rank_of(next(iter(r.relevant)))
        total += 0.0 if rank is None else 1.0 / rank
    return total / len(ranked)


def mean_average_precision(ranked: Sequence[RankedDates]) -> float:
    """Mean over queries of average precision at each relevant point's rank."""
    if not ranked:
        raise EmptyInput("no ranked lists")
    ap_total = 0.0
    for r in ranked:
        if not r.relevant:
            raise ValueError("average precision needs at least one relevant point")
        hits = 0
        precisions = []
        for i, (point, _) in enumerate(r.ranking, start=1):
            if point in r.relevant:
                hits += 1
                precisions.append(hits / i)
        if not precisions:
            raise ValueError("relevant points missing from the ranking")
        ap_total += sum(precisions) / len(precisions)
    return ap_total / len(ranked)


DEFAULT_ABLATION: tuple[frozenset[Objective], ...] = (
    frozenset({Objective.MLM}),
    frozenset({Objective.TAMLM}),
    frozenset({Objective.DTP}),
    frozenset({Objective.MLM, Objective.DTP}),
    frozenset({Objective.TAMLM, Objective.DTP}),
    frozenset({Objective.MLM, Objective.TIR}),
)


@dataclass(frozen=True)
class EvalSet:
    """A fine-tuning task: train/test items classified over a label space."""

    name: str
    train: tuple[LabeledExample, ...]
    test: tuple[LabeledExample, ...]
    space: LabelSpace


@dataclass(frozen=True)
class AblationRow:
    configuration: str
    dataset: str
    metric: str
    granularity: str
    value: float


def run_ablation(
    tagged: Sequence,
    vocab,
    space: Optional[LabelSpace],
    model_cfg: ModelConfig,
    pretrain_cfg: TrainConfig,
    finetune_cfg: TrainConfig,
    eval_sets: Sequence[EvalSet],
    combinations: Sequence[frozenset[Objective]] = DEFAULT_ABLATION,
    seed: int = 0,
    masking: Masking = Masking(),
) -> list[AblationRow]:
    """Pretrain one model per objective combination and evaluate each.

    Every combination shares the same seeds, corpus, and downstream
    fine-tuning, so rows differ only in the pretraining objectives.
    """
    rows: list[AblationRow] = []
    for combo in combinations:
        provider = example_provider(
            tagged, vocab, combo, space,
            masking=masking,
            seed=seed,
            max_len=model_cfg.max_len,
        )
        cfg = dc_replace(model_cfg, k_dtp=space.size if space is not None else None)
        if Objective.DTP not in combo:
            cfg = dc_replace(cfg, k_dtp=None)
        ckpt, _ = pretrain(
            provider, vocab, cfg,
            dc_replace(pretrain_cfg, objectives=combo),
            seed=seed,
        )
        name = format_objectives(combo)
        for eval_set in eval_sets:
            train_records = prepare_labeled(
                eval_set.train, eval_set.space, vocab, cfg.max_len)
            test_records = prepare_labeled(
                eval_set.test, eval_set.space, vocab, cfg.max_len)
            tuned, _ = finetune(ckpt, train_records, eval_set.space.size,
                                finetune_cfg, seed=seed)
            picks = classify(tuned, [ids for ids, _ in test_records])
            predictions = predictions_from_picks(picks, eval_set.test,
                                                 eval_set.space)
            g = eval_set.space.granularity
            rows.append(AblationRow(name, eval_set.name, "acc", str(g),
                                    accuracy(predictions)))
            rows.append(AblationRow(name, eval_set.name, "mae", str(g),
                                    mae(predictions, g)))
    return rows
