"""Pretraining and fine-tuning, plus checkpoint-level inference helpers.

pretrain and finetune run one optimizer loop, _train; they differ only in
their example groups and batch builders (pretrain_batch, tir_batch,
cls_batch).  Loss normalization happens over whole gradient-accumulation
groups: each micro-batch backpropagates component sums divided by the
group's total item counts, so an accumulated step equals the step a single
concatenated batch would have taken.

The loop trains in the optimizer's arena (optim.Arena): each step zeroes
its flat gradient buffer once, and every micro-batch adds into it.  A
group's batches are built when its step runs.  Every inference forward
runs in _forward_chunks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .. import util
from ..corpus import CLS, PAD, SEP, Vocab
from ..errors import LabelOutOfRange, NonFiniteGradient
from ..objectives import (
    IGNORE_INDEX,
    LabelSpace,
    Objective,
    PretrainExample,
    TirExample,
)
from ..temporal import TimePoint, render
from .checkpoint import EncoderCheckpoint
from .config import ModelConfig, TrainConfig, init_params
from .network import Batch, batch_losses, encoder_forward, head_items
from .optim import AdamState, adamw_step

LogRow = tuple[int, str, float]
Dataset = Union[
    Sequence[Union[PretrainExample, TirExample]],
    Callable[[int], Sequence[Union[PretrainExample, TirExample]]],
]


def _pad_rows(rows: Sequence[Sequence[int]], fill: int) -> np.ndarray:
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), fill, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def pretrain_batch(examples: Sequence[PretrainExample]) -> Batch:
    ids = _pad_rows([e.input_ids for e in examples], PAD)
    labels = _pad_rows([e.mlm_labels for e in examples], IGNORE_INDEX)
    dtp = np.array(
        [e.dtp_label if e.dtp_label is not None else -1 for e in examples],
        dtype=np.int64,
    )
    return Batch(ids=ids, mlm_labels=labels,
                 dtp_labels=dtp if (dtp >= 0).any() else None)


def tir_batch(examples: Sequence[TirExample]) -> Batch:
    ids = _pad_rows([e.input_ids for e in examples], PAD)
    rows = [
        (i, s.boundary_left, s.boundary_right, s.label)
        for i, e in enumerate(examples)
        for s in e.slots
    ]
    slots = (np.array(rows, dtype=np.int64) if rows
             else np.zeros((0, 4), dtype=np.int64))
    return Batch(ids=ids, slots=slots)


def cls_batch(records: Sequence[tuple[Sequence[int], int]]) -> Batch:
    ids = _pad_rows([r[0] for r in records], PAD)
    labels = np.array([r[1] for r in records], dtype=np.int64)
    return Batch(ids=ids, cls_labels=labels)


def _chunks(seq: list, size: int) -> list[list]:
    return [seq[i: i + size] for i in range(0, len(seq), size)]


def _component_name(component: str, objectives: frozenset[Objective]) -> str:
    if component == "mlm" and Objective.TAMLM in objectives:
        return Objective.TAMLM.value
    return component


def _run_step(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    micro_batches: list[Batch],
    train_cfg: TrainConfig,
    state: AdamState,
    rng: np.random.Generator,
) -> dict[str, float]:
    """One optimizer step over an accumulation group of micro-batches."""
    items = [head_items(b) for b in micro_batches]
    denoms: dict[str, float] = {}
    for batch_items in items:
        for name, _, labels in batch_items:
            denoms[name] = denoms.get(name, 0.0) + len(labels)

    totals: dict[str, float] = {}
    state.arena.grads[...] = 0
    first: Optional[dict[str, np.ndarray]] = None
    for b, batch_items in zip(micro_batches, items):
        parts, grads = batch_losses(
            params, cfg, b, denoms=dict(denoms), train=True, rng=rng,
            want_grads=True, out=state.arena.grad_views, items=batch_items,
        )
        for k, (ce_sum, _) in parts.items():
            totals[k] = totals.get(k, 0.0) + ce_sum
        first = first or grads
    # The first micro-batch's dict sets the order a NonFiniteGradient searches.
    adamw_step(params, first, state, train_cfg)
    return {k: totals[k] / denoms[k] for k in totals}


def _train(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    train_cfg: TrainConfig,
    seed: int,
    epoch_groups: Callable[[int], Iterable[tuple[Sequence, Callable[[Sequence], Batch]]]],
    name_docs: bool = False,
) -> list[LogRow]:
    """Train params in place.  epoch_groups(epoch) gives the epoch's
    (examples, batch builder) pairs; step i trains on the i-th accumulation
    group of each.  name_docs puts the step's doc ids in a NonFiniteGradient."""
    state = AdamState.for_params(params)  # params now name views of its arena
    log: list[LogRow] = []
    step = 0
    for epoch in range(train_cfg.epochs):
        order_rng = util.rng_from(seed, "order", epoch)
        # Accumulation groups of (batch builder, examples), built when their step runs.
        streams: list[list[list[tuple[Callable[[Sequence], Batch], Sequence]]]] = []
        for examples, builder in epoch_groups(epoch):
            if not examples:
                continue
            idx = order_rng.permutation(len(examples))
            shuffled = [examples[i] for i in idx]
            micro = [(builder, c) for c in _chunks(shuffled, train_cfg.batch_size)]
            streams.append(_chunks(micro, train_cfg.grad_accumulation))

        drop_rng = util.rng_from(seed, "dropout", epoch)
        for i in range(max((len(s) for s in streams), default=0)):
            group = [m for s in streams if i < len(s) for m in s[i]]
            try:
                losses = _run_step(params, cfg, [build(c) for build, c in group],
                                   train_cfg, state, drop_rng)
            except NonFiniteGradient as exc:
                where = f"epoch {epoch}"
                if name_docs:
                    where += ", docs " + ", ".join(
                        dict.fromkeys(e.doc_id for _, c in group for e in c))
                raise NonFiniteGradient(f"step {step + 1} ({where}): {exc}") from None
            step += 1
            for component in sorted(losses):
                log.append((step, _component_name(component, train_cfg.objectives),
                            losses[component]))
    return log


def pretrain(
    dataset: Dataset,
    vocab: Vocab,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    seed: int = 0,
    initial: Optional[EncoderCheckpoint] = None,
) -> tuple[EncoderCheckpoint, list[LogRow]]:
    """Train the encoder on pre-built or per-epoch-built examples.

    dataset is either a fixed example list or a callable mapping an epoch
    number to that epoch's examples (fresh masking per epoch).  Zero epochs
    returns the initialization untouched.
    """
    if not train_cfg.objectives:
        raise ValueError("pretraining needs a non-empty objective set")
    if initial is not None:
        params = dict(initial.params)
        model_cfg = initial.config
    else:
        params = init_params(model_cfg)
    provider = dataset if callable(dataset) else (lambda _epoch: dataset)

    def epoch_groups(epoch: int):
        examples = list(provider(epoch))
        masked = [e for e in examples if isinstance(e, PretrainExample)]
        swapped = [e for e in examples if isinstance(e, TirExample)]
        return (masked, pretrain_batch), (swapped, tir_batch)

    log = _train(params, model_cfg, train_cfg, seed, epoch_groups, name_docs=True)
    ckpt = EncoderCheckpoint(model_cfg, params, vocab.content_hash(), vocab)
    return ckpt, log


@dataclass(frozen=True)
class LabeledExample:
    """A classification item: a text, its gold time, optional paired document."""

    text: str
    time: TimePoint
    doc_timestamp: Optional[TimePoint] = None
    doc_text: Optional[str] = None

    def __post_init__(self):
        if self.doc_text is not None and self.doc_timestamp is None:
            raise ValueError("doc_text needs a doc_timestamp")


def text_input_ids(
    text: str,
    vocab: Vocab,
    max_len: Optional[int] = None,
) -> tuple[int, ...]:
    """[CLS] text [SEP], truncated to max_len."""
    ids = vocab.encode(text)
    if max_len is not None:
        ids = ids[: max_len - 2]
    return (CLS, *ids, SEP)


def labeled_input_ids(
    example: LabeledExample,
    vocab: Vocab,
    max_len: Optional[int] = None,
) -> tuple[int, ...]:
    """Assemble [CLS] text [SEP] (rendered timestamp + document) [SEP].

    Without a paired document this is just the delimited text.
    """
    if example.doc_text is None:
        return text_input_ids(example.text, vocab, max_len)
    stamp = vocab.encode(render(example.doc_timestamp))
    doc = vocab.encode(example.doc_text)
    seq = [CLS, *vocab.encode(example.text), SEP, *stamp, *doc, SEP]
    if max_len is not None and len(seq) > max_len:
        seq = seq[: max_len - 1] + [SEP]
    return tuple(seq)


def prepare_labeled(
    examples: Iterable[LabeledExample],
    space: LabelSpace,
    vocab: Vocab,
    max_len: Optional[int] = None,
) -> list[tuple[tuple[int, ...], int]]:
    index = util.Memo(space.index_of)  # each distinct time is looked up once
    return [(labeled_input_ids(e, vocab, max_len), index[e.time])
            for e in examples]


def finetune(
    checkpoint: EncoderCheckpoint,
    records: Sequence[tuple[Sequence[int], int]],
    n_classes: int,
    train_cfg: TrainConfig,
    seed: int = 0,
) -> tuple[EncoderCheckpoint, list[LogRow]]:
    """Train a classifier head (and the whole encoder under it).

    records are (input id sequence, class label) pairs; labels must fall in
    [0, n_classes).  Returns a checkpoint whose config carries k_cls.
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    for _, label in records:
        if not 0 <= label < n_classes:
            raise LabelOutOfRange(f"label {label} outside 0..{n_classes - 1}")
    cfg = dc_replace(checkpoint.config, k_cls=n_classes)
    params = dict(checkpoint.params)
    dtype = params["emb.tok"].dtype
    head_rng = util.rng_from(seed, "cls-head")
    params["head.cls.w"] = head_rng.normal(
        0.0, 0.02, size=(cfg.d_model, n_classes)
    ).astype(dtype)
    params["head.cls.b"] = np.zeros(n_classes, dtype=dtype)
    log = _train(params, cfg, train_cfg, seed, lambda _epoch: ((records, cls_batch),))
    ckpt = EncoderCheckpoint(cfg, params, checkpoint.vocab_sha256, checkpoint.vocab)
    return ckpt, log


def encode(checkpoint: EncoderCheckpoint, input_ids: Sequence[int]) -> np.ndarray:
    """Inference-mode hidden states for one sequence, shape (length, d_model)."""
    return encode_batch(checkpoint, [input_ids])[0]


def encode_batch(
    checkpoint: EncoderCheckpoint,
    sequences: Sequence[Sequence[int]],
    batch_size: int = 64,
) -> list[np.ndarray]:
    """Inference-mode hidden states for many sequences (ragged lengths ok)."""
    return [row[: len(seq)]
            for chunk, hidden in _forward_chunks(checkpoint, sequences, batch_size)
            for row, seq in zip(hidden, chunk)]


def _forward_chunks(
    checkpoint: EncoderCheckpoint,
    sequences: Sequence[Sequence[int]],
    batch_size: int,
    first_only: bool = False,
) -> Iterator[tuple[list[Sequence[int]], np.ndarray]]:
    """Inference-mode forwards over padded chunks: (chunk, hidden) pairs.

    hidden is (chunk, length, d_model), or with first_only the
    (chunk, d_model) states at position 0 alone.
    """
    for chunk in _chunks(list(sequences), batch_size):
        ids = _pad_rows(chunk, PAD)
        rows = np.arange(0, ids.size, ids.shape[1]) if first_only else None
        hidden, _ = encoder_forward(checkpoint.params, checkpoint.config, ids,
                                    rows=rows, keep_cache=False)
        yield chunk, hidden


def _head_argmax(
    checkpoint: EncoderCheckpoint,
    sequences: Sequence[Sequence[int]],
    head: str,
    batch_size: int,
) -> np.ndarray:
    """Argmax classes of a first-position head over many sequences."""
    w = checkpoint.params[f"head.{head}.w"]
    b = checkpoint.params[f"head.{head}.b"]
    out = [np.argmax(first @ w + b, axis=-1)
           for _, first in _forward_chunks(checkpoint, sequences, batch_size,
                                           first_only=True)]
    return np.concatenate(out) if out else np.zeros(0, dtype=np.int64)


def classify(
    checkpoint: EncoderCheckpoint,
    sequences: Sequence[Sequence[int]],
    batch_size: int = 64,
) -> np.ndarray:
    """Argmax classes from the fine-tuned head for a list of id sequences."""
    if checkpoint.config.k_cls is None:
        raise ValueError("model has no fine-tuned classifier head")
    return _head_argmax(checkpoint, sequences, "cls", batch_size)


def predict_dtp(
    checkpoint: EncoderCheckpoint,
    sequences: Sequence[Sequence[int]],
    batch_size: int = 64,
) -> np.ndarray:
    """Argmax classes from the timestamp head."""
    if checkpoint.config.k_dtp is None:
        raise ValueError("model has no timestamp head")
    return _head_argmax(checkpoint, sequences, "dtp", batch_size)
