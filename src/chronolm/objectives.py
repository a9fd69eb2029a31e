"""Pretraining objective builders over tokenized, time-tagged documents.

Three time-aware objectives plus the plain masking baseline:

* tamlm: masked language modeling that samples whole temporal expressions
  first (a fraction of the expressions present), then tops the budget up
  with ordinary tokens.  Temporal expressions that were not sampled are
  protected from masking entirely.
* dtp: document timestamp prediction, a K-way classification over a
  declared contiguous label space of calendar points.
* tir: temporal information replacement.  The document timestamp is
  rendered as a prefix; each resolvable expression is independently
  swapped, with some probability, for a same-granularity expression of a
  different value drawn from a corpus-wide pool, and the model must judge
  each expression's boundary context as replaced or kept.
* mlm: the uniform masking baseline, with no knowledge of expressions.

All sampling is driven by a seed mixed with the document id and epoch, so
plans are reproducible and re-drawn per epoch: each document draws from
PCG64(mix(seed, doc id, epoch, kind)), and example_provider derives the
streams of a whole epoch at once (util.rng_streams).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from math import ceil
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from . import util
from .corpus import (
    CLS,
    MASK as MASK_ID,
    SEP,
    SPECIAL_TOKENS,
    Document,
    TokenizedDoc,
    Vocab,
    tokenize,
)
from .errors import EmptyRange, FieldError, OutOfLabelSpace
from .temporal import (
    Granularity,
    TemporalExpression,
    TimePoint,
    point_from_index,
    render,
    time_index,
    truncate,
)

IGNORE_INDEX = -100
TIR_KEPT = 0
TIR_REPLACED = 1


class Objective(enum.Enum):
    MLM = "mlm"
    TAMLM = "tamlm"
    DTP = "dtp"
    TIR = "tir"

    @classmethod
    def parse_set(cls, text: str) -> frozenset["Objective"]:
        """Parse a comma-separated objective list such as "tamlm,dtp"."""
        names = [p.strip().lower() for p in text.split(",") if p.strip()]
        if not names:
            raise ValueError("objective set must be non-empty")
        out = frozenset(cls(n) for n in names)
        if cls.MLM in out and cls.TAMLM in out:
            raise ValueError("mlm and tamlm are mutually exclusive")
        return out


def format_objectives(objectives: Iterable[Objective]) -> str:
    order = [Objective.MLM, Objective.TAMLM, Objective.DTP, Objective.TIR]
    return "+".join(o.value for o in order if o in set(objectives))


@dataclass(frozen=True)
class LabelSpace:
    """A contiguous, inclusive range of calendar points at one granularity."""

    granularity: Granularity
    start: TimePoint
    end: TimePoint

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", truncate(self.start, self.granularity))
        object.__setattr__(self, "end", truncate(self.end, self.granularity))
        if time_index(self.end, self.granularity) < time_index(self.start, self.granularity):
            raise EmptyRange(
                f"label space ends ({self.end.isoformat()}) before it starts "
                f"({self.start.isoformat()})"
            )

    @cached_property
    def _first(self) -> int:
        return time_index(self.start, self.granularity)

    @cached_property
    def size(self) -> int:
        return time_index(self.end, self.granularity) - self._first + 1

    def index_of(self, t: TimePoint) -> int:
        """Index of t, or of the point of this granularity that holds it."""
        offset = time_index(t, self.granularity) - self._first
        if not 0 <= offset < self.size:
            raise OutOfLabelSpace(
                f"{truncate(t, self.granularity).isoformat()} outside "
                f"[{self.start.isoformat()}, {self.end.isoformat()}]"
            )
        return offset

    def point_at(self, index: int) -> TimePoint:
        if not 0 <= index < self.size:
            raise OutOfLabelSpace(f"index {index} outside 0..{self.size - 1}")
        return point_from_index(self._first + index, self.granularity)

    def points(self) -> list[TimePoint]:
        return [self.point_at(i) for i in range(self.size)]


def build_labelspace(start: TimePoint, end: TimePoint, g: Granularity) -> LabelSpace:
    return LabelSpace(g, start, end)


def dtp_label(timestamp: TimePoint, space: LabelSpace) -> int:
    """Class index of a document timestamp inside a label space."""
    return space.index_of(timestamp)


class MaskAction(enum.Enum):
    MASK = "mask"
    RANDOM = "random"
    KEEP = "keep"


@dataclass(frozen=True)
class MaskPlan:
    """Which token positions get masked, and what happens at each.

    Positions index the document's own tokens (before any delimiters are
    added); actions run parallel to masked_positions.
    """

    sampled_expressions: tuple[int, ...]
    masked_positions: tuple[int, ...]
    actions: tuple[MaskAction, ...]

    def __post_init__(self) -> None:
        if len(self.masked_positions) != len(self.actions):
            raise ValueError("positions and actions must align")
        if list(self.masked_positions) != sorted(set(self.masked_positions)):
            raise ValueError("positions must be sorted and unique")


@dataclass(frozen=True)
class Masking:
    """Sampling rates of the masking objectives, checked against the ranges
    plan_tamlm, plan_mlm and build_tir accept."""

    temporal_mask_ratio: float = 0.3
    mask_budget: float = 0.15
    replace_prob: float = 0.5

    def __post_init__(self) -> None:
        # Written so that nan fails each check.
        if not 0.0 <= self.temporal_mask_ratio <= 1.0:
            raise FieldError("temporal_mask_ratio must lie in [0, 1]",
                             "temporal_mask_ratio")
        if not 0.0 < self.mask_budget < 1.0:
            raise FieldError("mask_budget must lie in (0, 1)", "mask_budget")
        if not 0.0 <= self.replace_prob <= 1.0:
            raise FieldError("replace_prob must lie in [0, 1]", "replace_prob")


_ACTIONS = (MaskAction.MASK, MaskAction.RANDOM, MaskAction.KEEP)


def _draw_actions(rng: np.random.Generator, count: int) -> tuple[MaskAction, ...]:
    # 80% mask token, 10% random token, 10% keep the original: a draw
    # below 0.8 masks, one below 0.9 is random, the rest keep.
    return tuple([_ACTIONS[(u >= 0.8) + (u >= 0.9)] for u in rng.random(count).tolist()])


def plan_tamlm(
    tokdoc: TokenizedDoc,
    temporal_mask_ratio: float,
    mask_budget: float,
    rng: int | np.random.Generator,
) -> MaskPlan:
    """Draw a time-aware masking plan.

    A ceil(temporal_mask_ratio * m) subset of the m temporal expressions is
    sampled; every token of a sampled expression is masked.  If that falls
    short of ceil(mask_budget * n) total positions, ordinary tokens, never
    tokens of unsampled expressions, are sampled uniformly to top up.  When
    too few ordinary tokens exist, the plan stops at what is available.
    """
    if not 0.0 <= temporal_mask_ratio <= 1.0:
        raise ValueError("temporal_mask_ratio must lie in [0, 1]")
    if not 0.0 < mask_budget < 1.0:
        raise ValueError("mask_budget must lie in (0, 1)")
    rng = util.as_rng(rng)

    groups = tokdoc.temporal_groups
    n = len(tokdoc.token_ids)
    n_sampled = ceil(temporal_mask_ratio * len(groups))
    if n_sampled:
        sampled = tuple(sorted(rng.choice(len(groups), size=n_sampled, replace=False).tolist()))
    else:
        sampled = ()

    masked: set[int] = set()
    for g_index in sampled:
        masked.update(groups[g_index].positions)

    budget = ceil(mask_budget * n)
    if len(masked) < budget:
        # Ordinary tokens are the gaps between the group ranges, ascending.
        eligible: list[int] = []
        cursor = 0
        for start, end in sorted((g.token_start, g.token_end) for g in groups):
            eligible.extend(range(cursor, min(start, n)))
            cursor = max(cursor, end)
        eligible.extend(range(cursor, n))
        need = min(budget - len(masked), len(eligible))
        if need:
            picks = rng.choice(len(eligible), size=need, replace=False)
            masked.update(map(eligible.__getitem__, picks.tolist()))

    positions = tuple(sorted(masked))
    return MaskPlan(sampled, positions, _draw_actions(rng, len(positions)))


def plan_mlm(
    tokdoc: TokenizedDoc,
    mask_budget: float,
    rng: int | np.random.Generator,
) -> MaskPlan:
    """Uniform masking over all tokens; expressions get no special treatment."""
    if not 0.0 < mask_budget < 1.0:
        raise ValueError("mask_budget must lie in (0, 1)")
    rng = util.as_rng(rng)
    n = len(tokdoc.token_ids)
    budget = min(ceil(mask_budget * n), n)
    if budget:
        picks = rng.choice(n, size=budget, replace=False)
        positions = tuple(sorted(picks.tolist()))
    else:
        positions = ()
    return MaskPlan((), positions, _draw_actions(rng, len(positions)))


@dataclass(frozen=True)
class PretrainExample:
    """One masked-input training example, delimiters included.

    input_ids is [CLS] tokens [SEP]; mlm_labels holds the original id at
    masked positions and IGNORE_INDEX elsewhere; dtp_label is present when
    timestamp prediction is active.
    """

    doc_id: str
    input_ids: tuple[int, ...]
    mlm_labels: tuple[int, ...]
    dtp_label: Optional[int] = None

    def __post_init__(self) -> None:
        if len(self.input_ids) != len(self.mlm_labels):
            raise ValueError("labels must align with input ids")
        if self.input_ids[0] != CLS or self.input_ids[-1] != SEP:
            raise ValueError("sequence must be delimited")
        if self.mlm_labels[0] != IGNORE_INDEX or self.mlm_labels[-1] != IGNORE_INDEX:
            raise ValueError("delimiters must never carry labels")


def apply_plan(
    tokdoc: TokenizedDoc,
    plan: MaskPlan,
    vocab: Vocab,
    rng: int | np.random.Generator,
    dtp_label: Optional[int] = None,
) -> PretrainExample:
    """Realize a masking plan into a delimited example.

    Random replacements draw uniformly from the non-special vocabulary, in
    masked-position order.
    """
    rng = util.as_rng(rng)
    n = len(tokdoc.token_ids)
    ids = [CLS, *tokdoc.token_ids, SEP]
    labels = [IGNORE_INDEX] * len(ids)
    random_at = []
    for position, action in zip(plan.masked_positions, plan.actions):
        if not 0 <= position < n:
            raise ValueError(f"plan position {position} outside document")
        at = position + 1  # shift past [CLS]
        labels[at] = ids[at]
        if action is MaskAction.MASK:
            ids[at] = MASK_ID
        elif action is MaskAction.RANDOM:
            random_at.append(at)
    if random_at:
        # One draw of k ids makes the same draws as k scalar draws.
        drawn = rng.integers(len(SPECIAL_TOKENS), vocab.size, size=len(random_at))
        for at, token in zip(random_at, drawn.tolist()):
            ids[at] = token
    return PretrainExample(tokdoc.doc_id, tuple(ids), tuple(labels), dtp_label)


def build_pretrain_example(
    doc: Document,
    tokdoc: TokenizedDoc,
    objectives: frozenset[Objective] | set[Objective],
    space: Optional[LabelSpace],
    temporal_mask_ratio: float,
    mask_budget: float,
    vocab: Vocab,
    seed: int,
    epoch: int = 0,
    rng: Optional[np.random.Generator] = None,
    label: Optional[int] = None,
) -> PretrainExample:
    """Build the masked example for one document under an objective set.

    TAMLM and MLM are mutually exclusive masking styles; with neither, the
    input passes through unmasked (timestamp prediction alone).  rng, when
    given, stands for the document's stream
    rng_from(seed, doc.id, epoch, "mask"), and label, when given, for its
    dtp label in space.
    """
    objectives = frozenset(objectives)
    if {Objective.TAMLM, Objective.MLM} <= objectives:
        raise ValueError("tamlm and mlm masking are mutually exclusive")
    if rng is None:
        rng = util.rng_from(seed, doc.id, epoch, "mask")
    if Objective.TAMLM in objectives:
        plan = plan_tamlm(tokdoc, temporal_mask_ratio, mask_budget, rng)
    elif Objective.MLM in objectives:
        plan = plan_mlm(tokdoc, mask_budget, rng)
    else:
        plan = MaskPlan((), (), ())
    if Objective.DTP not in objectives:
        label = None
    elif label is None:
        if space is None:
            raise ValueError("timestamp prediction requires a label space")
        label = dtp_label(doc.timestamp, space)
    return apply_plan(tokdoc, plan, vocab, rng, label)


def _encodings(vocab: Vocab) -> Mapping[str, tuple[int, ...]]:
    """text -> vocab.encode(text), each text encoded once."""
    return util.Memo(lambda text: tuple(vocab.encode(text)))


@dataclass(frozen=True)
class PoolEntry:
    surface: str
    value: TimePoint


@dataclass(frozen=True)
class ExpressionPool:
    """Corpus-wide resolvable expressions, grouped by granularity."""

    entries: dict[Granularity, tuple[PoolEntry, ...]]

    def for_granularity(self, g: Granularity) -> tuple[PoolEntry, ...]:
        return self.entries.get(g, ())

    @cached_property
    def _positions(self) -> dict[Granularity, dict[TimePoint, list[int]]]:
        """Granularity -> value -> ascending positions of its entries."""
        index: dict[Granularity, dict[TimePoint, list[int]]] = {}
        for g, entries in self.entries.items():
            by_value = index[g] = {}
            for i, entry in enumerate(entries):
                by_value.setdefault(entry.value, []).append(i)
        return index

    def draw_other(
        self, value: TimePoint, rng: np.random.Generator,
    ) -> Optional[PoolEntry]:
        """A uniform pick among same-granularity entries whose value differs.

        Makes the same single ``rng.integers(n)`` draw as indexing the list
        of those n candidates, in pool order; with no candidate it draws
        nothing and returns None.
        """
        g = value.granularity
        entries = self.for_granularity(g)
        same = self._positions.get(g, {}).get(value, ())
        n = len(entries) - len(same)
        if n == 0:
            return None
        k = int(rng.integers(n))
        for at in same:
            if at > k:
                break
            k += 1
        return entries[k]


def collect_expression_pool(
    tagged: Iterable[tuple[Document, Sequence[TemporalExpression]]],
) -> ExpressionPool:
    """Deduplicate resolvable expressions across a tagged corpus.

    Entries are unique on (surface, value) and ordered by value then
    surface, so pools are stable regardless of document order.
    """
    buckets: dict[Granularity, set[tuple[str, TimePoint]]] = {}
    for _, expressions in tagged:
        for expr in expressions:
            if expr.normalized is None:
                continue
            g = expr.normalized.granularity
            buckets.setdefault(g, set()).add((expr.surface, expr.normalized))
    entries = {
        g: tuple(
            PoolEntry(surface, value)
            for surface, value in sorted(
                pairs, key=lambda p: (time_index(p[1], p[1].granularity), p[0])
            )
        )
        for g, pairs in buckets.items()
    }
    return ExpressionPool(entries)


@dataclass(frozen=True)
class TirSlot:
    """Boundary token indices around one (possibly replaced) expression."""

    boundary_left: int
    boundary_right: int
    label: int  # TIR_KEPT or TIR_REPLACED

    def __post_init__(self) -> None:
        if not 0 < self.boundary_left < self.boundary_right:
            raise ValueError("bad slot boundaries")
        if self.label not in (TIR_KEPT, TIR_REPLACED):
            raise ValueError("bad slot label")


@dataclass(frozen=True)
class TirExample:
    """One replacement-detection example.

    input_ids is [CLS] rendered-timestamp [SEP] document tokens [SEP]; the
    timestamp prefix is never replaced and never sits inside a slot.
    forced_kept lists slot indices whose candidate pool was empty.
    """

    doc_id: str
    input_ids: tuple[int, ...]
    slots: tuple[TirSlot, ...]
    forced_kept: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.input_ids or self.input_ids[0] != CLS or self.input_ids[-1] != SEP:
            raise ValueError("sequence must be delimited")


def build_tir(
    doc: Document,
    tokdoc: TokenizedDoc,
    pool: ExpressionPool,
    replace_prob: float,
    vocab: Vocab,
    seed: int,
    epoch: int = 0,
    max_len: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    encoded: Optional[Mapping[str, Sequence[int]]] = None,
) -> TirExample:
    """Build a replacement-detection example for one document.

    Each resolvable expression is independently replaced with probability
    replace_prob by a pool entry of the same granularity whose value
    differs.  An empty candidate pool forces the expression to stay, still
    recorded as a kept slot.  Expressions that sit flush against the
    previous one (no boundary token between them) produce no slot.  rng,
    when given, stands for the document's stream
    rng_from(seed, doc.id, epoch, "tir"), and encoded[text] for
    vocab.encode(text).
    """
    if not 0.0 <= replace_prob <= 1.0:
        raise ValueError("replace_prob must lie in [0, 1]")
    if rng is None:
        rng = util.rng_from(seed, doc.id, epoch, "tir")
    if encoded is None:
        encoded = _encodings(vocab)

    token_ids = tokdoc.token_ids
    seq: list[int] = [CLS, *encoded[render(doc.timestamp)], SEP]
    slots: list[TirSlot] = []
    forced: list[int] = []
    cursor = 0
    last_group_end = -1
    for group in tokdoc.temporal_groups:
        start, end = group.token_start, group.token_end
        seq.extend(token_ids[cursor:start])
        cursor = end
        adjacent = start == last_group_end
        last_group_end = end
        if group.normalized is None or adjacent:
            seq.extend(token_ids[start:end])
            continue
        label = TIR_KEPT
        tokens = token_ids[start:end]
        if rng.random() < replace_prob:
            pick = pool.draw_other(group.normalized, rng)
            if pick is not None:
                tokens = encoded[pick.surface]
                label = TIR_REPLACED
            else:
                forced.append(len(slots))
        boundary_left = len(seq) - 1
        seq.extend(tokens)
        slots.append(TirSlot(boundary_left, len(seq), label))
    seq.extend(token_ids[cursor:])
    seq.append(SEP)

    if max_len is not None and len(seq) > max_len:
        seq = seq[: max_len - 1] + [SEP]
        kept_slots, kept_forced = [], []
        for i, slot in enumerate(slots):
            if slot.boundary_right <= max_len - 1:
                if i in forced:
                    kept_forced.append(len(kept_slots))
                kept_slots.append(slot)
        slots, forced = kept_slots, kept_forced
    return TirExample(doc.id, tuple(seq), tuple(slots), tuple(forced))


def pretrain_example_to_json(example: PretrainExample) -> dict:
    obj = {
        "doc_id": example.doc_id,
        "input_ids": list(example.input_ids),
        "mlm_labels": list(example.mlm_labels),
    }
    if example.dtp_label is not None:
        obj["dtp_label"] = example.dtp_label
    return obj


def tir_example_to_json(example: TirExample) -> dict:
    return {
        "doc_id": example.doc_id,
        "input_ids": list(example.input_ids),
        "slots": [[s.boundary_left, s.boundary_right, s.label] for s in example.slots],
    }


def _ints(values) -> tuple[int, ...]:
    out = tuple(values)
    if not all(type(v) is int for v in out):
        raise ValueError(f"expected integers, got {values!r}")
    return out


def example_from_json(obj: dict) -> PretrainExample | TirExample:
    """Rebuild an example from its JSON form.

    Raises ValueError for a missing key, a doc_id that is not a non-empty
    string, a non-integer id or label, labels that do not align with the
    ids, or a slot outside the sequence.
    """
    try:
        doc_id, ids = obj["doc_id"], _ints(obj["input_ids"])
        if not isinstance(doc_id, str) or not doc_id:
            raise ValueError(f"doc_id must be a non-empty string, not {doc_id!r}")
        if "slots" in obj:
            slots = tuple(TirSlot(*_ints(s)) for s in obj["slots"])
            if any(s.boundary_right >= len(ids) for s in slots):
                raise ValueError("slot boundary past the end of input_ids")
            return TirExample(doc_id, ids, slots)
        dtp = obj.get("dtp_label")
        if dtp is not None:
            _ints([dtp])
        return PretrainExample(doc_id, ids, _ints(obj["mlm_labels"]), dtp_label=dtp)
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from None
    except (IndexError, TypeError) as exc:
        raise ValueError(str(exc)) from None


def example_provider(
    tagged: Sequence[tuple[Document, Sequence[TemporalExpression]]],
    vocab: Vocab,
    objectives: frozenset[Objective] | set[Objective],
    space: Optional[LabelSpace],
    masking: Masking = Masking(),
    seed: int = 0,
    max_len: Optional[int] = None,
) -> Callable[[int], list[PretrainExample | TirExample]]:
    """Per-epoch example builder over a tagged corpus.

    Masking and replacement draws are re-mixed with the epoch number, so
    every epoch sees fresh plans while staying reproducible; the builder
    makes the same examples as build_pretrain_example and build_tir called
    per document with the seed and epoch.  Every document is tokenized,
    and with dtp its timestamp checked against the label space, before the
    builder is returned.
    """
    objectives = frozenset(objectives)
    docs = [doc for doc, _ in tagged]
    labels: list[Optional[int]] = [None] * len(docs)
    if Objective.DTP in objectives and space is not None:
        for i, doc in enumerate(docs):
            try:
                labels[i] = dtp_label(doc.timestamp, space)
            except OutOfLabelSpace as exc:
                raise OutOfLabelSpace(f"doc {doc.id}: {exc}") from None
    tokdocs = [tokenize(doc, vocab, exprs, max_len=max_len) for doc, exprs in tagged]
    pool = (collect_expression_pool(tagged)
            if Objective.TIR in objectives else None)
    masked_objectives = objectives & {Objective.MLM, Objective.TAMLM, Objective.DTP}
    kinds = (["mask"] if masked_objectives else []) + (
        ["tir"] if Objective.TIR in objectives else [])
    encoded = _encodings(vocab)

    def build(epoch: int) -> list[PretrainExample | TirExample]:
        out: list[PretrainExample | TirExample] = []
        rngs = util.rng_streams([(seed, doc.id, epoch, kind)
                                 for doc in docs for kind in kinds])
        for doc, tokdoc, label in zip(docs, tokdocs, labels):
            if masked_objectives:
                out.append(build_pretrain_example(
                    doc, tokdoc, masked_objectives, space,
                    masking.temporal_mask_ratio, masking.mask_budget,
                    vocab, seed, epoch,
                    rng=next(rngs), label=label,
                ))
            if Objective.TIR in objectives:
                out.append(build_tir(
                    doc, tokdoc, pool, masking.replace_prob, vocab, seed, epoch,
                    max_len=max_len, rng=next(rngs), encoded=encoded,
                ))
        return out

    return build
