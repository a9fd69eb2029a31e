"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: each hook replaces a
chronolm function under the module attribute its caller looks it up by
(``chronolm.cli.annotate``, ``chronolm.model.training.adamw_step``, ...)
and restores it afterwards.  Nothing inside ``src/`` is instrumented.

A span is ``[name, start, end, parent, call]``: ``parent`` indexes the
enclosing span (-1 at the root) and ``call`` numbers the CLI call that
caused it.  Spans stay in memory until the run ends.  A span's self time
is its duration minus the part of its interval that its child spans
cover.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

NAME, START, END, PARENT, CALL = range(5)


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Per span: its duration minus what its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - covered(children.get(i, ()), span[START], span[END])
        for i, span in enumerate(spans)
    ]


class Tracer:
    """In-memory span stack plus the counters observed at the same hooks."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.step_s: list[float] = []
        self._stack: list[int] = []
        self._call = -1
        self._last_step_end: Optional[float] = None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self._call])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        self.spans[index][END] = self.clock()

    def begin_call(self, command: str) -> int:
        """Root span of one CLI call; every span under it shares its id."""
        self._call += 1
        self._last_step_end = None
        return self.begin(f"cli.{command}")

    def step_returned(self, at: float) -> None:
        """Optimizer step time is the gap between consecutive step returns."""
        if self._last_step_end is not None:
            self.step_s.append(at - self._last_step_end)
        self._last_step_end = at

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "call"],
                       "spans": self.spans, "counts": dict(self.counts),
                       "step_s": self.step_s}, fh)


# ---------------------------------------------------------------------------
# Hooks: where each layer is entered, and what is counted there.


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _obs_annotate(t: Tracer, span, args, kwargs, result) -> None:
    t.counts["temporal.expressions"] += len(result)
    t.counts["temporal.resolved"] += sum(e.normalized is not None for e in result)


def _obs_tokenize(t: Tracer, span, args, kwargs, result) -> None:
    from chronolm.corpus import UNK

    t.counts["corpus.tokens"] += len(result.token_ids)
    t.counts["corpus.unk"] += result.token_ids.count(UNK)
    t.counts["corpus.groups_in"] += len(_arg(args, kwargs, 2, "expressions"))
    t.counts["corpus.groups_kept"] += len(result.temporal_groups)


def _obs_pool(t: Tracer, span, args, kwargs, result) -> None:
    t.counts["objectives.pool_entries"] += sum(len(v) for v in result.entries.values())


def _obs_tir(t: Tracer, span, args, kwargs, result) -> None:
    t.counts["objectives.tir.slots"] += len(result.slots)
    t.counts["objectives.tir.replaced"] += sum(s.label == 1 for s in result.slots)
    t.counts["objectives.tir.forced_kept"] += len(result.forced_kept)


def _obs_batch_losses(t: Tracer, span, args, kwargs, result) -> None:
    ids = _arg(args, kwargs, 2, "batch").ids
    t.counts["training.pad"] += int((ids == 0).sum())
    t.counts["training.positions"] += int(ids.size)


def _obs_forward(t: Tracer, span, args, kwargs, result) -> None:
    t.counts["network.positions"] += int(_arg(args, kwargs, 2, "ids").size)


def _obs_adamw(t: Tracer, span, args, kwargs, result) -> None:
    t.counts["optim.elements"] += sum(g.size for g in _arg(args, kwargs, 1, "grads").values())
    t.step_returned(t.spans[span][END])


def _obs_save(t: Tracer, span, args, kwargs, result) -> None:
    t.counts["checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _obs_write_bytes(t: Tracer, span, args, kwargs, result) -> None:
    t.counts["util.bytes_written"] += len(_arg(args, kwargs, 1, "data"))


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str
    span: Optional[str]  # None: count only, record no span
    observe: Optional[Callable] = None
    generator: bool = False


HOOKS: tuple[Hook, ...] = (
    Hook("chronolm.cli", "annotate", "temporal.annotate", _obs_annotate),
    Hook("chronolm.cli", "load_corpus", "corpus.load", generator=True),
    Hook("chronolm.cli", "load_tagged", "corpus.load", generator=True),
    Hook("chronolm.cli", "build_vocab", "corpus.build_vocab"),
    Hook("chronolm.objectives", "tokenize", "corpus.tokenize", _obs_tokenize),
    Hook("chronolm.objectives", "collect_expression_pool",
         "objectives.collect_expression_pool", _obs_pool),
    Hook("chronolm.objectives", "build_pretrain_example",
         "objectives.build_pretrain_example"),
    Hook("chronolm.objectives", "build_tir", "objectives.build_tir", _obs_tir),
    Hook("chronolm.cli", "pretrain", "training.pretrain"),
    Hook("chronolm.cli", "finetune", "training.finetune"),
    Hook("chronolm.cli", "prepare_labeled", "training.prepare_labeled"),
    Hook("chronolm.cli", "classify", "training.classify"),
    Hook("chronolm.model.training", "pretrain_batch", "training.batch"),
    Hook("chronolm.model.training", "tir_batch", "training.batch"),
    Hook("chronolm.evaluation", "encode", "training.encode"),
    Hook("chronolm.model.training", "batch_losses", "network.batch_losses",
         _obs_batch_losses),
    Hook("chronolm.model.training", "encoder_forward", "network.encoder_forward",
         _obs_forward),
    Hook("chronolm.model.network", "encoder_forward", "network.encoder_forward",
         _obs_forward),
    Hook("chronolm.model.network", "encoder_backward", "network.encoder_backward"),
    Hook("chronolm.model.network", "gelu", "network.gelu"),
    Hook("chronolm.model.network", "gelu_grad", "network.gelu_grad"),
    Hook("chronolm.model.network", "layer_norm_fwd", "network.layer_norm"),
    Hook("chronolm.model.network", "layer_norm_bwd", "network.layer_norm"),
    Hook("chronolm.model.network", "softmax", "network.softmax"),
    Hook("chronolm.model.training", "adamw_step", "optim.adamw_step", _obs_adamw),
    Hook("chronolm.cli", "load_checkpoint", "checkpoint.load"),
    Hook("chronolm.cli", "save_checkpoint", "checkpoint.save", _obs_save),
    Hook("chronolm.cli", "similarity_rank", "evaluation.similarity_rank"),
    Hook("chronolm.util", "write_jsonl", "util.write_jsonl"),
    Hook("chronolm.util", "read_jsonl", "util.read_jsonl", generator=True),
    Hook("chronolm.util", "atomic_write_bytes", None, _obs_write_bytes),
)


def _wrap(tracer: Tracer, fn: Callable, hook: Hook) -> Callable:
    name, observe = hook.span, hook.observe

    if hook.generator:
        def traced_gen(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                index = tracer.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                yield item
        return traced_gen

    if name is None:
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(tracer, None, args, kwargs, result)
            return result
        return counted

    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if observe is not None:
            observe(tracer, index, args, kwargs, result)
        return result
    return traced


class Instrumented:
    """Context manager that installs the hooks and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, Callable]] = []

    def __enter__(self) -> Tracer:
        for hook in HOOKS:
            module = importlib.import_module(hook.module)
            original = getattr(module, hook.attr)
            self._saved.append((module, hook.attr, original))
            setattr(module, hook.attr, _wrap(self.tracer, original, hook))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics from a finished trace.


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cycles: int, wall_s: float, cpu_s: float,
                  overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics; counts and times are per traced cycle."""
    selfs = self_times(tracer.spans)
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for span, own in zip(tracer.spans, selfs):
        self_s[span[NAME]] += own
        calls[span[NAME]] += 1
    cli_self = sum(v for k, v in self_s.items() if k.startswith("cli."))

    # Encoder forwards caused by each similarity_rank call.
    forwards: Counter = Counter()
    for span in tracer.spans:
        if span[NAME] != "network.encoder_forward":
            continue
        parent = span[PARENT]
        while parent >= 0 and tracer.spans[parent][NAME] != "evaluation.similarity_rank":
            parent = tracer.spans[parent][PARENT]
        if parent >= 0:
            forwards[parent] += 1
    queries = calls["evaluation.similarity_rank"]

    c = tracer.counts
    n = float(cycles)
    steps = tracer.step_s or [0.0]
    m: dict[str, float] = {}

    def per_cycle(name: str, value: float) -> None:
        m[name] = value / n

    per_cycle("temporal.annotate.calls", calls["temporal.annotate"])
    per_cycle("temporal.annotate.self_s", self_s["temporal.annotate"])
    per_cycle("temporal.expressions", c["temporal.expressions"])
    m["temporal.resolved_ratio"] = _ratio(c["temporal.resolved"], c["temporal.expressions"])

    per_cycle("corpus.load.self_s", self_s["corpus.load"])
    per_cycle("corpus.build_vocab.self_s", self_s["corpus.build_vocab"])
    per_cycle("corpus.tokenize.calls", calls["corpus.tokenize"])
    per_cycle("corpus.tokenize.self_s", self_s["corpus.tokenize"])
    m["corpus.unk_ratio"] = _ratio(c["corpus.unk"], c["corpus.tokens"])
    m["corpus.groups_dropped_ratio"] = _ratio(
        c["corpus.groups_in"] - c["corpus.groups_kept"], c["corpus.groups_in"])

    per_cycle("objectives.collect_expression_pool.self_s",
              self_s["objectives.collect_expression_pool"])
    per_cycle("objectives.pool_entries", c["objectives.pool_entries"])
    for fn in ("build_pretrain_example", "build_tir"):
        per_cycle(f"objectives.{fn}.calls", calls[f"objectives.{fn}"])
        per_cycle(f"objectives.{fn}.self_s", self_s[f"objectives.{fn}"])
    slots = c["objectives.tir.slots"]
    m["objectives.tir.replaced_ratio"] = _ratio(c["objectives.tir.replaced"], slots)
    m["objectives.tir.forced_kept_ratio"] = _ratio(c["objectives.tir.forced_kept"], slots)

    per_cycle("training.batch.self_s", self_s["training.batch"])
    m["training.pad_ratio"] = _ratio(c["training.pad"], c["training.positions"])
    per_cycle("training.optimizer_steps", calls["optim.adamw_step"])
    m["training.step_s.p50"] = percentile(steps, 0.5)
    m["training.step_s.p90"] = percentile(steps, 0.9)
    per_cycle("training.classify.self_s", self_s["training.classify"])

    per_cycle("network.encoder_forward.calls", calls["network.encoder_forward"])
    per_cycle("network.encoder_forward.self_s", self_s["network.encoder_forward"])
    per_cycle("network.encoder_backward.self_s", self_s["network.encoder_backward"])
    per_cycle("network.heads.self_s", self_s["network.batch_losses"])
    for fn in ("gelu", "gelu_grad", "layer_norm", "softmax"):
        per_cycle(f"network.{fn}.self_s", self_s[f"network.{fn}"])
    per_cycle("network.positions", c["network.positions"])

    per_cycle("optim.adamw_step.calls", calls["optim.adamw_step"])
    per_cycle("optim.adamw_step.self_s", self_s["optim.adamw_step"])
    m["optim.elements_per_step"] = _ratio(c["optim.elements"], calls["optim.adamw_step"])

    per_cycle("checkpoint.load.calls", calls["checkpoint.load"])
    per_cycle("checkpoint.load.self_s", self_s["checkpoint.load"])
    per_cycle("checkpoint.save.self_s", self_s["checkpoint.save"])
    per_cycle("checkpoint.bytes", c["checkpoint.bytes"])

    per_cycle("evaluation.similarity_rank.self_s",
              self_s["evaluation.similarity_rank"])
    m["evaluation.forwards_per_query"] = _ratio(sum(forwards.values()), queries)

    per_cycle("util.write_jsonl.self_s", self_s["util.write_jsonl"])
    per_cycle("util.read_jsonl.self_s", self_s["util.read_jsonl"])
    per_cycle("util.bytes_written", c["util.bytes_written"])

    per_cycle("process.cpu_s", cpu_s)
    m["process.cpu_per_wall"] = _ratio(cpu_s, wall_s)
    per_cycle("cli.self_s", cli_self)
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def call_shares(tracer: Tracer, command: str, names: Sequence[str]) -> float:
    """Share of the wall time of ``cli.<command>`` calls spent as self time
    of the named spans inside those calls."""
    selfs = self_times(tracer.spans)
    roots = {span[CALL]: span for span in tracer.spans
             if span[NAME] == f"cli.{command}" and span[PARENT] < 0}
    wall = sum(s[END] - s[START] for s in roots.values())
    inside = sum(own for span, own in zip(tracer.spans, selfs)
                 if span[CALL] in roots and span[NAME] in names)
    return _ratio(inside, wall)
