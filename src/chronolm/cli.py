"""Command-line pipeline: tag, build-vocab, build-dataset, pretrain,
finetune, eval, probe, baseline, synth, ablate.

Every command takes --config (key=value sections), --seed, and --out;
explicit flags override config file values.  Outputs are written
atomically, and any toolkit error exits nonzero with a diagnostic naming
the offending record or flag.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import inspect
import io
import sys
from typing import Optional, Sequence

from . import util
from .config import RunConfig, parse_value
from .corpus import (
    SPECIAL_TOKENS,
    Vocab,
    build_vocab,
    load_corpus,
    load_tagged,
    tagged_to_json,
)
from .errors import (
    AlignmentError,
    ChronoError,
    LabelOutOfRange,
    MalformedRecord,
    OutOfLabelSpace,
    UnknownTokenId,
)
from .evaluation import (
    DEFAULT_ABLATION,
    EvalSet,
    Prediction,
    accuracy,
    mae,
    predictions_from_picks,
    random_guess,
    run_ablation,
    similarity_rank,
)
from .model.checkpoint import load_checkpoint, save_checkpoint
from .model.training import (
    LabeledExample,
    classify,
    finetune,
    prepare_labeled,
    pretrain,
)
from .objectives import (
    IGNORE_INDEX,
    LabelSpace,
    Objective,
    example_from_json,
    example_provider,
    pretrain_example_to_json,
    tir_example_to_json,
    PretrainExample,
    TirExample,
)
from .synth import synth_corpus, synth_events
from .temporal import Granularity, TimePoint, annotate, truncate


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    util.atomic_write_text(path, buf.getvalue())


def _write_loss_log(path: str, rows) -> None:
    _write_csv(path, ("step", "objective", "loss"),
               [(step, name, f"{value:.6f}") for step, name, value in rows])


def _string(obj: dict, key: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, not {value!r}")
    return value


def _load_labeled(path: str, space: Optional[LabelSpace] = None) -> list[LabeledExample]:
    """Labelled events from a JSONL file; with a space, every time must lie in it."""
    points = util.Memo(TimePoint.parse)  # each distinct time string is parsed once

    def parse(obj: dict) -> LabeledExample:
        time = points[_string(obj, "time")]
        if space is not None:
            space.index_of(time)
        doc_ts = (points[_string(obj, "doc_timestamp")]
                  if obj.get("doc_timestamp") else None)
        doc_text = (_string(obj, "doc_text")
                    if obj.get("doc_text") is not None else None)
        return LabeledExample(text=_string(obj, "text"), time=time,
                              doc_timestamp=doc_ts, doc_text=doc_text)

    out = list(util.read_jsonl(path, parse))
    if not out:
        raise MalformedRecord(f"{path}: no labeled records")
    return out


def _labeled_to_json(example: LabeledExample, index: int) -> dict:
    obj = {"id": f"event-{index:05d}", "text": example.text,
           "time": example.time.isoformat()}
    if example.doc_timestamp is not None:
        obj["doc_timestamp"] = example.doc_timestamp.isoformat()
    if example.doc_text is not None:
        obj["doc_text"] = example.doc_text
    return obj


def _in_range(flag: str, value, low, high=None):
    """A numeric flag's value when low <= value (<= high), which nan never
    is; otherwise a MalformedRecord naming the flag."""
    if low <= value and (high is None or value <= high):
        return value
    bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
    raise MalformedRecord(f"{flag} {value!r}: must be {bound}")


def _need(args: argparse.Namespace, cfg: RunConfig, flag: str) -> str:
    """Resolve a path from the flag or the [paths] config section."""
    value = getattr(args, flag.replace("-", "_"), None) or cfg.paths.get(flag)
    if not value:
        raise MalformedRecord(f"missing required path: --{flag}")
    return value


def _vocab(args: argparse.Namespace, cfg: RunConfig) -> Vocab:
    """The --vocab file, read under the configured case rule."""
    return Vocab.load(_need(args, cfg, "vocab"), cfg.lowercase)


def _space_or_fail(cfg: RunConfig) -> LabelSpace:
    space = cfg.label_space
    if space is None:
        raise MalformedRecord(
            "label space required: set [labelspace] start/end in the config"
        )
    return space


def cmd_tag(args, cfg: RunConfig) -> None:
    out = _need(args, cfg, "out")
    records = []
    for doc in load_corpus(_need(args, cfg, "corpus")):
        records.append(tagged_to_json(doc, annotate(doc.text, doc.timestamp)))
    util.write_jsonl(out, records)
    print(f"tagged {len(records)} documents -> {out}")


def cmd_build_vocab(args, cfg: RunConfig) -> None:
    out = _need(args, cfg, "out")
    vocab = build_vocab(
        load_corpus(_need(args, cfg, "corpus")),
        max_size=_in_range("--max-size", args.max_size, len(SPECIAL_TOKENS) + 1),
        min_freq=_in_range("--min-freq", args.min_freq, 1),
        lowercase=cfg.lowercase,
        include_timestamps=True,
    )
    vocab.save(out)
    print(f"vocabulary of {vocab.size} tokens -> {out}")


def _provider(args, cfg: RunConfig, vocab: Vocab, objectives, space):
    """Per-epoch example builds over --tagged, with the configured sampling."""
    path = _need(args, cfg, "tagged")
    tagged = list(load_tagged(path))
    try:
        return example_provider(
            tagged, vocab, objectives, space,
            masking=cfg.masking,
            seed=cfg.seed,
            max_len=cfg.model_config(vocab.size).max_len,
        )
    except (AlignmentError, OutOfLabelSpace) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _objectives(args, cfg: RunConfig) -> frozenset[Objective]:
    """--objectives, or [train] objectives without it."""
    if args.objectives:
        return parse_value("--objectives", Objective.parse_set, args.objectives)
    return cfg.train.objectives


def cmd_build_dataset(args, cfg: RunConfig) -> None:
    out = _need(args, cfg, "out")
    vocab = _vocab(args, cfg)
    objectives = _objectives(args, cfg)
    space = _space_or_fail(cfg) if Objective.DTP in objectives else cfg.label_space
    provider = _provider(args, cfg, vocab, objectives, space)
    examples = provider(args.epoch)
    util.write_jsonl(out, (pretrain_example_to_json(e) if isinstance(e, PretrainExample)
                           else tir_example_to_json(e) for e in examples))
    print(f"{len(examples)} examples -> {out}")


def _unused(what: str, need: str) -> MalformedRecord:
    return MalformedRecord(f"{what}, but the objective set "
                           f"(--objectives or [train] objectives) has no {need}")


def _load_dataset(path: str, vocab: Vocab, objectives: frozenset[Objective],
                  k_dtp: Optional[int]) -> list:
    """Static examples from a dataset file, checked against the model's heads.

    Every example must feed an objective in the set: tir examples need tir,
    masked labels need mlm or tamlm, and timestamp labels need dtp (k_dtp
    is None without it).
    """
    def parse(obj: dict) -> PretrainExample | TirExample:
        example = example_from_json(obj)
        if not all(0 <= t < vocab.size for t in example.input_ids):
            raise UnknownTokenId(f"token id outside 0..{vocab.size - 1}")
        if isinstance(example, TirExample) and Objective.TIR not in objectives:
            raise _unused("tir example", "tir")
        if isinstance(example, PretrainExample):
            masked = [t for t in example.mlm_labels if t != IGNORE_INDEX]
            if masked and not objectives & {Objective.MLM, Objective.TAMLM}:
                raise _unused("masked labels", "mlm or tamlm")
            if not all(0 <= t < vocab.size for t in masked):
                raise LabelOutOfRange(f"mlm label outside 0..{vocab.size - 1}")
            label = example.dtp_label
            if label is not None and k_dtp is None:
                raise _unused("timestamp label", "dtp")
            if label is not None and not 0 <= label < k_dtp:
                raise LabelOutOfRange(f"dtp label {label} outside 0..{k_dtp - 1}")
        return example

    examples = list(util.read_jsonl(path, parse))
    if not examples:
        raise MalformedRecord(f"{path}: no examples")
    return examples


def cmd_pretrain(args, cfg: RunConfig) -> None:
    out = _need(args, cfg, "out")
    vocab = _vocab(args, cfg)
    train_cfg = dataclasses.replace(cfg.train, objectives=_objectives(args, cfg))
    k_dtp = None
    if Objective.DTP in train_cfg.objectives:
        k_dtp = _space_or_fail(cfg).size
    if args.dataset:
        dataset = _load_dataset(args.dataset, vocab, train_cfg.objectives, k_dtp)
    else:
        dataset = _provider(args, cfg, vocab, train_cfg.objectives, cfg.label_space)
    model_cfg = cfg.model_config(vocab.size, k_dtp=k_dtp)
    ckpt, log = pretrain(dataset, vocab, model_cfg, train_cfg, seed=cfg.seed)
    save_checkpoint(ckpt, out)
    if args.loss_log:
        _write_loss_log(args.loss_log, log)
    print(f"pretrained {train_cfg.epochs} epochs, {len(log)} loss rows -> {out}")


def cmd_finetune(args, cfg: RunConfig) -> None:
    out = _need(args, cfg, "out")
    vocab = _vocab(args, cfg)
    space = _space_or_fail(cfg)
    ckpt = load_checkpoint(_need(args, cfg, "checkpoint"), vocab=vocab)
    examples = _load_labeled(_need(args, cfg, "train-data"), space)
    records = prepare_labeled(examples, space, vocab, ckpt.config.max_len)
    tuned, log = finetune(ckpt, records, space.size, cfg.finetune, seed=cfg.seed)
    save_checkpoint(tuned, out)
    if args.loss_log:
        _write_loss_log(args.loss_log, log)
    print(f"fine-tuned on {len(records)} examples -> {out}")


def _parse_granularities(text: Optional[str], default: Granularity):
    if not text:
        return [default]
    return [parse_value("--granularities", Granularity.parse, p)
            for p in text.split(",") if p.strip()]


def _prediction(obj: dict) -> Prediction:
    predicted = TimePoint.parse(_string(obj, "predicted"))
    gold = TimePoint.parse(_string(obj, "gold"))
    return Prediction(predicted, gold, min(predicted.granularity, gold.granularity))


def cmd_eval(args, cfg: RunConfig) -> None:
    out = _need(args, cfg, "out")
    if args.predictions:
        predictions = list(util.read_jsonl(args.predictions, _prediction))
        if not predictions:
            raise MalformedRecord(f"{args.predictions}: no prediction records")
        default = min(p.granularity for p in predictions)
    else:
        vocab = _vocab(args, cfg)
        space = _space_or_fail(cfg)
        ckpt = load_checkpoint(_need(args, cfg, "checkpoint"), vocab=vocab)
        examples = _load_labeled(_need(args, cfg, "data"), space)
        records = prepare_labeled(examples, space, vocab, ckpt.config.max_len)
        picks = classify(ckpt, [ids for ids, _ in records])
        predictions = predictions_from_picks(picks, examples, space)
        default = space.granularity
    rows = [(args.name, metric, str(g), f"{score(predictions, g):.4f}")
            for g in _parse_granularities(args.granularities, default)
            for metric, score in (("acc", accuracy), ("mae", mae))]
    _write_csv(out, ("configuration", "metric", "granularity", "value"), rows)
    print(f"{len(rows)} metric rows -> {out}")


def cmd_probe(args, cfg: RunConfig) -> None:
    out = _need(args, cfg, "out")
    vocab = _vocab(args, cfg)
    space = _space_or_fail(cfg)
    ckpt = load_checkpoint(_need(args, cfg, "checkpoint"), vocab=vocab)
    ranked = similarity_rank(ckpt, args.query, space)
    rows = [
        (rank, point.isoformat(), f"{score:.6f}")
        for rank, (point, score) in enumerate(ranked.ranking, start=1)
    ]
    _write_csv(out, ("rank", "point", "score"), rows)
    print(f"ranked {len(rows)} candidates for {args.query!r} -> {out}")


def cmd_baseline(args, cfg: RunConfig) -> None:
    out = _need(args, cfg, "out")
    space = _space_or_fail(cfg)
    golds = [e.time for e in _load_labeled(_need(args, cfg, "data"), space)]
    trials = _in_range("--trials", args.trials, 1)
    acc, err = random_guess(space, golds, trials=trials, seed=cfg.seed)
    rows = [
        ("random-guess", "acc", str(space.granularity), f"{acc:.4f}"),
        ("random-guess", "mae", str(space.granularity), f"{err:.4f}"),
    ]
    _write_csv(out, ("configuration", "metric", "granularity", "value"), rows)
    print(f"random-guess baseline over {len(golds)} golds -> {out}")


def cmd_synth(args, cfg: RunConfig) -> None:
    out = _need(args, cfg, "out")
    start = parse_value("--start", TimePoint.parse, args.start)
    end = parse_value("--end", TimePoint.parse, args.end)
    n = _in_range("--n", args.n, 1)
    noise = _in_range("--noise", args.noise, 0.0, 1.0)
    if args.events:
        space = LabelSpace(Granularity.YEAR, start, end)
        events = synth_events(n, space, noise=noise, seed=cfg.seed)
        util.write_jsonl(out, [_labeled_to_json(e, i) for i, e in enumerate(events)])
        print(f"{len(events)} synthetic events over {space.size} years -> {out}")
    else:
        space = LabelSpace(Granularity.MONTH, start, end)
        docs = synth_corpus(n, space, noise=noise, seed=cfg.seed)
        util.write_jsonl(out, [
            {"id": d.id, "timestamp": d.timestamp.isoformat(), "text": d.text}
            for d in docs
        ])
        print(f"{len(docs)} synthetic documents over {space.size} months -> {out}")


def cmd_ablate(args, cfg: RunConfig) -> None:
    out = _need(args, cfg, "out")
    if bool(args.eval_start) != bool(args.eval_end):
        missing = "--eval-end" if args.eval_start else "--eval-start"
        raise MalformedRecord(f"missing {missing}: --eval-start and --eval-end go together")
    vocab = _vocab(args, cfg)
    space = _space_or_fail(cfg)
    tagged = list(load_tagged(_need(args, cfg, "tagged")))
    eval_space = space
    g = space.granularity
    if args.eval_granularity:
        g = parse_value("--eval-granularity", Granularity.parse,
                        args.eval_granularity)
    if args.eval_start and args.eval_end:
        eval_space = LabelSpace(
            g,
            truncate(parse_value("--eval-start", TimePoint.parse, args.eval_start), g),
            truncate(parse_value("--eval-end", TimePoint.parse, args.eval_end), g),
        )
    elif args.eval_granularity:
        eval_space = LabelSpace(g, truncate(space.start, g), truncate(space.end, g))
    combos = DEFAULT_ABLATION
    if args.combinations:
        combos = tuple(parse_value("--combinations", Objective.parse_set, c)
                       for c in args.combinations.split(";"))
    train_examples = _load_labeled(_need(args, cfg, "eval-train"), eval_space)
    test_examples = _load_labeled(_need(args, cfg, "eval-test"), eval_space)
    rows = run_ablation(
        tagged, vocab, space,
        model_cfg=cfg.model_config(vocab.size),
        pretrain_cfg=cfg.train,
        finetune_cfg=cfg.finetune,
        eval_sets=[EvalSet("events", tuple(train_examples),
                           tuple(test_examples), eval_space)],
        combinations=combos,
        seed=cfg.seed,
        masking=cfg.masking,
    )
    _write_csv(
        out,
        ("configuration", "metric", "granularity", "value"),
        [(r.configuration, r.metric, r.granularity, f"{r.value:.4f}") for r in rows],
    )
    print(f"{len(rows)} ablation rows -> {out}")


def _default(fn, name: str):
    """The default of fn's parameter name: a flag that passes its value
    on to fn takes fn's default, so the two cannot drift apart."""
    return inspect.signature(fn).parameters[name].default


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="chronolm",
        description="Time-aware pretraining toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int, help="global random seed")
        p.add_argument("--out", help="output path")

    p = sub.add_parser("tag", help="recognize and normalize temporal expressions")
    common(p)
    p.add_argument("--corpus", help="corpus JSONL")

    p = sub.add_parser("build-vocab", help="rank tokens into a vocabulary file")
    common(p)
    p.add_argument("--corpus", help="corpus JSONL")
    p.add_argument("--max-size", type=int, default=8192)
    p.add_argument("--min-freq", type=int, default=_default(build_vocab, "min_freq"))

    p = sub.add_parser("build-dataset", help="materialize training examples")
    common(p)
    p.add_argument("--tagged", help="tagged corpus JSONL")
    p.add_argument("--vocab", help="vocabulary file")
    p.add_argument("--objectives", help="comma list drawn from mlm,tamlm,dtp,tir "
                   "(default: [train] objectives)")
    p.add_argument("--epoch", type=int, default=0,
                   help="epoch number mixed into the sampling seed")

    p = sub.add_parser("pretrain", help="train the encoder")
    common(p)
    p.add_argument("--dataset", help="pre-built dataset JSONL (static plans)")
    p.add_argument("--tagged", help="tagged corpus JSONL (fresh plans per epoch)")
    p.add_argument("--vocab", help="vocabulary file")
    p.add_argument("--objectives", help="override the configured objective set")
    p.add_argument("--loss-log", help="write per-step losses to this CSV")

    p = sub.add_parser("finetune", help="train a classifier head on labeled data")
    common(p)
    p.add_argument("--checkpoint", help="encoder checkpoint")
    p.add_argument("--train-data", help="labeled JSONL")
    p.add_argument("--vocab", help="vocabulary file")
    p.add_argument("--loss-log", help="write per-step losses to this CSV")

    p = sub.add_parser("eval", help="score predictions or a fine-tuned model")
    common(p)
    p.add_argument("--checkpoint", help="fine-tuned checkpoint")
    p.add_argument("--data", help="labeled JSONL")
    p.add_argument("--vocab", help="vocabulary file")
    p.add_argument("--predictions", help="JSONL of predicted/gold pairs")
    p.add_argument("--granularities", help="comma list, e.g. year,month")
    p.add_argument("--name", default="model", help="configuration column value")

    p = sub.add_parser("probe", help="rank label-space points by similarity")
    common(p)
    p.add_argument("--checkpoint", help="encoder checkpoint")
    p.add_argument("--vocab", help="vocabulary file")
    p.add_argument("--query", required=True, help="probe text")

    p = sub.add_parser("baseline", help="random-guess accuracy and error")
    common(p)
    p.add_argument("--data", help="labeled JSONL supplying gold times")
    p.add_argument("--trials", type=int, default=_default(random_guess, "trials"))

    p = sub.add_parser("synth", help="generate a synthetic corpus or event set")
    common(p)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--start", required=True, help="span start, e.g. 1987-01")
    p.add_argument("--end", required=True, help="span end, e.g. 1990-12")
    p.add_argument("--noise", type=float, default=_default(synth_corpus, "noise"))
    p.add_argument("--events", action="store_true",
                   help="emit year-labeled events instead of documents")

    p = sub.add_parser("ablate", help="pretrain and evaluate objective combinations")
    common(p)
    p.add_argument("--tagged", help="tagged corpus JSONL")
    p.add_argument("--vocab", help="vocabulary file")
    p.add_argument("--eval-train", help="labeled JSONL for fine-tuning")
    p.add_argument("--eval-test", help="labeled JSONL for scoring")
    p.add_argument("--eval-start", help="evaluation label-space start")
    p.add_argument("--eval-end", help="evaluation label-space end")
    p.add_argument("--eval-granularity", help="evaluate at this granularity")
    p.add_argument("--combinations",
                   help="semicolon-separated objective sets, e.g. 'mlm;tamlm,dtp'")
    return parser


_COMMANDS = {
    "tag": cmd_tag,
    "build-vocab": cmd_build_vocab,
    "build-dataset": cmd_build_dataset,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
    "probe": cmd_probe,
    "baseline": cmd_baseline,
    "synth": cmd_synth,
    "ablate": cmd_ablate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        _COMMANDS[args.command](args, cfg)
    except (ChronoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # the last resort for a [model] too large
        print(f"error: {args.command} ran out of memory. {exc}".strip(), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
