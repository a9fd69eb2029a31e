"""Workloads: inputs generated from a seed, and the CLI calls of one cycle.

Every workload runs the same closed-loop cycle of CLI calls, one at a
time, in pipeline order: tag, build-vocab, build-dataset, pretrain,
finetune, eval and a series of probe calls; then further rounds of the
calls other than pretrain and finetune, with the probe calls spread
between the others.  The workloads differ in their inputs (corpus size,
model shape, labelled-event counts), and with them in which layer
dominates the cycle.  All calls of a cycle read the
same inputs, so every cycle must write the same bytes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

from bench import checks

MONTHS = ("1990-01", "1993-12")  # corpus timestamps, DTP and probe label space
YEARS = ("1987", "2007")  # labelled events, fine-tune and eval label space
OBJECTIVES = "tamlm,dtp,tir"

DEFAULT_MODEL = {"d_model": 128, "n_layers": 2, "n_heads": 4, "d_ff": 512,
                 "max_len": 128, "dropout": 0.1}
SMALL_MODEL = {"d_model": 32, "n_layers": 1, "n_heads": 2, "d_ff": 64,
               "max_len": 128, "dropout": 0.1}


@dataclass(frozen=True)
class Workload:
    name: str  # see BENCHMARK.json and NOTES.md for why each workload exists
    docs: int  # corpus documents: tag, build-vocab, build-dataset, pretrain
    model: dict
    train_events: int
    test_events: int
    finetune_epochs: int
    rounds: int  # rounds of the quicker calls per cycle
    probe_calls: int  # per round
    repeats: dict = field(default_factory=dict)  # calls per round, default 1
    # Fine-tune calls in each round after the first, where a call is short
    # enough that one per cycle would leave too few samples.
    round_finetunes: int = 0


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "pretrain",
            docs=300, model=DEFAULT_MODEL, train_events=64, test_events=64,
            finetune_epochs=1, rounds=4, probe_calls=9,
            repeats={"build-vocab": 2}, round_finetunes=1,
        ),
        Workload(
            "data-pipeline",
            docs=2000, model=SMALL_MODEL, train_events=64, test_events=64,
            finetune_epochs=1, rounds=2, probe_calls=17,
            repeats={"build-vocab": 2, "eval": 4}, round_finetunes=3,
        ),
        Workload(
            "downstream",
            docs=150, model=DEFAULT_MODEL, train_events=400, test_events=400,
            finetune_epochs=3, rounds=4, probe_calls=9,
            repeats={"tag": 3, "build-vocab": 4, "build-dataset": 2},
        ),
    )
}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process call of chronolm's CLI; returns (exit code, output)."""
    from chronolm.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    return code, out.getvalue()


def _section(name: str, values: dict) -> str:
    return f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())


@dataclass
class Inputs:
    dir: str
    queries: list[str]

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)


def set_up(workdir: str, w: Workload, seed: int) -> Inputs:
    """Generate the workload's inputs from the seed with ``chronolm synth``."""
    os.makedirs(workdir, exist_ok=True)
    inp = Inputs(workdir, [])
    steps = (
        ["synth", "--n", w.docs, "--start", MONTHS[0], "--end", MONTHS[1],
         "--seed", seed, "--out", inp.path("corpus.jsonl")],
        ["synth", "--events", "--n", w.train_events, "--start", YEARS[0],
         "--end", YEARS[1], "--seed", 2 * seed + 1, "--out", inp.path("train.jsonl")],
        ["synth", "--events", "--n", w.test_events, "--start", YEARS[0],
         "--end", YEARS[1], "--seed", 2 * seed + 2, "--out", inp.path("test.jsonl")],
    )
    for argv in steps:
        code, out = run_cli([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"set-up failed: {' '.join(map(str, argv))}: {out}")
    labelspace = {"start": MONTHS[0], "end": MONTHS[1], "granularity": "month"}
    with open(inp.path("month.cfg"), "w", encoding="utf-8") as fh:
        fh.write(_section("labelspace", labelspace) + _section("model", w.model)
                 + _section("train", {"objectives": OBJECTIVES, "epochs": 1}))
    with open(inp.path("year.cfg"), "w", encoding="utf-8") as fh:
        fh.write(_section("labelspace", {"start": YEARS[0], "end": YEARS[1],
                                         "granularity": "year"})
                 + _section("finetune", {"batch_size": 16, "grad_accumulation": 1,
                                         "epochs": w.finetune_epochs}))
    # Probe queries: the first sentence of the first documents.
    with open(inp.path("corpus.jsonl"), encoding="utf-8") as fh:
        texts = [json.loads(line)["text"] for line in fh]
    inp.queries = [texts[i % len(texts)].split(" . ")[0] for i in range(w.probe_calls)]
    return inp


@dataclass
class Call:
    stage: str
    argv: list[str]
    check: Callable[[], float]  # raises CheckFailed; returns the work done


def cycle_calls(w: Workload, inp: Inputs, seed: int, digests: checks.Digests,
                state: dict[str, float]) -> list[Call]:
    """The CLI calls of one cycle.  Each check returns the call's work: docs,
    examples or tokens for the throughput stages, 1 for a probe.  The
    pretrain check leaves the final loss in ``state``."""
    p = inp.path
    common = ["--seed", str(seed)]
    month_space = month_points()

    def tag():
        digests.check("tagged.jsonl", p("tagged.jsonl"))
        checks.tagged(p("tagged.jsonl"), w.docs)
        return w.docs

    def vocab():
        digests.check("vocab.txt", p("vocab.txt"))
        checks.vocab(p("vocab.txt"))
        return w.docs

    def dataset():
        digests.check("dataset.jsonl", p("dataset.jsonl"))
        state["tokens"] = checks.dataset(p("dataset.jsonl"), 2 * w.docs)
        return 2 * w.docs

    def pretrain():
        digests.check("encoder.ckpt", p("encoder.ckpt"))
        digests.check("pretrain-loss.csv", p("pretrain-loss.csv"))
        state["final_loss"] = checks.loss_log(p("pretrain-loss.csv"))
        return state["tokens"]  # one epoch over the build-dataset examples

    def finetune():
        digests.check("tuned.ckpt", p("tuned.ckpt"))
        digests.check("finetune-loss.csv", p("finetune-loss.csv"))
        checks.loss_log(p("finetune-loss.csv"))
        return w.train_events * w.finetune_epochs

    def evaluate():
        digests.check("results.csv", p("results.csv"))
        checks.eval_results(p("results.csv"))
        return w.test_events

    def probe(i):
        def check():
            digests.check(f"probe-{i}.csv", p("probe.csv"))
            checks.probe_ranking(p("probe.csv"), month_space)
            return 1
        return check

    def repeat(stage: str) -> int:
        return w.repeats.get(stage, 1)

    tag_call = Call("tag", ["tag", "--corpus", p("corpus.jsonl"),
                            "--out", p("tagged.jsonl")] + common, tag)
    vocab_call = Call("build-vocab", ["build-vocab", "--corpus", p("corpus.jsonl"),
                                      "--out", p("vocab.txt")] + common, vocab)
    dataset_call = Call("build-dataset",
                        ["build-dataset", "--config", p("month.cfg"),
                         "--tagged", p("tagged.jsonl"), "--vocab", p("vocab.txt"),
                         "--objectives", OBJECTIVES, "--out", p("dataset.jsonl")] + common,
                        dataset)
    eval_call = Call("eval", ["eval", "--config", p("year.cfg"),
                              "--checkpoint", p("tuned.ckpt"), "--data", p("test.jsonl"),
                              "--vocab", p("vocab.txt"), "--out", p("results.csv")] + common,
                     evaluate)
    probe_calls = [Call("probe", ["probe", "--config", p("month.cfg"),
                                  "--checkpoint", p("encoder.ckpt"), "--vocab", p("vocab.txt"),
                                  "--query", q, "--out", p("probe.csv")] + common, probe(i))
                   for i, q in enumerate(inp.queries)]
    pretrain_call = Call("pretrain", ["pretrain", "--config", p("month.cfg"),
                                      "--tagged", p("tagged.jsonl"), "--vocab", p("vocab.txt"),
                                      "--out", p("encoder.ckpt"),
                                      "--loss-log", p("pretrain-loss.csv")] + common, pretrain)
    finetune_call = Call("finetune", ["finetune", "--config", p("year.cfg"),
                                      "--checkpoint", p("encoder.ckpt"),
                                      "--train-data", p("train.jsonl"), "--vocab", p("vocab.txt"),
                                      "--out", p("tuned.ckpt"),
                                      "--loss-log", p("finetune-loss.csv")] + common, finetune)
    # Rounds of the quicker calls spread their samples over the cycle; the
    # training calls come after the first round's data calls they read, and
    # before that round's eval and probe calls, which read the checkpoints.
    calls = []
    for r in range(w.rounds):
        data = ([tag_call] * repeat("tag") + [vocab_call] * repeat("build-vocab")
                + [dataset_call] * repeat("build-dataset"))
        quick = [eval_call] * repeat("eval")
        if r == 0:
            calls += data + [pretrain_call, finetune_call]
        else:
            quick = data + [finetune_call] * w.round_finetunes + quick
        calls += interleave(quick, probe_calls)
    return calls


def interleave(calls: list[Call], probes: list[Call]) -> list[Call]:
    """The calls with the probes spread evenly after them.  The host's speed
    changes every few seconds, so probe samples taken at many points of the
    run vary less from run to run than the same number taken in one block."""
    out: list[Call] = []
    for i, call in enumerate(calls):
        out.append(call)
        out += probes[len(probes) * i // len(calls):len(probes) * (i + 1) // len(calls)]
    return out


def month_points() -> list[str]:
    (y0, m0), (y1, m1) = (map(int, s.split("-")) for s in MONTHS)
    return [f"{y:04d}-{m:02d}" for y in range(y0, y1 + 1) for m in range(1, 13)
            if (y0, m0) <= (y, m) <= (y1, m1)]
