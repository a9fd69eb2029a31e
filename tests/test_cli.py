"""End-to-end runs of every command against a tiny synthetic corpus."""

import contextlib
import csv
import dataclasses
import functools
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chronolm
from chronolm.cli import build_parser, main
from chronolm.corpus import SPECIAL_TOKENS, Vocab, build_vocab
from chronolm.evaluation import random_guess
from chronolm.model import EncoderCheckpoint, ModelConfig, save_checkpoint
from chronolm.objectives import build_labelspace
from chronolm.synth import synth_corpus, synth_events
from chronolm.temporal import Granularity, TimePoint
from chronolm.util import write_jsonl


CONFIG = """
[run]
seed = 11

[labelspace]
start = 1990-01
end = 1990-12
granularity = month

[model]
d_model = 32
n_layers = 1
n_heads = 2
d_ff = 64
max_len = 64

[train]
objectives = tamlm,dtp
learning_rate = 1e-3
batch_size = 8
grad_accumulation = 2
epochs = 2

[finetune]
learning_rate = 1e-3
batch_size = 8
epochs = 2
"""

YEAR_CONFIG = """
[run]
seed = 11

[labelspace]
start = 1990
end = 1994
granularity = year

[finetune]
learning_rate = 1e-3
batch_size = 8
epochs = 2
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    space = build_labelspace(TimePoint(1990, 1), TimePoint(1990, 12),
                             Granularity.MONTH)
    docs = synth_corpus(32, space, seed=3)
    write_jsonl(str(root / "corpus.jsonl"), [
        {"id": d.id, "timestamp": d.timestamp.isoformat(), "text": d.text}
        for d in docs
    ])
    (root / "run.cfg").write_text(CONFIG)
    (root / "year.cfg").write_text(YEAR_CONFIG)
    return root


def run(*argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path) as f:
        return list(csv.DictReader(f))


def test_tag(workdir):
    rc = run("tag", "--corpus", workdir / "corpus.jsonl",
             "--out", workdir / "tagged.jsonl")
    assert rc == 0
    lines = (workdir / "tagged.jsonl").read_text().splitlines()
    assert len(lines) == 32
    rec = json.loads(lines[0])
    assert {"id", "timestamp", "text", "expressions"} <= set(rec)
    assert any(e["normalized"] for e in rec["expressions"])
    for e in rec["expressions"]:
        assert rec["text"][e["start"]:e["end"]] == e["surface"]


def test_build_vocab(workdir):
    rc = run("build-vocab", "--corpus", workdir / "corpus.jsonl",
             "--out", workdir / "vocab.txt")
    assert rc == 0
    tokens = (workdir / "vocab.txt").read_text().splitlines()
    assert tokens[:5] == ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
    assert len(tokens) == len(set(tokens))


@pytest.fixture(scope="module")
def dataset(workdir, encoder):
    """workdir's dataset.jsonl, built for tamlm,dtp,tir from the encoder's
    tagged corpus and vocabulary."""
    rc = run("build-dataset", "--config", workdir / "run.cfg",
             "--tagged", workdir / "tagged.jsonl",
             "--vocab", workdir / "vocab.txt",
             "--objectives", "tamlm,dtp,tir",
             "--out", workdir / "dataset.jsonl")
    assert rc == 0
    return workdir / "dataset.jsonl"


def test_build_dataset(dataset):
    records = [json.loads(l) for l in dataset.read_text().splitlines()]
    masked = [r for r in records if "mlm_labels" in r]
    tir = [r for r in records if "slots" in r]
    assert len(masked) == 32 and len(tir) == 32
    assert all(r["dtp_label"] >= 0 for r in masked)
    for r in tir:
        for left, right, label in r["slots"]:
            assert 0 < left < right < len(r["input_ids"])
            assert label in (0, 1)


def test_pretrain_static_dataset(workdir, encoder, dataset):
    rc = run("pretrain", "--config", workdir / "run.cfg",
             "--dataset", dataset,
             "--vocab", workdir / "vocab.txt",
             "--objectives", "tamlm,dtp,tir",
             "--out", workdir / "static.ckpt")
    assert rc == 0
    assert (workdir / "static.ckpt").exists()


def assert_one_error_line(rc, capsys, *needles):
    """Exit 1 with a single "error:" line on stderr naming each needle."""
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    for needle in needles:
        assert needle in lines[0]


def _edit_masked(edit):
    def apply(rec):
        if "mlm_labels" in rec:
            edit(rec)
    return apply


def _edit_slots(rec):
    if "slots" in rec:
        rec["slots"][0][1] = len(rec["input_ids"])


BAD_DATASETS = {
    "missing-key": (_edit_masked(lambda r: r.pop("mlm_labels")), "mlm_labels"),
    "short-labels": (_edit_masked(lambda r: r["mlm_labels"].pop(1)), "align"),
    "dtp-range": (_edit_masked(lambda r: r.update(dtp_label=500)), "500"),
    "mlm-range": (_edit_masked(
        lambda r: r["mlm_labels"].__setitem__(1, 10 ** 6)), "mlm label"),
    "slot-range": (_edit_slots, "slot"),
    "doc-id-not-string": (_edit_masked(lambda r: r.update(doc_id=7)), "doc_id"),
    "not-json": (None, "invalid JSON"),
}


@pytest.mark.parametrize("case", sorted(BAD_DATASETS))
def test_pretrain_rejects_bad_dataset_line(workdir, encoder, dataset, tmp_path, capsys,
                                           case):
    edit, needle = BAD_DATASETS[case]
    lines = dataset.read_text().splitlines()
    masked = next(l for l in lines if "mlm_labels" in l)
    tir = next(l for l in lines if "slots" in l)
    bad = json.loads(masked if case != "slot-range" else tir)
    if edit is None:
        bad_line = "{broken"
    else:
        edit(bad)
        bad_line = json.dumps(bad)
    (tmp_path / "bad.jsonl").write_text(f"{masked}\n{bad_line}\n")
    rc = run("pretrain", "--config", workdir / "run.cfg",
             "--dataset", tmp_path / "bad.jsonl",
             "--vocab", workdir / "vocab.txt",
             "--objectives", "tamlm,dtp,tir",
             "--out", tmp_path / "bad.ckpt")
    assert_one_error_line(rc, capsys, "bad.jsonl line 2", needle)


def test_out_of_memory_is_one_error_line(workdir, dataset, tmp_path, capsys,
                                        monkeypatch):
    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    # Stands in for a [model] too large for the machine; nothing big is
    # allocated.
    monkeypatch.setattr(chronolm.cli, "pretrain", too_big)
    rc = run("pretrain", "--config", workdir / "run.cfg",
             "--dataset", dataset,
             "--vocab", workdir / "vocab.txt",
             "--objectives", "tamlm,dtp,tir",
             "--out", tmp_path / "big.ckpt")
    assert_one_error_line(rc, capsys, "pretrain ran out of memory", "8.00 TiB")
    assert not (tmp_path / "big.ckpt").exists()


def test_pretrain_rejects_timestamp_labels_without_dtp(workdir, encoder, dataset, tmp_path,
                                                       capsys):
    rc = run("pretrain", "--config", workdir / "run.cfg",
             "--dataset", dataset,
             "--vocab", workdir / "vocab.txt",
             "--objectives", "tamlm",
             "--out", tmp_path / "bad.ckpt")
    assert_one_error_line(rc, capsys, "line 1", "--objectives")


@pytest.mark.parametrize("objectives,needle", [
    ("tamlm,dtp", "tir example"),
    ("dtp,tir", "masked labels"),
])
def test_pretrain_rejects_examples_outside_objective_set(
        workdir, encoder, dataset, tmp_path, capsys, objectives, needle):
    # dataset.jsonl was built for tamlm,dtp,tir.
    rc = run("pretrain", "--config", workdir / "run.cfg",
             "--dataset", dataset,
             "--vocab", workdir / "vocab.txt",
             "--objectives", objectives,
             "--out", tmp_path / "bad.ckpt")
    assert_one_error_line(rc, capsys, "dataset.jsonl line", needle, "--objectives")
    assert not (tmp_path / "bad.ckpt").exists()


@pytest.mark.parametrize("command", ["build-dataset", "pretrain"])
def test_unknown_objective_flag(workdir, encoder, tmp_path, capsys, command):
    rc = run(command, "--config", workdir / "run.cfg",
             "--tagged", workdir / "tagged.jsonl",
             "--vocab", workdir / "vocab.txt",
             "--objectives", "tamlm,foo",
             "--out", tmp_path / "out")
    assert_one_error_line(rc, capsys, "--objectives", "foo")


def test_synth_bad_start(tmp_path, capsys):
    rc = run("synth", "--start", "19x", "--end", 1990,
             "--out", tmp_path / "corpus.jsonl")
    assert_one_error_line(rc, capsys, "--start", "19x")


def test_bad_label_space_fails_at_load(tmp_path, capsys):
    (tmp_path / "bad.cfg").write_text("[labelspace]\nstart = 1990-13\nend = 1991\n")
    # tag needs no label space; the config is still rejected when loaded
    rc = run("tag", "--config", tmp_path / "bad.cfg",
             "--corpus", tmp_path / "absent.jsonl", "--out", tmp_path / "out")
    assert_one_error_line(rc, capsys, "[labelspace] start", "1990-13")


def test_half_a_label_space_fails_at_load(tmp_path, capsys):
    (tmp_path / "half.cfg").write_text("[labelspace]\nstart = 1990-01\n")
    rc = run("tag", "--config", tmp_path / "half.cfg",
             "--corpus", tmp_path / "absent.jsonl", "--out", tmp_path / "out")
    assert_one_error_line(rc, capsys, f"{tmp_path / 'half.cfg'}: [labelspace] end: missing")


def test_bad_model_section_fails_at_load(workdir, encoder, tmp_path, capsys):
    (tmp_path / "bad.cfg").write_text("[model]\nd_model = 30\nn_heads = 4\n")
    rc = run("pretrain", "--config", tmp_path / "bad.cfg",
             "--tagged", workdir / "tagged.jsonl",
             "--vocab", workdir / "vocab.txt",
             "--out", tmp_path / "enc.ckpt")
    assert_one_error_line(rc, capsys, "bad config value", "heads",
                          f"{tmp_path / 'bad.cfg'}: [model] d_model '30': ")


BAD_CONFIG_VALUES = {
    # name: (config body, command flags, where the error must point)
    "mask-budget": ("[objectives]\nmask_budget = 1.5\n", ("build-dataset",),
                    "[objectives] mask_budget '1.5'"),
    "replace-prob-nan": ("[objectives]\nreplace_prob = nan\n",
                         ("build-dataset", "--objectives", "tir"),
                         "[objectives] replace_prob 'nan'"),
    "learning-rate-nan": ("[train]\nlearning_rate = nan\n",
                          ("pretrain", "--objectives", "tamlm"),
                          "[train] learning_rate 'nan'"),
    "finetune-weight-decay-inf": ("[finetune]\nweight_decay = inf\n",
                                  ("pretrain", "--objectives", "tamlm"),
                                  "[finetune] weight_decay 'inf'"),
    "unknown-key": ("[train]\nlearning_rte = 1e-3\n",
                    ("pretrain", "--objectives", "tamlm"),
                    "[train] learning_rte: unknown key"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_bad_config_value_is_one_error_line(case, workdir, encoder, tmp_path, capsys):
    body, (command, *flags), named = BAD_CONFIG_VALUES[case]
    config = tmp_path / "bad.cfg"
    config.write_text(body)
    rc = run(command, "--config", config, *flags,
             "--tagged", workdir / "tagged.jsonl",
             "--vocab", workdir / "vocab.txt",
             "--out", tmp_path / "out")
    assert_one_error_line(rc, capsys, f"{config}: {named}")
    assert not (tmp_path / "out").exists()


def test_build_dataset_objectives_default_to_the_train_section(workdir, encoder, tmp_path):
    config = tmp_path / "mlm.cfg"
    config.write_text(CONFIG.replace("objectives = tamlm,dtp", "objectives = mlm"))
    outputs = {}
    for name, cfg, flags in (("run", workdir / "run.cfg", ()),
                             ("run-flag", workdir / "run.cfg",
                              ("--objectives", "tamlm,dtp")),
                             ("mlm", config, ()),
                             ("mlm-flag", workdir / "run.cfg", ("--objectives", "mlm"))):
        out = tmp_path / f"{name}.jsonl"
        assert run("build-dataset", "--config", cfg, *flags,
                   "--tagged", workdir / "tagged.jsonl",
                   "--vocab", workdir / "vocab.txt", "--out", out) == 0
        outputs[name] = out.read_bytes()
    assert outputs["run"] == outputs["run-flag"]
    assert outputs["mlm"] == outputs["mlm-flag"]
    assert outputs["run"] != outputs["mlm"]


def _tagged_line(edit):
    rec = {"id": "d", "timestamp": "1990-01-05", "text": "in March 1990 .",
           "expressions": [{"start": 3, "end": 13, "surface": "March 1990",
                            "normalized": "1990-03", "granularity": "month"}]}
    edit(rec["expressions"][0])
    return json.dumps(rec)


BAD_TAGGED = {
    "bad-normalized": (lambda e: e.update(normalized="10000"), "10000"),
    "normalized-not-string": (lambda e: e.update(normalized=1990), "normalized"),
    "missing-key": (lambda e: e.pop("end"), "'end'"),
    "bad-span": (lambda e: e.update(start=13, end=3), "bad span"),
}


@pytest.mark.parametrize("case", sorted(BAD_TAGGED))
def test_build_dataset_rejects_bad_tagged_line(workdir, encoder, tmp_path, capsys, case):
    edit, needle = BAD_TAGGED[case]
    good = _tagged_line(lambda e: None)
    (tmp_path / "bad.jsonl").write_text(f"{good}\n{_tagged_line(edit)}\n")
    rc = run("build-dataset", "--config", workdir / "run.cfg",
             "--tagged", tmp_path / "bad.jsonl",
             "--vocab", workdir / "vocab.txt",
             "--objectives", "tamlm",
             "--out", tmp_path / "dataset.jsonl")
    assert_one_error_line(rc, capsys, "bad.jsonl line 2", needle)


def test_tagged_record_with_bad_timestamp_names_file_and_line(workdir, encoder, tmp_path,
                                                              capsys):
    good = _tagged_line(lambda e: None)
    bad = {**json.loads(good), "timestamp": "1990-13-01"}
    (tmp_path / "bad.jsonl").write_text(f"{good}\n{json.dumps(bad)}\n")
    rc = run("build-dataset", "--config", workdir / "run.cfg",
             "--tagged", tmp_path / "bad.jsonl",
             "--vocab", workdir / "vocab.txt",
             "--objectives", "tamlm",
             "--out", tmp_path / "dataset.jsonl")
    assert_one_error_line(rc, capsys, "bad.jsonl line 2", "month out of range: 13")


@pytest.mark.parametrize("command", ["build-dataset", "pretrain"])
def test_tagged_document_outside_the_label_space_is_named(workdir, encoder, tmp_path,
                                                          capsys, command):
    good = _tagged_line(lambda e: None)
    late = {**json.loads(good), "id": "late", "timestamp": "1995-01-05"}
    (tmp_path / "late.jsonl").write_text(f"{good}\n{json.dumps(late)}\n")
    rc = run(command, "--config", workdir / "run.cfg",
             "--tagged", tmp_path / "late.jsonl",
             "--vocab", workdir / "vocab.txt",
             "--objectives", "dtp",
             "--out", tmp_path / "out")
    assert_one_error_line(rc, capsys, "late.jsonl: doc late:",
                          "1995-01 outside [1990-01, 1990-12]")


def test_tag_at_the_calendar_edges_round_trips(workdir, encoder, tmp_path):
    # Shifts past years 1-9999 are tagged unresolvable, so the tagged file
    # loads again.
    write_jsonl(str(tmp_path / "edge.jsonl"), [
        {"id": "late", "timestamp": "9999-06-01", "text": "next year the m1 ledger ."},
        {"id": "early", "timestamp": "0001-01-01",
         "text": "last month and 999 years ago the m2 ledger ."},
    ])
    assert run("tag", "--corpus", tmp_path / "edge.jsonl",
               "--out", tmp_path / "tagged.jsonl") == 0
    exprs = [e for line in (tmp_path / "tagged.jsonl").read_text().splitlines()
             for e in json.loads(line)["expressions"]]
    assert [e["surface"] for e in exprs] == ["next year", "last month", "999 years ago"]
    assert all(e["normalized"] is None for e in exprs)
    assert run("build-dataset", "--config", workdir / "run.cfg",
               "--tagged", tmp_path / "tagged.jsonl",
               "--vocab", workdir / "vocab.txt",
               "--objectives", "tamlm",
               "--out", tmp_path / "dataset.jsonl") == 0
    assert len((tmp_path / "dataset.jsonl").read_text().splitlines()) == 2


def _pretrain(workdir, out):
    return run("pretrain", "--config", workdir / "run.cfg",
               "--tagged", workdir / "tagged.jsonl",
               "--vocab", workdir / "vocab.txt",
               "--out", workdir / out,
               "--loss-log", workdir / "loss.csv")


@pytest.fixture(scope="module")
def encoder(workdir):
    """workdir's pretrained enc.ckpt, made from the tagged corpus and the
    vocabulary it writes first, so no test depends on another's output."""
    assert run("tag", "--corpus", workdir / "corpus.jsonl",
               "--out", workdir / "tagged.jsonl") == 0
    assert run("build-vocab", "--corpus", workdir / "corpus.jsonl",
               "--out", workdir / "vocab.txt") == 0
    assert _pretrain(workdir, "enc.ckpt") == 0
    return workdir / "enc.ckpt"


def test_pretrain_and_determinism(workdir, encoder):
    assert _pretrain(workdir, "enc2.ckpt") == 0
    assert encoder.read_bytes() == (workdir / "enc2.ckpt").read_bytes()
    rows = read_csv(workdir / "loss.csv")
    assert {r["objective"] for r in rows} == {"tamlm", "dtp"}
    assert all(float(r["loss"]) > 0 for r in rows)


@pytest.fixture(scope="module")
def events(workdir):
    """workdir's events.jsonl: 40 year events in the year.cfg space."""
    rc = run("synth", "--events", "--n", 40, "--start", 1990, "--end", 1994,
             "--seed", 5, "--out", workdir / "events.jsonl")
    assert rc == 0
    return workdir / "events.jsonl"


@pytest.fixture(scope="module")
def tuned(workdir, encoder, events):
    """workdir's tuned.ckpt: the encoder fine-tuned on the events."""
    rc = run("finetune", "--config", workdir / "year.cfg",
             "--checkpoint", encoder,
             "--train-data", events,
             "--vocab", workdir / "vocab.txt",
             "--out", workdir / "tuned.ckpt")
    assert rc == 0
    return workdir / "tuned.ckpt"


def test_synth_events_and_finetune_eval(workdir, events, tuned):
    rc = run("eval", "--config", workdir / "year.cfg",
             "--checkpoint", tuned,
             "--data", events,
             "--vocab", workdir / "vocab.txt",
             "--name", "smoke", "--out", workdir / "results.csv")
    assert rc == 0
    rows = read_csv(workdir / "results.csv")
    assert {(r["configuration"], r["metric"]) for r in rows} == {
        ("smoke", "acc"), ("smoke", "mae")}


def test_eval_predictions_mode(workdir):
    preds = workdir / "preds.jsonl"
    write_jsonl(str(preds), [
        {"predicted": "1994", "gold": "1995"},
        {"predicted": "1994", "gold": "1994"},
    ])
    rc = run("eval", "--predictions", preds, "--name", "manual",
             "--out", workdir / "pred-results.csv")
    assert rc == 0
    rows = {r["metric"]: float(r["value"])
            for r in read_csv(workdir / "pred-results.csv")}
    assert rows["acc"] == 50.0
    assert rows["mae"] == 0.5


BAD_PREDICTIONS = {
    "list": ("[1, 2]", "not a JSON object"),
    "string": ('"x"', "not a JSON object"),
    "predicted-not-string": ('{"predicted": 1990, "gold": "1990"}',
                             "predicted must be a string"),
}


@pytest.mark.parametrize("case", sorted(BAD_PREDICTIONS))
def test_eval_rejects_bad_prediction_record(tmp_path, capsys, case):
    line, needle = BAD_PREDICTIONS[case]
    (tmp_path / "preds.jsonl").write_text(f"{line}\n")
    rc = run("eval", "--predictions", tmp_path / "preds.jsonl",
             "--out", tmp_path / "out.csv")
    assert_one_error_line(rc, capsys, "preds.jsonl line 1", needle)


def test_probe(workdir, encoder):
    rc = run("probe", "--config", workdir / "year.cfg",
             "--checkpoint", encoder,
             "--vocab", workdir / "vocab.txt",
             "--query", "the treaty of 1992",
             "--out", workdir / "probe.csv")
    assert rc == 0
    rows = read_csv(workdir / "probe.csv")
    assert len(rows) == 5
    assert [int(r["rank"]) for r in rows] == [1, 2, 3, 4, 5]


def test_probe_rejects_a_cased_vocabulary_under_lowercase(workdir, encoder, tmp_path,
                                                         capsys):
    # Read with lowercase on, a vocabulary built without it would encode
    # every cased word ("March") as [UNK], so every candidate would tie.
    (tmp_path / "lower.cfg").write_text(YEAR_CONFIG + "\n[tokenizer]\nlowercase = true\n")
    rc = run("probe", "--config", tmp_path / "lower.cfg",
             "--checkpoint", encoder,
             "--vocab", workdir / "vocab.txt",
             "--query", "the treaty of 1992",
             "--out", tmp_path / "probe.csv")
    assert_one_error_line(rc, capsys, f"{workdir / 'vocab.txt'}: token ", "is cased",
                          "[tokenizer] lowercase")
    assert not (tmp_path / "probe.csv").exists()


def test_probe_rejects_bad_checkpoints(workdir, encoder, capsys):
    header, _, body = encoder.read_bytes().partition(b"\n")
    edited = json.loads(header)
    edited["config"]["n_layers"] = 2
    edited = json.dumps(edited, sort_keys=True, separators=(",", ":")).encode()
    nan = bytes.fromhex("0000c07f")  # float32 NaN, little-endian
    cases = {
        "layers.ckpt": (edited + b"\n" + body, "layer1."),
        "nan.ckpt": (header + b"\n" + nan + body[4:], "emb.pos"),
    }
    for name, (data, tensor) in cases.items():
        (workdir / name).write_bytes(data)
        capsys.readouterr()
        rc = run("probe", "--config", workdir / "year.cfg",
                 "--checkpoint", workdir / name,
                 "--vocab", workdir / "vocab.txt",
                 "--query", "the treaty of 1992",
                 "--out", workdir / "bad-probe.csv")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and tensor in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """A small encoder checkpoint, the same with a classifier over the
    year label space (tuned.ckpt), their vocabulary and that space."""
    root = tmp_path_factory.mktemp("tiny")
    vocab = Vocab(SPECIAL_TOKENS + ("the", "treaty", "of", "1990", "1991", "1992"))
    vocab.save(str(root / "vocab.txt"))
    cfg = ModelConfig(vocab_size=vocab.size, max_len=16, d_model=8, n_layers=1,
                      n_heads=2, d_ff=16)
    save_checkpoint(EncoderCheckpoint.fresh(cfg, vocab), str(root / "enc.ckpt"))
    tuned = dataclasses.replace(cfg, k_cls=5)
    save_checkpoint(EncoderCheckpoint.fresh(tuned, vocab), str(root / "tuned.ckpt"))
    (root / "year.cfg").write_text(YEAR_CONFIG)
    return root


def _exits_cleanly(*argv) -> None:
    """Run argv: exit 0, or exit 1 with one error line; an exception
    escaping main (a traceback from the command) fails."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = run(*argv)
    if rc != 0:
        lines = err.getvalue().splitlines()
        assert rc == 1 and len(lines) == 1 and lines[0].startswith("error: "), lines


@given(cut=st.none() | st.integers(min_value=0),
       flips=st.lists(st.integers(min_value=0), max_size=3))
@settings(max_examples=100, deadline=None)
def test_probe_exits_cleanly_on_damaged_checkpoints(tiny_inputs, cut, flips):
    # Bit flips anywhere (header or tensors), then perhaps a cut.
    root = tiny_inputs
    data = bytearray((root / "enc.ckpt").read_bytes())
    for bit in flips:
        data[bit // 8 % len(data)] ^= 1 << bit % 8
    if cut is not None:
        data = data[:cut % (len(data) + 1)]
    (root / "damaged.ckpt").write_bytes(data)
    _exits_cleanly("probe", "--config", root / "year.cfg",
                   "--checkpoint", root / "damaged.ckpt", "--vocab", root / "vocab.txt",
                   "--query", "the treaty of 1992", "--out", root / "probe.csv")


def test_baseline(workdir, events):
    rc = run("baseline", "--config", workdir / "year.cfg",
             "--data", workdir / "events.jsonl",
             "--trials", 200, "--out", workdir / "base.csv")
    assert rc == 0
    rows = {r["metric"]: float(r["value"])
            for r in read_csv(workdir / "base.csv")}
    assert 5.0 < rows["acc"] < 40.0


BAD_LABELED = {
    "not-object": ("[1, 2]", "not a JSON object"),
    "time-not-string": ('{"text": "in 1990", "time": 1990}', "time must be a string"),
    "doc-text-without-timestamp": ('{"text": "in 1990", "time": "1990", "doc_text": "x"}',
                                   "doc_text needs a doc_timestamp"),
}


@pytest.mark.parametrize("case", sorted(BAD_LABELED))
@pytest.mark.parametrize("command", ["baseline", "finetune"])
def test_labeled_data_rejects_bad_record(workdir, encoder, events, tmp_path, capsys,
                                        command, case):
    bad_line, needle = BAD_LABELED[case]
    good = (workdir / "events.jsonl").read_text().splitlines()[0]
    (tmp_path / "bad.jsonl").write_text(f"{good}\n{bad_line}\n")
    if command == "baseline":
        flags = ["--data", tmp_path / "bad.jsonl", "--trials", 10]
    else:
        flags = ["--train-data", tmp_path / "bad.jsonl",
                 "--checkpoint", encoder,
                 "--vocab", workdir / "vocab.txt"]
    rc = run(command, "--config", workdir / "year.cfg", *flags,
             "--out", tmp_path / "out")
    assert_one_error_line(rc, capsys, "bad.jsonl line 2", needle)


@pytest.mark.parametrize("command", ["finetune", "eval", "ablate"])
def test_labeled_event_outside_the_label_space_is_named(workdir, encoder, events, tuned,
                                                        tmp_path, capsys, command):
    good = (workdir / "events.jsonl").read_text().splitlines()[0]
    (tmp_path / "old.jsonl").write_text(f'{good}\n{{"text": "long ago", "time": "1950"}}\n')
    config = workdir / "year.cfg"
    if command == "finetune":
        flags = ["--train-data", tmp_path / "old.jsonl", "--checkpoint", encoder]
    elif command == "eval":
        flags = ["--data", tmp_path / "old.jsonl", "--checkpoint", workdir / "tuned.ckpt"]
    else:
        config = workdir / "run.cfg"
        flags = ["--tagged", workdir / "tagged.jsonl", "--eval-train", tmp_path / "old.jsonl",
                 "--eval-test", workdir / "events.jsonl", "--eval-start", 1990,
                 "--eval-end", 1994, "--eval-granularity", "year"]
    rc = run(command, "--config", config, *flags,
             "--vocab", workdir / "vocab.txt", "--out", tmp_path / "out")
    assert_one_error_line(rc, capsys, "old.jsonl line 2", "1950 outside [1990, 1994]")


def test_ablate_minimal(workdir, encoder, events):
    events = [json.loads(l) for l in
              (workdir / "events.jsonl").read_text().splitlines()]
    write_jsonl(str(workdir / "ev-train.jsonl"), events[:20])
    write_jsonl(str(workdir / "ev-test.jsonl"), events[20:])
    rc = run("ablate", "--config", workdir / "run.cfg",
             "--tagged", workdir / "tagged.jsonl",
             "--vocab", workdir / "vocab.txt",
             "--eval-train", workdir / "ev-train.jsonl",
             "--eval-test", workdir / "ev-test.jsonl",
             "--eval-start", 1990, "--eval-end", 1994,
             "--eval-granularity", "year",
             "--combinations", "mlm;tamlm,dtp",
             "--out", workdir / "ablation.csv")
    assert rc == 0
    rows = read_csv(workdir / "ablation.csv")
    assert {r["configuration"] for r in rows} == {"mlm", "tamlm+dtp"}


@pytest.mark.parametrize("given, missing", [("--eval-start", "--eval-end"),
                                            ("--eval-end", "--eval-start")])
def test_ablate_eval_bounds_go_together(workdir, encoder, events, tmp_path, capsys,
                                        given, missing):
    rc = run("ablate", "--config", workdir / "run.cfg",
             "--tagged", workdir / "tagged.jsonl",
             "--vocab", workdir / "vocab.txt",
             "--eval-train", workdir / "events.jsonl",
             "--eval-test", workdir / "events.jsonl",
             given, 1994, "--eval-granularity", "year",
             "--out", tmp_path / "ablation.csv")
    assert_one_error_line(rc, capsys, f"missing {missing}:")


def test_ablate_bad_combinations(workdir, encoder, events, tmp_path, capsys):
    rc = run("ablate", "--config", workdir / "run.cfg",
             "--tagged", workdir / "tagged.jsonl",
             "--vocab", workdir / "vocab.txt",
             "--eval-train", workdir / "events.jsonl",
             "--eval-test", workdir / "events.jsonl",
             "--combinations", "mlm;mlm,tamlm",
             "--out", tmp_path / "ablation.csv")
    assert_one_error_line(rc, capsys, "--combinations", "mutually exclusive")


def test_missing_input_is_reported(tmp_path, capsys):
    rc = run("tag", "--corpus", tmp_path / "absent.jsonl",
             "--out", tmp_path / "out.jsonl")
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(chronolm.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "chronolm", "tag",
         "--corpus", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "out.jsonl")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


def test_malformed_corpus_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "a", "timestamp": "2000-01-01", "text": "x"}\n{broken\n')
    rc = run("tag", "--corpus", bad, "--out", tmp_path / "out.jsonl")
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 2" in err
    assert f"{bad} line 2: invalid JSON" in err


def test_non_utf8_input_is_reported(tmp_path, capsys):
    bad = tmp_path / "utf16.jsonl"
    bad.write_bytes('{"id": "a", "timestamp": "2000-01-01", "text": "x"}\n'
                    .encode("utf-16"))
    assert bad.read_bytes().startswith(b"\xff\xfe")
    rc = run("tag", "--corpus", bad, "--out", tmp_path / "out.jsonl")
    assert_one_error_line(rc, capsys, f"{bad}: not UTF-8")


BAD_CONFIGS = {
    "not-utf8": (b"\xff\xfe[run]\nseed = 1\n", "not UTF-8"),
    "setting-before-section": (b"seed = 1\n[run]\n", "line 1"),
    "option-set-twice": (b"[run]\nseed = 1\nseed = 2\n", "line 3"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_unreadable_config_is_reported(case, tmp_path, capsys):
    data, needle = BAD_CONFIGS[case]
    (tmp_path / "bad.cfg").write_bytes(data)
    rc = run("synth", "--config", tmp_path / "bad.cfg", "--start", "1990-01",
             "--end", "1990-12", "--n", 2, "--out", tmp_path / "corpus.jsonl")
    assert_one_error_line(rc, capsys, f"{tmp_path / 'bad.cfg'}", needle)


def test_vocabulary_without_special_tokens_is_reported(workdir, encoder, tmp_path, capsys):
    (tmp_path / "vocab.txt").write_text("the\nof\n")
    rc = run("build-dataset", "--config", workdir / "run.cfg",
             "--tagged", workdir / "tagged.jsonl",
             "--vocab", tmp_path / "vocab.txt",
             "--objectives", "tamlm",
             "--out", tmp_path / "dataset.jsonl")
    assert_one_error_line(rc, capsys, f"{tmp_path / 'vocab.txt'}:", "special tokens")


@pytest.mark.parametrize("argv, flag, functions", [
    (["build-vocab"], "min_freq", [build_vocab]),
    (["baseline"], "trials", [random_guess]),
    (["synth", "--start", "1990", "--end", "1991"], "noise",
     [synth_corpus, synth_events]),
])
def test_flag_defaults_are_the_library_defaults(argv, flag, functions):
    value = getattr(build_parser().parse_args(argv), flag)
    for fn in functions:
        assert value == inspect.signature(fn).parameters[flag].default, fn.__name__


def test_flag_overrides_config_seed(workdir, tmp_path):
    out1 = tmp_path / "s1.jsonl"
    out2 = tmp_path / "s2.jsonl"
    run("synth", "--events", "--n", 10, "--start", 1990, "--end", 1994,
        "--config", workdir / "year.cfg", "--out", out1)
    run("synth", "--events", "--n", 10, "--start", 1990, "--end", 1994,
        "--config", workdir / "year.cfg", "--seed", 99, "--out", out2)
    assert out1.read_text() != out2.read_text()


# Each case ends in one "error:" line naming the flag; an exception that
# escaped main would fail the test with its traceback instead.
BAD_NUMERIC_FLAGS = {
    "synth-n-zero": ("synth", ["--n", 0], "--n 0"),
    "synth-noise-above-one": ("synth", ["--noise", 2], "--noise 2.0"),
    "synth-noise-negative": ("synth", ["--noise", -1], "--noise -1.0"),
    "synth-noise-nan": ("synth", ["--noise", "nan"], "--noise nan"),
    "events-noise-nan": ("synth", ["--events", "--noise", "nan"], "--noise nan"),
    "build-vocab-max-size": ("build-vocab", ["--max-size", 3], "--max-size 3"),
    "build-vocab-min-freq": ("build-vocab", ["--min-freq", -1], "--min-freq -1"),
    "baseline-trials-zero": ("baseline", ["--trials", 0], "--trials 0"),
    "baseline-trials-negative": ("baseline", ["--trials", -2], "--trials -2"),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMERIC_FLAGS))
def test_bad_numeric_flag_is_reported(case, workdir, tmp_path, capsys):
    command, flags, needle = BAD_NUMERIC_FLAGS[case]
    events = tmp_path / "events.jsonl"
    write_jsonl(str(events), [{"id": "e0", "text": "x", "time": "1991"}])
    inputs = {
        "synth": ["--start", "1990", "--end", "1994"],
        "build-vocab": ["--corpus", workdir / "corpus.jsonl"],
        "baseline": ["--config", workdir / "year.cfg", "--data", events],
    }[command]
    if command == "synth" and "--events" not in flags:
        inputs = ["--start", "1990-01", "--end", "1990-12"]
    out = tmp_path / "out"
    rc = run(command, *inputs, *flags, "--out", out)
    assert_one_error_line(rc, capsys, needle)
    assert not out.exists()


# ------------------------------------------------------------ tag under fuzz

_FUZZ_WORDS = ("tomorrow", "yesterday", "today", "next Friday", "last Friday",
               "Monday", "in 3 weeks", "2 days ago", "next year", "last month",
               "in 12 months", "last December", "March 5, 1999", "2000-02-30",
               "1999", "the 1990s", "soon", "ſeptember 1999", "FRİDAY", "yeſterday",
               "ın fıve days", "laſt year", "ſ", "ı", "İ", "-", "\t", "x")
# Mostly the calendar's first and last days, then stamps that fail to parse.
_FUZZ_STAMPS = ("0001-01-01", "0001-01-01", "0001-01-07", "9999-12-31", "9999-12-31",
                "9999-12-25", "2000-02-29", "0000-01-01", "9999-12-32", "1900-02-29",
                "1990-1-1", "")
_WRONG_TYPES = (1, 1.5, True, None, [], {}, ["1990-01-01"])


def _mutated(draw, record: dict) -> str:
    """record as one JSON line, perhaps cut, with a value of the wrong type,
    or missing a field."""
    change = draw(st.sampled_from(("none", "none", "cut", "type", "drop")))
    if change in ("type", "drop"):
        key = draw(st.sampled_from(sorted(record)))
        if change == "type":
            record[key] = draw(st.sampled_from(_WRONG_TYPES))
        else:
            del record[key]
    line = json.dumps(record)
    if change == "cut":
        line = line[:draw(st.integers(0, len(line) - 1))]
    return line


@st.composite
def corpus_files(draw):
    """Corpus JSONL whose lines may be cut, mistyped or missing a field."""
    lines = []
    for i in range(draw(st.integers(1, 3))):
        words = draw(st.lists(st.sampled_from(_FUZZ_WORDS), max_size=6))
        record = {"id": f"d{i}", "timestamp": draw(st.sampled_from(_FUZZ_STAMPS)),
                  "text": draw(st.sampled_from((" ", "", ", "))).join(words)}
        change = draw(st.sampled_from(("none", "none", "cut", "type", "drop")))
        if change in ("type", "drop"):
            key = draw(st.sampled_from(sorted(record)))
            if change == "type":
                record[key] = draw(st.sampled_from(_WRONG_TYPES))
            else:
                del record[key]
        line = json.dumps(record, ensure_ascii=draw(st.booleans()))
        if change == "cut":
            line = line[:draw(st.integers(0, len(line) - 1))]
        lines.append(line)
    return "\n".join(lines) + "\n"


@given(corpus_files())
@settings(max_examples=100, deadline=None)
def test_tag_exits_cleanly_on_fuzzed_corpora(text):
    # Exit 0 with well-formed spans, or exit 1 with one error line; an
    # exception escaping main (a traceback from the command) fails.
    with tempfile.TemporaryDirectory() as tmp:
        corpus, out = os.path.join(tmp, "corpus.jsonl"), os.path.join(tmp, "tagged.jsonl")
        with open(corpus, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["tag", "--corpus", corpus, "--out", out])
        if rc == 0:
            assert err.getvalue() == ""
            with open(out, encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    for e in record["expressions"]:
                        assert record["text"][e["start"]:e["end"]] == e["surface"]
        else:
            lines = err.getvalue().splitlines()
            assert rc == 1 and len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not os.path.exists(out)


# -------------------------------------------- tag -> build-dataset under fuzz

_GLUES = ("", "", " ", ", ", "_", "x", "7")


@st.composite
def glued_corpora(draw):
    """Valid corpora whose texts glue the tagger's surfaces to each other
    and to letters, digits and underscores ("x1999", "1999_soon")."""
    docs = []
    for i in range(draw(st.integers(1, 3))):
        words = draw(st.lists(st.sampled_from(_FUZZ_WORDS), max_size=8))
        text = "".join(w + draw(st.sampled_from(_GLUES)) for w in words)
        stamp = draw(st.sampled_from(("1990-01-01", "1990-06-15", "1990-12-31")))
        docs.append({"id": f"d{i}", "timestamp": stamp, "text": text})
    return docs


@given(glued_corpora())
@settings(max_examples=100, deadline=None)
def test_build_dataset_accepts_what_tag_writes(docs):
    # Every span tag writes covers whole tokens, so the chain never stops
    # with an alignment error (or any other).
    with tempfile.TemporaryDirectory() as tmp:
        path = functools.partial(os.path.join, tmp)
        write_jsonl(path("corpus.jsonl"), docs)
        with open(path("run.cfg"), "w", encoding="utf-8") as fh:
            fh.write(CONFIG)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            for argv in (
                ["tag", "--corpus", path("corpus.jsonl"), "--out", path("tagged.jsonl")],
                ["build-vocab", "--corpus", path("corpus.jsonl"),
                 "--out", path("vocab.txt")],
                ["build-dataset", "--config", path("run.cfg"),
                 "--tagged", path("tagged.jsonl"), "--vocab", path("vocab.txt"),
                 "--objectives", "tamlm,dtp,tir", "--out", path("dataset.jsonl")],
            ):
                assert main(argv) == 0, err.getvalue()


# ------------------------------------------------------- eval under fuzz

_FUZZ_TIMES = ("1990", "1994", "1992-05", "1992-05-03", " 1991 ", "1950", "2100",
               "0000", "1992-13", "1992-02-30", "19x2", "")
_FUZZ_TEXTS = ("the treaty of 1992", "", " ", "unknown words", "1990 1991 1992")


@st.composite
def labeled_files(draw):
    """Labelled-event JSONL whose lines may be cut, mistyped, missing a
    field or carry the optional document fields."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        record = {"text": draw(st.sampled_from(_FUZZ_TEXTS)),
                  "time": draw(st.sampled_from(_FUZZ_TIMES))}
        if draw(st.booleans()):
            record["doc_timestamp"] = draw(st.sampled_from(_FUZZ_TIMES))
        if draw(st.booleans()):
            record["doc_text"] = draw(st.sampled_from(_FUZZ_TEXTS))
        lines.append(_mutated(draw, record))
    return "\n".join(lines) + "\n"


@given(text=labeled_files())
@settings(max_examples=100, deadline=None)
def test_eval_exits_cleanly_on_fuzzed_labeled_data(tiny_inputs, text):
    root = tiny_inputs
    (root / "events.jsonl").write_text(text, encoding="utf-8")
    _exits_cleanly("eval", "--config", root / "year.cfg", "--checkpoint", root / "tuned.ckpt",
                   "--data", root / "events.jsonl", "--vocab", root / "vocab.txt",
                   "--out", root / "results.csv")


# ------------------------- prediction, tagged and dataset JSONL under fuzz


@given(lines=st.lists(st.fixed_dictionaries({"predicted": st.sampled_from(_FUZZ_TIMES),
                                             "gold": st.sampled_from(_FUZZ_TIMES)}),
                      min_size=1, max_size=3),
       granularities=st.sampled_from(("", "year", "month", "day", "day,year", "week", ",")),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_eval_exits_cleanly_on_fuzzed_predictions(tiny_inputs, lines, granularities,
                                                  data):
    root = tiny_inputs
    text = "".join(_mutated(data.draw, record) + "\n" for record in lines)
    (root / "preds.jsonl").write_text(text, encoding="utf-8")
    _exits_cleanly("eval", "--predictions", root / "preds.jsonl",
                   "--granularities", granularities, "--out", root / "results.csv")


# Values an expression field may take: offsets inside and outside the text,
# time strings that do and do not parse, and other JSON types.
_FUZZ_EXPRESSION_VALUES = (-1, 0, 3, 4, 13, 14, 34, 35, 99, "1990", "1992-13", "",
                           "March 1990", "month", *_WRONG_TYPES)


@st.composite
def tagged_files(draw):
    """Tagged JSONL whose expressions may hold odd values, and whose lines
    may be cut, mistyped or missing a field."""
    lines = []
    for i in range(draw(st.integers(1, 3))):
        expressions = [
            {"start": 3, "end": 13, "surface": "March 1990", "normalized": "1990-03",
             "granularity": "month"},
            {"start": 30, "end": 34, "surface": "1992", "normalized": "1992",
             "granularity": "year"},
        ]
        for e in expressions:
            if draw(st.booleans()):
                e[draw(st.sampled_from(sorted(e)))] = draw(
                    st.sampled_from(_FUZZ_EXPRESSION_VALUES))
        record = {"id": f"d{i}", "text": "in March 1990 , the treaty of 1992 .",
                  "timestamp": draw(st.sampled_from(("1990-01-05", "1994-12-31",
                                                     "1995-01-01", "1990-13-01"))),
                  "expressions": expressions}
        lines.append(_mutated(draw, record))
    return "\n".join(lines) + "\n"


@given(text=tagged_files())
@settings(max_examples=100, deadline=None)
def test_build_dataset_exits_cleanly_on_fuzzed_tagged_data(tiny_inputs, text):
    root = tiny_inputs
    (root / "tagged.jsonl").write_text(text, encoding="utf-8")
    _exits_cleanly("build-dataset", "--config", root / "year.cfg",
                   "--tagged", root / "tagged.jsonl", "--vocab", root / "vocab.txt",
                   "--objectives", "tamlm,dtp,tir", "--out", root / "dataset.jsonl")


# A masked example and a tir example over tiny_inputs' vocabulary, and values
# their fields may take instead: ids and labels in and out of range, sequences
# too long for max_len 16, slots that do and do not fit.
_DATASET_LINES = (
    {"doc_id": "d0", "input_ids": [2, 5, 6, 7, 8, 3],
     "mlm_labels": [-100, -100, 6, -100, -100, -100], "dtp_label": 2},
    {"doc_id": "d1", "input_ids": [2, 8, 3, 5, 6, 7, 10, 3], "slots": [[5, 7, 1]]},
)
_FUZZ_DATASET_VALUES = (
    "d2", "", 0, 4, 5, -1, 11, [], [2, 3], [2, 11, 3], [2, -1, 3], [2] + [5] * 20 + [3],
    [-100, -100, -100], [[1, 2, 0]], [[0, 1, 0]], [[5, 8, 1]], [[5, 7, 2]], [[5, 7]],
    *_WRONG_TYPES,
)


@given(records=st.lists(st.sampled_from(_DATASET_LINES), min_size=1, max_size=3),
       learning_rate=st.sampled_from(("1e-3", "1e30")), data=st.data())
@settings(max_examples=100, deadline=None)
def test_pretrain_exits_cleanly_on_fuzzed_datasets(tiny_inputs, records, learning_rate,
                                                  data):
    root = tiny_inputs
    lines = []
    for record in records:
        record = json.loads(json.dumps(record))
        if data.draw(st.booleans()):
            record[data.draw(st.sampled_from(sorted(record)))] = data.draw(
                st.sampled_from(_FUZZ_DATASET_VALUES))
        lines.append(_mutated(data.draw, record))
    (root / "dataset.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (root / "train.cfg").write_text(
        YEAR_CONFIG + "\n[model]\nd_model = 8\nn_layers = 1\nn_heads = 2\nd_ff = 16\n"
        "max_len = 16\n[train]\nepochs = 2\nbatch_size = 2\n"
        f"learning_rate = {learning_rate}\n")
    _exits_cleanly("pretrain", "--config", root / "train.cfg",
                   "--dataset", root / "dataset.jsonl", "--vocab", root / "vocab.txt",
                   "--objectives", "tamlm,dtp,tir", "--out", root / "pretrained.ckpt")
