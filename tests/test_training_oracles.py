"""Whole training runs in the flat arena against the loops they replaced.

pretrain and finetune keep parameters, gradients and AdamW moments in flat
buffers; oracles.AdamState and oracles.run_step are the per-tensor
optimizer and accumulation loop they replaced.  Swapping those two into
chronolm.model.training gives the reference run, which must write the
same parameter bytes and loss rows.
"""

import dataclasses
import functools

import numpy as np
import pytest

from chronolm.corpus import CLS, SEP, build_vocab
from chronolm.errors import NonFiniteGradient
from chronolm.model import (
    EncoderCheckpoint,
    ModelConfig,
    TrainConfig,
    finetune,
    init_params,
    optim,
    parameter_count,
    pretrain,
    training,
)
from chronolm.objectives import (
    Objective,
    PretrainExample,
    build_labelspace,
    example_provider,
)
from chronolm.synth import synth_corpus
from chronolm.temporal import Granularity, TimePoint, annotate
from chronolm.util import rng_from

import oracles


@pytest.fixture(scope="module")
def corpus():
    space = build_labelspace(TimePoint(1990, 1), TimePoint(1990, 12),
                             Granularity.MONTH)
    docs = synth_corpus(16, space, seed=7)
    vocab = build_vocab(docs, max_size=4096, include_timestamps=True)
    tagged = [(d, annotate(d.text, d.timestamp)) for d in docs]
    return space, vocab, tagged


def model_config(vocab, space, dtp=True):
    # Large enough that the arena spans several AdamW blocks, the last one
    # partial.
    return ModelConfig(vocab_size=vocab.size, max_len=64, d_model=64,
                       n_layers=1, n_heads=2, d_ff=128, dropout=0.1,
                       k_dtp=space.size if dtp else None, seed=3)


def reference(monkeypatch):
    """The per-tensor optimizer and accumulation loop, for this context."""
    monkeypatch.setattr(training, "AdamState", oracles.AdamState)
    monkeypatch.setattr(training, "_run_step", functools.partial(
        oracles.run_step, batch_losses=training.batch_losses,
        error=NonFiniteGradient))


def assert_same_run(got, want):
    (ckpt, log), (want_ckpt, want_log) = got, want
    assert log == want_log
    assert ckpt.params.keys() == want_ckpt.params.keys()
    for name, p in want_ckpt.params.items():
        assert ckpt.params[name].dtype == p.dtype, name
        assert ckpt.params[name].tobytes() == p.tobytes(), name


def initial(cfg, vocab, dtype):
    return EncoderCheckpoint(cfg, init_params(cfg, dtype=dtype),
                             vocab.content_hash(), vocab)


def some_without_timestamp(provider):
    """Every third masked example loses its timestamp label, so the dtp
    head is absent from some micro-batches of a group."""
    def build(epoch):
        return [dataclasses.replace(e, dtp_label=None)
                if isinstance(e, PretrainExample) and i % 3 == 0 else e
                for i, e in enumerate(provider(epoch))]
    return build


OBJECTIVE_SETS = {
    "tamlm,dtp,tir": {Objective.TAMLM, Objective.DTP, Objective.TIR},
    "mlm": {Objective.MLM},
    "tir": {Objective.TIR},
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("accumulation", [1, 3])
@pytest.mark.parametrize("objectives", sorted(OBJECTIVE_SETS))
def test_pretrain_matches_per_tensor_loop(corpus, monkeypatch, objectives,
                                          accumulation, weight_decay, dtype):
    space, vocab, tagged = corpus
    objectives = frozenset(OBJECTIVE_SETS[objectives])
    cfg = model_config(vocab, space, dtp=Objective.DTP in objectives)
    n = parameter_count(cfg)
    assert n > optim.BLOCK and n % optim.BLOCK
    train_cfg = TrainConfig(learning_rate=3e-3, batch_size=2,
                            grad_accumulation=accumulation, epochs=2,
                            weight_decay=weight_decay, objectives=objectives)
    for seed in (0, 5):
        dataset = some_without_timestamp(example_provider(
            tagged, vocab, objectives, space, seed=seed, max_len=cfg.max_len))
        start = initial(cfg, vocab, dtype)
        got = pretrain(dataset, vocab, cfg, train_cfg, seed=seed, initial=start)
        with monkeypatch.context() as m:
            reference(m)
            want = pretrain(dataset, vocab, cfg, train_cfg, seed=seed,
                            initial=start)
        assert_same_run(got, want)
        assert got[1][-1][0] > 4  # optimizer steps
    fresh = initial(cfg, vocab, dtype)
    assert all(np.array_equal(start.params[k], p) for k, p in fresh.params.items())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("accumulation", [1, 3])
def test_finetune_matches_per_tensor_loop(corpus, monkeypatch, accumulation,
                                          weight_decay, dtype):
    space, vocab, _ = corpus
    cfg = model_config(vocab, space)
    train_cfg = TrainConfig(learning_rate=3e-3, batch_size=3,
                            grad_accumulation=accumulation, epochs=2,
                            weight_decay=weight_decay)
    for seed in (1, 4):
        gen = rng_from(seed, "records")
        records = [((CLS, *gen.integers(5, vocab.size, size=int(gen.integers(1, 9))), SEP),
                    int(gen.integers(0, 4)))
                   for _ in range(17)]
        base = initial(cfg, vocab, dtype)
        got = finetune(base, records, 4, train_cfg, seed=seed)
        with monkeypatch.context() as m:
            reference(m)
            want = finetune(base, records, 4, train_cfg, seed=seed)
        assert_same_run(got, want)


@pytest.mark.parametrize("head", ["head.dtp.w", "head.tir.w"])
def test_non_finite_gradient_names_the_same_tensor(corpus, monkeypatch, head):
    # An infinite weight in the timestamp head spoils the first micro-batch
    # of a group; one in the replacement head spoils only a later one, which
    # adds into the gradient row after the first.
    space, vocab, tagged = corpus
    objectives = frozenset(OBJECTIVE_SETS["tamlm,dtp,tir"])
    cfg = model_config(vocab, space)
    train_cfg = TrainConfig(learning_rate=3e-3, batch_size=2, grad_accumulation=2,
                            epochs=1, objectives=objectives)
    dataset = example_provider(tagged, vocab, objectives, space, seed=2,
                               max_len=cfg.max_len)
    start = initial(cfg, vocab, np.float32)
    start.params[head][0, 0] = np.inf
    messages = []
    for run_reference in (False, True):
        with monkeypatch.context() as m:
            if run_reference:
                reference(m)
            with pytest.raises(NonFiniteGradient) as caught, np.errstate(all="ignore"):
                pretrain(dataset, vocab, cfg, train_cfg, seed=2, initial=start)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("step 1 (epoch 0, docs ")
    assert messages[0].endswith(" is not finite")
