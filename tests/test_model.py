"""Encoder forward/backward, optimizer behavior, checkpoints, training."""

import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from chronolm.corpus import CLS, MASK, PAD, SEP, SPECIAL_TOKENS, Vocab
from chronolm.errors import (
    LabelOutOfRange,
    MalformedRecord,
    NonFiniteGradient,
    SequenceTooLong,
    UnknownTokenId,
    VocabMismatch,
)
from chronolm.model import (
    AdamState,
    Batch,
    EncoderCheckpoint,
    ModelConfig,
    TrainConfig,
    adamw_step,
    batch_losses,
    classify,
    encode,
    encode_batch,
    finetune,
    grad_check,
    init_params,
    load_checkpoint,
    parameter_count,
    parameter_shapes,
    predict_dtp,
    prepare_labeled,
    pretrain,
    save_checkpoint,
    text_input_ids,
    LabeledExample,
)
from chronolm.model.gradcheck import TINY_CONFIG
from chronolm.model.network import (
    _dropout_mask,
    encoder_backward,
    encoder_forward,
    gelu,
    gelu_grad,
    layer_norm_bwd,
    layer_norm_fwd,
    softmax,
)
from chronolm.objectives import (
    IGNORE_INDEX,
    LabelSpace,
    Objective,
    PretrainExample,
    build_labelspace,
)
from chronolm.temporal import Granularity, TimePoint
from chronolm.util import rng_from

import oracles


def small_config(**kw):
    base = dict(vocab_size=32, max_len=16, d_model=16, n_layers=2,
                n_heads=2, d_ff=32, dropout=0.0, k_dtp=5, seed=1)
    base.update(kw)
    return ModelConfig(**base)


# ---------------------------------------------------------- parameter count

def test_parameter_count_matches_shapes():
    for cfg in (
        small_config(),
        small_config(k_dtp=None),
        small_config(n_layers=1, k_cls=7),
        ModelConfig(vocab_size=100, max_len=32, d_model=24, n_layers=3,
                    n_heads=4, d_ff=48, dropout=0.1, k_dtp=12, k_cls=3),
    ):
        shapes = parameter_shapes(cfg)
        total = sum(int(np.prod(s)) for s in shapes.values())
        assert parameter_count(cfg) == total
        params = init_params(cfg)
        assert set(params) == set(shapes)
        for name, shape in shapes.items():
            assert params[name].shape == tuple(shape)


def test_init_biases_zero_gains_one():
    params = init_params(small_config())
    assert not params["layer0.attn.bq"].any()
    assert (params["layer0.ln1.g"] == 1.0).all()
    assert (params["ln_f.b"] == 0.0).all()


def test_init_deterministic_per_seed():
    a = init_params(small_config(seed=3))
    b = init_params(small_config(seed=3))
    c = init_params(small_config(seed=4))
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


# ----------------------------------------------------------------- encoder

def test_encoder_shapes_and_pad_invariance():
    cfg = small_config()
    params = init_params(cfg)
    ids = np.array([[CLS, 7, 8, SEP, PAD, PAD]])
    hidden, _ = encoder_forward(params, cfg, ids)
    assert hidden.shape == (1, 6, cfg.d_model)
    # padding on the right never changes earlier positions
    longer = np.array([[CLS, 7, 8, SEP, PAD, PAD, PAD, PAD]])
    hidden2, _ = encoder_forward(params, cfg, longer)
    np.testing.assert_allclose(hidden[0, :4], hidden2[0, :4], atol=1e-5)


# Sixteen float32 ulps at 1: the spread a few float32 operations can leave.
F32_TOL = 16 * float(np.finfo(np.float32).eps)


def gelu_reference(x):
    # The tanh form in float64, with the cube as pow.
    inner = math.sqrt(2.0 / math.pi) * (x + 0.044715 * np.power(x, 3))
    return 0.5 * x * (1.0 + np.tanh(inner))


def test_gelu_matches_float64_reference():
    x = np.linspace(-10.0, 10.0, 20001).astype(np.float32)
    y, _ = gelu(x)
    assert y.dtype == np.float32
    np.testing.assert_allclose(y, gelu_reference(x.astype(np.float64)),
                               rtol=F32_TOL, atol=F32_TOL)


def test_gelu_grad_matches_central_difference():
    x = np.linspace(-10.0, 10.0, 20001).astype(np.float32)
    x64 = x.astype(np.float64)
    h = 1e-5
    numeric = (gelu_reference(x64 + h) - gelu_reference(x64 - h)) / (2 * h)
    g = gelu_grad(x, gelu(x)[1])
    assert g.dtype == np.float32
    np.testing.assert_allclose(g, numeric, rtol=F32_TOL, atol=F32_TOL)


def test_gelu_kernels_bit_exact_to_plain_expressions():
    ramp = np.linspace(-10.0, 10.0, 20001).astype(np.float32)
    rows = (rng_from(0, "gelu").standard_normal((64, 128)) * 3).astype(np.float32)
    for x in (ramp, rows):
        before = x.copy()
        y, t = gelu(x)
        assert np.array_equal(y, oracles.gelu(x))
        assert np.array_equal(gelu_grad(x, t), oracles.gelu_grad(x))
        assert np.array_equal(x, before)


def test_softmax_bit_exact_and_leaves_input_unchanged():
    x = (rng_from(0, "softmax").standard_normal((2, 2, 7, 7)) * 4).astype(np.float32)
    x[..., -2:] += np.float32(-1e9)
    before = x.copy()
    for axis in (-1, 2):
        assert np.array_equal(softmax(x, axis=axis), oracles.softmax(x, axis=axis))
    assert np.array_equal(x, before)


def test_layer_norm_bit_exact_to_plain_expressions():
    rng = rng_from(0, "layer-norm")
    for shape in ((60, 128), (4, 15, 128), (3, 16)):
        x = rng.uniform(-10.0, 10.0, shape).astype(np.float32)
        g = rng.uniform(0.5, 1.5, shape[-1]).astype(np.float32)
        b = rng.uniform(-1.0, 1.0, shape[-1]).astype(np.float32)
        dy = rng.standard_normal(shape).astype(np.float32)
        inputs = [a.copy() for a in (x, g, b, dy)]
        y, cache = layer_norm_fwd(x, g, b)
        y_ref, cache_ref = oracles.layer_norm_fwd(x, g, b)
        assert np.array_equal(y, y_ref)
        for got, want in zip(cache, cache_ref):
            assert np.array_equal(got, want)
        for got, want in zip(layer_norm_bwd(dy, cache),
                             oracles.layer_norm_bwd(dy, cache_ref)):
            assert got.dtype == np.float32
            assert np.array_equal(got, want)
        for a, before in zip((x, g, b, dy), inputs):
            assert np.array_equal(a, before)


def test_dropout_mask_bit_exact_to_plain_expression():
    for prob in (0.1, 0.15, 0.5):
        got = _dropout_mask(rng_from(0, "mask"), (7, 33), prob, np.dtype(np.float32))
        want = oracles.dropout_mask(rng_from(0, "mask"), (7, 33), prob,
                                    np.dtype(np.float32))
        assert got.dtype == np.float32
        assert np.array_equal(got, want)


def _train_forward(cfg, params, ids):
    return encoder_forward(params, cfg, ids, train=True, rng=rng_from(0, "mutation"))


def _cache_arrays(cache):
    arrays = [cache.ids, cache.key_bias, cache.emb_drop, *cache.ln_f]
    for layer in cache.layers:
        for value in layer.values():
            arrays += list(value) if isinstance(value, tuple) else [value]
    return arrays


def test_encoder_forward_leaves_params_and_ids_unchanged():
    cfg = small_config(dropout=0.1)
    params = init_params(cfg)
    saved = {k: p.copy() for k, p in params.items()}
    ids = np.array([[CLS, 7, 8, SEP, PAD], [CLS, 9, 10, 11, SEP]])
    ids_before = ids.copy()
    _train_forward(cfg, params, ids)
    encoder_forward(params, cfg, ids)
    assert np.array_equal(ids, ids_before)
    for name, p in params.items():
        assert np.array_equal(p, saved[name]), name


def test_encoder_backward_leaves_dh_and_cache_unchanged():
    cfg = small_config(dropout=0.1)
    params = init_params(cfg)
    ids = np.array([[CLS, 7, 8, SEP, PAD], [CLS, 9, 10, 11, SEP]])
    hidden, cache = _train_forward(cfg, params, ids)
    dh = rng_from(0, "dh").standard_normal(hidden.shape).astype(np.float32)
    dh_before = dh.copy()
    cache_before = [a.copy() for a in _cache_arrays(cache)]
    first = encoder_backward(params, cfg, cache, dh)
    second = encoder_backward(params, cfg, cache, dh)
    assert np.array_equal(dh, dh_before)
    for got, before in zip(_cache_arrays(cache), cache_before):
        assert np.array_equal(got, before)
    assert set(first) == set(second) == set(params) - {
        n for n in params if n.startswith("head.")}
    for name in first:
        assert np.array_equal(first[name], second[name]), name


def test_encoder_keeps_float32_in_every_cache_array_and_gradient():
    cfg = small_config(dropout=0.1)
    params = init_params(cfg, dtype=np.float32)
    ids = np.array([[CLS, 7, 8, SEP, PAD], [CLS, 9, 10, 11, SEP]])
    hidden, cache = encoder_forward(params, cfg, ids, train=True,
                                    rng=rng_from(0, "dtype"))
    arrays = [("hidden", hidden), ("key_bias", cache.key_bias),
              ("emb_drop", cache.emb_drop)]
    arrays += [(f"ln_f[{j}]", a) for j, a in enumerate(cache.ln_f)]
    for i, layer in enumerate(cache.layers):
        for key, value in layer.items():
            parts = value if isinstance(value, tuple) else (value,)
            arrays += [(f"layer{i}.{key}[{j}]", a) for j, a in enumerate(parts)]
    assert len(arrays) > 20
    for name, a in arrays:
        assert a.dtype == np.float32, name
    grads = encoder_backward(params, cfg, cache, np.ones_like(hidden))
    for name, g in grads.items():
        assert g.dtype == np.float32, name


def test_backward_of_a_cache_less_forward_is_refused():
    cfg = small_config()
    params = init_params(cfg)
    ids = np.array([[CLS, 7, 8, SEP, PAD], [CLS, 9, 10, 11, SEP]])
    for rows in (None, np.array([0, 5])):
        hidden, cache = encoder_forward(params, cfg, ids, rows=rows, keep_cache=False)
        with pytest.raises(ValueError, match="keep_cache"):
            encoder_backward(params, cfg, cache, np.ones_like(hidden))


def test_encoder_rejects_bad_inputs():
    cfg = small_config()
    params = init_params(cfg)
    with pytest.raises(SequenceTooLong):
        encoder_forward(params, cfg, np.full((1, cfg.max_len + 1), CLS))
    with pytest.raises(UnknownTokenId):
        encoder_forward(params, cfg, np.array([[CLS, cfg.vocab_size, SEP]]))


def test_uniform_logits_give_log_k_losses():
    # zeroed output heads produce uniform distributions
    cfg = small_config(vocab_size=8, k_dtp=246)
    params = init_params(cfg)
    for name in ("head.mlm.w", "head.mlm.b", "head.dtp.w", "head.dtp.b",
                 "head.tir.w", "head.tir.b"):
        params[name][:] = 0.0
    ids = np.array([[CLS, 5, 6, SEP]])
    labels = np.full_like(ids, IGNORE_INDEX)
    labels[0, 1] = 7
    batch = Batch(ids=ids, mlm_labels=labels)
    parts, _ = batch_losses(params, cfg, batch, want_grads=False)
    ce, count = parts["mlm"]
    assert count == 1
    assert math.isclose(ce, math.log(8), rel_tol=1e-6)

    batch = Batch(ids=ids, dtp_labels=np.array([100]))
    parts, _ = batch_losses(params, cfg, batch, want_grads=False)
    ce, count = parts["dtp"]
    assert math.isclose(ce, math.log(246), rel_tol=1e-6)

    batch = Batch(ids=ids, slots=np.array([[0, 1, 3, 1]]))
    parts, _ = batch_losses(params, cfg, batch, want_grads=False)
    ce, count = parts["tir"]
    assert math.isclose(ce, math.log(2), rel_tol=1e-6)


def _random_head_batches(cfg, rng):
    """One mlm+dtp, one tir and one cls batch with random padding and labels."""
    B, L = int(rng.integers(1, 5)), int(rng.integers(5, 11))
    ids = rng.integers(len(SPECIAL_TOKENS), cfg.vocab_size, size=(B, L))
    ids[:, 0] = CLS
    for i in range(B):
        end = int(rng.integers(3, L))
        ids[i, end] = SEP
        ids[i, end + 1:] = PAD
    labels = np.where(rng.random((B, L)) < 0.3,
                      rng.integers(0, cfg.vocab_size, size=(B, L)), IGNORE_INDEX)
    labels[:, 0] = IGNORE_INDEX
    dtp = rng.integers(-1, cfg.k_dtp, size=B)
    slots = [[int(rng.integers(B)), left, int(rng.integers(left + 1, L)),
              int(rng.integers(2))]
             for left in rng.integers(1, L - 1, size=int(rng.integers(1, 5)))]
    # Repeated boundaries: a duplicated slot and one starting at another's end.
    slots.append(list(slots[0]))
    if slots[0][2] < L - 1:
        slots.append([slots[0][0], slots[0][2], L - 1, 1])
    cls = rng.integers(-1, cfg.k_cls, size=B)
    return [Batch(ids=ids, mlm_labels=labels, dtp_labels=dtp),
            Batch(ids=ids, slots=np.array(slots, dtype=np.int64)),
            Batch(ids=ids, cls_labels=cls)]


def _read_rows(batch):
    """Flat (example * length + position) indices of every row a head reads."""
    L = batch.ids.shape[1]
    read = set()
    if batch.mlm_labels is not None:
        read |= {int(e) * L + int(p)
                 for e, p in zip(*np.nonzero(batch.mlm_labels != IGNORE_INDEX))}
    for labels in (batch.dtp_labels, batch.cls_labels):
        if labels is not None:
            read |= {int(e) * L for e in np.flatnonzero(labels >= 0)}
    if batch.slots is not None:
        for e, left, right, _ in batch.slots:
            read |= {int(e) * L + int(left), int(e) * L + int(right)}
    return np.array(sorted(read), dtype=np.int64)


def _row_encoder_pair(rows):
    """encoder_forward/backward over rows only, shaped like the full pair.

    The forward scatters the rows into an otherwise zero (B, L, D) hidden;
    the backward gathers dh at the rows.
    """
    def forward(params, cfg, ids, train, rng):
        part, cache = encoder_forward(params, cfg, ids, train, rng, rows=rows)
        hidden = np.zeros((ids.size, cfg.d_model), dtype=part.dtype)
        hidden[rows] = part
        return hidden.reshape(*ids.shape, cfg.d_model), cache

    def backward(params, cfg, cache, dh):
        return encoder_backward(params, cfg, cache,
                                dh.reshape(-1, cfg.d_model)[rows])

    return forward, backward


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("train", [False, True])
def test_head_table_matches_four_block_oracle(dtype, train):
    cfg = small_config(dropout=0.1, k_cls=6)
    params = init_params(cfg, dtype=dtype)
    shake = rng_from(5, "shake")
    for p in params.values():
        p += shake.normal(0.0, 0.05, size=p.shape).astype(dtype)
    for seed in range(10):
        for batch in _random_head_batches(cfg, rng_from(seed, "heads")):
            counts = {k: v for k, v in oracles.batch_counts(batch).items() if v}
            assert batch.counts() == counts
            for denoms in (None, {k: 2.0 * v + 1 for k, v in counts.items()}):
                parts, grads = batch_losses(
                    params, cfg, batch, denoms=denoms, train=train,
                    rng=rng_from(seed, "drop"))
                want_parts, want_grads = oracles.batch_losses(
                    params, cfg, batch, *_row_encoder_pair(_read_rows(batch)),
                    denoms=denoms, train=train, rng=rng_from(seed, "drop"))
                assert list(parts.items()) == list(want_parts.items())
                assert grads.keys() == want_grads.keys()
                for name in want_grads:
                    assert grads[name].dtype == want_grads[name].dtype, name
                    assert np.array_equal(grads[name], want_grads[name]), name


@pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-10)])
@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("n_layers", [2, 1, 0])
def test_row_pruned_heads_match_full_encoder(dtype, rtol, train, n_layers):
    # The last layer runs on the rows the heads read; the full encoder runs
    # on every row.  Only GEMM rounding may tell the two apart.  With no
    # layers, the rows are picked before ln_f.
    cfg = small_config(dropout=0.1, k_cls=6, n_layers=n_layers)
    params = init_params(cfg, dtype=dtype)
    shake = rng_from(5, "shake")
    for p in params.values():
        p += shake.normal(0.0, 0.05, size=p.shape).astype(dtype)
    for seed in range(10):
        for batch in _random_head_batches(cfg, rng_from(seed, "heads")):
            parts, grads = batch_losses(params, cfg, batch, train=train,
                                        rng=rng_from(seed, "drop"))
            want_parts, want_grads = oracles.batch_losses(
                params, cfg, batch, encoder_forward, encoder_backward,
                train=train, rng=rng_from(seed, "drop"))
            assert parts.keys() == want_parts.keys()
            for name, (ce, count) in want_parts.items():
                assert parts[name][1] == count
                assert math.isclose(parts[name][0], ce, rel_tol=rtol)
            assert grads.keys() == want_grads.keys()
            # Some gradients, such as the key biases', are zero up to
            # rounding, so the absolute floor follows the largest gradient.
            scale = max(np.abs(g).max() for g in want_grads.values())
            for name, want in want_grads.items():
                assert grads[name].dtype == want.dtype, name
                np.testing.assert_allclose(grads[name], want, rtol=rtol,
                                           atol=rtol * scale, err_msg=name)


def test_batch_without_head_items_gives_zero_gradients():
    cfg = small_config(dropout=0.1)
    params = init_params(cfg)
    ids = np.array([[CLS, 7, 8, SEP, PAD], [CLS, 9, 10, 11, SEP]])
    for batch in (Batch(ids=ids, slots=np.zeros((0, 4), dtype=np.int64)),
                  Batch(ids=ids, mlm_labels=np.full_like(ids, IGNORE_INDEX)),
                  Batch(ids=ids, dtp_labels=np.array([-1, -1]))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parts, grads = batch_losses(params, cfg, batch, train=True,
                                        rng=rng_from(0, "empty"))
        _, want = oracles.batch_losses(
            params, cfg, batch, encoder_forward, encoder_backward,
            train=True, rng=rng_from(0, "empty"))
        assert parts == {}
        assert grads.keys() == want.keys() == params.keys()
        for name, g in grads.items():
            assert not g.any(), name
            assert np.array_equal(g, want[name]), name


def test_batch_losses_adds_into_out():
    # out holds running sums: a second call into the same arrays doubles
    # every gradient, and the heads the batch lacks keep their zeros.
    cfg = small_config(k_cls=6)
    params = init_params(cfg, dtype=np.float64)
    batch = _random_head_batches(cfg, rng_from(3, "heads"))[0]
    _, once = batch_losses(params, cfg, batch)
    out = {name: np.zeros_like(p) for name, p in params.items()}
    for _ in range(2):
        _, grads = batch_losses(params, cfg, batch, out=out)
    assert grads.keys() == params.keys()
    assert all(grads[name] is out[name] for name in params)
    for name in params:
        assert np.array_equal(out[name], 2 * once[name]), name
    assert out["head.mlm.w"].any() and out["head.dtp.w"].any()
    absent = [name for name in params if name.startswith(("head.tir", "head.cls"))]
    assert absent and not any(out[name].any() for name in absent)


def test_classify_matches_full_forward_argmax():
    vocab, _ = tiny_vocab_and_examples()
    cfg = ModelConfig(vocab_size=vocab.size, max_len=8, d_model=16,
                      n_layers=2, n_heads=2, d_ff=32, k_dtp=5, k_cls=4, seed=3)
    params = init_params(cfg)
    shake = rng_from(1, "shake")
    for p in params.values():
        p += shake.normal(0.0, 0.5, size=p.shape).astype(p.dtype)
    ckpt = EncoderCheckpoint(cfg, params, vocab.content_hash(), vocab)
    gen = rng_from(2, "sequences")
    sequences = [(CLS, *gen.integers(len(SPECIAL_TOKENS), vocab.size,
                                     size=int(gen.integers(1, 7))), SEP)
                 for _ in range(23)]
    for head, predict in (("cls", classify), ("dtp", predict_dtp)):
        want = []
        for start in range(0, len(sequences), 5):
            chunk = sequences[start:start + 5]
            ids = np.full((len(chunk), max(map(len, chunk))), PAD)
            for i, seq in enumerate(chunk):
                ids[i, :len(seq)] = seq
            hidden, _ = encoder_forward(params, cfg, ids)
            logits = hidden[:, 0] @ params[f"head.{head}.w"] + params[f"head.{head}.b"]
            want += list(np.argmax(logits, axis=-1))
        got = predict(ckpt, sequences, batch_size=5)
        assert list(got) == want
        assert len(set(want)) > 1


def test_encode_batch_returns_every_position():
    vocab, _ = tiny_vocab_and_examples()
    cfg = ModelConfig(vocab_size=vocab.size, max_len=8, d_model=16,
                      n_layers=2, n_heads=2, d_ff=32, seed=3)
    ckpt = EncoderCheckpoint.fresh(cfg, vocab)
    sequences = [(CLS, 5, 6, 7, SEP), (CLS, 8, SEP), (CLS, 6, 5, SEP)]
    ids = np.array([[CLS, 5, 6, 7, SEP], [CLS, 8, SEP, PAD, PAD],
                    [CLS, 6, 5, SEP, PAD]])
    hidden, _ = encoder_forward(ckpt.params, cfg, ids)
    got = encode_batch(ckpt, sequences, batch_size=3)
    assert [g.shape for g in got] == [(5, 16), (3, 16), (4, 16)]
    for i, g in enumerate(got):
        assert np.array_equal(g, hidden[i, :len(sequences[i])])
    alone, _ = encoder_forward(ckpt.params, cfg, ids[:1])
    assert np.array_equal(encode(ckpt, sequences[0]), alone[0])


# ------------------------------------------------- cache-less forwards

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_layers", [0, 1, 2])
@pytest.mark.parametrize("length", [1, 5, 16])
def test_cache_less_forward_is_bit_identical(dtype, n_layers, length):
    # Streaming the layers must not move a single bit of the hidden states.
    cfg = small_config(n_layers=n_layers, dropout=0.1)
    params = init_params(cfg, dtype=dtype)
    shake = rng_from(5, "shake")
    for p in params.values():
        p += shake.normal(0.0, 0.3, size=p.shape).astype(dtype)
    gen = rng_from(length, "ids")
    ids = gen.integers(len(SPECIAL_TOKENS), cfg.vocab_size, size=(7, length))
    for b, n in enumerate(gen.integers(1, length + 1, size=7)):
        ids[b, n:] = PAD
    some = np.unique(gen.integers(0, ids.size, size=6))
    for rows, train in itertools.product(
            (None, np.arange(0, ids.size, length), some), (False, True)):
        want, _ = encoder_forward(params, cfg, ids, train, rng_from(0, "drop"), rows)
        got, cache = encoder_forward(params, cfg, ids, train, rng_from(0, "drop"), rows,
                                     keep_cache=False)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert cache.layers == [] and cache.ln_f is None


def test_cache_less_forward_holds_one_layer_at_a_time():
    # A d128, 2-layer forward over a 64 x 11 chunk, as eval runs it: the
    # cached forward's peak holds layer 0's whole cache, the streamed one's
    # does not.
    cfg = ModelConfig(vocab_size=64, max_len=16, d_model=128, n_layers=2,
                      n_heads=4, d_ff=512, seed=1)
    params = init_params(cfg)
    ids = rng_from(0, "ids").integers(len(SPECIAL_TOKENS), cfg.vocab_size, size=(64, 11))

    def peak(keep_cache):
        tracemalloc.start()
        try:
            _, cache = encoder_forward(params, cfg, ids, keep_cache=keep_cache)
            return tracemalloc.get_traced_memory()[1], cache
        finally:
            tracemalloc.stop()

    cached, cache = peak(True)
    streamed, _ = peak(False)
    ids_of_params = {id(p) for p in params.values()}
    layer = sum(a.nbytes for value in cache.layers[0].values()
                for a in (value if isinstance(value, tuple) else (value,))
                if id(a) not in ids_of_params)
    assert layer > 5_000_000
    assert cached - streamed >= layer


# ---------------------------------------------------------- gradient checks

def test_grad_check_joint_tamlm_dtp():
    err = grad_check(objectives=(Objective.TAMLM, Objective.DTP))
    assert err < 1e-4


def test_grad_check_tir_path():
    err = grad_check(objectives=(Objective.TIR,))
    assert err < 1e-4


def test_grad_check_mlm_only():
    err = grad_check(objectives=(Objective.MLM,))
    assert err < 1e-4


def test_grad_check_zero_layer_encoder():
    # Embeddings straight into the final layer norm: the heads' rows are
    # picked (and scattered back) outside the layer loop.
    err = grad_check(config=dataclasses.replace(TINY_CONFIG, n_layers=0))
    assert err < 1e-4


# ------------------------------------------------------------------- AdamW

def test_adamw_first_step_size():
    # with g = 1 everywhere, bias correction makes the first update
    # exactly lr / (1 + eps)
    cfg = TrainConfig(learning_rate=0.1, objectives=frozenset({Objective.MLM}))
    params = {"w": np.zeros(4, dtype=np.float64)}
    grads = {"w": np.ones(4, dtype=np.float64)}
    state = AdamState.for_params(params)
    params, state = adamw_step(params, grads, state, cfg)
    expected = -0.1 / (1.0 + cfg.adam_eps)
    np.testing.assert_allclose(params["w"], expected, rtol=1e-12)


def test_adamw_decoupled_decay_on_zero_grads():
    cfg = TrainConfig(learning_rate=0.01, weight_decay=0.1,
                      objectives=frozenset({Objective.MLM}))
    params = {"w": np.full(3, 2.0)}
    grads = {"w": np.zeros(3)}
    state = AdamState.for_params(params)
    params, state = adamw_step(params, grads, state, cfg)
    np.testing.assert_allclose(params["w"], 2.0 * (1 - 0.01 * 0.1), rtol=1e-7)


def test_adamw_rejects_non_finite():
    cfg = TrainConfig(learning_rate=0.01, objectives=frozenset({Objective.MLM}))
    params = {"w": np.zeros(2)}
    grads = {"w": np.array([1.0, np.nan])}
    state = AdamState.for_params(params)
    with pytest.raises(NonFiniteGradient):
        adamw_step(params, grads, state, cfg)


def test_adamw_step_counter_advances():
    cfg = TrainConfig(learning_rate=0.01, objectives=frozenset({Objective.MLM}))
    params = {"w": np.zeros(2)}
    state = AdamState.for_params(params)
    for expected_step in (1, 2, 3):
        params, state = adamw_step(params, {"w": np.ones(2)}, state, cfg)
        assert state.step == expected_step


# --------------------------------------------- gradient accumulation law

def test_accumulation_equals_concatenation():
    """k micro-batches with group denominators step like one big batch."""
    cfg = small_config(dropout=0.0)
    rng = rng_from(17)
    ids = np.array([
        [CLS, 6, MASK, 8, SEP, PAD],
        [CLS, 9, 10, MASK, 11, SEP],
        [CLS, MASK, 12, SEP, PAD, PAD],
        [CLS, 13, MASK, 14, 15, SEP],
    ])
    labels = np.full_like(ids, IGNORE_INDEX)
    labels[0, 2] = 7
    labels[1, 3] = 20
    labels[2, 1] = 21
    labels[3, 2] = 22
    dtp = np.array([0, 3, 2, 4])

    def params64():
        p = init_params(cfg, dtype=np.float64)
        return {k: v.copy() for k, v in p.items()}

    whole = Batch(ids=ids, mlm_labels=labels, dtp_labels=dtp)
    denoms = whole.counts()

    train_cfg = TrainConfig(learning_rate=1e-3, weight_decay=0.01,
                            objectives=frozenset({Objective.TAMLM,
                                                  Objective.DTP}))

    # one step on the concatenated batch
    p1 = params64()
    _, g1 = batch_losses(p1, cfg, whole, denoms=denoms)
    s1 = AdamState.for_params(p1)
    p1, _ = adamw_step(p1, g1, s1, train_cfg)

    # same step accumulated over two micro-batches
    p2 = params64()
    acc = {k: np.zeros_like(v) for k, v in p2.items()}
    for sl in (slice(0, 2), slice(2, 4)):
        micro = Batch(ids=ids[sl], mlm_labels=labels[sl], dtp_labels=dtp[sl])
        _, g = batch_losses(p2, cfg, micro, denoms=denoms)
        for k in acc:
            acc[k] += g[k]
    s2 = AdamState.for_params(p2)
    p2, _ = adamw_step(p2, acc, s2, train_cfg)

    for k in p1:
        np.testing.assert_allclose(p1[k], p2[k], rtol=1e-9, atol=1e-12,
                                   err_msg=k)


# -------------------------------------------------------------- checkpoints

def make_vocab(n_extra=27):
    return Vocab(SPECIAL_TOKENS + tuple(f"w{i}" for i in range(n_extra)))


def test_checkpoint_round_trip_bytes(tmp_path):
    vocab = make_vocab()
    cfg = small_config(vocab_size=vocab.size)
    ckpt = EncoderCheckpoint.fresh(cfg, vocab)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(ckpt, str(p1))
    loaded = load_checkpoint(str(p1), vocab=vocab)
    save_checkpoint(loaded, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    wide = load_checkpoint(str(p1), vocab=vocab, dtype=np.float64)
    for k in ckpt.params:
        np.testing.assert_array_equal(ckpt.params[k],
                                      loaded.params[k].astype(np.float32))
        assert loaded.params[k].flags.writeable
        assert wide.params[k].dtype == np.float64
        np.testing.assert_array_equal(wide.params[k], loaded.params[k])


def test_checkpoint_vocab_hash_guard(tmp_path):
    vocab = make_vocab()
    other = Vocab(SPECIAL_TOKENS + tuple(f"x{i}" for i in range(27)))
    cfg = small_config(vocab_size=vocab.size)
    ckpt = EncoderCheckpoint.fresh(cfg, vocab)
    path = tmp_path / "c.ckpt"
    save_checkpoint(ckpt, str(path))
    with pytest.raises(VocabMismatch):
        load_checkpoint(str(path), vocab=other)


def test_checkpoint_truncation_detected(tmp_path):
    vocab = make_vocab()
    ckpt = EncoderCheckpoint.fresh(small_config(vocab_size=vocab.size), vocab)
    path = tmp_path / "d.ckpt"
    save_checkpoint(ckpt, str(path))
    data = path.read_bytes()
    end = data.index(b"\n") + 1
    for name in sorted(ckpt.params):  # the manifest's order
        start, end = end, end + ckpt.params[name].nbytes
        # Cut where the tensor starts, and inside its last float.
        for cut in (start, end - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(MalformedRecord, match=f"truncated tensor {name}$"):
                load_checkpoint(str(path), vocab=vocab)
    assert end == len(data)
    path.write_bytes(data + b"\0")
    with pytest.raises(MalformedRecord, match="trailing bytes after manifest$"):
        load_checkpoint(str(path), vocab=vocab)


def _edit_header(path, edit):
    header_line, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(header_line)
    edit(header)
    line = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(line + b"\n" + body)


def test_checkpoint_manifest_checked_against_config(tmp_path):
    vocab = make_vocab()
    ckpt = EncoderCheckpoint.fresh(small_config(vocab_size=vocab.size, n_layers=1), vocab)
    path = tmp_path / "e.ckpt"
    save_checkpoint(ckpt, str(path))
    _edit_header(path, lambda h: h["config"].update(n_layers=2))
    with pytest.raises(MalformedRecord, match="layer1.attn.bk"):
        load_checkpoint(str(path), vocab=vocab)

    save_checkpoint(ckpt, str(path))
    _edit_header(path, lambda h: h["manifest"][0].__setitem__(1, [8, 16]))
    with pytest.raises(MalformedRecord, match="emb.pos"):
        load_checkpoint(str(path), vocab=vocab)

    save_checkpoint(ckpt, str(path))
    _edit_header(path, lambda h: h["config"].update(colour="red"))
    with pytest.raises(MalformedRecord):
        load_checkpoint(str(path), vocab=vocab)


def test_checkpoint_rejects_non_finite_tensor(tmp_path):
    vocab = make_vocab()
    ckpt = EncoderCheckpoint.fresh(small_config(vocab_size=vocab.size), vocab)
    ckpt.params["layer0.ffn.w1"][3, 4] = np.nan
    path = tmp_path / "f.ckpt"
    save_checkpoint(ckpt, str(path))
    with pytest.raises(MalformedRecord, match="layer0.ffn.w1"):
        load_checkpoint(str(path), vocab=vocab)


def test_checkpoint_reports_the_first_bad_tensor(tmp_path):
    # A non-finite value ahead of the cut tensor is reported; one inside it
    # is not.
    vocab = make_vocab()
    ckpt = EncoderCheckpoint.fresh(small_config(vocab_size=vocab.size), vocab)
    last = sorted(ckpt.params)[-1]
    ckpt.params["emb.pos"][0, 0] = np.inf
    ckpt.params[last][0] = np.nan
    path = tmp_path / "g.ckpt"
    for message in ("tensor emb.pos has non-finite values", f"truncated tensor {last}"):
        save_checkpoint(ckpt, str(path))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(MalformedRecord, match=f"{message}$"):
            load_checkpoint(str(path), vocab=vocab)
        ckpt.params["emb.pos"][0, 0] = 0.0


# ---------------------------------------------------------------- training

def tiny_vocab_and_examples():
    vocab = make_vocab(11)
    examples = []
    for i in range(8):
        ids = (CLS, 5 + i % 4, MASK, 7, SEP)
        labels = (IGNORE_INDEX, IGNORE_INDEX, 6, IGNORE_INDEX, IGNORE_INDEX)
        examples.append(PretrainExample(f"d{i}", ids, labels, dtp_label=i % 3))
    return vocab, examples


def test_pretrain_runs_and_logs():
    vocab, examples = tiny_vocab_and_examples()
    cfg = ModelConfig(vocab_size=vocab.size, max_len=8, d_model=8,
                      n_layers=1, n_heads=2, d_ff=16, dropout=0.0,
                      k_dtp=3, seed=0)
    train_cfg = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2,
                            objectives=frozenset({Objective.TAMLM,
                                                  Objective.DTP}))
    ckpt, log = pretrain(examples, vocab, cfg, train_cfg, seed=0)
    assert ckpt.config.k_dtp == 3
    steps = sorted({row[0] for row in log})
    assert steps == [1, 2, 3, 4]  # 8 examples / batch 4, 2 epochs
    names = {row[1] for row in log}
    assert names == {"tamlm", "dtp"}
    assert all(np.isfinite(row[2]) for row in log)


def test_pretrain_peak_memory_in_parameter_rows():
    # The parameters dominate: the peak is the arena's four rows (parameters,
    # gradient, two moments) plus the initial parameters copied into them.
    vocab = make_vocab(20_000 - len(SPECIAL_TOKENS))
    cfg = ModelConfig(vocab_size=vocab.size, max_len=8, d_model=64,
                      n_layers=1, n_heads=2, d_ff=128, seed=0)
    examples = [PretrainExample(f"d{i}", (CLS, 5 + i, MASK, 7, SEP),
                                (IGNORE_INDEX, IGNORE_INDEX, 6, IGNORE_INDEX,
                                 IGNORE_INDEX))
                for i in range(4)]
    train_cfg = TrainConfig(learning_rate=1e-3, batch_size=1,
                            grad_accumulation=2, epochs=1,
                            objectives=frozenset({Objective.MLM}))
    tracemalloc.start()
    try:
        pretrain(examples, vocab, cfg, train_cfg, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    row = parameter_count(cfg) * np.dtype(np.float32).itemsize
    assert peak < 5.5 * row


def test_pretrain_zero_epochs_copies_initialization():
    vocab, examples = tiny_vocab_and_examples()
    cfg = ModelConfig(vocab_size=vocab.size, max_len=8, d_model=8,
                      n_layers=1, n_heads=2, d_ff=16, dropout=0.0,
                      k_dtp=3, seed=0)
    train_cfg = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=0,
                            objectives=frozenset({Objective.TAMLM}))
    ckpt, log = pretrain(examples, vocab, cfg, train_cfg, seed=0)
    assert log == []
    fresh = EncoderCheckpoint.fresh(cfg, vocab)
    assert set(ckpt.params) == set(fresh.params)
    assert all(np.array_equal(ckpt.params[k], fresh.params[k])
               for k in fresh.params)


def test_pretrain_deterministic():
    vocab, examples = tiny_vocab_and_examples()
    cfg = ModelConfig(vocab_size=vocab.size, max_len=8, d_model=8,
                      n_layers=1, n_heads=2, d_ff=16, dropout=0.1,
                      k_dtp=3, seed=0)
    train_cfg = TrainConfig(learning_rate=1e-3, batch_size=4, epochs=2,
                            objectives=frozenset({Objective.TAMLM,
                                                  Objective.DTP}))
    a, la = pretrain(examples, vocab, cfg, train_cfg, seed=5)
    b, lb = pretrain(examples, vocab, cfg, train_cfg, seed=5)
    assert la == lb
    assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
    c, lc = pretrain(examples, vocab, cfg, train_cfg, seed=6)
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


def test_pretrain_training_reduces_loss():
    vocab, examples = tiny_vocab_and_examples()
    cfg = ModelConfig(vocab_size=vocab.size, max_len=8, d_model=16,
                      n_layers=1, n_heads=2, d_ff=32, dropout=0.0,
                      k_dtp=3, seed=0)
    train_cfg = TrainConfig(learning_rate=3e-3, batch_size=8, epochs=30,
                            objectives=frozenset({Objective.TAMLM,
                                                  Objective.DTP}))
    _, log = pretrain(examples, vocab, cfg, train_cfg, seed=1)
    first = np.mean([v for s, n, v in log if s <= 2])
    last = np.mean([v for s, n, v in log if s >= max(r[0] for r in log) - 1])
    assert last < first * 0.7


def test_pretrain_names_the_step_of_a_non_finite_gradient():
    vocab, examples = tiny_vocab_and_examples()
    cfg = ModelConfig(vocab_size=vocab.size, max_len=8, d_model=8,
                      n_layers=1, n_heads=2, d_ff=16, dropout=0.0,
                      k_dtp=3, seed=0)
    initial = EncoderCheckpoint.fresh(cfg, vocab)
    initial.params["emb.tok"][CLS, 0] = np.nan
    train_cfg = TrainConfig(learning_rate=1e-3, batch_size=2, grad_accumulation=2,
                            epochs=1, objectives=frozenset({Objective.TAMLM,
                                                            Objective.DTP}))
    with pytest.raises(NonFiniteGradient) as caught:
        pretrain(examples, vocab, cfg, train_cfg, seed=0, initial=initial)
    message = str(caught.value)
    prefix, _, rest = message.partition("): ")
    assert prefix.startswith("step 1 (epoch 0, docs ")
    docs = prefix[len("step 1 (epoch 0, docs "):].split(", ")
    order = rng_from(0, "order", 0).permutation(len(examples))
    assert docs == [examples[i].doc_id for i in order[:4]]
    assert rest.startswith("gradient for ") and rest.endswith(" is not finite")


def test_finetune_names_the_step_of_a_non_finite_gradient():
    vocab, _ = tiny_vocab_and_examples()
    cfg = ModelConfig(vocab_size=vocab.size, max_len=8, d_model=8,
                      n_layers=1, n_heads=2, d_ff=16, dropout=0.0, seed=0)
    base = EncoderCheckpoint.fresh(cfg, vocab)
    base.params["emb.tok"][CLS, 0] = np.nan
    train_cfg = TrainConfig(learning_rate=1e-3, batch_size=2, epochs=1,
                            objectives=frozenset())
    with pytest.raises(NonFiniteGradient, match=r"^step 1 \(epoch 0\): gradient for "):
        finetune(base, [((CLS, 5, SEP), 1), ((CLS, 6, SEP), 0)], n_classes=3,
                 train_cfg=train_cfg)


def test_finetune_adds_head_and_learns_constant():
    vocab, _ = tiny_vocab_and_examples()
    cfg = ModelConfig(vocab_size=vocab.size, max_len=8, d_model=16,
                      n_layers=1, n_heads=2, d_ff=32, dropout=0.0, seed=0)
    base = EncoderCheckpoint.fresh(cfg, vocab)
    records = [((CLS, 5, SEP), 1), ((CLS, 6, SEP), 1), ((CLS, 7, SEP), 1)]
    train_cfg = TrainConfig(learning_rate=5e-3, batch_size=3, epochs=40,
                            objectives=frozenset())
    tuned, log = finetune(base, records, n_classes=3, train_cfg=train_cfg)
    assert tuned.config.k_cls == 3
    from chronolm.model import classify
    picks = classify(tuned, [ids for ids, _ in records])
    assert list(picks) == [1, 1, 1]


def test_finetune_rejects_out_of_range_labels():
    vocab, _ = tiny_vocab_and_examples()
    cfg = ModelConfig(vocab_size=vocab.size, max_len=8, d_model=8,
                      n_layers=1, n_heads=2, d_ff=16, dropout=0.0, seed=0)
    base = EncoderCheckpoint.fresh(cfg, vocab)
    train_cfg = TrainConfig(learning_rate=1e-3, objectives=frozenset())
    with pytest.raises(LabelOutOfRange):
        finetune(base, [((CLS, 5, SEP), 4)], n_classes=3, train_cfg=train_cfg)


def test_prepare_labeled_truncates_to_space_granularity():
    vocab = Vocab(SPECIAL_TOKENS + ("treaty", "of", "1994", "the"))
    space = build_labelspace(TimePoint(1990), TimePoint(1999), Granularity.YEAR)
    ex = LabeledExample("the treaty of 1994", TimePoint(1994, 6, 2))
    (ids, label), = prepare_labeled([ex], space, vocab, 16)
    assert label == 4
    assert ids[0] == CLS and ids[-1] == SEP


def test_text_input_ids_unknown_maps_to_unk():
    vocab = Vocab(SPECIAL_TOKENS + ("hello",))
    ids = text_input_ids("hello stranger", vocab)
    assert ids == (CLS, 5, 1, SEP)
