"""The encoder network: explicit forward and backward passes in numpy.

A pre-norm transformer encoder (learned position embeddings, GELU
feed-forward, residual dropout) with three prediction heads: per-position
vocabulary logits, a timestamp classifier over the first position, and a
two-way judgment over concatenated boundary states.  Backward passes are
hand-written; gradients are exact and checked against finite differences.

Cross-entropy sums are returned unreduced together with their counts, so a
caller can normalize over a whole gradient-accumulation group and make
accumulated steps match concatenated-batch steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..corpus import PAD
from ..errors import SequenceTooLong, UnknownTokenId
from ..objectives import IGNORE_INDEX
from .config import ModelConfig

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715
_NEG_BIG = -1e9


# The cube is spelled out as multiplies: numpy's float32 ``x ** 3`` goes
# through pow and is about 100x slower than ``x * x * x``.
#
# The elementwise kernels below allocate their own few buffers and update
# them in place.  Each keeps the operation order of the plain expression in
# its first comment (c = sqrt(2 / pi), G = _GELU_C), so its results are
# bit-identical to that expression's.  None of them writes into its
# arguments.


def gelu(x: np.ndarray) -> np.ndarray:
    # 0.5 * x * (1 + tanh(c * (x + G * x * x * x)))
    t = x * x
    t *= x
    t *= _GELU_C
    t += x
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    t += 1.0
    out = x * 0.5
    out *= t
    return out


def gelu_grad(x: np.ndarray) -> np.ndarray:
    # 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * c * (1 + 3 * G * x * x),
    # with t = tanh(c * (x + G * x * x * x))
    x2 = x * x
    t = x2 * x
    t *= _GELU_C
    t += x
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    sech2 = t * t
    np.subtract(1.0, sech2, out=sech2)
    out = x * 0.5
    out *= sech2
    out *= _SQRT_2_OVER_PI
    x2 *= 3.0 * _GELU_C
    x2 += 1.0
    out *= x2
    t += 1.0
    t *= 0.5
    out += t
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    # exp(x - max) / sum(exp(x - max))
    out = x - x.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


_LN_EPS = 1e-5


def layer_norm_fwd(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    # xhat = (x - mean) / sqrt(var + eps); y = g * xhat + b
    xhat = x - x.mean(axis=-1, keepdims=True)
    y = xhat * xhat
    inv = y.mean(axis=-1, keepdims=True)
    inv += _LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    np.multiply(xhat, g, out=y)
    y += b
    return y, (xhat, inv, g)


def layer_norm_bwd(dy: np.ndarray, cache):
    # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)),
    # with dxhat = dy * g
    xhat, inv, g = cache
    d = xhat.shape[-1]
    tmp = dy * xhat
    dg = tmp.reshape(-1, d).sum(axis=0)
    db = dy.reshape(-1, d).sum(axis=0)
    dx = dy * g
    np.multiply(dx, xhat, out=tmp)
    proj = tmp.mean(axis=-1, keepdims=True)
    np.multiply(xhat, proj, out=tmp)
    dx -= dx.mean(axis=-1, keepdims=True)
    dx -= tmp
    dx *= inv
    return dx, dg, db


def _dropout_mask(rng: np.random.Generator, shape, prob: float, dtype) -> np.ndarray:
    # Inverted dropout: surviving activations are scaled up at train time.
    # (rng.random(shape) >= prob) / (1 - prob), the draws in float64.
    keep = np.empty(shape, dtype=dtype)
    np.greater_equal(rng.random(shape), prob, out=keep, casting="unsafe")
    keep /= dtype.type(1.0 - prob)
    return keep


@dataclass
class EncoderCache:
    ids: np.ndarray
    key_bias: np.ndarray
    emb_drop: Optional[np.ndarray]
    layers: list[dict]
    ln_f: tuple


def validate_ids(cfg: ModelConfig, ids: np.ndarray) -> None:
    if ids.ndim != 2:
        raise ValueError("ids must be a (batch, length) array")
    if ids.shape[1] > cfg.max_len:
        raise SequenceTooLong(f"length {ids.shape[1]} exceeds max_len {cfg.max_len}")
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise UnknownTokenId("token id outside the vocabulary")


def encoder_forward(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    ids: np.ndarray,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
):
    """Hidden states for a padded id batch.

    Padding positions act only through attention masking; their own hidden
    states are computed but carry no loss.  Returns (hidden, cache).

    Inside, the hidden stream is token-major, (batch * length, d_model), so
    every dense projection is a single 2-D GEMM; only attention works on
    (batch, heads, length, head_dim) views.
    """
    validate_ids(cfg, ids)
    if train and cfg.dropout > 0.0 and rng is None:
        raise ValueError("training with dropout requires an rng")
    dtype = params["emb.tok"].dtype
    B, L = ids.shape
    N, D = B * L, cfg.d_model
    nh = cfg.n_heads
    dh = D // nh
    scale = dtype.type(1.0 / math.sqrt(dh))
    dropout = train and cfg.dropout > 0.0

    # Additive attention bias: padding keys are pushed to effectively -inf.
    key_bias = np.where(ids == PAD, dtype.type(_NEG_BIG), dtype.type(0.0))
    key_bias = key_bias[:, None, None, :]

    h = params["emb.tok"][ids]
    h += params["emb.pos"][:L]
    h = h.reshape(N, D)
    emb_drop = None
    if dropout:
        emb_drop = _dropout_mask(rng, h.shape, cfg.dropout, h.dtype)
        h *= emb_drop

    def heads(x: np.ndarray) -> np.ndarray:
        # (N, D) -> (B, nh, L, dh)
        return x.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)

    layers = []
    for i in range(cfg.n_layers):
        p = f"layer{i}."
        cache: dict = {}

        a, cache["ln1"] = layer_norm_fwd(h, params[p + "ln1.g"], params[p + "ln1.b"])
        cache["a"] = a
        q = a @ params[p + "attn.wq"]
        q += params[p + "attn.bq"]
        k = a @ params[p + "attn.wk"]
        k += params[p + "attn.bk"]
        v = a @ params[p + "attn.wv"]
        v += params[p + "attn.bv"]
        q, k, v = heads(q), heads(k), heads(v)
        scores = q @ k.transpose(0, 1, 3, 2)
        scores *= scale
        scores += key_bias
        probs = softmax(scores, axis=-1)
        ctx2 = (probs @ v).transpose(0, 2, 1, 3).reshape(N, D)
        o = ctx2 @ params[p + "attn.wo"]
        o += params[p + "attn.bo"]
        cache.update(q=q, k=k, v=v, probs=probs, ctx2=ctx2)
        if dropout:
            cache["attn_drop"] = _dropout_mask(rng, o.shape, cfg.dropout, h.dtype)
            o *= cache["attn_drop"]
        h += o

        a2, cache["ln2"] = layer_norm_fwd(h, params[p + "ln2.g"], params[p + "ln2.b"])
        cache["a2"] = a2
        z = a2 @ params[p + "ffn.w1"]
        z += params[p + "ffn.b1"]
        u = gelu(z)
        f = u @ params[p + "ffn.w2"]
        f += params[p + "ffn.b2"]
        cache.update(z=z, u=u)
        if dropout:
            cache["ffn_drop"] = _dropout_mask(rng, f.shape, cfg.dropout, h.dtype)
            f *= cache["ffn_drop"]
        h += f
        layers.append(cache)

    out, ln_f_cache = layer_norm_fwd(h, params["ln_f.g"], params["ln_f.b"])
    return out.reshape(B, L, D), EncoderCache(ids, key_bias, emb_drop, layers, ln_f_cache)


def encoder_backward(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    cache: EncoderCache,
    dh: np.ndarray,
) -> dict[str, np.ndarray]:
    """Parameter gradients given the gradient at the final hidden states.

    dh has the (batch, length, d_model) shape of the forward's hidden
    states; neither it nor the cache is modified.
    """
    dtype = params["emb.tok"].dtype
    grads: dict[str, np.ndarray] = {}
    B, L = cache.ids.shape
    N, D = B * L, cfg.d_model
    nh = cfg.n_heads
    dh_dim = D // nh
    scale = dtype.type(1.0 / math.sqrt(dh_dim))

    def tokens(x: np.ndarray) -> np.ndarray:
        # (B, nh, L, dh) -> (N, D)
        return x.transpose(0, 2, 1, 3).reshape(N, D)

    # dstream is a fresh buffer from here on, so it is updated in place.
    dstream, grads["ln_f.g"], grads["ln_f.b"] = layer_norm_bwd(
        dh.reshape(N, D), cache.ln_f)

    for i in reversed(range(cfg.n_layers)):
        p = f"layer{i}."
        c = cache.layers[i]

        df = dstream * c["ffn_drop"] if "ffn_drop" in c else dstream
        du = df @ params[p + "ffn.w2"].T
        grads[p + "ffn.w2"] = c["u"].T @ df
        grads[p + "ffn.b2"] = df.sum(axis=0)
        dz = gelu_grad(c["z"])
        dz *= du
        da2 = dz @ params[p + "ffn.w1"].T
        grads[p + "ffn.w1"] = c["a2"].T @ dz
        grads[p + "ffn.b1"] = dz.sum(axis=0)
        dres, grads[p + "ln2.g"], grads[p + "ln2.b"] = layer_norm_bwd(da2, c["ln2"])
        dstream += dres

        do = dstream * c["attn_drop"] if "attn_drop" in c else dstream
        dctx2 = do @ params[p + "attn.wo"].T
        grads[p + "attn.wo"] = c["ctx2"].T @ do
        grads[p + "attn.bo"] = do.sum(axis=0)
        dctx = dctx2.reshape(B, L, nh, dh_dim).transpose(0, 2, 1, 3)
        probs = c["probs"]
        dv = probs.transpose(0, 1, 3, 2) @ dctx
        # Softmax backward: p * (dp - sum(dp * p)), in place over dp.
        dscores = dctx @ c["v"].transpose(0, 1, 3, 2)
        dscores -= (dscores * probs).sum(axis=-1, keepdims=True)
        dscores *= probs
        dq = dscores @ c["k"]
        dq *= scale
        dk = dscores.transpose(0, 1, 3, 2) @ c["q"]
        dk *= scale
        dq, dk, dv = tokens(dq), tokens(dk), tokens(dv)
        for name, dout in (("q", dq), ("k", dk), ("v", dv)):
            grads[p + f"attn.w{name}"] = c["a"].T @ dout
            grads[p + f"attn.b{name}"] = dout.sum(axis=0)
        da = dq @ params[p + "attn.wq"].T
        da += dk @ params[p + "attn.wk"].T
        da += dv @ params[p + "attn.wv"].T
        dres, grads[p + "ln1.g"], grads[p + "ln1.b"] = layer_norm_bwd(da, c["ln1"])
        dstream += dres

    if cache.emb_drop is not None:
        dstream *= cache.emb_drop

    grads["emb.pos"] = np.zeros_like(params["emb.pos"])
    grads["emb.pos"][:L] = dstream.reshape(B, L, D).sum(axis=0)
    grads["emb.tok"] = np.zeros_like(params["emb.tok"])
    np.add.at(grads["emb.tok"], cache.ids.reshape(N), dstream)
    return grads


def _ce_rows(logits: np.ndarray, labels: np.ndarray):
    """Summed cross entropy and the softmax gradient for one-hot targets."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    rows = np.arange(logits.shape[0])
    ce_sum = float(-logp[rows, labels].sum())
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    return ce_sum, dlogits


@dataclass
class Batch:
    """A padded batch over one example kind.

    slots rows are (example, boundary_left, boundary_right, label).
    dtp_labels uses -1 for examples without a timestamp label; cls_labels
    feeds the fine-tuned classifier head the same way.
    """

    ids: np.ndarray
    mlm_labels: Optional[np.ndarray] = None
    dtp_labels: Optional[np.ndarray] = None
    slots: Optional[np.ndarray] = None
    cls_labels: Optional[np.ndarray] = None

    def counts(self) -> dict[str, int]:
        """Item count per head that has items in this batch."""
        return {name: len(labels) for name, _, labels in _head_items(self)}


def _head_items(batch: Batch) -> list[tuple[str, list, np.ndarray]]:
    """What each head reads from the hidden states, in head order.

    For every head with items in the batch: its name, the (example,
    position) index arrays whose hidden states are concatenated into one
    feature row per item, and the items' labels.  mlm reads each masked
    position; dtp and cls read position 0 of each labelled example; tir
    reads the left and then the right boundary of each slot.
    """
    items = []
    if batch.mlm_labels is not None:
        ex, pos = np.nonzero(batch.mlm_labels != IGNORE_INDEX)
        items.append(("mlm", [(ex, pos)], batch.mlm_labels[ex, pos]))
    for name, labels in (("dtp", batch.dtp_labels), ("cls", batch.cls_labels)):
        if labels is not None:
            ex = np.flatnonzero(labels >= 0)
            items.append((name, [(ex, np.zeros_like(ex))], labels[ex]))
    if batch.slots is not None:
        ex, left, right, labels = batch.slots.T
        items.append(("tir", [(ex, left), (ex, right)], labels))
    return [item for item in items if len(item[2])]


def batch_losses(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    batch: Batch,
    denoms: Optional[dict[str, float]] = None,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
    want_grads: bool = True,
):
    """Forward (and optionally backward) over one batch.

    Returns (parts, grads) where parts maps component name to a
    (cross-entropy sum, item count) pair.  Gradients are of the quantity
    sum(component sums / denoms[component]); denoms defaults to this
    batch's own counts, which yields plain mean losses.
    """
    hidden, cache = encoder_forward(params, cfg, batch.ids, train, rng)
    items = _head_items(batch)
    if denoms is None:
        denoms = {name: float(len(labels)) for name, _, labels in items}

    parts: dict[str, tuple[float, int]] = {}
    dh = np.zeros_like(hidden) if want_grads else None
    grads: dict[str, np.ndarray] = {}
    d = cfg.d_model
    for name, index, labels in items:
        w, b = params[f"head.{name}.w"], params[f"head.{name}.b"]
        feats = np.concatenate([hidden[ex, pos] for ex, pos in index], axis=-1)
        ce_sum, dlogits = _ce_rows(feats @ w + b, labels)
        parts[name] = (ce_sum, len(labels))
        if want_grads:
            dlogits = dlogits.astype(hidden.dtype) / hidden.dtype.type(denoms[name])
            grads[f"head.{name}.w"] = feats.T @ dlogits
            grads[f"head.{name}.b"] = dlogits.sum(axis=0)
            dfeats = dlogits @ w.T
            for j, (ex, pos) in enumerate(index):
                np.add.at(dh, (ex, pos), dfeats[:, j * d:(j + 1) * d])

    if want_grads:
        grads.update(encoder_backward(params, cfg, cache, dh))
        # Heads absent from this batch contribute zero gradient.
        for name, p in params.items():
            if name not in grads:
                grads[name] = np.zeros_like(p)
    return parts, grads
