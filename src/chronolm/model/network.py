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


def gelu(x: np.ndarray) -> np.ndarray:
    inner = _SQRT_2_OVER_PI * (x + _GELU_C * (x * x * x))
    return 0.5 * x * (1.0 + np.tanh(inner))


def gelu_grad(x: np.ndarray) -> np.ndarray:
    x2 = x * x
    inner = _SQRT_2_OVER_PI * (x + _GELU_C * (x2 * x))
    t = np.tanh(inner)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _SQRT_2_OVER_PI * (
        1.0 + 3.0 * _GELU_C * x2
    )


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


_LN_EPS = 1e-5


def layer_norm_fwd(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + _LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def layer_norm_bwd(dy: np.ndarray, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).reshape(-1, xhat.shape[-1]).sum(axis=0)
    db = dy.reshape(-1, xhat.shape[-1]).sum(axis=0)
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


def _dropout_mask(rng: np.random.Generator, shape, prob: float, dtype) -> np.ndarray:
    # Inverted dropout: surviving activations are scaled up at train time.
    keep = (rng.random(shape) >= prob).astype(dtype)
    return keep / dtype.type(1.0 - prob)


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
    """
    validate_ids(cfg, ids)
    if train and cfg.dropout > 0.0 and rng is None:
        raise ValueError("training with dropout requires an rng")
    dtype = params["emb.tok"].dtype
    B, L = ids.shape
    nh = cfg.n_heads
    dh = cfg.d_model // nh
    scale = dtype.type(1.0 / math.sqrt(dh))

    # Additive attention bias: padding keys are pushed to effectively -inf.
    key_bias = np.where(ids == PAD, dtype.type(_NEG_BIG), dtype.type(0.0))
    key_bias = key_bias[:, None, None, :]

    h = params["emb.tok"][ids] + params["emb.pos"][:L]
    emb_drop = None
    if train and cfg.dropout > 0.0:
        emb_drop = _dropout_mask(rng, h.shape, cfg.dropout, h.dtype)
        h = h * emb_drop

    layers = []
    for i in range(cfg.n_layers):
        p = f"layer{i}."
        cache: dict = {}

        a, cache["ln1"] = layer_norm_fwd(h, params[p + "ln1.g"], params[p + "ln1.b"])
        cache["a"] = a
        q = a @ params[p + "attn.wq"] + params[p + "attn.bq"]
        k = a @ params[p + "attn.wk"] + params[p + "attn.bk"]
        v = a @ params[p + "attn.wv"] + params[p + "attn.bv"]
        # (B, L, D) -> (B, nh, L, dh)
        q = q.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
        k = k.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
        v = v.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale + key_bias
        probs = softmax(scores, axis=-1)
        ctx = probs @ v
        ctx2 = ctx.transpose(0, 2, 1, 3).reshape(B, L, cfg.d_model)
        o = ctx2 @ params[p + "attn.wo"] + params[p + "attn.bo"]
        cache.update(q=q, k=k, v=v, probs=probs, ctx2=ctx2)
        if train and cfg.dropout > 0.0:
            cache["attn_drop"] = _dropout_mask(rng, o.shape, cfg.dropout, h.dtype)
            o = o * cache["attn_drop"]
        h = h + o

        a2, cache["ln2"] = layer_norm_fwd(h, params[p + "ln2.g"], params[p + "ln2.b"])
        cache["a2"] = a2
        z = a2 @ params[p + "ffn.w1"] + params[p + "ffn.b1"]
        u = gelu(z)
        f = u @ params[p + "ffn.w2"] + params[p + "ffn.b2"]
        cache.update(z=z, u=u)
        if train and cfg.dropout > 0.0:
            cache["ffn_drop"] = _dropout_mask(rng, f.shape, cfg.dropout, h.dtype)
            f = f * cache["ffn_drop"]
        h = h + f
        layers.append(cache)

    out, ln_f_cache = layer_norm_fwd(h, params["ln_f.g"], params["ln_f.b"])
    return out, EncoderCache(ids, key_bias, emb_drop, layers, ln_f_cache)


def encoder_backward(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    cache: EncoderCache,
    dh: np.ndarray,
) -> dict[str, np.ndarray]:
    """Parameter gradients given the gradient at the final hidden states."""
    dtype = params["emb.tok"].dtype
    grads: dict[str, np.ndarray] = {}
    B, L = cache.ids.shape
    nh = cfg.n_heads
    dh_dim = cfg.d_model // nh
    scale = dtype.type(1.0 / math.sqrt(dh_dim))

    dstream, grads["ln_f.g"], grads["ln_f.b"] = layer_norm_bwd(dh, cache.ln_f)

    for i in reversed(range(cfg.n_layers)):
        p = f"layer{i}."
        c = cache.layers[i]

        df = dstream
        if "ffn_drop" in c:
            df = df * c["ffn_drop"]
        du = df @ params[p + "ffn.w2"].T
        grads[p + "ffn.w2"] = c["u"].reshape(-1, cfg.d_ff).T @ df.reshape(-1, cfg.d_model)
        grads[p + "ffn.b2"] = df.reshape(-1, cfg.d_model).sum(axis=0)
        dz = du * gelu_grad(c["z"])
        da2 = dz @ params[p + "ffn.w1"].T
        grads[p + "ffn.w1"] = c["a2"].reshape(-1, cfg.d_model).T @ dz.reshape(-1, cfg.d_ff)
        grads[p + "ffn.b1"] = dz.reshape(-1, cfg.d_ff).sum(axis=0)
        dres, grads[p + "ln2.g"], grads[p + "ln2.b"] = layer_norm_bwd(da2, c["ln2"])
        dstream = dstream + dres

        do = dstream
        if "attn_drop" in c:
            do = do * c["attn_drop"]
        dctx2 = do @ params[p + "attn.wo"].T
        grads[p + "attn.wo"] = (
            c["ctx2"].reshape(-1, cfg.d_model).T @ do.reshape(-1, cfg.d_model)
        )
        grads[p + "attn.bo"] = do.reshape(-1, cfg.d_model).sum(axis=0)
        dctx = dctx2.reshape(B, L, nh, dh_dim).transpose(0, 2, 1, 3)
        dprobs = dctx @ c["v"].transpose(0, 1, 3, 2)
        dv = c["probs"].transpose(0, 1, 3, 2) @ dctx
        # Softmax backward: p * (dp - sum(dp * p)).
        dscores = c["probs"] * (
            dprobs - (dprobs * c["probs"]).sum(axis=-1, keepdims=True)
        )
        dq = (dscores @ c["k"]) * scale
        dk = (dscores.transpose(0, 1, 3, 2) @ c["q"]) * scale
        dq = dq.transpose(0, 2, 1, 3).reshape(B, L, cfg.d_model)
        dk = dk.transpose(0, 2, 1, 3).reshape(B, L, cfg.d_model)
        dv = dv.transpose(0, 2, 1, 3).reshape(B, L, cfg.d_model)
        a2d = c["a"].reshape(-1, cfg.d_model)
        da = np.zeros_like(c["a"])
        for name, dout in (("wq", dq), ("wk", dk), ("wv", dv)):
            grads[p + f"attn.{name}"] = a2d.T @ dout.reshape(-1, cfg.d_model)
            grads[p + "attn.b" + name[1]] = dout.reshape(-1, cfg.d_model).sum(axis=0)
            da = da + dout @ params[p + f"attn.{name}"].T
        dres, grads[p + "ln1.g"], grads[p + "ln1.b"] = layer_norm_bwd(da, c["ln1"])
        dstream = dstream + dres

    if cache.emb_drop is not None:
        dstream = dstream * cache.emb_drop

    grads["emb.pos"] = np.zeros_like(params["emb.pos"])
    grads["emb.pos"][:L] = dstream.sum(axis=0)
    grads["emb.tok"] = np.zeros_like(params["emb.tok"])
    np.add.at(grads["emb.tok"], cache.ids, dstream)
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
        out = {"mlm": 0, "dtp": 0, "tir": 0, "cls": 0}
        if self.mlm_labels is not None:
            out["mlm"] = int((self.mlm_labels != IGNORE_INDEX).sum())
        if self.dtp_labels is not None:
            out["dtp"] = int((self.dtp_labels >= 0).sum())
        if self.slots is not None:
            out["tir"] = int(self.slots.shape[0])
        if self.cls_labels is not None:
            out["cls"] = int((self.cls_labels >= 0).sum())
        return out


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
    counts = batch.counts()
    if denoms is None:
        denoms = {k: float(v) for k, v in counts.items()}

    parts: dict[str, tuple[float, int]] = {}
    dh = np.zeros_like(hidden) if want_grads else None
    grads: dict[str, np.ndarray] = {}

    if batch.mlm_labels is not None and counts["mlm"]:
        pos = np.argwhere(batch.mlm_labels != IGNORE_INDEX)
        hp = hidden[pos[:, 0], pos[:, 1]]
        logits = hp @ params["head.mlm.w"] + params["head.mlm.b"]
        labels = batch.mlm_labels[pos[:, 0], pos[:, 1]]
        ce_sum, dlogits = _ce_rows(logits, labels)
        parts["mlm"] = (ce_sum, counts["mlm"])
        if want_grads:
            dlogits = dlogits.astype(hidden.dtype) / hidden.dtype.type(denoms["mlm"])
            grads["head.mlm.w"] = hp.T @ dlogits
            grads["head.mlm.b"] = dlogits.sum(axis=0)
            np.add.at(dh, (pos[:, 0], pos[:, 1]), dlogits @ params["head.mlm.w"].T)

    if batch.dtp_labels is not None and counts["dtp"]:
        mask = batch.dtp_labels >= 0
        hc = hidden[mask, 0]
        logits = hc @ params["head.dtp.w"] + params["head.dtp.b"]
        ce_sum, dlogits = _ce_rows(logits, batch.dtp_labels[mask])
        parts["dtp"] = (ce_sum, counts["dtp"])
        if want_grads:
            dlogits = dlogits.astype(hidden.dtype) / hidden.dtype.type(denoms["dtp"])
            grads["head.dtp.w"] = hc.T @ dlogits
            grads["head.dtp.b"] = dlogits.sum(axis=0)
            dh[mask, 0] += dlogits @ params["head.dtp.w"].T

    if batch.cls_labels is not None and counts["cls"]:
        mask = batch.cls_labels >= 0
        hc = hidden[mask, 0]
        logits = hc @ params["head.cls.w"] + params["head.cls.b"]
        ce_sum, dlogits = _ce_rows(logits, batch.cls_labels[mask])
        parts["cls"] = (ce_sum, counts["cls"])
        if want_grads:
            dlogits = dlogits.astype(hidden.dtype) / hidden.dtype.type(denoms["cls"])
            grads["head.cls.w"] = hc.T @ dlogits
            grads["head.cls.b"] = dlogits.sum(axis=0)
            dh[mask, 0] += dlogits @ params["head.cls.w"].T

    if batch.slots is not None and counts["tir"]:
        ex, left, right, labels = (batch.slots[:, j] for j in range(4))
        feats = np.concatenate([hidden[ex, left], hidden[ex, right]], axis=-1)
        logits = feats @ params["head.tir.w"] + params["head.tir.b"]
        ce_sum, dlogits = _ce_rows(logits, labels)
        parts["tir"] = (ce_sum, counts["tir"])
        if want_grads:
            dlogits = dlogits.astype(hidden.dtype) / hidden.dtype.type(denoms["tir"])
            grads["head.tir.w"] = feats.T @ dlogits
            grads["head.tir.b"] = dlogits.sum(axis=0)
            dfeats = dlogits @ params["head.tir.w"].T
            d = cfg.d_model
            np.add.at(dh, (ex, left), dfeats[:, :d])
            np.add.at(dh, (ex, right), dfeats[:, d:])

    if want_grads:
        grads.update(encoder_backward(params, cfg, cache, dh))
        # Heads absent from this batch contribute zero gradient.
        for name, p in params.items():
            if name not in grads:
                grads[name] = np.zeros_like(p)
    return parts, grads
