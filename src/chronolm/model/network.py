"""The encoder network: explicit forward and backward passes in numpy.

A pre-norm transformer encoder (learned position embeddings, GELU
feed-forward, residual dropout) with three prediction heads: per-position
vocabulary logits, a timestamp classifier over the first position, and a
two-way judgment over concatenated boundary states.  Backward passes are
hand-written; gradients are exact and checked against finite differences.

The heads read few positions: masked tokens, position 0 and expression
boundaries.  So when the caller names the rows it reads (batch_losses
does, as do the first-position classifiers), the last layer runs attention
over every position (its keys and values need them all), and everything
after attention (output projection, dropout, ln2, feed-forward and ln_f)
on those rows only.  The backward scatters the rows' gradient back into
the full stream just before the last layer's attention backward.

Inference forwards (keep_cache=False) keep nothing for a backward: each
block's intermediates are freed when it returns, so one layer's
activations are live at a time.  They run the same operations as a cached
forward, so their outputs are the same bits.

Cross-entropy sums are returned unreduced together with their counts, so a
caller can normalize over a whole gradient-accumulation group and make
accumulated steps match concatenated-batch steps.

Gradients are added into arrays the caller passes, named per parameter, so
those hold running sums; in training they are the views of one flat buffer
(see optim.Arena) that every micro-batch of a step adds into.  Each gradient
is formed whole before it is added.  Without such arrays, zeros are made.
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


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # 0.5 * x * (1 + t), with t = tanh(c * (x + G * x * x * x)).
    # Returns the value and t, which gelu_grad takes back.
    t = x * x
    t *= x
    t *= _GELU_C
    t += x
    t *= _SQRT_2_OVER_PI
    np.tanh(t, out=t)
    out = x * 0.5
    out *= t + 1.0
    return out, t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    # 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * c * (1 + 3 * G * x * x),
    # with t as gelu returned it for the same x
    tmp = t * t
    np.subtract(1.0, tmp, out=tmp)
    out = x * 0.5
    out *= tmp
    out *= _SQRT_2_OVER_PI
    np.multiply(x, x, out=tmp)
    tmp *= 3.0 * _GELU_C
    tmp += 1.0
    out *= tmp
    np.add(t, 1.0, out=tmp)
    tmp *= 0.5
    out += tmp
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    # exp(x - max) / sum(exp(x - max))
    out = x - x.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


_LN_EPS = 1e-5


def layer_norm_fwd(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    # xhat = (x - mean) / sqrt(var + eps); y = g * xhat + b.  Each mean is
    # a sum divided by the width, as ndarray.mean computes it.
    d = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= d
    xhat = x - mean
    y = xhat * xhat
    inv = np.add.reduce(y, axis=-1, keepdims=True)
    inv /= d
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
    proj = np.add.reduce(tmp, axis=-1, keepdims=True)
    proj /= d
    np.multiply(xhat, proj, out=tmp)
    mean = np.add.reduce(dx, axis=-1, keepdims=True)
    mean /= d
    dx -= mean
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
    ln_f: Optional[tuple]  # None: the forward kept no cache
    rows: Optional[np.ndarray] = None


def validate_ids(cfg: ModelConfig, ids: np.ndarray) -> None:
    if ids.ndim != 2:
        raise ValueError("ids must be a (batch, length) array")
    if ids.shape[1] > cfg.max_len:
        raise SequenceTooLong(f"length {ids.shape[1]} exceeds max_len {cfg.max_len}")
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise UnknownTokenId("token id outside the vocabulary")


def _keep_nothing(**arrays) -> None:
    """The layer stash of a forward that no backward reads."""


def encoder_forward(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    ids: np.ndarray,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
    rows: Optional[np.ndarray] = None,
    *,
    keep_cache: bool = True,
):
    """Hidden states for a padded id batch.

    Padding positions act only through attention masking; their own hidden
    states are computed but carry no loss.  Returns (hidden, cache).

    Inside, the hidden stream is token-major, (batch * length, d_model), so
    every dense projection is a single 2-D GEMM; only attention works on
    (batch, heads, length, head_dim) views.

    Without rows, hidden is (batch, length, d_model).  rows holds sorted,
    unique flat indices into the batch * length stream; hidden is then
    (len(rows), d_model), those rows only.  The last layer's attention
    still runs over every position, since its keys and values need them
    all, but its output projection, dropout, ln2, feed-forward and ln_f
    run on the rows alone.  Dropout masks are drawn at the full shape
    either way, so the rng stream does not depend on rows.

    keep_cache=False is for forwards that no backward reads (see the
    module docstring): the returned cache then holds no layers and no
    ln_f, and encoder_backward refuses it.  The hidden states are the same
    bits either way.
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
        # Every mask of the forward in one draw, in the order they apply:
        # embeddings, then each layer's attention and feed-forward output.
        masks = _dropout_mask(rng, (1 + 2 * cfg.n_layers, N, D), cfg.dropout, h.dtype)
        emb_drop = masks[0]
        h *= emb_drop

    def heads(x: np.ndarray) -> np.ndarray:
        # (N, D) -> (B, nh, L, dh)
        return x.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)

    def drop_mask(index: int, keep: Optional[np.ndarray]) -> np.ndarray:
        return masks[index] if keep is None else masks[index][keep]

    # Each block returns its residual update; whatever it does not stash is
    # freed when it returns.
    def attention(i: int, h: np.ndarray, keep: Optional[np.ndarray],
                  stash) -> np.ndarray:
        p = f"layer{i}."
        a, ln1 = layer_norm_fwd(h, params[p + "ln1.g"], params[p + "ln1.b"])
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
        if keep is not None:
            ctx2 = ctx2[keep]
        o = ctx2 @ params[p + "attn.wo"]
        o += params[p + "attn.bo"]
        stash(ln1=ln1, a=a, q=q, k=k, v=v, probs=probs, ctx2=ctx2)
        if dropout:
            mask = drop_mask(1 + 2 * i, keep)
            stash(attn_drop=mask)
            o *= mask
        return o

    def feed_forward(i: int, h: np.ndarray, keep: Optional[np.ndarray],
                     stash) -> np.ndarray:
        p = f"layer{i}."
        a2, ln2 = layer_norm_fwd(h, params[p + "ln2.g"], params[p + "ln2.b"])
        z = a2 @ params[p + "ffn.w1"]
        z += params[p + "ffn.b1"]
        u, t = gelu(z)
        f = u @ params[p + "ffn.w2"]
        f += params[p + "ffn.b2"]
        stash(ln2=ln2, a2=a2, z=z, u=u, t=t)
        if dropout:
            mask = drop_mask(2 + 2 * i, keep)
            stash(ffn_drop=mask)
            f *= mask
        return f

    layers = []
    for i in range(cfg.n_layers):
        keep = rows if i == cfg.n_layers - 1 else None
        cache: dict = {}
        stash = cache.update if keep_cache else _keep_nothing
        o = attention(i, h, keep, stash)
        if keep is not None:
            h = h[keep]
        h += o
        h += feed_forward(i, h, keep, stash)
        if keep_cache:
            layers.append(cache)

    if rows is not None and not cfg.n_layers:
        h = h[rows]
    out, ln_f_cache = layer_norm_fwd(h, params["ln_f.g"], params["ln_f.b"])
    cache = EncoderCache(ids, key_bias, emb_drop, layers,
                         ln_f_cache if keep_cache else None, rows)
    return (out if rows is not None else out.reshape(B, L, D)), cache


def encoder_backward(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    cache: EncoderCache,
    dh: np.ndarray,
    out: Optional[dict[str, np.ndarray]] = None,
) -> dict[str, np.ndarray]:
    """Parameter gradients given the gradient at the final hidden states.

    dh has the shape of the forward's hidden states: (batch, length,
    d_model), or (len(rows), d_model) for a forward over rows.  Neither it
    nor the cache is modified.  Each encoder gradient is added into out's
    array of that name (fresh zero arrays without out), so out holds
    running sums; the returned dict names those arrays.
    """
    if cache.ln_f is None:
        raise ValueError("encoder_backward needs the cache of a forward "
                         "run with keep_cache=True")
    dtype = params["emb.tok"].dtype
    if out is None:
        out = {name: np.zeros_like(p) for name, p in params.items()
               if not name.startswith("head.")}
    grads: dict[str, np.ndarray] = {}
    B, L = cache.ids.shape
    N, D = B * L, cfg.d_model
    nh = cfg.n_heads
    dh_dim = D // nh
    scale = dtype.type(1.0 / math.sqrt(dh_dim))

    def tokens(x: np.ndarray) -> np.ndarray:
        # (B, nh, L, dh) -> (N, D)
        return x.transpose(0, 2, 1, 3).reshape(N, D)

    def add(name: str, g: np.ndarray) -> None:
        grads[name] = np.add(out[name], g, out=out[name])

    def linear(w: str, b: str, x: np.ndarray, dy: np.ndarray) -> None:
        # A dense layer's weight and bias gradients: x.T @ dy, dy.sum(axis=0)
        add(w, x.T @ dy)
        add(b, np.add.reduce(dy, axis=0))

    def norm(prefix: str, dx: np.ndarray, dg: np.ndarray, db: np.ndarray) -> np.ndarray:
        # A layer norm's gain and offset gradients, added into out; dx back
        add(prefix + ".g", dg)
        add(prefix + ".b", db)
        return dx

    # dstream is a fresh buffer from here on, so it is updated in place.
    dstream = norm("ln_f", *layer_norm_bwd(dh.reshape(-1, D), cache.ln_f))
    rows = cache.rows

    for i in reversed(range(cfg.n_layers)):
        p = f"layer{i}."
        c = cache.layers[i]

        df = dstream * c["ffn_drop"] if "ffn_drop" in c else dstream
        du = df @ params[p + "ffn.w2"].T
        linear(p + "ffn.w2", p + "ffn.b2", c["u"], df)
        dz = gelu_grad(c["z"], c["t"])
        dz *= du
        da2 = dz @ params[p + "ffn.w1"].T
        linear(p + "ffn.w1", p + "ffn.b1", c["a2"], dz)
        dstream += norm(p + "ln2", *layer_norm_bwd(da2, c["ln2"]))

        do = dstream * c["attn_drop"] if "attn_drop" in c else dstream
        dctx2 = do @ params[p + "attn.wo"].T
        linear(p + "attn.wo", p + "attn.bo", c["ctx2"], do)
        if rows is not None and i == cfg.n_layers - 1:
            # Attention read every position: back to the full stream.
            dctx2 = _scatter_rows(dctx2, rows, N)
            dstream = _scatter_rows(dstream, rows, N)
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
            linear(p + f"attn.w{name}", p + f"attn.b{name}", c["a"], dout)
        da = dq @ params[p + "attn.wq"].T
        da += dk @ params[p + "attn.wk"].T
        da += dv @ params[p + "attn.wv"].T
        dstream += norm(p + "ln1", *layer_norm_bwd(da, c["ln1"]))

    if rows is not None and not cfg.n_layers:
        dstream = _scatter_rows(dstream, rows, N)
    if cache.emb_drop is not None:
        dstream *= cache.emb_drop

    grads["emb.pos"] = out["emb.pos"]
    out["emb.pos"][:L] += np.add.reduce(dstream.reshape(B, L, D), axis=0)
    # emb.tok rows gather repeated ids, so the scatter adds with np.add.at,
    # which takes each row in order; on flat element indices it runs a
    # one-dimensional loop.  It fills zeros, so the gradient is whole when added.
    tok = np.zeros_like(out["emb.tok"])
    flat = cache.ids.reshape(N, 1) * D + np.arange(D)
    np.add.at(tok.reshape(-1), flat.reshape(-1), dstream.reshape(-1))
    add("emb.tok", tok)
    return grads


def _scatter_rows(x: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """x's rows at the given indices of an otherwise zero (n, width) array."""
    out = np.zeros((n, x.shape[1]), dtype=x.dtype)
    out[rows] = x
    return out


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
        return {name: len(labels) for name, _, labels in head_items(self)}


HeadItems = list[tuple[str, list, np.ndarray]]


def head_items(batch: Batch) -> HeadItems:
    """What each head reads from the hidden states, in head order.

    For every head with items in the batch: its name, the position arrays
    whose hidden states are concatenated into one feature row per item,
    and the items' labels.  A position is a flat index, example * length +
    position, into the batch's token stream.  mlm reads each masked
    position; dtp and cls read position 0 of each labelled example; tir
    reads the left and then the right boundary of each slot.
    """
    L = batch.ids.shape[1]
    items = []
    if batch.mlm_labels is not None:
        flat = np.flatnonzero(batch.mlm_labels != IGNORE_INDEX)
        items.append(("mlm", [flat], batch.mlm_labels.reshape(-1)[flat]))
    for name, labels in (("dtp", batch.dtp_labels), ("cls", batch.cls_labels)):
        if labels is not None:
            ex = np.flatnonzero(labels >= 0)
            items.append((name, [ex * L], labels[ex]))
    if batch.slots is not None:
        ex, left, right, labels = batch.slots.T
        items.append(("tir", [ex * L + left, ex * L + right], labels))
    return [item for item in items if len(item[2])]


def batch_losses(
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    batch: Batch,
    denoms: Optional[dict[str, float]] = None,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
    want_grads: bool = True,
    out: Optional[dict[str, np.ndarray]] = None,
    items: Optional[HeadItems] = None,
):
    """Forward (and optionally backward) over one batch.

    Returns (parts, grads) where parts maps component name to a
    (cross-entropy sum, item count) pair.  Gradients are of the quantity
    sum(component sums / denoms[component]); denoms defaults to this
    batch's own counts, which yields plain mean losses.  grads names every
    parameter: each gradient is added into out's array of that name (fresh
    zeros without out), so out holds running sums; absent heads add nothing.
    items is the batch's head_items, for a caller that has them already.

    The encoder computes only the hidden rows some head reads: the union
    of the heads' (example, position) pairs.
    """
    if items is None:
        items = head_items(batch)
    if denoms is None:
        denoms = {name: float(len(labels)) for name, _, labels in items}
    # rows is empty when no head has items; at maps each position to its row.
    flat = [pos for _, index, _ in items for pos in index]
    rows, at = np.unique(np.concatenate([np.zeros(0, np.int64), *flat]),
                         return_inverse=True)
    hidden, cache = encoder_forward(params, cfg, batch.ids, train, rng, rows=rows)

    parts: dict[str, tuple[float, int]] = {}
    if want_grads:
        dh = np.zeros_like(hidden)
        if out is None:
            out = {name: np.zeros_like(p) for name, p in params.items()}
    grads: dict[str, np.ndarray] = {}
    d = cfg.d_model
    start = 0
    for name, index, labels in items:
        n, k = len(labels), len(index)
        # head_rows[j, m]: the hidden row of item m's j-th position.
        head_rows = at[start: start + k * n].reshape(k, n)
        start += k * n
        w, b = params[f"head.{name}.w"], params[f"head.{name}.b"]
        feats = hidden[head_rows.T].reshape(n, k * d)
        ce_sum, dlogits = _ce_rows(feats @ w + b, labels)
        parts[name] = (ce_sum, len(labels))
        if want_grads:
            dlogits = dlogits.astype(hidden.dtype) / hidden.dtype.type(denoms[name])
            gw, gb = f"head.{name}.w", f"head.{name}.b"
            grads[gw] = np.add(out[gw], feats.T @ dlogits, out=out[gw])
            grads[gb] = np.add(out[gb], np.add.reduce(dlogits, axis=0), out=out[gb])
            dfeats = dlogits @ w.T
            for j, r in enumerate(head_rows):
                if name == "tir":
                    # Slots can share a boundary, so rows can repeat.
                    np.add.at(dh, r, dfeats[:, j * d:(j + 1) * d])
                else:
                    dh[r] += dfeats[:, j * d:(j + 1) * d]

    if want_grads:
        grads.update(encoder_backward(params, cfg, cache, dh, out))
        for name in params:  # heads absent from this batch, last
            grads.setdefault(name, out[name])
    return parts, grads
