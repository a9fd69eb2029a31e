"""AdamW with decoupled weight decay and bias-corrected moments.

A model's parameters, their gradient and both moments each live in one
flat buffer of an Arena, with a named view per tensor.  The update then
runs as one pass over cache-sized blocks of the flat buffers, instead of
one pass per tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NonFiniteGradient
from .config import TrainConfig

# Elements per AdamW block: the six block-sized operands (parameter,
# gradient, two moments, two temporaries) stay in a core's L2 cache.
BLOCK = 16384


class Arena:
    """A model's training buffers, each flat: parameters, gradient and the
    two AdamW moments.

    Building the arena copies every tensor of the params dict into the flat
    parameter buffer and rebinds the dict's values to views of it, so the
    dict still names every tensor.  grad_views names the same regions of
    the gradient buffer, into which every micro-batch of a step adds.

    The four buffers are rows of one allocation.  On glibc, releasing a
    block that large raises the allocator's heap-trim threshold above a
    training step's working set, so later steps and calls reuse heap pages
    instead of faulting them in again.  With separate buffers, a pretrain
    call of the benchmark's pretrain workload took about 89k minor page
    faults in a warm process, against 4k for per-tensor arrays and 0.2k
    for one block.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        dtypes = {p.dtype for p in params.values()}
        if len(dtypes) != 1:
            raise ValueError(f"parameters must share one dtype, not {sorted(map(str, dtypes))}")
        self.shapes = {name: p.shape for name, p in params.items()}
        self.starts = [0]
        for p in params.values():
            self.starts.append(self.starts[-1] + p.size)
        block = np.empty((4, self.starts[-1]), dtype=dtypes.pop())
        block[1:] = 0
        self.params, self.grads, self.m, self.v = block
        self.param_views = self.views(self.params)
        for name, view in self.param_views.items():
            view[...] = params[name]
            params[name] = view
        self.grad_views = self.views(self.grads)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of a flat buffer laid out like the parameters."""
        return {name: flat[start: start + math.prod(shape)].reshape(shape)
                for (name, shape), start in zip(self.shapes.items(), self.starts)}


@dataclass
class AdamState:
    """The arena, whose m and v rows are the moment estimates, and the step
    counter."""

    arena: Arena
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        """Lay params into a new arena (rebinding the dict's values to its
        views) with zero moments."""
        return cls(Arena(params))


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One in-place update of the parameters laid out by state's arena.

    grads names every parameter; a gradient that is not already the
    arena's view is copied in.  Weight decay is decoupled: each tensor is
    shrunk by lr * decay * its pre-update value, independent of the
    gradient path.
    """
    arena = state.arena
    for name, view in arena.param_views.items():
        if params[name] is not view:
            raise ValueError(f"parameter {name} is not laid out in the optimizer's arena")
    for name, view in arena.grad_views.items():
        g = grads[name]
        if g is not view:
            view[...] = g
    if not np.isfinite(arena.grads).all():
        name = next(n for n, g in grads.items() if not np.isfinite(g).all())
        raise NonFiniteGradient(f"gradient for {name} is not finite")
    state.step += 1
    t = state.step
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    correction1 = 1.0 - b1 ** t
    correction2 = 1.0 - b2 ** t
    # Per element, in this order: m = b1 * m + (1 - b1) * g;
    # v = b2 * v + (1 - b2) * g * g; update = (m / c1) / (sqrt(v / c2) + eps)
    # [+ decay * p]; p -= lr * update.
    p_all, g_all, m_all, v_all = arena.params, arena.grads, arena.m, arena.v
    n = p_all.size
    upd_buf, tmp_buf = np.empty((2, min(BLOCK, n)), dtype=p_all.dtype)
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        p, g = p_all[start:stop], g_all[start:stop]
        m, v = m_all[start:stop], v_all[start:stop]
        upd, tmp = upd_buf[: stop - start], tmp_buf[: stop - start]
        m *= b1
        np.multiply(g, 1.0 - b1, out=upd)
        m += upd
        v *= b2
        np.multiply(g, 1.0 - b2, out=upd)
        upd *= g
        v += upd
        np.divide(m, correction1, out=upd)
        np.divide(v, correction2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += cfg.adam_eps
        upd /= tmp
        if cfg.weight_decay:
            np.multiply(p, cfg.weight_decay, out=tmp)
            upd += tmp
        upd *= cfg.learning_rate
        p -= upd
    return params, state
