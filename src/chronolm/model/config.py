"""Model and training configuration, parameter initialization, size accounting."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .. import util
from ..errors import FieldError
from ..objectives import Objective


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the encoder and its prediction heads.

    k_dtp sizes the timestamp-classification head; k_cls sizes the
    fine-tuned classifier head.  Either may be absent.
    """

    vocab_size: int
    max_len: int = 128
    d_model: int = 128
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 512
    dropout: float = 0.1
    k_dtp: Optional[int] = None
    k_cls: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < 6:
            raise ValueError("vocab_size must cover the special tokens")
        if self.d_model < 1:
            raise FieldError("d_model must be at least 1", "d_model")
        if self.n_layers < 0:
            raise FieldError("n_layers must be at least 0", "n_layers")
        if self.n_heads < 1:
            raise FieldError("n_heads must be at least 1", "n_heads")
        if self.d_model % self.n_heads != 0:
            raise FieldError("d_model must divide evenly into heads",
                             "d_model", "n_heads")
        if self.max_len < 3:
            raise FieldError("max_len must be at least 3", "max_len")
        if not 0.0 <= self.dropout < 1.0:
            raise FieldError("dropout must lie in [0, 1)", "dropout")
        for k in (self.k_dtp, self.k_cls):
            if k is not None and k < 2:
                raise ValueError("classification heads need at least 2 classes")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        return cls(**obj)


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and loop settings.

    objectives names the active pretraining losses; fine-tuning ignores it.
    Losses are mean-reduced over the whole accumulation group, so one step
    with accumulation k matches one step on the concatenated batch.
    """

    learning_rate: float
    batch_size: int = 8
    grad_accumulation: int = 1
    epochs: int = 1
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.0
    objectives: frozenset[Objective] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        # The float checks are written so that nan fails them.
        if not 0 < self.learning_rate < math.inf:
            raise FieldError("learning_rate must be positive and finite",
                             "learning_rate")
        for name in ("batch_size", "grad_accumulation"):
            if getattr(self, name) < 1:
                raise FieldError(f"{name} must be at least 1", name)
        if self.epochs < 0:
            raise FieldError("epochs must be at least 0", "epochs")
        if not 0 <= self.adam_beta1 < 1 or not 0 <= self.adam_beta2 < 1:
            raise ValueError("betas must lie in [0, 1)")
        if not 0 < self.adam_eps < math.inf:
            raise ValueError("adam_eps must be positive and finite")
        if not 0 <= self.weight_decay < math.inf:
            raise FieldError("weight_decay must be non-negative and finite",
                             "weight_decay")
        object.__setattr__(self, "objectives", frozenset(self.objectives))


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Named tensor shapes in creation order."""
    shapes: dict[str, tuple[int, ...]] = {
        "emb.tok": (cfg.vocab_size, cfg.d_model),
        "emb.pos": (cfg.max_len, cfg.d_model),
    }
    for i in range(cfg.n_layers):
        p = f"layer{i}."
        shapes[p + "ln1.g"] = (cfg.d_model,)
        shapes[p + "ln1.b"] = (cfg.d_model,)
        for name in ("wq", "wk", "wv", "wo"):
            shapes[p + f"attn.{name}"] = (cfg.d_model, cfg.d_model)
        for name in ("bq", "bk", "bv", "bo"):
            shapes[p + f"attn.{name}"] = (cfg.d_model,)
        shapes[p + "ln2.g"] = (cfg.d_model,)
        shapes[p + "ln2.b"] = (cfg.d_model,)
        shapes[p + "ffn.w1"] = (cfg.d_model, cfg.d_ff)
        shapes[p + "ffn.b1"] = (cfg.d_ff,)
        shapes[p + "ffn.w2"] = (cfg.d_ff, cfg.d_model)
        shapes[p + "ffn.b2"] = (cfg.d_model,)
    shapes["ln_f.g"] = (cfg.d_model,)
    shapes["ln_f.b"] = (cfg.d_model,)
    shapes["head.mlm.w"] = (cfg.d_model, cfg.vocab_size)
    shapes["head.mlm.b"] = (cfg.vocab_size,)
    if cfg.k_dtp is not None:
        shapes["head.dtp.w"] = (cfg.d_model, cfg.k_dtp)
        shapes["head.dtp.b"] = (cfg.k_dtp,)
    shapes["head.tir.w"] = (2 * cfg.d_model, 2)
    shapes["head.tir.b"] = (2,)
    if cfg.k_cls is not None:
        shapes["head.cls.w"] = (cfg.d_model, cfg.k_cls)
        shapes["head.cls.b"] = (cfg.k_cls,)
    return shapes


def parameter_count(cfg: ModelConfig) -> int:
    """Closed-form parameter total.

    embeddings (V + max_len) * D, per layer 4 D^2 + 9 D + 2 D F + F
    (attention, two layer norms, feed-forward), final norm 2 D, masking
    head D V + V, timestamp head D K + K when present, replacement head
    4 D + 2, classifier head D K + K when present.
    """
    d, f, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    total = (v + cfg.max_len) * d
    total += cfg.n_layers * (4 * d * d + 9 * d + 2 * d * f + f)
    total += 2 * d
    total += d * v + v
    if cfg.k_dtp is not None:
        total += d * cfg.k_dtp + cfg.k_dtp
    total += 2 * d * 2 + 2
    if cfg.k_cls is not None:
        total += d * cfg.k_cls + cfg.k_cls
    return total


def init_params(cfg: ModelConfig, dtype=np.float32) -> dict[str, np.ndarray]:
    """Draw initial parameters from the config seed.

    Weights are normal with scale 0.02; biases and norm offsets start at
    zero, norm gains at one.
    """
    rng = util.rng_from(cfg.seed, "init")
    params: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf.startswith("b") or leaf == "g":
            if leaf == "g":
                params[name] = np.ones(shape, dtype=dtype)
            else:
                params[name] = np.zeros(shape, dtype=dtype)
        else:
            params[name] = rng.normal(0.0, 0.02, size=shape).astype(dtype)
    return params
