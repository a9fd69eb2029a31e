"""Trainable encoder: configuration, network, optimizer, loops, checkpoints."""

from .checkpoint import EncoderCheckpoint, load_checkpoint, save_checkpoint
from .config import (
    ModelConfig,
    TrainConfig,
    init_params,
    parameter_count,
    parameter_shapes,
)
from .gradcheck import TINY_CONFIG, grad_check
from .network import Batch, batch_losses, encoder_forward, encoder_backward
from .optim import AdamState, adamw_step
from .training import (
    LabeledExample,
    classify,
    encode,
    encode_batch,
    finetune,
    labeled_input_ids,
    predict_dtp,
    prepare_labeled,
    pretrain,
    pretrain_batch,
    text_input_ids,
    tir_batch,
)

__all__ = [
    "AdamState",
    "Batch",
    "EncoderCheckpoint",
    "LabeledExample",
    "ModelConfig",
    "TINY_CONFIG",
    "TrainConfig",
    "adamw_step",
    "batch_losses",
    "classify",
    "encode",
    "encode_batch",
    "encoder_backward",
    "encoder_forward",
    "finetune",
    "grad_check",
    "init_params",
    "labeled_input_ids",
    "load_checkpoint",
    "parameter_count",
    "parameter_shapes",
    "predict_dtp",
    "prepare_labeled",
    "pretrain",
    "pretrain_batch",
    "save_checkpoint",
    "text_input_ids",
    "tir_batch",
]
