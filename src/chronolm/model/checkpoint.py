"""Checkpoint serialization: one JSON header line, then raw float32 tensors.

The header carries the model config, the vocabulary's content hash, and a
manifest of (name, shape) pairs in the exact order the raw little-endian
float32 arrays follow.  Writing the same checkpoint twice is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import util
from ..corpus import Vocab
from ..errors import MalformedRecord, VocabMismatch
from .config import ModelConfig, init_params, parameter_shapes

_FORMAT = "chronolm-checkpoint-v1"


@dataclass
class EncoderCheckpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    vocab_sha256: str
    vocab: Optional[Vocab] = None

    @classmethod
    def fresh(cls, config: ModelConfig, vocab: Vocab, dtype=np.float32) -> "EncoderCheckpoint":
        if config.vocab_size != vocab.size:
            raise ValueError("config vocab_size must match the vocabulary")
        return cls(config, init_params(config, dtype=dtype),
                   vocab.content_hash(), vocab)


def save_checkpoint(ckpt: EncoderCheckpoint, path: str) -> None:
    expected = parameter_shapes(ckpt.config)
    if set(expected) != set(ckpt.params):
        missing = sorted(set(expected) ^ set(ckpt.params))
        raise ValueError(f"parameter set does not match config: {missing}")
    manifest = [[name, list(expected[name])] for name in sorted(expected)]
    header = {
        "format": _FORMAT,
        "config": ckpt.config.to_json(),
        "vocab_sha256": ckpt.vocab_sha256,
        "manifest": manifest,
    }
    parts = [(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n").encode()]
    for name, shape in manifest:
        tensor = np.ascontiguousarray(ckpt.params[name], dtype="<f4")
        if list(tensor.shape) != shape:
            raise ValueError(f"tensor {name} has shape {tensor.shape}, expected {shape}")
        parts.append(tensor)
    util.atomic_write_bytes(path, b"".join(parts))


Manifest = list[tuple[str, tuple[int, ...]]]


def _parse_header(path: str, line: bytes) -> tuple[ModelConfig, str, Manifest]:
    """The header's config, vocabulary hash and manifest, checked against
    each other: the manifest must name exactly the tensors, with the
    shapes, that the config implies."""
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise MalformedRecord(f"{path}: not a checkpoint header") from None
    if not isinstance(header, dict) or header.get("format") != _FORMAT:
        raise MalformedRecord(f"{path}: unknown checkpoint format")
    try:
        config = ModelConfig.from_json(header["config"])
        vocab_sha256 = str(header["vocab_sha256"])
        manifest = [(str(name), tuple(int(n) for n in shape))
                    for name, shape in header["manifest"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(f"{path}: bad checkpoint header: {exc!r}") from None
    expected = parameter_shapes(config)
    seen: set[str] = set()
    for name, shape in manifest:
        if name not in expected or name in seen:
            raise MalformedRecord(f"{path}: unexpected tensor {name} in manifest")
        if shape != tuple(expected[name]):
            raise MalformedRecord(
                f"{path}: tensor {name} has shape {list(shape)}, "
                f"config expects {list(expected[name])}")
        seen.add(name)
    for name in sorted(expected):
        if name not in seen:
            raise MalformedRecord(f"{path}: tensor {name} missing from manifest")
    return config, vocab_sha256, manifest


def load_checkpoint(
    path: str,
    vocab: Optional[Vocab] = None,
    dtype=np.float32,
) -> EncoderCheckpoint:
    """Read a checkpoint; verifies the vocabulary hash when one is supplied.

    Each tensor is read in place into its own float32 array; separate
    arrays land in the holes earlier calls freed, where one body-sized
    buffer would split the hole a later training arena needs.  Raises
    MalformedRecord naming the tensor when the manifest disagrees with the
    header's config, or the first tensor cut short or holding a non-finite value.
    """
    with open(path, "rb") as fh:
        config, vocab_sha256, manifest = _parse_header(path, fh.readline())
        params: dict[str, np.ndarray] = {}
        for name, shape in manifest:
            tensor = np.empty(shape, dtype="<f4")
            if fh.readinto(tensor) != tensor.nbytes:
                raise MalformedRecord(f"{path}: truncated tensor {name}")
            if not np.isfinite(tensor).all():
                raise MalformedRecord(f"{path}: tensor {name} has non-finite values")
            params[name] = tensor.astype(dtype, copy=False)
        if fh.read(1):
            raise MalformedRecord(f"{path}: trailing bytes after manifest")
    if vocab is not None and vocab.content_hash() != vocab_sha256:
        raise VocabMismatch(
            f"{path}: checkpoint was built against a different vocabulary"
        )
    return EncoderCheckpoint(config, params, vocab_sha256, vocab)
