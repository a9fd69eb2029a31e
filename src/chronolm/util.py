"""Small shared helpers: seed mixing, deterministic RNG, atomic file writes."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Iterable, Iterator

import numpy as np

from .errors import MalformedRecord


def mix(*parts: Any) -> int:
    """Mix arbitrary parts into a stable 64-bit seed.

    Stable across processes and platforms (unlike builtin hash).
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def rng_from(*parts: Any) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(mix(*parts)))


def as_rng(seed_or_rng: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.Generator(np.random.PCG64(int(seed_or_rng)))


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a temp file plus rename so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def dumps_compact(obj: Any) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def write_jsonl(path: str, records: Iterable[dict]) -> None:
    lines = [dumps_compact(r) for r in records]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_jsonl(path: str) -> Iterator[tuple[int, dict]]:
    """Yield (1-based line number, parsed object), skipping blank lines."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(
                    f"{path} line {lineno}: invalid JSON ({exc.msg})") from None
            yield lineno, obj
