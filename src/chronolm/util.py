"""Small shared helpers: seed mixing, deterministic RNG, atomic file writes,
the JSONL record reader."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import ChronoError, MalformedRecord

T = TypeVar("T")


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


def _record(line: str, parse: Callable[[dict], T]) -> T:
    """parse(the line's JSON object); every error is a ChronoError."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise MalformedRecord("invalid JSON (nested too deeply)") from None
    if not isinstance(obj, dict):
        raise MalformedRecord("not a JSON object")
    try:
        return parse(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedRecord(str(exc)) from None


def read_jsonl(path: str, parse: Callable[[dict], T]) -> Iterator[T]:
    """Yield parse(record) for each JSON object line of a file.

    Blank lines are skipped.  Every error names "<path> line <n>" (1-based):
    invalid JSON, a line that is not a JSON object, and a ValueError,
    KeyError or TypeError from parse raise MalformedRecord; a ChronoError
    from parse is raised again as its own type.  A file that is not UTF-8
    raises MalformedRecord naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = _record(line, parse)
                except ChronoError as exc:
                    raise type(exc)(f"{path} line {lineno}: {exc}") from None
                yield record
        except UnicodeDecodeError as exc:
            raise MalformedRecord(f"{path}: not UTF-8 text ({exc.reason})") from None
