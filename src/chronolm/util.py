"""Small shared helpers: seed mixing, deterministic RNG, atomic file writes,
the JSONL record reader and writer."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import ChronoError, MalformedRecord

T = TypeVar("T")


def mix(*parts: Any) -> int:
    """Mix arbitrary parts into a stable 64-bit seed.

    Stable across processes and platforms (unlike builtin hash): the
    blake2b digest of each part's str followed by a 0x1f separator.
    """
    data = "\x1f".join([*map(str, parts), ""]).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def rng_from(*parts: Any) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(mix(*parts)))


# numpy's SeedSequence (frozen by NEP 19) and PCG64's set-seq seeding, as
# pcg64_states runs them over many seeds at once.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _hash_constants(start: int, mult: int, count: int) -> list[int]:
    """start * mult**k mod 2**32 for k in 0..count."""
    out = [start]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


# SeedSequence hashes 4 pool words, then 12 words while mixing the pool;
# generate_state(4, uint64) hashes 8 words.
_ENTROPY_HASH = _hash_constants(_INIT_A, _MULT_A, _POOL_WORDS * _POOL_WORDS)
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_WORDS)


def _hashed(words: np.ndarray, consts: list[int], k: int) -> np.ndarray:
    """SeedSequence's hashmix of uint32 words with its k-th hash constant."""
    words = (words ^ consts[k]) * consts[k + 1]
    return words ^ (words >> 16)


def pcg64_states(seeds: Sequence[int]) -> list[tuple[int, int]]:
    """(state, inc) of np.random.PCG64(seed) for each seed in 0..2**64-1.

    All seeds go through SeedSequence's entropy mixing and
    generate_state(4, uint64) together, as uint32 arrays.  A seed below
    2**32 is one entropy word and a larger one two, low word first;
    SeedSequence hashes zeros into the rest of its 4-word pool, so every
    seed mixes as its low word, its high word and two zeros.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    entropy = [(seeds & _MASK32).astype(np.uint32),
               (seeds >> 32).astype(np.uint32)]
    zeros = np.zeros_like(entropy[0])
    pool = [_hashed(entropy[i] if i < len(entropy) else zeros, _ENTROPY_HASH, i)
            for i in range(_POOL_WORDS)]
    k = _POOL_WORDS
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                hashed = _hashed(pool[src], _ENTROPY_HASH, k)
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
                pool[dst] = mixed ^ (mixed >> 16)
                k += 1
    state = [_hashed(pool[i % _POOL_WORDS], _STATE_HASH, i)
             for i in range(2 * _POOL_WORDS)]
    # Little-endian pairs of uint32 words make the four uint64 words.
    wide = [word.astype(np.uint64) for word in state]
    w = [(wide[2 * j] | wide[2 * j + 1] << 32).tolist() for j in range(_POOL_WORDS)]
    out = []
    for s_hi, s_lo, i_hi, i_lo in zip(*w):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        out.append((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return out


def rng_streams(keys: Iterable[Sequence[Any]]) -> Iterator[np.random.Generator]:
    """rng_from(*key) for each key in turn, with the states derived at once.

    One Generator is re-seeded for every key and yielded each time, so
    finish drawing from it before taking the next.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for state, inc in pcg64_states([mix(*key) for key in keys]):
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng


class Memo(dict):
    """A dict that fills each missing key with make(key), once per key."""

    def __init__(self, make: Callable[[Any], Any]):
        super().__init__()
        self.make = make

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.make(key)
        return value


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


# json.dumps builds a new encoder per call when given options; this one is
# shared and stateless.
dumps_compact: Callable[[Any], str] = json.JSONEncoder(
    separators=(",", ":"), ensure_ascii=False).encode


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
