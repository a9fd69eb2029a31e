"""Output checks.  A CLI call whose output fails one of these counts as failed.

Every check raises ``CheckFailed`` with the reason; the runner catches it
around the call it checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os


class CheckFailed(Exception):
    """An artifact is missing, malformed, or differs from an earlier copy."""


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Digests:
    """sha256 per byte-stable artifact.

    The same code and seed must write the same bytes every time: a repeated
    call in this run, and any earlier run whose record is found on disk.
    """

    def __init__(self, record_path: str):
        self.record_path = record_path
        self.seen: dict[str, str] = {}
        self.earlier: dict[str, str] = {}
        if os.path.exists(record_path):
            with open(record_path, encoding="utf-8") as fh:
                self.earlier = json.load(fh)

    def check(self, key: str, path: str) -> None:
        digest = sha256(path)
        expected = self.seen.get(key) or self.earlier.get(key)
        if expected is not None and expected != digest:
            raise CheckFailed(
                f"{key}: bytes differ from an earlier run of the same code and seed")
        self.seen[key] = digest

    def save(self) -> None:
        merged = {**self.earlier, **self.seen}
        tmp = self.record_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, indent=0, sort_keys=True)
        os.replace(tmp, self.record_path)


def _jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _csv_rows(path: str, header: tuple[str, ...]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != header:
        raise CheckFailed(f"{path}: header is not {','.join(header)}")
    return rows[1:]


def tagged(path: str, n_docs: int) -> None:
    records = _jsonl(path)
    if len(records) != n_docs:
        raise CheckFailed(f"{path}: {len(records)} records, expected {n_docs}")
    for obj in records:
        for expr in obj["expressions"]:
            if obj["text"][expr["start"]:expr["end"]] != expr["surface"]:
                raise CheckFailed(f"{path}: {obj['id']}: span does not match surface")


def vocab(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        tokens = fh.read().split("\n")
    if tokens[:5] != ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]:
        raise CheckFailed(f"{path}: special tokens are not pinned first")


def dataset(path: str, n_examples: int) -> int:
    """Every line must round-trip through example_from_json; returns the
    number of input tokens."""
    from chronolm.objectives import (
        PretrainExample,
        example_from_json,
        pretrain_example_to_json,
        tir_example_to_json,
    )

    records = _jsonl(path)
    if len(records) != n_examples:
        raise CheckFailed(f"{path}: {len(records)} examples, expected {n_examples}")
    tokens = 0
    for lineno, obj in enumerate(records, start=1):
        try:
            example = example_from_json(obj)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckFailed(f"{path} line {lineno}: {exc!r}") from None
        to_json = (pretrain_example_to_json if isinstance(example, PretrainExample)
                   else tir_example_to_json)
        if to_json(example) != obj:
            raise CheckFailed(f"{path} line {lineno}: does not round-trip")
        tokens += len(example.input_ids)
    return tokens


def loss_log(path: str) -> float:
    """Every logged loss must be finite; returns the sum over objectives of
    the last step's losses."""
    rows = _csv_rows(path, ("step", "objective", "loss"))
    if not rows:
        raise CheckFailed(f"{path}: no loss rows")
    last_step = max(int(r[0]) for r in rows)
    final = 0.0
    for step, name, value in rows:
        loss = float(value)
        if not math.isfinite(loss):
            raise CheckFailed(f"{path}: step {step} {name} loss is {value}")
        if int(step) == last_step:
            final += loss
    return final


def eval_results(path: str) -> None:
    for _, metric, _, value in _csv_rows(path, ("configuration", "metric",
                                                "granularity", "value")):
        v = float(value)
        if metric == "acc" and not 0.0 <= v <= 100.0:
            raise CheckFailed(f"{path}: accuracy {value} outside [0, 100]")
        if not math.isfinite(v) or v < 0.0:
            raise CheckFailed(f"{path}: {metric} is {value}")


def probe_ranking(path: str, points: list[str]) -> None:
    """The ranking must hold every label-space point exactly once."""
    rows = _csv_rows(path, ("rank", "point", "score"))
    if [int(r[0]) for r in rows] != list(range(1, len(points) + 1)):
        raise CheckFailed(f"{path}: ranks are not 1..{len(points)}")
    ranked = [r[1] for r in rows]
    if sorted(ranked) != sorted(points) or len(set(ranked)) != len(ranked):
        raise CheckFailed(f"{path}: ranking does not hold each point once")
