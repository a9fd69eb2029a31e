"""Run configuration: INI sections parsed into the dataclasses that own them.

The format is INI (configparser): [section] headers over key = value lines.
_KEYS lists every key a file may set and how its text parses; a key sets
the field of the same name, and a key the file leaves out keeps that
field's default.  [paths] is free-form.  Command flags override the file.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, TypeVar

from .corpus import SPECIAL_TOKENS
from .errors import EmptyRange, FieldError, GranularityRefinementError, MalformedRecord
from .model.config import ModelConfig, TrainConfig
from .objectives import LabelSpace, Masking, Objective
from .temporal import Granularity, TimePoint

T = TypeVar("T")


def parse_value(name: str, parse: Callable[[str], T], text: str) -> T:
    """parse(text), with a ValueError turned into MalformedRecord naming
    the flag or config key the text came from."""
    try:
        return parse(text)
    except ValueError as exc:
        raise MalformedRecord(f"{name} {text!r}: {exc}") from None


def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_TRAIN_KEYS = {"learning_rate": float, "batch_size": int,
               "grad_accumulation": int, "epochs": int, "weight_decay": float}
_KEYS: dict[str, dict[str, Callable[[str], object]]] = {
    "run": {"seed": int},
    "tokenizer": {"lowercase": _to_bool},
    "objectives": dict.fromkeys(
        ("temporal_mask_ratio", "mask_budget", "replace_prob"), float),
    "labelspace": {"start": TimePoint.parse, "end": TimePoint.parse,
                   "granularity": Granularity.parse},
    "model": {"d_model": int, "n_layers": int, "n_heads": int, "d_ff": int,
              "dropout": float, "max_len": int},
    "train": {"objectives": Objective.parse_set, **_TRAIN_KEYS},
    "finetune": _TRAIN_KEYS,
}


def _read(path: str) -> dict[str, dict[str, str]]:
    """A config file's sections as {section: {key: text}}; what cannot be
    read is one error naming the file, and the line where there is one."""
    parser = configparser.ConfigParser(interpolation=None)  # "%" is plain text
    try:
        if not parser.read(path, encoding="utf-8"):
            raise MalformedRecord(f"config file not found: {path}")
        if parser.defaults():
            raise MalformedRecord(f"{path}: unknown section [{parser.default_section}]")
        return {name: dict(parser[name]) for name in parser.sections()}
    except UnicodeDecodeError as exc:
        raise MalformedRecord(f"{path}: not UTF-8 text ({exc.reason})") from None
    except configparser.MissingSectionHeaderError as exc:
        raise MalformedRecord(
            f"{path} line {exc.lineno}: a setting before any [section] header"
        ) from None
    except configparser.ParsingError as exc:
        lineno, line = exc.errors[0]  # line is already a repr
        raise MalformedRecord(
            f"{path} line {lineno}: not a [section] or key = value line: {line}"
        ) from None
    except configparser.DuplicateOptionError as exc:
        raise MalformedRecord(
            f"{path} line {exc.lineno}: [{exc.section}] {exc.option} is set twice"
        ) from None
    except configparser.DuplicateSectionError as exc:
        raise MalformedRecord(
            f"{path} line {exc.lineno}: [{exc.section}] appears twice"
        ) from None


def _bad_value(path: str, section: str, key: str, text: str,
               exc: Exception) -> MalformedRecord:
    return MalformedRecord(f"{path}: [{section}] {key} {text!r}: "
                           f"bad config value: {exc}")


def _parse(path: str, section: str, texts: dict[str, str]) -> dict:
    """The values a section sets, each parsed by its key's parser."""
    if section == "paths":
        return texts
    if section not in _KEYS:
        raise MalformedRecord(f"{path}: unknown section [{section}]; the sections "
                              f"are [paths], [{'], ['.join(_KEYS)}]")
    keys = _KEYS[section]
    values = {}
    for key, text in texts.items():
        if key not in keys:
            raise MalformedRecord(f"{path}: [{section}] {key}: unknown key; "
                                  f"[{section}] takes {', '.join(keys)}")
        try:
            values[key] = keys[key](text)
        except ValueError as exc:
            raise _bad_value(path, section, key, text, exc) from None
    return values


@dataclass
class RunConfig:
    """All tunable settings for the command-line pipeline.

    model holds only the [model] keys a file sets, since the vocabulary
    size is not known until a command loads it.  train and finetune are
    TimeBERT's published setup where it differs from TrainConfig's defaults.
    """

    seed: int = 0
    lowercase: bool = False
    paths: dict[str, str] = field(default_factory=dict)
    label_space: Optional[LabelSpace] = None
    masking: Masking = Masking()
    model: dict = field(default_factory=dict)
    train: TrainConfig = TrainConfig(
        learning_rate=3e-5, grad_accumulation=8, epochs=10, weight_decay=0.01,
        objectives=frozenset({Objective.TAMLM, Objective.DTP}))
    finetune: TrainConfig = TrainConfig(learning_rate=2e-5, batch_size=16, epochs=3)

    @classmethod
    def load(cls, path: Optional[str] = None) -> "RunConfig":
        """Defaults, overridden by the keys the file at path sets.  A bad
        value, section or key fails here, naming the file, section and key."""
        if path is None:
            return cls()
        texts = _read(path)
        values = {section: _parse(path, section, t) for section, t in texts.items()}

        def build(section: str, make: Callable[..., T], *args, **kwargs) -> T:
            try:
                return make(*args, **kwargs, **values.get(section, {}))
            except FieldError as exc:
                key = next(k for k in exc.fields if k in values[section])
                raise _bad_value(path, section, key, texts[section][key], exc) from None

        cfg = cls(**values.get("run", {}), **values.get("tokenizer", {}),
                  paths=values.get("paths", {}), model=values.get("model", {}))
        cfg.masking = build("objectives", Masking)
        # [model] is checked with the smallest vocabulary ModelConfig
        # accepts, since the real one is only known when a command loads it.
        build("model", ModelConfig, vocab_size=len(SPECIAL_TOKENS) + 1)
        cfg.train = build("train", replace, cfg.train)
        cfg.finetune = build("finetune", replace, cfg.finetune)
        space = values.get("labelspace", {})
        if space:
            missing = [key for key in ("start", "end") if key not in space]
            if missing:
                raise MalformedRecord(f"{path}: [labelspace] {', '.join(missing)}: "
                                      "missing; a label space needs start and end")
            g = space.get("granularity", Granularity.MONTH)
            try:
                cfg.label_space = LabelSpace(g, space["start"], space["end"])
            except (EmptyRange, GranularityRefinementError) as exc:
                given = ", ".join(f"{k} {t!r}" for k, t in texts["labelspace"].items())
                raise MalformedRecord(f"{path}: [labelspace] {given}: "
                                      f"bad config value: {exc}") from None
        return cfg

    def model_config(self, vocab_size: int, k_dtp: Optional[int] = None) -> ModelConfig:
        return ModelConfig(vocab_size=vocab_size, k_dtp=k_dtp, seed=self.seed,
                           **self.model)
