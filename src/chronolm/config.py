"""Run configuration: flat key=value sections, merged under command flags.

The format is INI (configparser): [section] headers over key = value lines.
Every field has a default; a config file overrides defaults and command
flags override the file.  Training defaults mirror the published setup
(pretraining at 3e-5 with gradient accumulation 8, fine-tuning at 2e-5
with batch 16, dropout 0.1); model dimensions default to desk scale.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, TypeVar

from .corpus import SPECIAL_TOKENS
from .errors import MalformedRecord
from .model.config import ModelConfig, TrainConfig
from .objectives import LabelSpace, Objective
from .temporal import Granularity, TimePoint

_DEFAULTS: dict[str, dict[str, str]] = {
    "paths": {},
    "tokenizer": {"lowercase": "false"},
    "objectives": {
        "temporal_mask_ratio": "0.3",
        "mask_budget": "0.15",
        "replace_prob": "0.5",
    },
    "labelspace": {},
    "model": {
        "d_model": "128",
        "n_layers": "2",
        "n_heads": "4",
        "d_ff": "512",
        "dropout": "0.1",
        "max_len": "128",
    },
    "train": {
        "objectives": "tamlm,dtp",
        "learning_rate": "3e-5",
        "batch_size": "8",
        "grad_accumulation": "8",
        "epochs": "10",
        "weight_decay": "0.01",
    },
    "finetune": {
        "learning_rate": "2e-5",
        "batch_size": "16",
        "grad_accumulation": "1",
        "epochs": "3",
        "weight_decay": "0.0",
    },
}


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


def _read(parser: configparser.ConfigParser, path: str) -> None:
    """Read a config file into parser; what it cannot read is one error
    naming the file, and the line where there is one."""
    try:
        if not parser.read(path, encoding="utf-8"):
            raise MalformedRecord(f"config file not found: {path}")
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


@dataclass
class RunConfig:
    """All tunable settings for the command-line pipeline."""

    seed: int = 0
    paths: dict[str, str] = field(default_factory=dict)
    lowercase: bool = False
    temporal_mask_ratio: float = 0.3
    mask_budget: float = 0.15
    replace_prob: float = 0.5
    labelspace_start: Optional[str] = None
    labelspace_end: Optional[str] = None
    labelspace_granularity: str = "month"
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    finetune: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path: Optional[str] = None) -> "RunConfig":
        parser = configparser.ConfigParser()
        parser.read_dict(_DEFAULTS)
        if path is not None:
            _read(parser, path)
        try:
            cfg = cls(
                paths=dict(parser["paths"]),
                lowercase=_to_bool(parser["tokenizer"]["lowercase"]),
                temporal_mask_ratio=parser.getfloat("objectives", "temporal_mask_ratio"),
                mask_budget=parser.getfloat("objectives", "mask_budget"),
                replace_prob=parser.getfloat("objectives", "replace_prob"),
                labelspace_start=parser.get("labelspace", "start", fallback=None),
                labelspace_end=parser.get("labelspace", "end", fallback=None),
                labelspace_granularity=parser.get("labelspace", "granularity",
                                                  fallback="month"),
                model={
                    "d_model": parser.getint("model", "d_model"),
                    "n_layers": parser.getint("model", "n_layers"),
                    "n_heads": parser.getint("model", "n_heads"),
                    "d_ff": parser.getint("model", "d_ff"),
                    "dropout": parser.getfloat("model", "dropout"),
                    "max_len": parser.getint("model", "max_len"),
                },
                train={
                    "objectives": parser.get("train", "objectives"),
                    "learning_rate": parser.getfloat("train", "learning_rate"),
                    "batch_size": parser.getint("train", "batch_size"),
                    "grad_accumulation": parser.getint("train", "grad_accumulation"),
                    "epochs": parser.getint("train", "epochs"),
                    "weight_decay": parser.getfloat("train", "weight_decay"),
                },
                finetune={
                    "learning_rate": parser.getfloat("finetune", "learning_rate"),
                    "batch_size": parser.getint("finetune", "batch_size"),
                    "grad_accumulation": parser.getint("finetune", "grad_accumulation"),
                    "epochs": parser.getint("finetune", "epochs"),
                    "weight_decay": parser.getfloat("finetune", "weight_decay"),
                },
            )
            if parser.has_option("run", "seed"):
                cfg.seed = parser.getint("run", "seed")
            # Derived settings are checked here, not at first use.  [model]
            # is checked with the smallest vocabulary ModelConfig accepts,
            # since the real one is only known when a command loads it.
            cfg.label_space()
            cfg.model_config(vocab_size=len(SPECIAL_TOKENS) + 1)
            cfg.train_config()
            cfg.finetune_config()
        except (ValueError, configparser.Error) as exc:
            raise MalformedRecord(f"bad config value: {exc}") from None
        return cfg

    def label_space(self) -> Optional[LabelSpace]:
        if self.labelspace_start is None or self.labelspace_end is None:
            return None
        return LabelSpace(
            parse_value("[labelspace] granularity", Granularity.parse,
                        self.labelspace_granularity),
            parse_value("[labelspace] start", TimePoint.parse, self.labelspace_start),
            parse_value("[labelspace] end", TimePoint.parse, self.labelspace_end),
        )

    def model_config(self, vocab_size: int, k_dtp: Optional[int] = None,
                     seed: Optional[int] = None) -> ModelConfig:
        return ModelConfig(
            vocab_size=vocab_size,
            k_dtp=k_dtp,
            seed=self.seed if seed is None else seed,
            **self.model,
        )

    def train_config(self) -> TrainConfig:
        spec = dict(self.train)
        objectives = parse_value("[train] objectives", Objective.parse_set,
                                 spec.pop("objectives"))
        return TrainConfig(objectives=objectives, **spec)

    def finetune_config(self) -> TrainConfig:
        return TrainConfig(objectives=frozenset(), **self.finetune)
