"""Run configuration files and deterministic stream helpers."""

import configparser
import re
from pathlib import Path

import numpy as np
import pytest

from chronolm.config import RunConfig
from chronolm.errors import MalformedRecord
from chronolm.objectives import Objective
from chronolm.temporal import Granularity
from chronolm.util import atomic_write_text, mix, rng_from


def test_defaults_mirror_reference_recipe():
    cfg = RunConfig.load(None)
    model = cfg.model_config(vocab_size=500)
    assert model.d_model == 128
    assert model.n_layers == 2
    assert model.n_heads == 4
    assert model.d_ff == 512
    assert model.max_len == 128
    assert model.dropout == 0.1
    assert cfg.train.learning_rate == 3e-5
    assert cfg.train.batch_size == 8
    assert cfg.train.grad_accumulation == 8
    assert cfg.train.epochs == 10
    assert cfg.finetune.learning_rate == 2e-5
    assert cfg.finetune.batch_size == 16
    assert cfg.masking.temporal_mask_ratio == 0.3
    assert cfg.masking.mask_budget == 0.15
    assert cfg.masking.replace_prob == 0.5


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[model]\nd_model = 64\n\n[labelspace]\n"
                    "start = 1987\nend = 2007\ngranularity = year\n")
    cfg = RunConfig.load(str(path))
    model = cfg.model_config(vocab_size=500)
    assert model.d_model == 64
    assert model.n_layers == 2  # untouched default
    space = cfg.label_space
    assert space.size == 21
    assert space.granularity is Granularity.YEAR


def test_missing_file_raises(tmp_path):
    with pytest.raises(MalformedRecord):
        RunConfig.load(str(tmp_path / "absent.cfg"))


def test_bad_value_raises(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[model]\nd_model = lots\n")
    with pytest.raises(MalformedRecord) as info:
        RunConfig.load(str(path))
    assert str(info.value).startswith(f"{path}: [model] d_model 'lots': ")


@pytest.mark.parametrize("body", [
    "d_model = 30\nn_heads = 4\n",
    "n_heads = 5\n",
    "n_heads = 0\n",
    "dropout = 1.0\n",
    "dropout = nan\n",
    "max_len = 2\n",
    "d_model = -4\n",
    "n_layers = -1\n",
])
def test_model_section_checked_at_load(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text("[model]\n" + body)
    with pytest.raises(MalformedRecord) as info:
        RunConfig.load(str(path))
    key, text = body.splitlines()[0].split(" = ")  # the key at fault
    assert str(info.value).startswith(f"{path}: [model] {key} {text!r}: ")


@pytest.mark.parametrize("body, named", [
    ("mask_budget = 1.5\n", "mask_budget '1.5'"),
    ("mask_budget = 0\n", "mask_budget '0'"),
    ("replace_prob = nan\n", "replace_prob 'nan'"),
    ("temporal_mask_ratio = -0.1\n", "temporal_mask_ratio '-0.1'"),
])
def test_objectives_section_checked_at_load(tmp_path, body, named):
    path = tmp_path / "run.cfg"
    path.write_text("[objectives]\n" + body)
    with pytest.raises(MalformedRecord) as info:
        RunConfig.load(str(path))
    assert str(info.value).startswith(f"{path}: [objectives] {named}: ")


@pytest.mark.parametrize("section", ["train", "finetune"])
@pytest.mark.parametrize("key, text", [
    ("learning_rate", "nan"), ("learning_rate", "inf"), ("learning_rate", "0"),
    ("weight_decay", "nan"), ("weight_decay", "inf"), ("weight_decay", "-1"),
    ("batch_size", "0"), ("grad_accumulation", "0"), ("epochs", "-1"),
    ("epochs", "lots"),
])
def test_training_sections_checked_at_load(tmp_path, section, key, text):
    path = tmp_path / "run.cfg"
    path.write_text(f"[{section}]\n{key} = {text}\n")
    with pytest.raises(MalformedRecord) as info:
        RunConfig.load(str(path))
    assert str(info.value).startswith(f"{path}: [{section}] {key} {text!r}: ")


@pytest.mark.parametrize("body, named", [
    ("start = 1991\nend = 1990\ngranularity = year\n",
     "start '1991', end '1990', granularity 'year'"),
    ("start = 1991\nend = 1992\n", "start '1991', end '1992'"),
    ("granularity = weekly\n", "granularity 'weekly'"),
])
def test_labelspace_section_checked_at_load(tmp_path, body, named):
    path = tmp_path / "run.cfg"
    path.write_text("[labelspace]\n" + body)
    with pytest.raises(MalformedRecord) as info:
        RunConfig.load(str(path))
    assert str(info.value).startswith(f"{path}: [labelspace] {named}: ")


@pytest.mark.parametrize("body, missing", [
    ("start = 1990-01\n", "end"),
    ("end = 1990-12\ngranularity = month\n", "start"),
    ("granularity = year\n", "start, end"),
])
def test_half_a_labelspace_section_is_rejected_at_load(tmp_path, body, missing):
    path = tmp_path / "run.cfg"
    path.write_text("[labelspace]\n" + body)
    with pytest.raises(MalformedRecord) as info:
        RunConfig.load(str(path))
    assert str(info.value).startswith(f"{path}: [labelspace] {missing}: missing")


def test_empty_labelspace_section_sets_no_space(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[labelspace]\n")
    assert RunConfig.load(str(path)).label_space is None


@pytest.mark.parametrize("body, named", [
    ("[model]\nd_modle = 64\n", "[model] d_modle: unknown key"),
    ("[train]\nlearning_rte = 1e-3\n", "[train] learning_rte: unknown key"),
    ("[finetune]\nobjectives = mlm\n", "[finetune] objectives: unknown key"),
    ("[train]\nadam_eps = 1e-6\n", "[train] adam_eps: unknown key"),
    ("[bogus]\nx = 1\n", "unknown section [bogus]"),
    ("[DEFAULT]\nseed = 1\n", "unknown section [DEFAULT]"),
])
def test_unknown_sections_and_keys_rejected(tmp_path, body, named):
    path = tmp_path / "run.cfg"
    path.write_text(body)
    with pytest.raises(MalformedRecord) as info:
        RunConfig.load(str(path))
    assert str(info.value).startswith(f"{path}: {named}")


def test_paths_section_is_free_form(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[paths]\ncorpus = c.jsonl\nanything = x\n")
    assert RunConfig.load(str(path)).paths == {"corpus": "c.jsonl", "anything": "x"}


# Every settable key, at the value it had before the sections were parsed
# into their dataclasses.
EVERY_KEY_AT_DEFAULT = """
[run]
seed = 0
[tokenizer]
lowercase = false
[objectives]
temporal_mask_ratio = 0.3
mask_budget = 0.15
replace_prob = 0.5
[model]
d_model = 128
n_layers = 2
n_heads = 4
d_ff = 512
dropout = 0.1
max_len = 128
[train]
objectives = tamlm,dtp
learning_rate = 3e-5
batch_size = 8
grad_accumulation = 8
epochs = 10
weight_decay = 0.01
[finetune]
learning_rate = 2e-5
batch_size = 16
grad_accumulation = 1
epochs = 3
weight_decay = 0.0
"""


def _assert_default_settings(cfg):
    default = RunConfig.load(None)
    assert cfg.seed == default.seed and cfg.lowercase == default.lowercase
    assert cfg.masking == default.masking
    assert cfg.model_config(vocab_size=500) == default.model_config(vocab_size=500)
    assert cfg.train == default.train
    assert cfg.finetune == default.finetune


def test_every_key_at_its_default_loads_the_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(EVERY_KEY_AT_DEFAULT)
    _assert_default_settings(RunConfig.load(str(path)))


def test_readme_config_block_shows_the_defaults(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    path = tmp_path / "run.cfg"
    path.write_text(blocks[0])
    cfg = RunConfig.load(str(path))
    _assert_default_settings(cfg)
    assert cfg.label_space is not None and cfg.paths

    def settings(text):
        parser = configparser.ConfigParser()
        parser.read_string(text)
        return {(section, key) for section in parser.sections()
                for key in parser[section]}

    assert settings(blocks[0]) >= settings(EVERY_KEY_AT_DEFAULT)


def test_train_config_parses_objectives(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[train]\nobjectives = tamlm,dtp,tir\n")
    cfg = RunConfig.load(str(path))
    tc = cfg.train
    assert tc.objectives == frozenset({Objective.TAMLM, Objective.DTP,
                                       Objective.TIR})


def test_model_config_carries_dims():
    cfg = RunConfig.load(None)
    mc = cfg.model_config(vocab_size=500, k_dtp=12)
    assert mc.vocab_size == 500
    assert mc.k_dtp == 12
    assert mc.d_model == 128


def test_mix_is_order_and_boundary_sensitive():
    assert mix(1, 2) != mix(2, 1)
    assert mix("ab", "c") != mix("a", "bc")
    assert mix(0, "x") == mix(0, "x")


def test_rng_from_reproduces_streams():
    a = rng_from(5, "mask").integers(0, 1000, size=8)
    b = rng_from(5, "mask").integers(0, 1000, size=8)
    c = rng_from(5, "tir").integers(0, 1000, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "first")
    atomic_write_text(str(path), "second")
    assert path.read_text() == "second"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
