"""Run configuration files and deterministic stream helpers."""

import numpy as np
import pytest

from chronolm.config import RunConfig
from chronolm.errors import MalformedRecord
from chronolm.objectives import Objective
from chronolm.temporal import Granularity
from chronolm.util import atomic_write_text, mix, rng_from


def test_defaults_mirror_reference_recipe():
    cfg = RunConfig.load(None)
    assert cfg.model["d_model"] == 128
    assert cfg.model["n_layers"] == 2
    assert cfg.model["n_heads"] == 4
    assert cfg.model["d_ff"] == 512
    assert cfg.model["max_len"] == 128
    assert cfg.model["dropout"] == 0.1
    assert cfg.train["learning_rate"] == 3e-5
    assert cfg.train["batch_size"] == 8
    assert cfg.train["grad_accumulation"] == 8
    assert cfg.train["epochs"] == 10
    assert cfg.finetune["learning_rate"] == 2e-5
    assert cfg.finetune["batch_size"] == 16
    assert cfg.temporal_mask_ratio == 0.3
    assert cfg.mask_budget == 0.15
    assert cfg.replace_prob == 0.5


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[model]\nd_model = 64\n\n[labelspace]\n"
                    "start = 1987\nend = 2007\ngranularity = year\n")
    cfg = RunConfig.load(str(path))
    assert cfg.model["d_model"] == 64
    assert cfg.model["n_layers"] == 2  # untouched default
    space = cfg.label_space()
    assert space.size == 21
    assert space.granularity is Granularity.YEAR


def test_missing_file_raises(tmp_path):
    with pytest.raises(MalformedRecord):
        RunConfig.load(str(tmp_path / "absent.cfg"))


def test_bad_value_raises(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[model]\nd_model = lots\n")
    with pytest.raises(MalformedRecord):
        RunConfig.load(str(path))


@pytest.mark.parametrize("body", [
    "d_model = 30\nn_heads = 4\n",
    "n_heads = 0\n",
    "dropout = 1.0\n",
    "max_len = 2\n",
])
def test_model_section_checked_at_load(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text("[model]\n" + body)
    with pytest.raises(MalformedRecord):
        RunConfig.load(str(path))


def test_train_config_parses_objectives(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[train]\nobjectives = tamlm,dtp,tir\n")
    cfg = RunConfig.load(str(path))
    tc = cfg.train_config()
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
