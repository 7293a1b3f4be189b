import pytest

from kcpm.config import PipelineConfig, load_config
from kcpm.errors import ConfigError


def write(tmp_path, text):
    p = tmp_path / "kcpm.ini"
    p.write_text(text)
    return str(p)


def test_load_full_config(tmp_path):
    cfg = load_config(write(tmp_path, """
[paths]
log = corrupted.csv
kg = kg.tsv

[thresholds]
dependency_threshold = 0.4
min_pca_conf = 0.75
theta_aug = 0.3

[modes]
filter_mode = strict
use_embedding = off

[hyperparameters]
dim = 32
seed = 99
"""))
    assert cfg.log == "corrupted.csv"
    assert cfg.dependency_threshold == 0.4
    assert cfg.min_pca_conf == 0.75
    assert cfg.theta_aug == 0.3
    assert cfg.filter_mode == "strict"
    assert cfg.use_embedding is False
    assert cfg.dim == 32
    assert cfg.seed == 99


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"\[mystery\]"):
        load_config(write(tmp_path, "[mystery]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="typo_threshold"):
        load_config(write(tmp_path, "[thresholds]\ntypo_threshold = 0.5\n"))


def test_out_of_range_value_rejected(tmp_path):
    with pytest.raises(ConfigError, match="dependency_threshold"):
        load_config(write(tmp_path, "[thresholds]\ndependency_threshold = 1.5\n"))


def test_bad_literal_rejected(tmp_path):
    with pytest.raises(ConfigError, match="min_support"):
        load_config(write(tmp_path, "[thresholds]\nmin_support = lots\n"))


def test_missing_file_rejected():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/kcpm.ini")


def test_defaults_validate():
    cfg = PipelineConfig()
    cfg.validate()
    assert cfg.filter_mode == "permissive"
    assert cfg.min_pca_conf == 0.8
