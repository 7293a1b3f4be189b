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
seed = 99
"""))
    assert cfg.log == "corrupted.csv"
    assert cfg.dependency_threshold == 0.4
    assert cfg.min_pca_conf == 0.75
    assert cfg.theta_aug == 0.3
    assert cfg.filter_mode == "strict"
    assert cfg.use_embedding is False
    assert cfg.seed == 99


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"\[mystery\]"):
        load_config(write(tmp_path, "[mystery]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="typo_threshold"):
        load_config(write(tmp_path, "[thresholds]\ntypo_threshold = 0.5\n"))


def test_percent_sign_is_read_literally(tmp_path):
    cfg = load_config(write(tmp_path, "[paths]\nlog = a%20b.csv\nkg = %(x)s\n"))
    assert (cfg.log, cfg.kg) == ("a%20b.csv", "%(x)s")


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


@pytest.mark.parametrize("text, message", [
    ("log = x.csv\n", "File contains no section headers."),
    ("[paths]\nlog = x.csv\nlog = y.csv\n",
     "While reading from {cfg!r} [line  3]: option 'log' in section 'paths' "
     "already exists"),
    ("[paths]\nlog = x.csv\n[paths]\nkg = y.tsv\n",
     "While reading from {cfg!r} [line  3]: section 'paths' already exists"),
    ("[paths]\njusttext\n", "Source contains parsing errors: {cfg!r}"),
    (b"[paths]\nlog = \xff.csv\n",
     "'utf-8' codec can't decode byte 0xff in position 14: "
     "invalid start byte"),
], ids=["no-section-header", "duplicate-key", "duplicate-section",
        "line-without-value", "not-utf-8"])
def test_unreadable_file_is_one_line_config_error(tmp_path, text, message):
    """A file configparser refuses, or that is not UTF-8, is a ConfigError
    of one line: the file's path, then the first line of the fault."""
    p = tmp_path / "kcpm.ini"
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_config(str(p))
    assert str(info.value) == f"{p}: " + message.format(cfg=str(p))


def test_percent_sign_in_a_number_is_a_bad_value(tmp_path):
    """Without interpolation a % reaches the value: 30% is no number."""
    with pytest.raises(ConfigError,
                       match=r"bad value '30%' for 'theta_aug' in \[thresholds\]"):
        load_config(write(tmp_path, "[thresholds]\ntheta_aug = 30%\n"))


def test_empty_file_is_the_defaults(tmp_path):
    assert load_config(write(tmp_path, "")) == PipelineConfig()


@pytest.mark.parametrize("key", ["dim", "epochs", "margin", "learning_rate",
                                 "negatives", "time_buckets"])
def test_embedding_hyperparameter_is_no_field(tmp_path, key):
    """The embedding's six hyperparameters are gone: a file that sets one
    names it as an unknown key, and no PipelineConfig takes it; seed is
    the one hyperparameter left."""
    with pytest.raises(ConfigError,
                       match=rf"unknown key '{key}' in \[hyperparameters\]"):
        load_config(write(tmp_path, f"[hyperparameters]\n{key} = 1\n"))
    with pytest.raises(TypeError, match=key):
        PipelineConfig(**{key: 1})
    assert key not in PipelineConfig.FIELDS
    assert len(PipelineConfig.FIELDS) == 16
