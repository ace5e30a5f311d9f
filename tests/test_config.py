"""INI parsing and config resolution."""
import numpy as np
import pytest

import toposample as ts
from toposample.config import (
    _EXPERIMENT_KEYS,
    CONFIG_KEYS,
    build_experiment_config,
    build_model,
    build_threshold,
    read_config_file,
    resolve_experiment,
)
from toposample.errors import ConfigError


def _write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_read_config_file(tmp_path):
    path = _write(
        tmp_path,
        """
[model]
family = chebyshev
n = 5

[experiment]
trials = 200  ; inline comment
seed = 7
m = 8
""",
    )
    sections = read_config_file(path)
    assert sections["model"] == {"family": "chebyshev", "n": "5"}
    assert sections["experiment"]["trials"] == "200"
    assert sections["experiment"]["seed"] == "7"


def test_read_config_rejects_unknown_section(tmp_path):
    path = _write(tmp_path, "[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        read_config_file(path)


def test_read_config_rejects_unknown_key(tmp_path):
    path = _write(tmp_path, "[model]\nfamily = chebyshev\nwheels = 4\n")
    with pytest.raises(ConfigError):
        read_config_file(path)


def test_read_config_missing_file():
    with pytest.raises(ConfigError):
        read_config_file("/no/such/file.ini")


def test_build_model_families():
    model = build_model({"family": "chebyshev", "n": "5"})
    assert model.family == "chebyshev" and model.n_terms == 6
    model = build_model({"family": "binomial", "n": "3"})
    assert model.family == "binomial"
    model = build_model({"family": "periodic", "amplitudes": "0, 1, 1", "period": "2.0"})
    assert model.family == "periodic"
    assert model.period == 2.0
    assert np.array_equal(model.amplitudes, [0.0, 1.0, 1.0])


def test_build_model_errors():
    with pytest.raises(ConfigError):
        build_model({})
    with pytest.raises(ConfigError):
        build_model({"family": "unknown", "n": "2"})
    with pytest.raises(ConfigError):
        build_model({"family": "chebyshev"})
    with pytest.raises(ConfigError):
        build_model({"family": "chebyshev", "n": "two"})
    with pytest.raises(ConfigError):
        build_model({"family": "periodic"})
    # model-level validation surfaces as a config error too
    with pytest.raises(ConfigError):
        build_model({"family": "periodic", "amplitudes": "0, 0"})
    # a key the family does not read
    for spec in (
        {"family": "periodic", "amplitudes": "0, 1", "n": "3"},
        {"family": "chebyshev", "n": "3", "amplitudes": "0, 1"},
        {"family": "binomial", "n": "3", "period": "2.0"},
    ):
        with pytest.raises(ConfigError, match="does not apply"):
            build_model(spec)


def test_build_threshold_kinds():
    assert build_threshold(None).value(0.3) == 0.0
    assert build_threshold({"kind": "constant", "tau": "1.5"}).value(0.0) == 1.5
    poly = build_threshold({"kind": "polynomial", "coefficients": "1, 0, 2"})
    assert poly.value(2.0) == pytest.approx(9.0, rel=1e-14)
    cubic = build_threshold({"kind": "cubic_shift", "tau": "0.5"})
    assert cubic.value(1.0) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(ConfigError):
        build_threshold({"kind": "staircase"})
    with pytest.raises(ConfigError):
        build_threshold({"kind": "polynomial"})
    assert build_threshold({"kind": "constant"}).value(0.2) == 0.0
    # a key the kind does not read, the default kind zero included
    for spec in (
        {"tau": "5"},
        {"kind": "zero", "tau": "1"},
        {"kind": "zero", "coefficients": "1, 2"},
        {"kind": "polynomial", "coefficients": "1", "tau": "1"},
        {"kind": "constant", "tau": "1", "coefficients": "1"},
        {"kind": "cubic_shift", "coefficients": "1"},
    ):
        with pytest.raises(ConfigError, match="does not apply"):
            build_threshold(spec)


# the [experiment] keys of a run that draws paths, and of one that does not
SEEDED = CONFIG_KEYS["experiment"]
UNSEEDED = tuple(key for key in SEEDED if key != "seed")


def _experiment_config(sections, keys):
    return build_experiment_config(sections, resolve_experiment(sections, keys))


def test_build_experiment_config():
    sections = {
        "model": {"family": "chebyshev", "n": "5"},
        "experiment": {"trials": "500", "seed": "3", "p": "0.9", "workers": "2"},
    }
    config = _experiment_config(sections, SEEDED)
    assert config.model.family == "chebyshev"
    assert config.p == 0.9 and config.m is None
    assert config.trials == 500 and config.seed == 3 and config.workers == 2
    assert config.fmt == "csv" and not config.validate


def test_build_experiment_config_errors():
    base = {"model": {"family": "chebyshev", "n": "4"}}
    with pytest.raises(ConfigError):
        _experiment_config({**base, "experiment": {"seed": "1"}}, SEEDED)
    with pytest.raises(ConfigError):
        _experiment_config(
            {**base, "experiment": {"seed": "1", "m": "4", "p": "0.9"}}, SEEDED
        )
    with pytest.raises(ConfigError):
        _experiment_config({**base, "experiment": {"m": "0", "seed": "1"}}, SEEDED)
    with pytest.raises(ConfigError):
        _experiment_config({**base, "experiment": {"p": "1.0", "seed": "1"}}, SEEDED)
    with pytest.raises(ConfigError):
        _experiment_config(
            {**base, "experiment": {"m": "4", "trials": "0", "seed": "1"}}, SEEDED
        )
    with pytest.raises(ConfigError):
        _experiment_config(
            {**base, "experiment": {"m": "4", "strategy": "sideways"}}, UNSEEDED
        )
    with pytest.raises(ConfigError):
        _experiment_config(
            {**base, "experiment": {"m": "4", "format": "xml"}}, UNSEEDED
        )
    with pytest.raises(ConfigError):
        _experiment_config(
            {**base, "experiment": {"m": "4", "workers": "0"}}, UNSEEDED
        )
    for resolution in ("1", "2"):
        with pytest.raises(ConfigError):
            _experiment_config(
                {**base, "experiment": {"m": "4", "oracle_resolution": resolution}}, UNSEEDED
            )


def test_every_experiment_key_has_one_parse():
    assert set(_EXPERIMENT_KEYS) == set(CONFIG_KEYS["experiment"])


def test_validate_flag_parsing():
    base = {"model": {"family": "chebyshev", "n": "4"}}
    for raw, want in (("true", True), ("1", True), ("on", True), ("false", False), ("no", False)):
        config = _experiment_config(
            {**base, "experiment": {"m": "4", "validate": raw}}, UNSEEDED
        )
        assert config.validate is want
