"""Run configuration: INI files plus command-line overrides.

A run is described by three sections. Keys are case-insensitive;
numbers use '.' decimals; vectors are comma-separated.

    [model]
    family = chebyshev | cosine | periodic | binomial | unit
    n = 5                  ; truncation order (all but periodic)
    amplitudes = 0, 1, 0.5 ; periodic only: a_0, a_1, ...
    period = 1.0           ; periodic only

    [threshold]
    kind = zero | constant | cubic_shift | polynomial
    tau = 0.0              ; constant and cubic_shift
    coefficients = 0, 1    ; polynomial, ascending powers

    [experiment]
    strategy = topology | uniform | density  ; not for compare
    m = 13                 ; exactly one of m / p
    p = 0.95
    trials = 100000
    seed = 42
    oracle_resolution = 0  ; 0 or absent: auto from expected zeros
    workers = 1
    output = results.csv

Command-line flags override file keys one for one.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fields import (
    FAMILY_BUILDERS,
    FieldModel,
    ThresholdFn,
    periodic_model,
    threshold_constant,
    threshold_cubic_shift,
    threshold_polynomial,
    threshold_zero,
)

_MODEL_KEYS = {"family", "n", "amplitudes", "period"}
_THRESHOLD_KEYS = {"kind", "tau", "coefficients"}
_EXPERIMENT_KEYS = {
    "strategy", "m", "p", "trials", "seed", "oracle_resolution",
    "workers", "output", "format", "validate",
}


def read_config_file(path: str) -> dict[str, dict[str, str]]:
    """Parse an INI file into {section: {key: raw string}}."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        name = section.strip().lower()
        out[name] = {k.strip().lower(): v.strip() for k, v in parser[section].items()}
    known = {"model", "threshold", "experiment"}
    for name in out:
        if name not in known:
            raise ConfigError(f"unknown config section [{name}]")
    allowed = {
        "model": _MODEL_KEYS,
        "threshold": _THRESHOLD_KEYS,
        "experiment": _EXPERIMENT_KEYS,
    }
    for name, keys in out.items():
        stray = set(keys) - allowed[name]
        if stray:
            raise ConfigError(
                f"unknown key(s) in [{name}]: {', '.join(sorted(stray))}"
            )
    return out


def _need_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None


def _need_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None


def _need_floats(raw: str, key: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in raw.split(",") if v.strip() != ""])
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated list, got {raw!r}") from None


def build_model(spec: dict[str, str]) -> FieldModel:
    """Construct a FieldModel from a [model] mapping."""
    family = spec.get("family")
    if family is None:
        raise ConfigError("model.family is required")
    family = family.lower()
    if family == "periodic":
        if "amplitudes" not in spec:
            raise ConfigError("periodic model requires model.amplitudes")
        amps = _need_floats(spec["amplitudes"], "model.amplitudes")
        period = _need_float(spec.get("period", "1.0"), "model.period")
        try:
            return periodic_model(amps, period)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if family not in FAMILY_BUILDERS:
        raise ConfigError(f"unknown model family {family!r}")
    if "n" not in spec:
        raise ConfigError(f"{family} model requires model.n")
    n = _need_int(spec["n"], "model.n")
    if n < 0:
        raise ConfigError("model.n must be nonnegative")
    return FAMILY_BUILDERS[family](n)


def build_threshold(spec: dict[str, str] | None) -> ThresholdFn:
    """Construct a ThresholdFn from a [threshold] mapping (default zero)."""
    if not spec:
        return threshold_zero()
    kind = spec.get("kind", "zero").lower()
    if kind == "zero":
        return threshold_zero()
    if kind == "constant":
        return threshold_constant(_need_float(spec.get("tau", "0.0"), "threshold.tau"))
    if kind == "cubic_shift":
        return threshold_cubic_shift(
            _need_float(spec.get("tau", "0.0"), "threshold.tau")
        )
    if kind == "polynomial":
        if "coefficients" not in spec:
            raise ConfigError("polynomial threshold requires threshold.coefficients")
        return threshold_polynomial(
            _need_floats(spec["coefficients"], "threshold.coefficients")
        )
    raise ConfigError(f"unknown threshold kind {kind!r}")


@dataclass
class ExperimentConfig:
    """Everything a correctness experiment needs, resolved and typed."""

    model: FieldModel
    threshold: ThresholdFn
    strategy: str = "topology"
    m: int | None = None
    p: float | None = None
    trials: int = 10000
    seed: int | None = None
    oracle_resolution: int | None = None
    workers: int = 1
    output: str | None = None
    fmt: str = "csv"
    validate: bool = False
    sections: dict = field(default_factory=dict)


def build_experiment_config(sections: dict[str, dict[str, str]]) -> ExperimentConfig:
    """Resolve raw config sections into an ExperimentConfig.

    Exactly one of experiment.m and experiment.p must be present; the
    seed requirement is enforced by the stochastic commands themselves.
    """
    model = build_model(sections.get("model", {}))
    threshold = build_threshold(sections.get("threshold"))
    exp = sections.get("experiment", {})

    strategy = exp.get("strategy", "topology").lower()
    if strategy not in ("topology", "uniform", "density"):
        raise ConfigError(f"unknown strategy {strategy!r}")
    m = _need_int(exp["m"], "experiment.m") if "m" in exp else None
    p = _need_float(exp["p"], "experiment.p") if "p" in exp else None
    if (m is None) == (p is None):
        raise ConfigError("exactly one of experiment.m and experiment.p is required")
    if m is not None and m < 1:
        raise ConfigError("experiment.m must be at least 1")
    if p is not None and not 0.0 <= p < 1.0:
        raise ConfigError("experiment.p must lie in [0, 1)")
    trials = _need_int(exp.get("trials", "10000"), "experiment.trials")
    if trials < 1:
        raise ConfigError("experiment.trials must be positive")
    seed = _need_int(exp["seed"], "experiment.seed") if "seed" in exp else None
    resolution = None
    if "oracle_resolution" in exp:
        resolution = _need_int(exp["oracle_resolution"], "experiment.oracle_resolution")
        if resolution <= 0:
            resolution = None
        elif resolution < 3:
            raise ConfigError(
                "experiment.oracle_resolution must be 0 (automatic) or at least 3"
            )
    workers = _need_int(exp.get("workers", "1"), "experiment.workers")
    if workers < 1:
        raise ConfigError("experiment.workers must be at least 1")
    fmt = exp.get("format", "csv").lower()
    if fmt not in ("csv", "json"):
        raise ConfigError("experiment.format must be csv or json")
    validate = exp.get("validate", "false").lower() in ("1", "true", "yes", "on")
    return ExperimentConfig(
        model=model,
        threshold=threshold,
        strategy=strategy,
        m=m,
        p=p,
        trials=trials,
        seed=seed,
        oracle_resolution=resolution,
        workers=workers,
        output=exp.get("output"),
        fmt=fmt,
        validate=validate,
        sections=sections,
    )
