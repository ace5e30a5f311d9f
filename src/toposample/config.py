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

A key that the chosen family or threshold kind does not read is an
error. Command-line flags override file keys one for one; each
subcommand offers a flag for exactly the keys it reads, and parses
only those [experiment] keys, ignoring the others.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields as dataclass_fields

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
from .planner import STRATEGIES


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
    for name in out:
        if name not in CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{name}]")
    for name, keys in out.items():
        stray = set(keys) - set(CONFIG_KEYS[name])
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
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def _need_floats(raw: str, key: str) -> np.ndarray:
    try:
        values = np.array([float(v) for v in raw.split(",") if v.strip() != ""])
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated list, got {raw!r}") from None
    if values.size == 0:
        raise ConfigError(f"{key} must list at least one number")
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return values


# the keys each model family and each threshold kind reads; the sized
# families are those FAMILY_BUILDERS builds from n alone
SIZED_FAMILY_KEYS = {f: ("n",) for f in FAMILY_BUILDERS}
_FAMILY_KEYS = {"periodic": ("amplitudes", "period"), **SIZED_FAMILY_KEYS}
_THRESHOLD_KEYS = {
    "zero": (), "constant": ("tau",), "cubic_shift": ("tau",), "polynomial": ("coefficients",)
}


def _choose(spec, section, selector, table, default=None):
    """``spec[selector]``, lower-cased, after checking it against ``table``.

    ``table`` lists the keys each choice reads; a missing or unknown
    choice, or a key of ``spec`` that the choice does not read, is a
    ConfigError.
    """
    choice = spec.get(selector, default)
    if choice is None:
        raise ConfigError(f"{section}.{selector} is required")
    choice = choice.lower()
    if choice not in table:
        raise ConfigError(
            f"unknown {section} {selector} {choice!r}; choose one of {', '.join(table)}"
        )
    stray = sorted(set(spec) - {selector, *table[choice]})
    if stray:
        names = ", ".join(f"{section}.{key}" for key in stray)
        raise ConfigError(f"{names} does not apply to {section}.{selector} = {choice}")
    return choice


def build_model(spec: dict[str, str]) -> FieldModel:
    """Construct a FieldModel from a [model] mapping."""
    family = _choose(spec, "model", "family", _FAMILY_KEYS)
    if family == "periodic":
        if "amplitudes" not in spec:
            raise ConfigError("periodic model requires model.amplitudes")
        amps = _need_floats(spec["amplitudes"], "model.amplitudes")
        period = _need_float(spec.get("period", "1.0"), "model.period")
        try:
            return periodic_model(amps, period)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
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
    kind = _choose(spec, "threshold", "kind", _THRESHOLD_KEYS, default="zero")
    if kind == "zero":
        return threshold_zero()
    if kind == "polynomial":
        if "coefficients" not in spec:
            raise ConfigError("polynomial threshold requires threshold.coefficients")
        return threshold_polynomial(
            _need_floats(spec["coefficients"], "threshold.coefficients")
        )
    tau = _need_float(spec.get("tau", "0.0"), "threshold.tau")
    return threshold_constant(tau) if kind == "constant" else threshold_cubic_shift(tau)


def _checked(need, ok, rule: str):
    """Parse with ``need``, then reject a value failing ``ok``: "<name> must <rule>"."""
    def parse(raw: str, name: str):
        value = need(raw, name)
        if not ok(value):
            raise ConfigError(f"{name} must {rule}")
        return value
    return parse


def _one_of(options, message: str):
    def parse(raw: str, name: str) -> str:
        value = raw.lower()
        if value not in options:
            raise ConfigError(message.format(name=name, value=value))
        return value
    return parse


def _resolution(raw: str, name: str) -> int | None:
    resolution = _need_int(raw, name)
    if 0 < resolution < 3:
        raise ConfigError(f"{name} must be 0 (automatic) or at least 3")
    return resolution if resolution > 0 else None


# each [experiment] key's parse(raw, name), which also checks the value
_EXPERIMENT_KEYS = {
    "strategy": _one_of(STRATEGIES, "unknown strategy {value!r}"),
    "m": _checked(_need_int, lambda m: m >= 1, "be at least 1"),
    "p": _checked(_need_float, lambda p: 0.0 <= p < 1.0, "lie in [0, 1)"),
    "trials": _checked(_need_int, lambda n: n >= 1, "be positive"),
    # the seeds coefficient_rng accepts
    "seed": _checked(_need_int, lambda s: 0 <= s < 2**64, "lie in [0, 2^64)"),
    "oracle_resolution": _resolution,
    "workers": _checked(_need_int, lambda n: n >= 1, "be at least 1"),
    "output": lambda raw, name: raw,
    "format": _one_of(("csv", "json"), "{name} must be csv or json"),
    "validate": lambda raw, name: raw.lower() in ("1", "true", "yes", "on"),
}

# the keys each config section accepts; each subcommand offers a flag for
# the keys it reads (cli.COMMAND_KEYS)
CONFIG_KEYS = {
    "model": ("family", "n", "amplitudes", "period"),
    "threshold": ("kind", "tau", "coefficients"),
    "experiment": tuple(_EXPERIMENT_KEYS),
}


@dataclass
class ExperimentConfig:
    """Everything a correctness experiment needs, resolved and typed.

    Its defaults are those of the absent [experiment] keys; ``fmt`` holds
    the ``format`` key.
    """

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


_DEFAULTS = {
    "format" if field.name == "fmt" else field.name: field.default
    for field in dataclass_fields(ExperimentConfig)
}


def resolve_experiment(sections, keys, **defaults) -> dict:
    """Typed values of the [experiment] keys among ``keys``.

    ``keys`` are the config keys a command reads; the [experiment] keys
    not among them are neither parsed nor returned. An absent key takes
    the typed default ``defaults[key]``, else its ``ExperimentConfig``
    field's default. A read seed is required: only commands that draw
    random paths read it.
    """
    exp = sections.get("experiment", {})
    values = {}
    for key in keys:
        if key in _EXPERIMENT_KEYS:
            raw = exp.get(key)
            if raw is None:
                values[key] = defaults.get(key, _DEFAULTS[key])
            else:
                values[key] = _EXPERIMENT_KEYS[key](raw, f"experiment.{key}")
    if "seed" in values and values["seed"] is None:
        raise ConfigError("this command draws random paths; provide --seed")
    return values


def build_experiment_config(sections: dict[str, dict[str, str]], keys) -> ExperimentConfig:
    """Resolve raw config sections into an ExperimentConfig.

    ``keys`` are the config keys the caller reads (see
    :func:`resolve_experiment`); unread fields keep their defaults.
    Exactly one of experiment.m and experiment.p must be present.
    """
    model = build_model(sections.get("model", {}))
    threshold = build_threshold(sections.get("threshold"))
    values = resolve_experiment(sections, keys)
    if (values.get("m") is None) == (values.get("p") is None):
        raise ConfigError("exactly one of experiment.m and experiment.p is required")
    if "format" in values:
        values["fmt"] = values.pop("format")
    return ExperimentConfig(model=model, threshold=threshold, **values)
