"""Command line front end.

Every subcommand accepts ``--config FILE`` plus one flag for each config
key it reads (``COMMAND_KEYS``); flags win over the file. Flags must be
spelled out in full, and ``orthant-check`` rejects a flag its ``--mode``
does not read. Results go to ``--output`` as CSV or JSON, or to
stdout when no path is given.

Every command runs through ``main``: it finds the keys the command
reads, merges the config file with the flags, resolves the
[experiment] values, calls the command for its ``Table`` and emits it.
A command neither reads the file nor writes output itself.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(degenerate model, non-finite density, failed factorization), 4 a
requested validation check did not hold.
"""
from __future__ import annotations

import argparse
import math
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import (
    CONFIG_KEYS,
    SIZED_FAMILY_KEYS,
    _choose,
    _need_floats,
    build_experiment_config,
    build_model,
    build_threshold,
    read_config_file,
    resolve_experiment,
)
from .density import density_profile
from .errors import ConfigError, ToposampleError
from .harness import (
    PLAN_COLUMNS,
    compare_strategies,
    emit_table,
    experiment_table,
    profile_dump,
    run_experiment,
    zero_count_experiment,
    zero_count_table,
)
from .orthant import (
    EIGEN_QUANTITIES,
    crossover_probability_mc,
    eigen_expansion_check,
    orthant_weight,
    orthant_weight_closed3,
    orthant_weight_pair3,
)
from .planner import (
    bound_is_vacuous,
    build_plan,
    cumulative_weight,
    failure_bound,
    min_samples,
    peak_crossover_rate,
    scaling_study,
    uniform_bound_samples,
)


# The config keys each subcommand reads. The parser offers one flag per
# key (--key with '_' as '-', but --threshold for threshold.kind) and
# _merge_sections reads the same keys back, so a command has a flag for
# every key it reads and for no other.
_MODEL = CONFIG_KEYS["model"]
_THRESHOLD = CONFIG_KEYS["threshold"]
_RUN = ("trials", "seed", "oracle_resolution", "workers")
_OUT = ("output", "format")
COMMAND_KEYS = {
    "density": _MODEL + _THRESHOLD + _OUT,
    "grid": _MODEL + _THRESHOLD + ("strategy", "m", "p") + _OUT,
    "bound": _MODEL + _THRESHOLD + ("m", "p") + _OUT,
    "experiment": _MODEL + _THRESHOLD + ("strategy", "m", "p") + _RUN + ("validate",) + _OUT,
    "compare": _MODEL + _THRESHOLD + ("m", "p") + _RUN + _OUT,
    "zeros": _MODEL + _RUN + ("validate",) + _OUT,
    "scaling": ("family", "p") + _OUT,
    "orthant-check": _MODEL + _THRESHOLD + ("trials", "seed") + _OUT,
}
# the [experiment] defaults of a command that differ from ExperimentConfig's
COMMAND_DEFAULTS = {"scaling": {"p": 0.95}, "orthant-check": {"trials": 100000}}

# the flags each orthant-check mode reads, besides --config and _OUT;
# a flag given to a mode that does not read it is a configuration error
_ORTHANT_MODE_FLAGS = {
    "weight": ("shift",),
    "eigen": _MODEL + _THRESHOLD + ("x", "spacings"),
    "mc": _MODEL + _THRESHOLD + ("x", "spacings", "trials", "seed"),
}
_DEFAULT_SPACINGS = "0.0625,0.03125,0.015625,0.0078125,0.00390625,0.001953125"

_SECTION_OF = {key: section for section, keys in CONFIG_KEYS.items() for key in keys}


class Table(NamedTuple):
    """A command's result: what ``main`` emits and how it exits.

    Every row ends with the cells of ``tail``; ``meta`` joins the command
    and its config in the JSON meta; ``failure`` names the requested
    validation check that did not hold (exit 4), or is None.
    """

    header: list
    rows: list
    tail: tuple = ()
    meta: dict = {}
    failure: str | None = None


def _flag(key):
    return "--threshold" if key == "kind" else "--" + key.replace("_", "-")


def _keys_read(args):
    """The keys and flags ``args.command`` reads; a flag it does not read is a ConfigError.

    The parser offers each command only the flags of ``COMMAND_KEYS``,
    but ``orthant-check`` reads only those of its ``--mode``.
    """
    if args.command != "orthant-check":
        return COMMAND_KEYS[args.command]
    reads = _ORTHANT_MODE_FLAGS[args.mode] + _OUT
    stray = [
        _flag(key)
        for key in COMMAND_KEYS["orthant-check"] + ("x", "spacings", "shift")
        if key not in reads and getattr(args, key) is not None
    ]
    if stray:
        raise ConfigError(f"--mode {args.mode} does not read {', '.join(stray)}")
    return reads


def _merge_sections(args, keys) -> dict:
    """Config file sections with the flags of the config keys among ``keys`` applied."""
    sections = read_config_file(args.config) if args.config else {}
    for key in keys:
        value = getattr(args, key)
        if value is not None and key in _SECTION_OF:
            sections.setdefault(_SECTION_OF[key], {})[key] = str(value)
    return sections


def _model_threshold(sections):
    model = build_model(sections.get("model", {}))
    threshold = build_threshold(sections.get("threshold"))
    return model, threshold


def cmd_density(args, sections, run) -> Table:
    model, threshold = _model_threshold(sections)
    if args.grid_size < 2:
        raise ConfigError("--grid-size must be at least 2")
    return Table(*profile_dump(model, threshold, args.grid_size))


def cmd_grid(args, sections, run) -> Table:
    config = build_experiment_config(sections, run)
    plan = build_plan(
        config.model, config.threshold, config.strategy, m=config.m, p=config.p
    )
    # the plan's own cells are the same on every row, so they are formatted once
    columns = PLAN_COLUMNS + ("uniform_fallback",)
    rows = [[i, x] for i, x in enumerate(plan.grid.tolist())]
    return Table(["index", "x", *columns], rows, [getattr(plan, name) for name in columns])


def cmd_bound(args, sections, run) -> Table:
    model, threshold = _model_threshold(sections)
    m, p = run["m"], run["p"]
    if m is None and p is None:
        raise ConfigError("bound needs --m, --p, or both")
    total, _ = cumulative_weight(model, threshold)
    header = ["total_weight"]
    row = [total]
    if m is not None:
        header += ["m", "success_bound", "bound_vacuous"]
        row += [m, failure_bound(total, m), bound_is_vacuous(total, m)]
    if p is not None:
        peak = peak_crossover_rate(model, threshold)
        header += ["p", "min_samples", "peak_crossover_rate", "uniform_samples"]
        row += [
            p,
            min_samples(total, p),
            peak,
            uniform_bound_samples(peak, model.b - model.a, p),
        ]
    return Table(header, [row])


def cmd_experiment(args, sections, run) -> Table:
    config = build_experiment_config(sections, run)
    result = run_experiment(config)
    failure = None
    if config.validate and not result.plan.bound_vacuous:
        # compare each sign's match rate with the plan's leading-order
        # estimate 1 - K^3/M^2 less 3 SE; the estimate is not a bound, so
        # at small M and large trial counts a correct run can fail this
        for matched in (result.matches_pos, result.matches_neg):
            rate = matched / result.valid if result.valid else 0.0
            slack = 3.0 * math.sqrt(max(rate * (1.0 - rate), 1e-12) / max(result.valid, 1))
            if rate < result.plan.bound - slack:
                failure = "match rate more than 3 standard errors below the leading-order estimate"
    return Table(*experiment_table(result), failure=failure)


def cmd_compare(args, sections, run) -> Table:
    if "strategy" in sections.get("experiment", {}):
        raise ConfigError("compare runs every strategy; remove experiment.strategy")
    config = build_experiment_config(sections, run)
    results = compare_strategies(
        config.model,
        config.threshold,
        config.m,
        config.trials,
        config.seed,
        oracle_resolution=config.oracle_resolution,
        workers=config.workers,
        p=config.p,
    )
    tables = [experiment_table(result) for _, result in results]
    return Table(tables[0][0], [rows[0] for _, rows in tables])


def cmd_zeros(args, sections, run) -> Table:
    result = zero_count_experiment(
        build_model(sections.get("model", {})),
        run["trials"],
        run["seed"],
        oracle_resolution=run["oracle_resolution"],
        workers=run["workers"],
    )
    far = run["validate"] and not abs(result.mean_zeros - result.expected) <= 4.0 * result.stderr
    return Table(
        *zero_count_table(result), failure="mean zero count far from prediction" if far else None
    )


def cmd_scaling(args, sections, run) -> Table:
    family = _choose(sections.get("model", {}), "model", "family", SIZED_FAMILY_KEYS)
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--n-list must list integers, got {args.n_list!r}") from None
    if not n_list:
        raise ConfigError("scaling needs --n-list")
    if min(n_list) < 0:
        raise ConfigError("--n-list sizes must be nonnegative")
    # the output's meta records the p in use
    sections.setdefault("experiment", {})["p"] = str(run["p"])
    header = ["n", "expected_zeros", "samples_topology", "samples_uniform", "total_weight"]
    study = scaling_study(family, n_list, run["p"])
    rows = [[getattr(row, name) for name in header] for row in study]
    return Table(header, rows)


def cmd_orthant_check(args, sections, run) -> Table:
    if args.mode == "weight":
        if args.shift is None:
            raise ConfigError("weight mode needs --shift")
        shift = _need_floats(args.shift, "--shift").tolist()
        try:
            weight = orthant_weight(shift)
            mirrored = orthant_weight([-s for s in shift]) if len(shift) == 3 else None
        except ValueError as exc:
            raise ConfigError(f"--shift {args.shift}: {exc}") from None
        header = ["n", "weight"]
        row = [len(shift), weight]
        if len(shift) == 3:
            header += ["weight_closed_form", "pair_sum", "pair_identity"]
            row += [orthant_weight_closed3(shift), weight + mirrored, orthant_weight_pair3(shift)]
        return Table(header, [row])

    model, threshold = _model_threshold(sections)
    x = args.x
    if x is None:
        x = 0.5 * (model.a + model.b)
    if not model.a <= x <= model.b:
        raise ConfigError(f"--x {x} lies outside the model domain [{model.a}, {model.b}]")
    spacings = args.spacings if args.spacings is not None else _DEFAULT_SPACINGS
    spacings = _need_floats(spacings, "--spacings").tolist()
    for spacing in spacings:
        if spacing <= 0.0 or x + spacing > model.b:
            raise ConfigError(
                f"--spacings: each spacing must be positive with x + spacing <= "
                f"{model.b}, got {spacing:g} at x = {x:g}"
            )

    if args.mode == "eigen":
        report = eigen_expansion_check(model, threshold, x, spacings)
        header = ["spacing", *EIGEN_QUANTITIES, "angle_small", "angle_mid", "angle_large"]
        rows = [
            [s.spacing, *(s.observed[name] for name in EIGEN_QUANTITIES), *s.angles]
            for s in report.steps
        ]
        return Table(header, rows, meta={"predicted": report.predicted, "orders": report.orders})

    # Monte Carlo crossover probability against the rate prediction
    rate = float(density_profile(model, threshold, x, strict=True).crossover_rate[0])
    header = [
        "x",
        "spacing",
        "trials",
        "hits",
        "estimate",
        "stderr",
        "predicted",
        "ratio",
    ]
    rows = []
    for spacing in spacings:
        est = crossover_probability_mc(model, threshold, x, spacing, run["trials"], run["seed"])
        predicted = rate * spacing**3
        rows.append(
            [
                x,
                spacing,
                est.trials,
                est.hits,
                est.estimate,
                est.stderr,
                predicted,
                est.estimate / predicted if predicted > 0 else float("nan"),
            ]
        )
    return Table(header, rows)


_COMMANDS = {
    "density": (cmd_density, "tabulate densities across the domain"),
    "grid": (cmd_grid, "print the planned sample points"),
    "bound": (cmd_bound, "failure bound and sample size calculator"),
    "experiment": (cmd_experiment, "grid versus reference component counts"),
    "compare": (cmd_compare, "run every strategy on the same paths"),
    "zeros": (cmd_zeros, "mean zero count against its prediction"),
    "scaling": (cmd_scaling, "predicted sample counts across family sizes"),
    "orthant-check": (cmd_orthant_check, "local covariance expansion and crossover checks"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with a flag for each key in COMMAND_KEYS.

    Abbreviations are off, so a flag a command lacks is never read as
    the prefix of another.
    """
    parser = argparse.ArgumentParser(
        prog="toposample",
        description="Density guided sampling of smooth random field excursion sets",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (func, help_text) in _COMMANDS.items():
        p = commands[name] = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", help="INI config file")
        for key in COMMAND_KEYS[name]:
            p.add_argument(
                _flag(key),
                dest=key,
                help=f"config key {_SECTION_OF[key]}.{key}",
                **({"action": "store_const", "const": "true"} if key == "validate" else {}),
            )
        p.set_defaults(func=func)

    commands["density"].add_argument("--grid-size", type=int, default=201, help="table rows")
    commands["scaling"].add_argument(
        "--n-list", required=True, help="comma separated family sizes"
    )
    p = commands["orthant-check"]
    p.add_argument("--mode", choices=("eigen", "mc", "weight"), default="eigen")
    p.add_argument("--x", type=float, help="expansion point (default domain midpoint)")
    p.add_argument(
        "--spacings", help=f"comma separated grid spacings (default {_DEFAULT_SPACINGS})"
    )
    p.add_argument("--shift", help="comma separated shift vector (weight mode)")
    return parser


def main(argv=None) -> int:
    """Run one command: read its keys, call it, emit its table, map the outcome to an exit code."""
    args = build_parser().parse_args(argv)
    try:
        keys = _keys_read(args)
        sections = _merge_sections(args, keys)
        run = resolve_experiment(sections, keys, **COMMAND_DEFAULTS.get(args.command, {}))
        table = args.func(args, sections, run)
        meta = {"command": args.command, "config": sections, **table.meta}
        emit_table(table.header, table.rows, run["output"], run["format"], meta, table.tail)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy raises it, before touching any memory, for an array the
        # requested sizes (a resolution, a grid size) make too large
        print(f"config error: the requested sizes do not fit in memory ({exc})", file=sys.stderr)
        return 2
    except (ToposampleError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if table.failure is None:
        return 0
    print(f"validation failed: {table.failure}", file=sys.stderr)
    return 4


if __name__ == "__main__":
    sys.exit(main())
