"""Command line front end.

Every subcommand accepts ``--config FILE`` plus flags that override
individual config keys; flags win. Results go to ``--output`` as CSV or
JSON, or to stdout when no path is given.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(degenerate model, non-finite density, failed factorization), 4 a
requested validation check did not hold.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .config import (
    _need_float,
    _need_int,
    build_experiment_config,
    build_model,
    build_threshold,
    read_config_file,
)
from .density import sampling_density
from .errors import ConfigError, ToposampleError
from .fields import FAMILY_BUILDERS, correlation_jet, threshold_jet
from .harness import (
    compare_strategies,
    emit_table,
    experiment_table,
    profile_dump,
    run_experiment,
    zero_count_experiment,
    zero_count_table,
)
from .orthant import (
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
    sampling_density_fn,
    scaling_study,
    uniform_bound_samples,
)


def _add_common(parser):
    parser.add_argument("--config", help="INI config file")
    parser.add_argument("--family", help="model family")
    parser.add_argument("--n", help="family size parameter")
    parser.add_argument("--amplitudes", help="comma separated amplitudes")
    parser.add_argument("--period", help="period for the periodic family")
    parser.add_argument("--threshold", dest="threshold_kind", help="threshold kind")
    parser.add_argument("--tau", help="threshold level")
    parser.add_argument(
        "--coefficients", help="comma separated polynomial threshold coefficients"
    )
    parser.add_argument("--output", help="output path (default stdout)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), help="output format")


def _add_plan(parser, strategy=True):
    if strategy:
        parser.add_argument("--strategy", help="grid placement strategy")
    parser.add_argument("--m", help="number of grid cells")
    parser.add_argument("--p", help="target success probability")


def _add_experiment(parser):
    parser.add_argument("--trials", help="Monte Carlo trials")
    parser.add_argument("--seed", help="base RNG seed")
    parser.add_argument("--oracle-resolution", help="dense scan points for the reference count")
    parser.add_argument("--workers", help="worker processes")
    parser.add_argument(
        "--validate", action="store_true", help="exit 4 if the result misses its guarantee"
    )


_MODEL_KEYS = ("family", "n", "amplitudes", "period")
_THRESHOLD_KEYS = (("threshold_kind", "kind"), ("tau", "tau"), ("coefficients", "coefficients"))
_EXPERIMENT_KEYS = (
    "strategy",
    "m",
    "p",
    "trials",
    "seed",
    "oracle_resolution",
    "workers",
    "output",
    "fmt",
)


def _merge_sections(args) -> dict:
    """Config file sections with command line overrides applied."""
    sections = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _MODEL_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            sections.setdefault("model", {})[key] = value
    for attr, key in _THRESHOLD_KEYS:
        value = getattr(args, attr, None)
        if value is not None:
            sections.setdefault("threshold", {})[key] = value
    for key in _EXPERIMENT_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            target = "format" if key == "fmt" else key
            sections.setdefault("experiment", {})[target] = str(value)
    if getattr(args, "validate", False):
        sections.setdefault("experiment", {})["validate"] = "true"
    return sections


def _model_threshold(sections):
    model = build_model(sections.get("model", {}))
    threshold = build_threshold(sections.get("threshold"))
    return model, threshold


def _out_fmt(sections):
    exp = sections.get("experiment", {})
    fmt = exp.get("format", "csv").lower()
    if fmt not in ("csv", "json"):
        raise ConfigError("format must be csv or json")
    return exp.get("output"), fmt


def _require_seed(config_seed):
    if config_seed is None:
        raise ConfigError("this command draws random paths; provide --seed")
    return config_seed


def _meta(sections, command):
    return {"command": command, "config": sections}


def cmd_density(args) -> int:
    sections = _merge_sections(args)
    model, threshold = _model_threshold(sections)
    if args.grid_size < 2:
        raise ConfigError("--grid-size must be at least 2")
    header, rows = profile_dump(model, threshold, args.grid_size)
    output, fmt = _out_fmt(sections)
    emit_table(header, rows, output, fmt, _meta(sections, "density"))
    return 0


def cmd_grid(args) -> int:
    sections = _merge_sections(args)
    config = build_experiment_config(sections)
    plan = build_plan(
        config.model, config.threshold, config.strategy, m=config.m, p=config.p
    )
    header = [
        "index", "x", "strategy", "m", "total_weight", "bound",
        "bound_vacuous", "uniform_fallback",
    ]
    rows = [
        [i, x, plan.strategy, plan.m, plan.total_weight, plan.bound,
         plan.bound_vacuous, plan.uniform_fallback]
        for i, x in enumerate(plan.grid)
    ]
    emit_table(header, rows, config.output, config.fmt, _meta(sections, "grid"))
    return 0


def cmd_bound(args) -> int:
    sections = _merge_sections(args)
    model, threshold = _model_threshold(sections)
    exp = sections.get("experiment", {})
    if "m" not in exp and "p" not in exp:
        raise ConfigError("bound needs --m, --p, or both")
    total, _ = cumulative_weight(sampling_density_fn(model, threshold), model.a, model.b)
    header = ["total_weight"]
    row = [total]
    if "m" in exp:
        m = _need_int(exp["m"], "m")
        if m < 1:
            raise ConfigError("m must be at least 1")
        header += ["m", "success_bound", "bound_vacuous"]
        row += [m, failure_bound(total, m), bound_is_vacuous(total, m)]
    if "p" in exp:
        p = _need_float(exp["p"], "p")
        if not 0.0 <= p < 1.0:
            raise ConfigError("p must lie in [0, 1)")
        peak = peak_crossover_rate(model, threshold)
        header += ["p", "min_samples", "peak_crossover_rate", "uniform_samples"]
        row += [
            p,
            min_samples(total, p),
            peak,
            uniform_bound_samples(peak, model.b - model.a, p),
        ]
    output, fmt = _out_fmt(sections)
    emit_table(header, [row], output, fmt, _meta(sections, "bound"))
    return 0


def cmd_experiment(args) -> int:
    sections = _merge_sections(args)
    config = build_experiment_config(sections)
    _require_seed(config.seed)
    result = run_experiment(config)
    header, rows = experiment_table(result)
    emit_table(header, rows, config.output, config.fmt, _meta(sections, "experiment"))
    if config.validate and not result.plan.bound_vacuous:
        # guarantee applies to each sign's component count separately
        target = result.plan.bound
        ok = True
        for matched in (result.matches_pos, result.matches_neg):
            rate = matched / result.valid if result.valid else 0.0
            slack = 3.0 * math.sqrt(max(rate * (1.0 - rate), 1e-12) / max(result.valid, 1))
            ok = ok and rate >= target - slack
        if not ok:
            print("validation failed: match rate below guarantee", file=sys.stderr)
            return 4
    return 0


def cmd_compare(args) -> int:
    sections = _merge_sections(args)
    if "strategy" in sections.get("experiment", {}):
        raise ConfigError("compare runs every strategy; remove experiment.strategy")
    config = build_experiment_config(sections)
    _require_seed(config.seed)
    m = config.m
    if m is None:
        m = build_plan(config.model, config.threshold, "topology", p=config.p).m
    results = compare_strategies(
        config.model,
        config.threshold,
        m,
        config.trials,
        config.seed,
        oracle_resolution=config.oracle_resolution,
        workers=config.workers,
    )
    header, _ = experiment_table(results[0][1])
    rows = [experiment_table(res)[1][0] for _, res in results]
    emit_table(header, rows, config.output, config.fmt, _meta(sections, "compare"))
    return 0


def cmd_zeros(args) -> int:
    sections = _merge_sections(args)
    exp = sections.setdefault("experiment", {})
    # zero counting needs no grid, so satisfy the m/p rule artificially
    if "m" not in exp and "p" not in exp:
        exp["m"] = "1"
    config = build_experiment_config(sections)
    _require_seed(config.seed)
    result = zero_count_experiment(
        config.model,
        config.trials,
        config.seed,
        oracle_resolution=config.oracle_resolution,
        workers=config.workers,
    )
    header, rows = zero_count_table(result)
    emit_table(header, rows, config.output, config.fmt, _meta(sections, "zeros"))
    if config.validate:
        if not (result.stderr > 0 and abs(result.mean_zeros - result.expected) <= 4.0 * result.stderr):
            print("validation failed: mean zero count far from prediction", file=sys.stderr)
            return 4
    return 0


def cmd_scaling(args) -> int:
    sections = _merge_sections(args)
    family = sections.get("model", {}).get("family")
    if family is None:
        raise ConfigError("scaling needs --family")
    family = family.lower()
    if family not in FAMILY_BUILDERS:
        raise ConfigError(
            f"scaling supports the families {', '.join(FAMILY_BUILDERS)}, not {family!r}"
        )
    try:
        n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--n-list must list integers, got {args.n_list!r}") from None
    if not n_list:
        raise ConfigError("scaling needs --n-list")
    if min(n_list) < 0:
        raise ConfigError("--n-list sizes must be nonnegative")
    if not 0.0 <= args.p < 1.0:
        raise ConfigError("p must lie in [0, 1)")
    rows_data = scaling_study(family, n_list, args.p)
    header = [
        "n",
        "expected_zeros",
        "samples_topology",
        "samples_uniform",
        "total_weight",
    ]
    rows = [
        [r.n, r.expected_zeros, r.samples_topology, r.samples_uniform, r.total_weight]
        for r in rows_data
    ]
    output, fmt = _out_fmt(sections)
    emit_table(header, rows, output, fmt, _meta(sections, "scaling"))
    return 0


def _parse_floats(text, what):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{what}: expected comma separated numbers") from exc
    if not values:
        raise ConfigError(f"{what}: empty list")
    return values


def cmd_orthant_check(args) -> int:
    sections = _merge_sections(args)
    output, fmt = _out_fmt(sections)
    meta = _meta(sections, "orthant-check")

    if args.mode == "weight":
        if args.shift is None:
            raise ConfigError("weight mode needs --shift")
        shift = _parse_floats(args.shift, "--shift")
        weight = orthant_weight(shift)
        header = ["n", "weight"]
        row = [len(shift), weight]
        if len(shift) == 3:
            mirrored = orthant_weight([-s for s in shift])
            header += ["weight_closed_form", "pair_sum", "pair_identity"]
            row += [orthant_weight_closed3(shift), weight + mirrored, orthant_weight_pair3(shift)]
        emit_table(header, [row], output, fmt, meta)
        return 0

    model, threshold = _model_threshold(sections)
    x = args.x
    if x is None:
        x = 0.5 * (model.a + model.b)
    if not model.a <= x <= model.b:
        raise ConfigError(f"--x {x} lies outside the model domain [{model.a}, {model.b}]")
    spacings = _parse_floats(args.spacings, "--spacings")

    if args.mode == "eigen":
        report = eigen_expansion_check(model, threshold, x, spacings)
        header = [
            "spacing",
            "small_ratio",
            "mid_ratio",
            "large_value",
            "det_ratio",
            "proj_small_ratio",
            "proj_mid_ratio",
            "proj_large",
            "angle_small",
            "angle_mid",
            "angle_large",
        ]
        rows = [
            [
                s.spacing,
                s.small_ratio,
                s.mid_ratio,
                s.large_value,
                s.det_ratio,
                s.proj_small_ratio,
                s.proj_mid_ratio,
                s.proj_large,
                s.angles[0],
                s.angles[1],
                s.angles[2],
            ]
            for s in report.steps
        ]
        meta = dict(meta)
        meta["predicted"] = {
            "small_ratio": report.predicted_small,
            "mid_ratio": report.predicted_mid,
            "large_value": report.predicted_large,
            "det_ratio": report.predicted_det,
            "proj_small_ratio": report.predicted_proj_small,
            "proj_mid_ratio": report.predicted_proj_mid,
            "proj_large": report.predicted_proj_large,
        }
        meta["orders"] = report.orders
        emit_table(header, rows, output, fmt, meta)
        return 0

    # Monte Carlo crossover probability against the rate prediction
    exp = sections.get("experiment", {})
    trials = _need_int(exp.get("trials", "100000"), "trials")
    if trials < 1:
        raise ConfigError("trials must be positive")
    seed = _require_seed(_need_int(exp["seed"], "seed") if "seed" in exp else None)
    jet = correlation_jet(model, x)
    rate = sampling_density(jet, threshold_jet(threshold, x)).crossover_rate
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
        est = crossover_probability_mc(model, threshold, x, spacing, trials, seed)
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
    emit_table(header, rows, output, fmt, meta)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toposample",
        description="Density guided sampling of smooth random field excursion sets",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="tabulate densities across the domain")
    _add_common(p)
    p.add_argument("--grid-size", type=int, default=201, help="table rows")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("grid", help="print the planned sample points")
    _add_common(p)
    _add_plan(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("bound", help="failure bound and sample size calculator")
    _add_common(p)
    _add_plan(p, strategy=False)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("experiment", help="grid versus reference component counts")
    _add_common(p)
    _add_plan(p)
    _add_experiment(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("compare", help="run every strategy on the same paths")
    _add_common(p)
    _add_plan(p, strategy=False)
    _add_experiment(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("zeros", help="mean zero count against its prediction")
    _add_common(p)
    _add_experiment(p)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("scaling", help="predicted sample counts across family sizes")
    _add_common(p)
    p.add_argument("--n-list", required=True, help="comma separated family sizes")
    p.add_argument("--p", type=float, default=0.95, help="target success probability")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser(
        "orthant-check", help="local covariance expansion and crossover checks"
    )
    _add_common(p)
    p.add_argument("--mode", choices=("eigen", "mc", "weight"), default="eigen")
    p.add_argument("--x", type=float, help="expansion point (default domain midpoint)")
    p.add_argument(
        "--spacings",
        default="0.0625,0.03125,0.015625,0.0078125,0.00390625,0.001953125",
        help="comma separated grid spacings",
    )
    p.add_argument("--shift", help="comma separated shift vector (weight mode)")
    p.add_argument("--trials", help="Monte Carlo trials (mc mode)")
    p.add_argument("--seed", help="base RNG seed (mc mode)")
    p.set_defaults(func=cmd_orthant_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ToposampleError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
