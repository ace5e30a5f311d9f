"""Command line interface, in process."""
import json
import warnings

import numpy as np
import pytest

import toposample as ts
from toposample import config, planner, quadrature
from toposample.cli import _ORTHANT_MODE_FLAGS, _OUT, COMMAND_KEYS, main
from toposample.config import CONFIG_KEYS


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _csv_rows(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_density_table(capsys):
    code, out, _ = _run(
        capsys, "density", "--family", "chebyshev", "--n", "5", "--grid-size", "17"
    )
    assert code == 0
    header, rows = _csv_rows(out)
    assert header[:3] == ["x", "density", "cuberoot_density"]
    assert len(rows) == 17


def test_grid_command_topology(capsys):
    code, out, _ = _run(
        capsys, "grid", "--family", "chebyshev", "--n", "5", "--m", "8"
    )
    assert code == 0
    header, rows = _csv_rows(out)
    assert header[-1] == "uniform_fallback"
    assert len(rows) == 9  # one row per point: 8 cells need 9 points
    k = header.index("x")
    xs = np.array([float(row[k]) for row in rows])
    assert xs[0] == -1.0 and xs[-1] == 1.0
    # equal-mass grid for an even density is symmetric about zero
    assert np.max(np.abs(xs + xs[::-1])) < 1e-9


def test_bound_command(capsys):
    code, out, _ = _run(
        capsys, "bound", "--family", "chebyshev", "--n", "5", "--p", "0.95"
    )
    assert code == 0
    header, rows = _csv_rows(out)
    idx = {name: i for i, name in enumerate(header)}
    assert int(rows[0][idx["min_samples"]]) == 8
    assert int(rows[0][idx["uniform_samples"]]) == 17
    assert float(rows[0][idx["total_weight"]]) == pytest.approx(1.396068613497449, rel=1e-9)
    assert float(rows[0][idx["peak_crossover_rate"]]) == pytest.approx(
        1.2406976956018596, rel=1e-9
    )


def test_bound_columns_flag_a_vacuous_bound(capsys):
    # K^3 ~ 236 exceeds M^2 = 4: the clamped success bound is 0 and vacuous
    code, out, _ = _run(capsys, "bound", "--family", "chebyshev", "--n", "20", "--m", "2")
    assert code == 0
    header, rows = _csv_rows(out)
    row = dict(zip(header, rows[0]))
    assert header == ["total_weight", "m", "success_bound", "bound_vacuous"]
    assert float(row["success_bound"]) == 0.0
    assert row["bound_vacuous"] == "1"


def test_scaling_bad_p_is_config_error(capsys):
    code, _, err = _run(
        capsys, "scaling", "--family", "chebyshev", "--n-list", "3,5", "--p", "1.5"
    )
    assert code == 2
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "family, n_list", [("fourier", "3"), ("periodic", "3"), ("chebyshev", "3,x")]
)
def test_scaling_bad_family_or_sizes_is_config_error(capsys, family, n_list):
    code, _, err = _run(capsys, "scaling", "--family", family, "--n-list", n_list)
    assert code == 2
    assert err.startswith("config error:")
    assert "Traceback" not in err


CHEB5 = ("--family", "chebyshev", "--n", "5")
RUN = ("--trials", "10", "--seed", "1")


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", *CHEB5, "--m", "x"),
        ("bound", *CHEB5, "--p", "abc"),
        ("density", *CHEB5, "--grid-size", "1"),
        ("orthant-check", *CHEB5, "--mode", "mc", "--trials", "abc", "--seed", "1"),
        ("orthant-check", *CHEB5, "--mode", "mc", "--trials", "0", "--seed", "1"),
        ("orthant-check", *CHEB5, "--mode", "mc", "--trials", "10", "--seed", "x"),
        ("orthant-check", *CHEB5, "--x", "5"),
        ("orthant-check", *CHEB5, "--mode", "mc", "--x", "-1.5", *RUN),
        ("experiment", *CHEB5, "--m", "4", *RUN, "--oracle-resolution", "2"),
        ("zeros", *CHEB5, *RUN, "--oracle-resolution", "1"),
        ("orthant-check", *CHEB5, "--mode", "mc", "--spacings", "-0.1", *RUN),
        ("orthant-check", *CHEB5, "--spacings", "0"),
        ("orthant-check", *CHEB5, "--spacings", "nan"),
        ("orthant-check", *CHEB5, "--spacings", "-0.1"),
        ("orthant-check", *CHEB5, "--x", "0.9", "--spacings", "0.25"),
        ("orthant-check", *CHEB5, "--mode", "mc", "--x", "0.9", "--spacings", "0.25", *RUN),
        ("orthant-check", "--mode", "weight", "--shift", "nan,0,0"),
        ("orthant-check", "--mode", "weight", "--shift", "inf,0,0"),
        ("orthant-check", "--mode", "weight", "--shift", ","),
        ("density", *CHEB5, "--threshold", "constant", "--tau", "nan"),
        ("density", *CHEB5, "--threshold", "polynomial", "--coefficients", "1,inf"),
        ("grid", "--family", "periodic", "--amplitudes", "nan,1", "--m", "8"),
        ("grid", "--family", "periodic", "--amplitudes", "0,1,1", "--period", "inf", "--m", "8"),
        # a key the chosen threshold kind or model family does not read
        ("density", *CHEB5, "--tau", "5"),
        ("bound", *CHEB5, "--threshold", "zero", "--tau", "1", "--m", "4"),
        ("grid", *CHEB5, "--threshold", "polynomial", "--coefficients", "1", "--tau", "1", "--m", "4"),
        ("density", *CHEB5, "--coefficients", "1,2"),
        ("experiment", *CHEB5, "--threshold", "cubic_shift", "--coefficients", "1", "--m", "4", *RUN),
        ("compare", "--family", "periodic", "--amplitudes", "0,1", "--n", "3", "--m", "4", *RUN),
        ("grid", *CHEB5, "--period", "2", "--m", "4"),
        ("orthant-check", "--family", "binomial", "--n", "5", "--amplitudes", "1,1"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_value_is_config_error(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_overflowing_amplitudes_give_only_the_config_error(capsys):
    # squaring 1e160 overflows; the model's finiteness check is the only
    # message, with no numpy warning (which a shell would see on stderr)
    argv = ("zeros", "--family", "periodic", "--amplitudes", "1e160,1e160")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, *argv, "--trials", "3", "--seed", "1")
    assert code == 2 and out == ""
    assert err == "config error: coefficient variances and covariance must be finite\n"
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 1)])
@pytest.mark.parametrize(
    "argv",
    [
        ("zeros", *CHEB5, "--trials", "20", "--oracle-resolution", "256"),
        ("orthant-check", *CHEB5, "--mode", "mc", "--spacings", "0.25", "--trials", "10"),
    ],
    ids=["zeros", "orthant-mc"],
)
def test_seed_outside_64_bits_is_config_error(capsys, argv, seed):
    # a seed outside [0, 2^64) used to alias the seed it equals modulo 2^64
    code, out, err = _run(capsys, *argv, "--seed", seed)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: experiment.seed must lie in [0, 2^64)")


def test_unwritable_output_is_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    for output in (str(target), str(tmp_path)):  # no parent directory; a directory
        code, out, err = _run(capsys, "density", *CHEB5, "--grid-size", "5", "--output", output)
        assert code == 2
        assert out == ""
        assert err.startswith(f"config error: cannot write output file {output}:")
        assert "Traceback" not in err
    assert not target.parent.exists()


def test_experiment_csv_and_validate_pass(tmp_path, capsys):
    out_path = tmp_path / "exp.csv"
    code, _, _ = _run(
        capsys,
        "experiment",
        "--family",
        "chebyshev",
        "--n",
        "5",
        "--m",
        "8",
        "--trials",
        "400",
        "--seed",
        "12",
        "--oracle-resolution",
        "1024",
        "--validate",
        "--output",
        str(out_path),
    )
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    assert "\r" not in text
    header, rows = _csv_rows(text)
    assert len(rows) == 1
    idx = {name: i for i, name in enumerate(header)}
    assert int(rows[0][idx["trials"]]) == 400


def test_experiment_validate_failure_exit_code(capsys):
    # a uniform grid this coarse cannot reach the guided-grid bound
    code, _, err = _run(
        capsys,
        "experiment",
        "--family",
        "chebyshev",
        "--n",
        "10",
        "--strategy",
        "uniform",
        "--m",
        "12",
        "--trials",
        "400",
        "--seed",
        "12",
        "--oracle-resolution",
        "2048",
        "--validate",
    )
    assert code == 4


@pytest.mark.parametrize("command", ["grid", "experiment", "compare"])
def test_experiment_keys_are_parsed_once_per_run(capsys, monkeypatch, command):
    parses = []

    def counted(key, parse):
        def parse_and_count(raw, name):
            parses.append(key)
            return parse(raw, name)
        return parse_and_count

    for key in ("m", "trials"):
        monkeypatch.setitem(config._EXPERIMENT_KEYS, key, counted(key, config._EXPERIMENT_KEYS[key]))
    argv = [command, "--family", "chebyshev", "--n", "3", "--m", "6"]
    if command != "grid":
        argv += ["--trials", "2", "--seed", "1"]
    code, _, err = _run(capsys, *argv)
    assert (code, err) == (0, "")
    assert sorted(parses) == (["m"] if command == "grid" else ["m", "trials"])


def test_experiment_missing_seed_is_config_error(capsys):
    code, _, err = _run(
        capsys, "experiment", "--family", "chebyshev", "--n", "5", "--m", "4"
    )
    assert code == 2
    assert "seed" in err


def test_unknown_family_is_config_error(capsys):
    code, _, err = _run(capsys, "density", "--family", "fourier", "--n", "3")
    assert code == 2


def test_degenerate_point_is_numerical_error(capsys):
    # cosine family jets collapse at the left endpoint
    cosine_at_0 = ("--family", "cosine", "--n", "5", "--x", "0.0", "--spacings", "0.01")
    for mode in (("--mode", "eigen"), ("--mode", "mc", *RUN)):
        code, _, err = _run(capsys, "orthant-check", *cosine_at_0, *mode)
        assert code == 3
        assert err.startswith("numerical failure:")


def test_config_file_with_flag_override(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[model]\nfamily = chebyshev\nn = 5\n\n"
        "[experiment]\nm = 4\ntrials = 50\nseed = 9\noracle_resolution = 512\n",
        encoding="utf-8",
    )
    code, base_out, _ = _run(capsys, "experiment", "--config", str(ini))
    assert code == 0
    code, wider_out, _ = _run(
        capsys, "experiment", "--config", str(ini), "--m", "8"
    )
    assert code == 0
    header, rows = _csv_rows(base_out)
    _, wider_rows = _csv_rows(wider_out)
    idx = {name: i for i, name in enumerate(header)}
    assert int(rows[0][idx["m"]]) == 4
    assert int(wider_rows[0][idx["m"]]) == 8


def test_compare_emits_three_rows(capsys):
    code, out, _ = _run(
        capsys,
        "compare",
        "--family",
        "binomial",
        "--n",
        "5",
        "--m",
        "6",
        "--trials",
        "60",
        "--seed",
        "8",
        "--oracle-resolution",
        "512",
    )
    assert code == 0
    header, rows = _csv_rows(out)
    assert [row[0] for row in rows] == ["topology", "uniform", "density"]


def test_zero_mass_falls_back_to_uniform_grids(capsys):
    # a constant field has no zeros and no sampling density; compare and
    # grid --strategy density exit 0 with uniform grids, as topology does
    code, out, err = _run(
        capsys, "compare", "--family", "chebyshev", "--n", "0", "--m", "4",
        "--trials", "64", "--seed", "1",
    )
    assert (code, err) == (0, "")
    _, rows = _csv_rows(out)
    assert [row[0] for row in rows] == ["topology", "uniform", "density"]
    for strategy in ("topology", "density"):
        code, out, err = _run(
            capsys, "grid", "--family", "chebyshev", "--n", "0", "--m", "4",
            "--strategy", strategy,
        )
        assert (code, err) == (0, "")
        header, rows = _csv_rows(out)
        fallback = header.index("uniform_fallback")
        assert [float(row[1]) for row in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert {row[fallback] for row in rows} == {"1"}


def test_compare_by_p_integrates_each_density_once(capsys, monkeypatch):
    # --p picks m from the cube-root integral that also places the grids:
    # two integrals, as for --m, and the rows of --m with that m
    argv = ["compare", "--family", "binomial", "--n", "5", "--threshold", "cubic_shift"]
    argv += ["--trials", "40", "--seed", "8", "--oracle-resolution", "512"]
    calls = []
    simpson = quadrature.adaptive_simpson

    def counting(*args, **kwargs):
        calls.append(args)
        return simpson(*args, **kwargs)

    monkeypatch.setattr(planner, "adaptive_simpson", counting)
    monkeypatch.setattr(quadrature, "adaptive_simpson", counting)
    code, by_p, _ = _run(capsys, *argv, "--p", "0.9")
    assert code == 0 and len(calls) == 2
    monkeypatch.undo()
    m = ts.build_plan(ts.binomial_model(5), ts.threshold_cubic_shift(0.0), "topology", p=0.9).m
    code, by_m, _ = _run(capsys, *argv, "--m", str(m))
    assert code == 0 and by_p == by_m
    header, rows = _csv_rows(by_p)
    assert {row[header.index("m")] for row in rows} == {str(m)}


def test_compare_strategies_takes_exactly_one_of_m_and_p(binom5):
    threshold = ts.threshold_zero()
    for m, p in ((None, None), (4, 0.9)):
        with pytest.raises(ValueError, match="exactly one of m and p"):
            ts.compare_strategies(binom5, threshold, m, trials=2, seed=1, p=p)


SCALING = ("scaling", "--family", "chebyshev", "--n-list", "3")

# flags that a command does not read, and abbreviations of flags it does
NOT_OFFERED = {
    "compare --strategy": ("compare", *CHEB5, "--m", "6", *RUN, "--strategy", "uniform"),
    "compare --validate": ("compare", *CHEB5, "--m", "6", *RUN, "--validate"),
    "zeros --threshold": ("zeros", *CHEB5, *RUN, "--threshold", "constant"),
    "zeros --tau": ("zeros", *CHEB5, *RUN, "--tau", "1.5"),
    "zeros --coefficients": ("zeros", *CHEB5, *RUN, "--coefficients", "1,2"),
    "scaling --n": (*SCALING, "--n", "4"),
    "scaling --amplitudes": (*SCALING, "--amplitudes", "0,1"),
    "scaling --period": (*SCALING, "--period", "2"),
    "scaling --threshold": (*SCALING, "--threshold", "constant"),
    "scaling --tau": (*SCALING, "--tau", "2"),
    "scaling --coefficients": (*SCALING, "--coefficients", "1"),
    "density --fam": ("density", "--fam", "chebyshev", "--n", "5"),
    "experiment --oracle-res": ("experiment", *CHEB5, "--m", "4", *RUN, "--oracle-res", "512"),
    # flags that the chosen orthant-check --mode does not read
    "orthant-check weight --family": (
        "orthant-check", "--mode", "weight", "--shift", "1,0,0", *CHEB5,
    ),
    "orthant-check weight --spacings": (
        "orthant-check", "--mode", "weight", "--shift", "1,0,0",
        "--family", "periodic", "--n", "3", "--spacings", "-1", "--tau", "5",
    ),
    "orthant-check weight --x": ("orthant-check", "--mode", "weight", "--shift", "1", "--x", "0"),
    "orthant-check weight --seed": ("orthant-check", "--mode", "weight", "--shift", "1", *RUN),
    "orthant-check eigen --trials": (
        "orthant-check", *CHEB5, "--mode", "eigen", "--trials", "0", "--seed", "x",
    ),
    "orthant-check eigen --seed": ("orthant-check", *CHEB5, "--seed", "7"),
    "orthant-check eigen --shift": ("orthant-check", *CHEB5, "--shift", "1,0,0"),
    "orthant-check mc --shift": ("orthant-check", *CHEB5, "--mode", "mc", *RUN, "--shift", "1"),
}


@pytest.mark.parametrize("flag", NOT_OFFERED)
def test_flag_not_offered_exits_2(capsys, flag):
    # the parser rejects a flag its command lacks, and orthant-check a
    # flag its --mode does not read
    try:
        code = main(list(NOT_OFFERED[flag]))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    command, *mode, name = flag.split()
    if mode:
        assert err.startswith(f"config error: --mode {mode[0]} does not read ")
        assert name in err.split("does not read ")[1].strip().split(", ")
    else:
        assert "unrecognized arguments: " + name in err
    assert "Traceback" not in err


def test_compare_strategy_config_key_is_config_error(tmp_path, capsys):
    ini = tmp_path / "compare.ini"
    ini.write_text(
        "[model]\nfamily = binomial\nn = 5\n\n"
        "[experiment]\nstrategy = uniform\nm = 6\ntrials = 10\nseed = 1\n",
        encoding="utf-8",
    )
    code, out, err = _run(capsys, "compare", "--config", str(ini))
    assert code == 2
    assert out == ""
    assert err.startswith("config error:")
    assert "strategy" in err


def test_zeros_json_structure(tmp_path, capsys):
    out_path = tmp_path / "zeros.json"
    code, _, _ = _run(
        capsys,
        "zeros",
        "--family",
        "binomial",
        "--n",
        "5",
        "--trials",
        "80",
        "--seed",
        "3",
        "--oracle-resolution",
        "512",
        "--format",
        "json",
        "--output",
        str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert set(doc) == {"version", "meta", "columns", "rows"}
    assert doc["meta"]["command"] == "zeros"
    idx = doc["columns"].index("mean_zeros")
    assert doc["rows"][0][idx] > 0.0


@pytest.mark.parametrize(
    "argv, want",
    [
        # no zeros: mean, stderr and prediction are all 0
        (("--n", "0", "--trials", "50"), 0),
        (("--n", "5", "--trials", "200"), 0),
        # three scan points miss most of the about 11 zeros
        (("--n", "20", "--trials", "50", "--oracle-resolution", "3"), 4),
    ],
    ids=["chebyshev 0", "chebyshev 5", "chebyshev 20 at 3 points"],
)
def test_zeros_validate_exit_code(capsys, argv, want):
    code, _, err = _run(capsys, "zeros", "--family", "chebyshev", *argv, "--seed", "1", "--validate")
    assert code == want
    assert ("far from prediction" in err) == (want == 4)


def test_scaling_reads_p_from_the_config_file(tmp_path, capsys):
    ini = tmp_path / "scaling.ini"
    ini.write_text("[experiment]\np = 0.5\n", encoding="utf-8")
    scaling = ("scaling", "--config", str(ini), "--family", "chebyshev", "--n-list", "8")
    samples = {}
    for extra in ((), ("--p", "0.95")):
        code, out, _ = _run(capsys, *scaling, *extra)
        assert code == 0
        header, rows = _csv_rows(out)
        samples[extra] = int(rows[0][header.index("samples_topology")])
    # the flag overrides the file, and the file overrides the default
    assert samples[()] == ts.scaling_study("chebyshev", [8], 0.5)[0].samples_topology
    assert samples[("--p", "0.95")] == ts.scaling_study("chebyshev", [8], 0.95)[0].samples_topology
    assert samples[()] < samples[("--p", "0.95")]


def test_scaling_column_order(capsys):
    code, out, _ = _run(
        capsys, "scaling", "--family", "chebyshev", "--n-list", "2,4", "--p", "0.95"
    )
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["n", "expected_zeros", "samples_topology", "samples_uniform", "total_weight"]
    assert [int(r[0]) for r in rows] == [2, 4]


def test_orthant_weight_mode(capsys):
    code, out, _ = _run(capsys, "orthant-check", "--mode", "weight", "--shift", "1,0,0")
    assert code == 0
    header, rows = _csv_rows(out)
    idx = {name: i for i, name in enumerate(header)}
    closed = float(rows[0][idx["weight_closed_form"]])
    assert closed == pytest.approx(0.15067956668754151, rel=1e-10)
    quad = float(rows[0][idx["weight"]])
    assert quad == pytest.approx(closed, abs=1e-9)
    assert float(rows[0][idx["pair_sum"]]) == pytest.approx(
        float(rows[0][idx["pair_identity"]]), rel=1e-12
    )


@pytest.mark.parametrize("shift", ["1e308,1e308,1e308", "-1e308", "2e18,0,0"])
def test_oversized_shift_is_config_error(capsys, shift):
    # alpha_1 + 40 rounds to alpha_1: once a ValueError traceback with exit 1
    code, out, err = _run(capsys, "orthant-check", "--mode", "weight", f"--shift={shift}")
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: --shift {shift}:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["zeros", "--family", "chebyshev", "--n", "5", "--trials", "3", "--seed", "1"]
        + ["--oracle-resolution", "1000000000000000"],
        ["grid", "--family", "chebyshev", "--n", "5", "--m", "1000000000000000"],
    ],
    ids=["zeros-resolution", "grid-m"],
)
def test_sizes_beyond_memory_are_config_errors(capsys, argv):
    # 10^15 doubles are 8 PB, past any address space, so the allocation
    # fails at once whatever the overcommit setting: once a numpy
    # _ArrayMemoryError traceback with exit 1
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: the requested sizes do not fit in memory (")
    assert len(err.strip().splitlines()) == 1


def test_eigen_mode_layout(capsys):
    code, out, _ = _run(
        capsys, "orthant-check", "--family", "binomial", "--n", "5",
        "--mode", "eigen", "--x", "0.7", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    names = [
        "small_ratio", "mid_ratio", "large_value", "det_ratio",
        "proj_small_ratio", "proj_mid_ratio", "proj_large",
    ]
    assert payload["columns"] == ["spacing", *names, "angle_small", "angle_mid", "angle_large"]
    assert sorted(payload["meta"]["predicted"]) == sorted(names)
    assert sorted(payload["meta"]["orders"]) == sorted(
        ["small_eig", "mid_eig", "large_eig", "det", "proj_small", "proj_mid", "proj_large"]
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--family", "binomial", "--n", "120", "--m", "5"),
        ("density", "--family", "binomial", "--n", "120"),
        (
            "orthant-check", "--family", "binomial", "--n", "150",
            "--mode", "eigen", "--x", "2.9", "--spacings", "0.05",
        ),
        ("density", "--family", "binomial", "--n", "2000"),
        ("scaling", "--family", "binomial", "--n-list", "4,1000000000000000"),
    ],
    ids=["bound", "density", "eigen", "variances", "variances_huge_n"],
)
def test_overflowing_jet_is_numerical_error(capsys, argv):
    # the correlation jet of binomial n >= 103 overflows double precision at
    # x = -3, and from n = 1030 on the variances themselves; those are
    # checked before any is formed, so a huge n fails at once
    code, out, err = _run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure:")
    assert "not finite" in err and "singular" not in err


def test_orthant_mc_mode_deterministic(capsys):
    args = (
        "orthant-check",
        "--family",
        "binomial",
        "--n",
        "5",
        "--mode",
        "mc",
        "--x",
        "0.2",
        "--spacings",
        "0.3",
        "--trials",
        "5000",
        "--seed",
        "44",
    )
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_experiment_worker_count_invariance(tmp_path, capsys):
    outs = []
    for workers in ("1", "2"):
        out_path = tmp_path / f"exp_{workers}.csv"
        code, _, _ = _run(
            capsys,
            "experiment",
            "--family",
            "binomial",
            "--n",
            "4",
            "--m",
            "5",
            "--trials",
            "600",
            "--seed",
            "6",
            "--oracle-resolution",
            "1024",
            "--workers",
            workers,
            "--output",
            str(out_path),
        )
        assert code == 0
        outs.append(out_path.read_bytes())
    assert outs[0] == outs[1]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "toposample" in capsys.readouterr().out


# an invalid value for each [experiment] key; output and format are read
# by every command
BAD_EXPERIMENT_VALUES = {
    "strategy": "bogus", "m": "0", "p": "abc", "trials": "abc", "seed": "x",
    "oracle_resolution": "2", "workers": "0", "validate": "maybe",
}
FAST = ("--trials", "10", "--seed", "1", "--oracle-resolution", "256")
UNREAD_RUNS = {
    "density": (("density", *CHEB5, "--grid-size", "5"), COMMAND_KEYS["density"]),
    "grid": (("grid", *CHEB5, "--m", "4"), COMMAND_KEYS["grid"]),
    "bound": (("bound", *CHEB5, "--m", "4"), COMMAND_KEYS["bound"]),
    "experiment": (("experiment", *CHEB5, "--m", "4", *FAST), COMMAND_KEYS["experiment"]),
    # compare rejects a strategy key by design, so its file leaves it out
    "compare": (
        ("compare", "--family", "binomial", "--n", "5", "--m", "4", *FAST),
        COMMAND_KEYS["compare"] + ("strategy",),
    ),
    "zeros": (("zeros", *CHEB5, *FAST), COMMAND_KEYS["zeros"]),
    "scaling": (SCALING, COMMAND_KEYS["scaling"]),
    **{
        f"orthant-check {mode}": (
            ("orthant-check", "--mode", mode, *argv),
            _ORTHANT_MODE_FLAGS[mode] + _OUT,
        )
        for mode, argv in (
            ("weight", ("--shift", "1,0,0")),
            ("eigen", (*CHEB5, "--spacings", "0.25")),
            ("mc", (*CHEB5, "--spacings", "0.25", "--trials", "100", "--seed", "1")),
        )
    },
}


@pytest.mark.parametrize("run", UNREAD_RUNS)
def test_unread_experiment_keys_are_not_parsed(tmp_path, capsys, run):
    argv, reads = UNREAD_RUNS[run]
    unread = [key for key in CONFIG_KEYS["experiment"] if key not in reads]
    ini = tmp_path / "unread.ini"
    ini.write_text(
        "[experiment]\n" + "".join(f"{key} = {BAD_EXPERIMENT_VALUES[key]}\n" for key in unread),
        encoding="utf-8",
    )
    code, plain, _ = _run(capsys, *argv)
    assert code == 0
    code, with_file, err = _run(capsys, *argv, "--config", str(ini))
    assert (code, err) == (0, "")
    assert with_file == plain
