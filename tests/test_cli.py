"""Command line interface, in process."""
import json

import numpy as np
import pytest

from toposample.cli import main


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
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_value_is_config_error(capsys, argv):
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert err.startswith("config error:")
    assert "Traceback" not in err


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
    code, _, err = _run(
        capsys,
        "orthant-check",
        "--family",
        "cosine",
        "--n",
        "5",
        "--mode",
        "eigen",
        "--x",
        "0.0",
        "--spacings",
        "0.01",
    )
    assert code == 3


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


def test_compare_takes_no_strategy_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--family", "binomial", "--n", "5", "--m", "6",
              "--trials", "10", "--seed", "1", "--strategy", "uniform"])
    assert exc.value.code == 2
    assert "--strategy" in capsys.readouterr().err


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


def test_scaling_column_order(capsys):
    code, out, _ = _run(
        capsys, "scaling", "--family", "chebyshev", "--n-list", "2,4", "--p", "0.95"
    )
    assert code == 0
    header, rows = _csv_rows(out)
    assert header == ["n", "expected_zeros", "samples_topology", "samples_uniform", "total_weight"]
    assert [int(r[0]) for r in rows] == [2, 4]


def test_orthant_weight_mode(capsys):
    code, out, _ = _run(
        capsys,
        "orthant-check",
        "--family",
        "chebyshev",
        "--n",
        "3",
        "--mode",
        "weight",
        "--shift",
        "1,0,0",
    )
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
