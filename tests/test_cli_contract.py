"""Property test of the command line's exit-code contract.

Every argv built from a command's flags (``COMMAND_KEYS``, and for
``orthant-check`` the flags of each ``--mode``) and at most one flag it
does not read, with ordinary values and at most two from pools of edge
cases (0, negatives, sizes that cannot be allocated, non-finite numbers,
empty lists, out-of-range seeds, unusable paths), ends in exit 0, 2, 3
or 4 with no traceback. Half the argvs that do not draw an unusable
``--config`` read a valid config file, whose keys the flags override.
Trial counts stay at most 8, the oracle resolution at most 512 and the
workers at most 2, so one example takes milliseconds; no example writes
a file.
"""
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from toposample.cli import _ORTHANT_MODE_FLAGS, _OUT, COMMAND_KEYS, _flag, main

HERE = Path(__file__).resolve().parent
# an --output or --config that cannot be opened: a directory, and a file in
# a directory that does not exist
BAD_PATHS = (str(HERE), str(HERE / "no-such-dir" / "run.ini"))
# a readable config file of small, valid keys and no output key
VALID_CONFIG = str(HERE / "contract_run.ini")
HUGE = "1000000000000000"  # an array of this many doubles cannot be allocated

# each key's (ordinary values, edge values); an argv takes edge values
# for at most two of its keys, so most edges are met deep in a valid run
POOLS = {
    "family": (("chebyshev", "cosine", "periodic", "binomial", "unit"), ("custom", "sphere", "")),
    # 110: the unit family's jet overflows at the domain ends
    "n": (("5", "0", "110", "2", "1"), ("-1", HUGE, "nan", "", "2.5")),
    "amplitudes": (
        ("0, 1, 1", "0, 1", "1, 0.5, 0.25"),
        ("0", "", ",", "1e200, 1", "nan, 1", "inf", "-1, 2"),
    ),
    "period": (("1", "2.5"), ("0", "-1", "1e-300", "1e300", "nan", "inf")),
    "kind": (("zero", "constant", "cubic_shift", "polynomial"), ("step", "")),
    "tau": (("0", "0.5", "-3"), ("1e300", "nan", "inf", "")),
    "coefficients": (("1, 0, 2", "1", "0.5, -1"), ("", ",", "nan, 1", "1e308, 1e308", "inf")),
    "strategy": (("topology", "uniform", "density"), ("sideways", "")),
    "m": (("1", "4", "7"), ("0", "-3", HUGE, "nan", "inf", "", "2.5")),
    "p": (("0", "0.5", "0.95"), ("1", "-0.1", "1.5", "nan", "inf", "")),
    "trials": (("1", "8"), ("0", "-5", "nan", "inf", "")),
    "seed": (("0", "7", str(2**64 - 1)), (str(2**64), "-1", "nan", "1e3", "x", "")),
    # no 0: it asks for the automatic resolution, which exceeds 512
    "oracle_resolution": (("3", "512"), ("1", "2", "-1", "nan", "inf", "")),
    "workers": (("1", "2"), ("0", "-1", "nan", "")),
    "format": (("csv", "json"), ("xml", "")),
    "grid_size": (("2", "5"), ("1", "0", "-4", HUGE, "nan", "")),
    "n_list": (("4,8", "4", "0"), ("", ",", "-1", "4,nan", "2," + HUGE)),
    "x": (("0", "0.5", "-0.9"), ("-5", "1e300", "nan", "inf")),
    "spacings": (("0.05", "0.25,0.125"), ("", "0", "-0.1", "nan", "1e300", "0.05,x")),
    "shift": (("1,0,0", "0,0,0", "-50,0,0"), ("1e20,0,0", "1e300,0,0", "nan,0,0", "0,0", "")),
    # None leaves the flag out; --output is given only as an edge, so that
    # no example writes a file
    "config": ((VALID_CONFIG, None), BAD_PATHS),
    "output": ((), BAD_PATHS),
    "validate": (("",), ()),
}
# an argv gives the keys its family and threshold kind read, one of m and
# p, and these whenever its command reads them (a required key, or a
# default too large for this test) ...
REQUIRED = ("family", "kind", "trials", "seed", "oracle_resolution", "n_list")
# ... and each of these, when read, half the time
OPTIONAL = ("strategy", "workers", "format", "validate", "grid_size", "x", "spacings", "shift")
FAMILY_KEYS = {"periodic": ("amplitudes", "period")}
KIND_KEYS = {"constant": ("tau",), "cubic_shift": ("tau",), "polynomial": ("coefficients",)}
EXTRA_FLAGS = {"density": ("grid_size",), "scaling": ("n_list",)}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_KEYS)))
    argv = [command]
    reads = COMMAND_KEYS[command] + EXTRA_FLAGS.get(command, ())
    if command == "orthant-check":
        mode = draw(st.sampled_from(sorted(_ORTHANT_MODE_FLAGS)))
        argv += ["--mode", mode]
        reads = _ORTHANT_MODE_FLAGS[mode] + _OUT
    family = draw(st.sampled_from(POOLS["family"][0]))
    kind = draw(st.sampled_from(POOLS["kind"][0]))
    wanted = {
        *REQUIRED,
        *FAMILY_KEYS.get(family, ("n",)),
        *KIND_KEYS.get(kind, ()),
        draw(st.sampled_from(("m", "p"))),
        *(key for key in OPTIONAL if draw(st.booleans())),
    }
    keys = [key for key in reads if key in wanted]
    # at most one more key: one the command, its mode, the family or the
    # kind does not read, or the other of m and p
    stray = draw(st.none() | st.sampled_from(sorted(set(POOLS) - set(keys) - {"config", "output"})))
    keys += [stray] * (stray is not None) + ["config", "output"]
    edges = draw(st.sets(st.sampled_from(keys), max_size=2))
    for key in keys:
        ordinary, edge = POOLS[key]
        if key in edges:
            values = edge
        else:
            values = {"family": (family,), "kind": (kind,)}.get(key, ordinary)
        if values:
            value = draw(st.sampled_from(values))
            if value is not None:
                argv += [_flag(key)] + ([value] if key != "validate" else [])
    return argv


def _exit_code(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_every_argv_ends_in_a_documented_exit_code(argv):
    code, err = _exit_code(argv)
    assert code in (0, 2, 3, 4), (code, err)
    assert "Traceback" not in err


def test_the_valid_config_file_runs():
    # the file the contract test reads is itself a valid run of each command
    # that reads the run keys, so the examples that read it reach the run
    for argv in (["zeros"], ["experiment", "--m", "4"], ["compare", "--p", "0.5"]):
        code, err = _exit_code(argv + ["--config", VALID_CONFIG])
        assert (code, err) == (0, "")
