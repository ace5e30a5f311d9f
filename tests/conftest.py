"""Shared fixtures and the acceptance summary hook."""
import multiprocessing

import numpy as np
import pytest

import toposample as ts
from toposample import harness, planner

# one line per acceptance criterion, printed after the test run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_record():
    """Record a one-line verdict for an acceptance criterion.

    The returned callable appends "[PASS]/[FAIL] criterion N: detail" to
    the summary block and then asserts, so a failing criterion still
    leaves its measured numbers in the report.
    """

    def record(num, ok, detail):
        tag = "PASS" if ok else "FAIL"
        ACCEPTANCE_LINES.append(f"[{tag}] criterion {num}: {detail}")
        assert ok, f"criterion {num}: {detail}"

    return record


@pytest.fixture(autouse=True)
def close_worker_pool():
    """Close the kept worker pool after each test.

    A pool forked while a test's monkeypatch was active would otherwise
    carry the patch into later tests.
    """
    yield
    harness._close_pool()


@pytest.fixture(autouse=True)
def forget_planner_integrals():
    """Empty the planner's kept integrals before each test.

    An integral kept while an earlier test's monkeypatch of ``quadrature``
    or ``density`` was active would otherwise be read back here.
    """
    planner._integral_slots.update(dict.fromkeys(planner._integral_slots))


@pytest.fixture(scope="session", autouse=True)
def no_worker_process_left():
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="session")
def thr():
    return ts.threshold_zero()


@pytest.fixture(scope="session")
def cheb5():
    return ts.chebyshev_model(5)


@pytest.fixture(scope="session")
def binom5():
    return ts.binomial_model(5)


@pytest.fixture(scope="session")
def cosine5():
    return ts.cosine_model(5)


@pytest.fixture(scope="session")
def mode5():
    # five active unit-power frequencies, constant term off
    amps = np.zeros(6)
    amps[1:] = 5.0 ** -0.5
    return ts.periodic_model(amps, 1.0)


@pytest.fixture(scope="session")
def sinusoid():
    # single frequency: every path is a shifted cosine with two zeros
    return ts.periodic_model([0.0, 1.0], 1.0)
