"""The benchmark's own checks reject a perturbed stored result.

Run with: python3 -m pytest -q perfbench
"""
import copy

import pytest

from check import consistency_errors, load_reference, reference_errors


def _experiment(record):
    """A stored experiment record completed into a summary record."""
    rec = dict(record)
    rec["plan"] = {"domain": [-1.0, 1.0], "m": 2, "p": None, "total_weight": 1.0,
                   "grid": [-1.0, 0.0, 1.0]}
    return rec


@pytest.fixture(scope="module")
def plan_ref():
    return load_reference("plan_cheb64", 12345)["plan"]


@pytest.mark.parametrize("workload", ["mc_cheb5", "compare_binom5", "zeros_cheb64"])
def test_count_perturbation_is_rejected(workload):
    ref = load_reference(workload, 0)
    assert reference_errors(copy.deepcopy(ref), ref) == []
    for name, record in ref.items():
        for key in record:
            bad = copy.deepcopy(ref)
            bad[name][key] += 1
            assert reference_errors(bad, ref), (name, key)


def test_unpinned_seed_has_no_reference():
    assert load_reference("mc_cheb5", -1) is None


def test_plan_reference_accepts_itself_and_moves_within_tolerance(plan_ref):
    summary = {"plan": copy.deepcopy(plan_ref)}
    assert reference_errors(summary, {"plan": plan_ref}) == []
    summary["plan"]["grid"][200] += 0.5 * plan_ref["x_tol"][200]
    assert reference_errors(summary, {"plan": plan_ref}) == []


@pytest.mark.parametrize("change", ["grid", "m", "total_weight"])
def test_plan_perturbation_is_rejected(plan_ref, change):
    bad = copy.deepcopy(plan_ref)
    if change == "grid":
        bad["grid"][200] += 4.0 * plan_ref["x_tol"][200]
    elif change == "m":
        bad["m"] += 1
    else:
        bad["total_weight"] *= 1.0 + 1e-9
    assert reference_errors({"plan": bad}, {"plan": plan_ref})


def test_consistency_checks_reject_broken_results(plan_ref):
    plan = {"domain": [-1.0, 1.0], "p": 0.95, **plan_ref}
    assert consistency_errors({"plan": plan}) == []
    for mutate in (
        lambda p: p["grid"].__setitem__(10, p["grid"][9]),  # not strictly increasing
        lambda p: p["grid"].__setitem__(0, -1.0 + 1e-9),  # endpoint moved
        lambda p: p["grid"].pop(),  # M + 1 points no longer
        lambda p: p.__setitem__("total_weight", p["total_weight"] * 1.1),  # M != min_samples
    ):
        bad = copy.deepcopy(plan)
        mutate(bad)
        assert consistency_errors({"plan": bad})

    rec = _experiment(load_reference("mc_cheb5", 0)["topology"])
    assert consistency_errors({"topology": rec}) == []
    for key, delta in (("valid", -1), ("matches_both", 10**6), ("matches_pos", -10**6)):
        bad = copy.deepcopy(rec)
        bad[key] += delta
        assert consistency_errors({"topology": bad}), key

    zeros = dict(load_reference("zeros_cheb64", 0)["zeros"])
    assert consistency_errors({"zeros": zeros}) == []
    zeros["degenerate"] += 1
    assert consistency_errors({"zeros": zeros})
