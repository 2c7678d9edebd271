"""Tests for the closed-form bound evaluators."""

import json
import math
from fractions import Fraction

import pytest

import reference_bounds as ref
from thinlab import bounds
from thinlab.errors import DomainError


def test_threshold_levels_at_known_sizes():
    assert bounds.threshold_L(10**6) == 4
    assert bounds.threshold_L(3) == 5
    assert bounds.threshold_L(100) == 3
    assert bounds.lower_ell(10**6) == 3
    assert bounds.lower_ell(100) == 2


@pytest.mark.parametrize("n", [3, 4, 5, 10, 100, 10**4, 10**6, 10**9])
def test_floor_ceil_pair(n):
    gap = bounds.threshold_L(n) - bounds.lower_ell(n)
    assert gap in (0, 1)


def test_small_n_rejected():
    for fn in (bounds.threshold_L, bounds.lower_ell, bounds.target_maxload):
        with pytest.raises(DomainError):
            fn(2)


def test_target_maxload_identity():
    for n in (3, 100, 10**4, 10**6):
        doubled = 2.0 * math.sqrt(2 * math.log(n) / math.log(math.log(n)))
        assert bounds.target_maxload(n) == pytest.approx(doubled, rel=1e-15)
    assert bounds.target_maxload(10**6) == pytest.approx(6.4882, rel=1e-4)


def test_lemma22_value_and_vacuous_cases():
    assert bounds.lemma22_bound(0.5, 2, 100) == pytest.approx(
        float(ref.ref_lemma22(0.5, 2, 100)), rel=1e-13
    )
    assert bounds.lemma22_bound(0.5, 2, 0) == 2.0
    assert bounds.lemma22_bound(0.0, 1, 10**6) == 2.0


def test_lemma22_large_level_uses_log_gamma():
    value = bounds.lemma22_bound(0.9, 40, 1e12)
    assert value == pytest.approx(float(ref.ref_lemma22(0.9, 40, 1e12)), rel=1e-12)
    assert 0.0 < value <= 2.0


def test_lemma23_values():
    assert bounds.lemma23_bound(1.0, 2 * math.e**2) == pytest.approx(
        2 / math.e, rel=1e-14
    )
    assert bounds.lemma23_bound(0.0, 12345) == 2.0
    assert bounds.lemma23_bound(0.5, 1000) == pytest.approx(
        float(ref.ref_lemma23(0.5, 1000)), rel=1e-13
    )


def test_lemma_domain_checks():
    with pytest.raises(DomainError):
        bounds.lemma22_bound(1.5, 2, 10)
    with pytest.raises(DomainError):
        bounds.lemma22_bound(0.5, 0, 10)
    with pytest.raises(DomainError):
        bounds.lemma23_bound(-0.1, 10)
    with pytest.raises(DomainError):
        bounds.lemma23_bound(0.5, -1)


def test_prop41_value_and_exponent():
    result = bounds.prop41_bound(10**6, 4)
    assert result.value == pytest.approx(float(ref.ref_prop41(10**6, 4)), rel=1e-12)
    assert result.exponent == pytest.approx(
        float(ref.ref_prop41_exponent(10**6, 4)), rel=1e-12
    )
    # At eta=3 the bound is vacuous (raw value above 1).
    assert bounds.prop41_bound(10**6, 3).value > 1.0
    with pytest.raises(DomainError):
        bounds.prop41_bound(15, 1.0)
    with pytest.raises(DomainError):
        bounds.prop41_bound(10**6, 0.0)


def test_prop51_values():
    assert bounds.prop51_bound(10**6, 1) == pytest.approx(1.3097e-7, rel=1e-3)
    assert bounds.prop51_bound(1, 7.5) == pytest.approx(math.exp(-1), rel=1e-15)
    assert bounds.prop51_bound(10**6, 0.5) == pytest.approx(
        float(ref.ref_prop51(10**6, 0.5)), rel=1e-12
    )


def test_stage_params_examples():
    params = bounds.stage_params(10**6, 1, 0.5)
    assert (params.ell, params.s, params.w) == (3, 5, 166667)
    assert params.zeta == pytest.approx(0.0153283, rel=1e-5)
    params = bounds.stage_params(100, 1, 1)
    assert (params.ell, params.s, params.w) == (2, 2, 25)
    assert params.zeta == pytest.approx(0.0229925, rel=1e-5)


@pytest.mark.parametrize("n", [10, 1000, 10**6])
@pytest.mark.parametrize("rho", [0.5, 1.0, 1.75])
@pytest.mark.parametrize("epsilon", [0.25, 0.5, 1.0, 1.9])
def test_stage_windows_cover_the_run(n, rho, epsilon):
    params = bounds.stage_params(n, rho, epsilon)
    assert params.s * params.w >= (1 - epsilon / 2) * rho * n - params.w


def test_rejection_budget_examples():
    assert bounds.rejection_budget(10**6) == pytest.approx(2e6 / 24, rel=1e-12)
    assert bounds.rejection_budget(100) == pytest.approx(200 / 6, rel=1e-12)


def test_monotonicity_grids():
    # lemma22: decreasing in subset size, increasing in level when theta < 1.
    sizes = [1, 10, 100, 1000, 10**4]
    values = [bounds.lemma22_bound(0.5, 2, s) for s in sizes]
    assert all(a > b for a, b in zip(values, values[1:]))
    levels = [1, 2, 3, 4, 5]
    values = [bounds.lemma22_bound(0.5, a, 1000) for a in levels]
    assert all(a < b for a, b in zip(values, values[1:]))
    # lemma23: decreasing in theta and in subset size.
    thetas = [0.1, 0.3, 0.5, 0.9]
    values = [bounds.lemma23_bound(th, 500) for th in thetas]
    assert all(a > b for a, b in zip(values, values[1:]))
    values = [bounds.lemma23_bound(0.5, s) for s in sizes]
    assert all(a > b for a, b in zip(values, values[1:]))
    # prop41 decreasing in eta; prop51 decreasing in n and epsilon.
    etas = [1, 2, 4, 8]
    values = [bounds.prop41_bound(10**6, eta).value for eta in etas]
    assert all(a > b for a, b in zip(values, values[1:]))
    ns = [10, 100, 10**4, 10**8]
    values = [bounds.prop51_bound(n, 1) for n in ns]
    assert all(a > b for a, b in zip(values, values[1:]))
    epsilons = [0.2, 0.5, 1.0, 1.5]
    values = [bounds.prop51_bound(1000, eps) for eps in epsilons]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_clamping_behavior():
    assert bounds.clamp(3.7) == 1.0
    assert bounds.clamp(0.25) == 0.25
    report = bounds.evaluate("lemma22", theta=0.0, a=1, s_size=5)
    assert report.value == 2.0 and report.clamped == 1.0
    report = bounds.evaluate("prop41", n=10**6, eta=4)
    assert report.clamped == report.value < 1.0
    assert "exponent" in report.details


def test_evaluate_dispatch_and_reports():
    report = bounds.evaluate("threshold_L", n=10**6)
    assert report.value == 4.0 and report.clamped is None
    report = bounds.evaluate("stage_params", n=10**6, rho=1, epsilon=0.5)
    assert report.details["w"] == 166667
    assert report.value == report.details["zeta"]
    data = report.as_dict()
    assert data["name"] == "stage_params" and "clamped" not in data
    with pytest.raises(DomainError):
        bounds.evaluate("nonsense", n=3)
    with pytest.raises(DomainError):
        bounds.evaluate("lemma23", wrong_param=1)


def test_reports_serialize_a_fraction_input():
    report = bounds.evaluate("stage_params", n=1000, rho=Fraction(1, 2), epsilon=0.5)
    assert report.inputs["rho"] == Fraction(1, 2)
    data = json.loads(json.dumps(report.as_dict()))
    assert data["inputs"] == {"n": 1000, "rho": "1/2", "epsilon": 0.5}


def test_integer_arguments_are_enforced():
    with pytest.raises(DomainError):
        bounds.threshold_L(1000.0)
    with pytest.raises(DomainError):
        bounds.lemma22_bound(0.5, 2.5, 10)
    with pytest.raises(DomainError):
        bounds.threshold_L(True)
