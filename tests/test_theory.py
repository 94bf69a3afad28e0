from fractions import Fraction

import pytest

from stormopt.theory import (STANDARD_RECIPE_PRODUCT_CAP, check_probabilities,
                             compute_theory_constants, failure_alpha_beta,
                             min_success_probability, quadratic_worst_case_points)


def standard(L=1):
    return compute_theory_constants(L, 10 * L, 10 * L, 10 * L,
                                    Fraction(1, 2), Fraction(1, 2), 2)


def test_standard_recipe_exact_identities():
    tc = standard()
    assert tc.eta2_min == 32
    assert tc.zeta == 42
    assert tc.C1 == Fraction(2, 17)
    assert tc.threshold_A == 9
    assert tc.threshold_B == Fraction(1, 440)
    assert tc.is_standard_recipe()


def test_standard_recipe_scales_with_lipschitz_constant():
    tc = standard(L=3)
    assert tc.eta2_min == 96  # 32 L
    assert tc.zeta == 126     # 42 L
    assert tc.C1 == Fraction(2, 17)   # scale-free
    assert tc.threshold_A == 9
    assert tc.threshold_B == STANDARD_RECIPE_PRODUCT_CAP


def test_strict_condition_exposed():
    tc = standard()
    assert tc.eta2_strict == 320  # literal bound with kappa_ef = 10 L
    assert tc.eta2_strict == 10 * tc.eta2_min


def test_derived_quantities_are_exact_fractions():
    tc = standard()
    assert tc.C3 == Fraction(29, 28)
    assert tc.bound_A == Fraction(493, 56)
    assert tc.epsF_max == 1
    assert tc.nu_min == Fraction(68, 89)
    for field in ("eta2_min", "zeta", "C1", "C3", "bound_A", "bound_B",
                  "epsF_max", "nu_min", "threshold_B"):
        assert isinstance(getattr(tc, field), (Fraction, int))
        assert getattr(tc, field) > 0


def test_non_recipe_inputs_use_general_bounds():
    tc = compute_theory_constants(1, 2, 2, 2, Fraction(1, 2), Fraction(1, 10), 2)
    assert not tc.is_standard_recipe()
    assert tc.threshold_B == tc.bound_B


def test_calculator_is_pure():
    assert standard() == standard()


def test_input_validation():
    with pytest.raises(ValueError):
        compute_theory_constants(0, 1, 1, 1, Fraction(1, 2), Fraction(1, 2), 2)
    with pytest.raises(ValueError):
        compute_theory_constants(1, 1, 1, 1, Fraction(1, 2), 1, 2)
    with pytest.raises(ValueError):
        compute_theory_constants(1, 1, 1, 1, Fraction(1, 2), Fraction(1, 2), 1)


# ------------------------------------------------------- failure probabilities

def test_failure_alpha_beta_no_noise():
    assert failure_alpha_beta(0.0, 4) == (1.0, 1.0)


def test_failure_alpha_beta_published_values_n10():
    a, b = failure_alpha_beta(1.0 - 0.998, 10)
    assert a == pytest.approx(0.266782, abs=5e-7)
    assert b == pytest.approx(0.960751, abs=5e-7)


def test_failure_alpha_n2():
    a, _ = failure_alpha_beta(1.0 - 0.9592, 2)
    assert a == pytest.approx(0.6066, abs=2e-4)


def test_worst_case_point_counts():
    assert quadratic_worst_case_points(2) == 6
    assert quadratic_worst_case_points(10) == 66


def test_min_success_probability_solver():
    # smallest 1-sigma with alpha*beta >= 1/2
    assert min_success_probability(10) == pytest.approx(0.9990, abs=5e-5)
    assert min_success_probability(2) == pytest.approx(0.957603, abs=1e-6)
    a, b = failure_alpha_beta(1.0 - min_success_probability(10), 10)
    assert a * b == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n, points", [(0, None), (-1, None), (2, 0), (2, -3)])
def test_failure_probabilities_need_a_positive_dimension_and_point_count(n, points):
    # n = 0 used to divide by zero, and n = -1 to give a "probability" above 1
    with pytest.raises(ValueError):
        min_success_probability(n, points)
    with pytest.raises(ValueError):
        failure_alpha_beta(0.01, n, points)


def test_check_probabilities_conditions():
    tc = standard()
    res = check_probabilities(tc, 0.999, 0.999)
    assert res == {"ratio_condition": True, "product_condition": True,
                   "half_condition": True}
    res = check_probabilities(tc, 0.6, 0.6)
    assert not res["product_condition"]  # (0.4)^2 = 0.16 > 1/440
    assert not res["half_condition"]
    with pytest.raises(ValueError):
        check_probabilities(tc, 0.0, 0.5)
