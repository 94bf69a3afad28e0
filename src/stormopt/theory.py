"""Exact-rational calculator for the convergence-theory parameter conditions,
plus failure-noise success probabilities for the quadratic worst case.

All derived quantities are kept as fractions so the standard-recipe
identities hold exactly. ``eta2_min`` follows the workable published recipe,
in which the step-size threshold scales with the Lipschitz constant:

    eta2_min = max(kappa_bhm, 8 L / (kappa_fcd (1 - eta1)))

The stricter literal bound with kappa_ef in place of L is exposed as
``eta2_strict``; with the conventional choice kappa_* = 10 L the two differ
by exactly the model-error multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

Rat = Union[int, float, str, Fraction]

# Workable probability thresholds shipped with the standard parameter recipe
# (kappa_ef = kappa_eg = kappa_bhm = 10 L, kappa_fcd = 1/2, gamma = 2,
# eta1 = 1/2): the ratio condition rounds up to an integer and the product
# condition uses a fixed conservative cap.
STANDARD_RECIPE_PRODUCT_CAP = Fraction(1, 440)


def _frac(v: Rat) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, float):
        return Fraction(v).limit_denominator(10**12)
    return Fraction(v)


@dataclass(frozen=True)
class TheoryConstants:
    L: Fraction
    kappa_ef: Fraction
    kappa_eg: Fraction
    kappa_bhm: Fraction
    kappa_fcd: Fraction
    eta1: Fraction
    gamma: Fraction
    eta2_min: Fraction      # workable step-size threshold (scales with L)
    eta2_strict: Fraction   # literal bound with kappa_ef as the error scale
    epsF_max: Fraction      # estimate-accuracy cap at eta2 = eta2_min
    zeta: Fraction          # kappa_eg + eta2_min
    C1: Fraction
    C3: Fraction            # 1 + 3L / (2 zeta)
    nu_min: Fraction        # boundary value of the monitor-weight condition
    bound_A: Fraction       # required lower bound on (ab - 1/2)/((1-a)(1-b))
    bound_B: Fraction       # required upper bound on (1-a)(1-b)
    threshold_A: int        # ceil(bound_A): integer presentation of A
    threshold_B: Fraction   # product cap; the recipe constant when applicable

    def is_standard_recipe(self) -> bool:
        return (self.kappa_ef == self.kappa_eg == self.kappa_bhm == 10 * self.L
                and self.kappa_fcd == Fraction(1, 2)
                and self.eta1 == Fraction(1, 2)
                and self.gamma == 2)


def compute_theory_constants(L: Rat, kappa_ef: Rat, kappa_eg: Rat, kappa_bhm: Rat,
                             kappa_fcd: Rat, eta1: Rat, gamma: Rat) -> TheoryConstants:
    L = _frac(L)
    kef, keg, kbhm = _frac(kappa_ef), _frac(kappa_eg), _frac(kappa_bhm)
    kfcd, eta1, gamma = _frac(kappa_fcd), _frac(eta1), _frac(gamma)
    if min(L, kef, keg, kbhm, kfcd) <= 0:
        raise ValueError("L and all kappas must be positive")
    if not 0 < eta1 < 1:
        raise ValueError("need eta1 in (0,1)")
    if gamma <= 1:
        raise ValueError("need gamma > 1")

    eta2 = max(kbhm, 8 * L / (kfcd * (1 - eta1)))
    eta2_strict = max(kbhm, 8 * kef / (kfcd * (1 - eta1)))
    epsF = min(kef, Fraction(1, 8) * eta1 * eta2 * kfcd)
    zeta = keg + eta2
    C1 = kfcd / 4 * max(kbhm / (kbhm + keg), 8 * kef / (8 * kef + kfcd * keg))
    C3 = 1 + 3 * L / (2 * zeta)
    nu_ratio = max(4 * gamma**2 / (zeta * C1),
                   4 * gamma**2 / (eta1 * eta2 * kfcd),
                   gamma**2 / kef)
    nu_min = nu_ratio / (1 + nu_ratio)
    bound_A = C3 / C1
    max_term = max(4 / (zeta * C1), 4 / (eta1 * eta2 * kfcd), 1 / kef)
    bound_B = (gamma**2 - 1) / (gamma**4 - 1 + gamma**2 * (3 * L + 2 * zeta) * max_term)
    tc = TheoryConstants(
        L=L, kappa_ef=kef, kappa_eg=keg, kappa_bhm=kbhm, kappa_fcd=kfcd,
        eta1=eta1, gamma=gamma,
        eta2_min=eta2, eta2_strict=eta2_strict, epsF_max=epsF, zeta=zeta,
        C1=C1, C3=C3, nu_min=nu_min, bound_A=bound_A, bound_B=bound_B,
        threshold_A=math.ceil(bound_A), threshold_B=bound_B)
    if tc.is_standard_recipe():
        object.__setattr__(tc, "threshold_B", STANDARD_RECIPE_PRODUCT_CAP)
    return tc


def check_probabilities(tc: TheoryConstants, alpha: float, beta: float) -> dict:
    """Whether given model/estimate success probabilities meet the ratio and
    product conditions, and the alpha*beta >= 1/2 requirement."""
    if not (0 < alpha <= 1 and 0 < beta <= 1):
        raise ValueError("alpha and beta must lie in (0,1]")
    prod = (1.0 - alpha) * (1.0 - beta)
    ratio_ok = (alpha * beta - 0.5) >= float(tc.bound_A) * prod
    return {
        "ratio_condition": bool(ratio_ok),
        "product_condition": bool(prod <= float(tc.threshold_B)),
        "half_condition": bool(alpha * beta >= 0.5),
    }


def quadratic_worst_case_points(n: int) -> int:
    return (n + 1) * (n + 2) // 2


def _worst_case_points(n: int, points: Optional[int]) -> int:
    """``points``, defaulting to the quadratic count; ValueError unless n and
    the point count are both at least 1."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if points is None:
        points = quadratic_worst_case_points(n)
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    return points


def failure_alpha_beta(sigma: float, n: int,
                       points: Optional[int] = None) -> Tuple[float, float]:
    """Worst-case model and estimate success probabilities under per-component
    computation failures on an n-dimensional sum of n squares:
    alpha = ((1-sigma)^n)^points and beta = ((1-sigma)^n)^2."""
    if not 0 <= sigma <= 1:
        raise ValueError("sigma must lie in [0,1]")
    points = _worst_case_points(n, points)
    ok = 1.0 - sigma
    return (ok ** (n * points), ok ** (2 * n))


def min_success_probability(n: int, points: Optional[int] = None) -> float:
    """Smallest per-component success probability 1-sigma for which the
    worst-case alpha*beta stays at least 1/2."""
    points = _worst_case_points(n, points)
    return 2.0 ** (-1.0 / (n * (points + 2)))
