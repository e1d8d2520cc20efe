import math

import numpy as np
import pytest

import helpers
from betapoly.geometry import Objective
from betapoly.kernels import analytic_I
from betapoly.limits import (
    LimitLaw,
    compute_K,
    exponent_A,
    extremal_value,
    law_for,
    rate_constant_B,
    shape_C,
    weibull_cdf,
)


def test_compute_K_exact_cases():
    # Hand-reducible gamma products at beta = 0.
    assert compute_K(3, 0.0) == pytest.approx(1.0 / (36.0 * math.pi), rel=1e-13)
    assert compute_K(2, 0.0) == pytest.approx(2.0**3.5 / (15.0 * math.pi), rel=1e-13)


def test_compute_K_matches_high_precision_oracle():
    for n in range(2, 9):
        for beta in (-0.9, -0.5, 0.0, 1.0, 2.5):
            assert compute_K(n, beta) == pytest.approx(
                helpers.oracle_K(n, beta), rel=1e-10
            )


@pytest.mark.parametrize("n", [float("inf"), float("nan")])
def test_compute_K_rejects_a_non_finite_n(n):
    with pytest.raises(ValueError, match="n must be an integer"):
        compute_K(n, 0.0)


def test_compute_K_domain():
    with pytest.raises(ValueError):
        compute_K(1, 0.0)
    with pytest.raises(ValueError):
        compute_K(3, -1.0)


def test_exponents():
    assert exponent_A(3, 0.0) == pytest.approx(0.75)
    assert shape_C(3, 0.0) == pytest.approx(4.0)
    assert exponent_A(2, 0.0) == pytest.approx(0.8)
    assert shape_C(2, 0.0) == pytest.approx(2.5)
    for n in range(2, 9):
        for beta in (-0.9, -0.5, 0.0, 1.0, 2.5):
            assert abs(exponent_A(n, beta) * shape_C(n, beta) - n) <= 1e-14 * n


def test_rate_constant_B():
    b = rate_constant_B(3, 0.0, analytic_I(Objective.PERIMETER, 3, 0.0))
    assert b == pytest.approx(8.0 / (324.0 * math.sqrt(3.0) * math.pi), rel=1e-12)
    with pytest.raises(ValueError):
        rate_constant_B(3, 0.0, 0.0)
    with pytest.raises(ValueError):
        rate_constant_B(3, 0.0, -1.0)


def test_extremal_values():
    assert extremal_value(Objective.PERIMETER, 6) == pytest.approx(6.0)
    assert extremal_value(Objective.AREA, 4) == pytest.approx(2.0)
    perims = [extremal_value(Objective.PERIMETER, n) for n in range(3, 200)]
    assert all(b > a for a, b in zip(perims, perims[1:]))
    assert perims[-1] < 2.0 * math.pi
    with pytest.raises(ValueError):
        extremal_value(Objective.AREA, 2)
    with pytest.raises(ValueError):
        extremal_value(Objective.PERIMETER, 1)


def test_law_for_perimeter_3_0():
    law = law_for(Objective.PERIMETER, 3, 0.0)
    assert law.M == pytest.approx(3.0 * math.sqrt(3.0))
    assert law.A == pytest.approx(0.75)
    assert law.C == pytest.approx(4.0)
    assert law.B == pytest.approx(8.0 / (324.0 * math.sqrt(3.0) * math.pi), rel=1e-12)
    assert law.median == pytest.approx((math.log(2.0) / law.B) ** 0.25)


def test_law_for_area_3_0():
    law = law_for(Objective.AREA, 3, 0.0)
    assert law.M == pytest.approx(0.75 * math.sqrt(3.0))
    assert law.B == pytest.approx(64.0 / (324.0 * math.sqrt(3.0) * math.pi), rel=1e-12)


def test_laws_share_exponents_across_objectives():
    for n in (3, 4, 5):
        for beta in (-0.5, 0.0, 1.5):
            lp = law_for(Objective.PERIMETER, n, beta)
            la = law_for(Objective.AREA, n, beta)
            assert lp.A == la.A and lp.C == la.C
            assert lp.A == exponent_A(n, beta) and lp.C == shape_C(n, beta)


def test_weibull_cdf_properties():
    law = law_for(Objective.PERIMETER, 3, 0.0)
    assert weibull_cdf(law, 0.0) == 0.0
    assert weibull_cdf(law, -1.0) == 0.0
    assert weibull_cdf(law, law.median) == pytest.approx(0.5, rel=1e-12)
    grid = np.linspace(0.0, 20.0, 400)
    vals = np.asarray(weibull_cdf(law, grid))
    assert np.all(np.diff(vals) >= 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    moderate = np.asarray(weibull_cdf(law, np.linspace(0.0, 6.0, 100)))
    assert np.all(moderate < 1.0)  # strictly below 1 until float saturation
    assert weibull_cdf(law, 1.0) == pytest.approx(-math.expm1(-law.B), rel=1e-12)


def test_limit_law_stores_what_its_checks_return():
    law = LimitLaw("Perimeter", np.int64(3), np.float32(0.5), 1.0, 1.0, 1.0, 1.0)
    assert law.objective is Objective.PERIMETER
    assert (type(law.n), type(law.beta)) == (int, float) and (law.n, law.beta) == (3, 0.5)
    assert law_for("area", 4, 0.0) == law_for(Objective.AREA, 4, 0.0)
    for n in (1, 3.0, True, "3"):
        with pytest.raises(ValueError, match="n"):
            LimitLaw(Objective.AREA, n, 0.0, 1.0, 1.0, 1.0, 1.0)
    for beta in (-1.0, math.inf, "0", None):
        with pytest.raises(ValueError, match="beta"):
            LimitLaw(Objective.AREA, 3, beta, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="unknown objective"):
        LimitLaw("volume", 3, 0.0, 1.0, 1.0, 1.0, 1.0)
