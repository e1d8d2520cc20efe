"""Closed-form constants of the Weibull limit for extremal polygon statistics.

For ``N`` i.i.d. disk points with density proportional to ``(1 - r^2)^beta``
and ``H_N`` the maximum of the perimeter (or area) over all ``n``-point
subsets, the scaled deficiency ``T = N^A * (M - H_N)`` converges to the
Weibull law ``1 - exp(-B * t^C)`` with

    C = (beta + 3/2) * n - 1/2,      A = n / C,
    M = 2*n*sin(pi/n)  (perimeter)   or  (n/2)*sin(2*pi/n)  (area),
    B = K_n * I,

where ``I`` aggregates the maximizer data (see :mod:`betapoly.kernels`) and

    K_n = 2^((beta+1/2)*n + 1/2) * Gamma(beta+2)^n
          / (pi^((n-1)/2) * n! * Gamma((beta+3/2)*n + 1/2)).

This ``K_n`` is the constant produced by integrating the local expansion of
the kernel against the disk density: slicing on the linear radial part and
integrating the angular quadratic form leaves the Dirichlet integral

    int_{sum t <= 1} (1 - sum t)^((n-1)/2) * prod t_j^beta dt
        = Gamma(beta+1)^n * Gamma((n+1)/2) / Gamma((beta+3/2)*n + 1/2),

whose Gamma((n+1)/2) cancels against the angular volume factor.  The whole
pipeline is cross-checked three independent ways in the test suite: exact
hand-integrated cases, 50-digit Gamma evaluation, and direct Monte Carlo of
the tail probability.

All Gamma factors are combined in log space and exponentiated once, so large
``n * beta`` does not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Objective
from .kernels import analytic_I


def _validate(n: int, beta: float) -> None:
    if int(n) != n or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n}")
    if not math.isfinite(beta) or beta <= -1.0:
        raise ValueError(f"beta must be finite and > -1, got {beta}")


def _log_K(n: int, beta: float) -> float:
    return (
        ((beta + 0.5) * n + 0.5) * math.log(2.0)
        + n * math.lgamma(beta + 2.0)
        - 0.5 * (n - 1) * math.log(math.pi)
        - math.lgamma(n + 1.0)
        - math.lgamma((beta + 1.5) * n + 0.5)
    )


def compute_K(n: int, beta: float) -> float:
    """The normalization constant K_n of the limit law (log-gamma pipeline)."""
    _validate(n, beta)
    return math.exp(_log_K(n, beta))


def shape_C(n: int, beta: float) -> float:
    """Weibull shape: C = (beta + 3/2) * n - 1/2."""
    _validate(n, beta)
    return (beta + 1.5) * n - 0.5


def exponent_A(n: int, beta: float) -> float:
    """Scaling exponent of the deficiency: A = n / C, so A * C = n exactly."""
    return n / shape_C(n, beta)


def rate_constant_B(n: int, beta: float, I: float) -> float:
    """Weibull rate B = K_n * I for a kernel with maximizer aggregate I."""
    _validate(n, beta)
    if not (I > 0.0) or not math.isfinite(I):
        raise ValueError(f"I must be a positive finite number, got {I}")
    return math.exp(_log_K(n, beta) + math.log(I))


def extremal_value(objective: Objective, n: int) -> float:
    """Largest objective value over point sets in the closed unit disk.

    Attained by the regular n-gon inscribed in the unit circle:
    2*n*sin(pi/n) for the perimeter, (n/2)*sin(2*pi/n) for the area.
    """
    if objective is Objective.PERIMETER:
        if n < 2:
            raise ValueError(f"perimeter needs n >= 2, got {n}")
        return 2.0 * n * math.sin(math.pi / n)
    if n < 3:
        raise ValueError(f"area needs n >= 3, got {n}")
    return 0.5 * n * math.sin(2.0 * math.pi / n)


@dataclass(frozen=True)
class LimitLaw:
    """The Weibull limit of the scaled deficiency N^A * (M - H_N)."""

    objective: Objective
    n: int
    beta: float
    M: float
    A: float
    B: float
    C: float

    def __post_init__(self) -> None:
        for name in ("M", "A", "B", "C"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"{name} must be positive and finite, got {v}")

    @property
    def median(self) -> float:
        """Median of the limit law: (ln 2 / B)^(1/C)."""
        return (math.log(2.0) / self.B) ** (1.0 / self.C)

    def constants(self) -> dict[str, float]:
        """The six reported constants, in the order M, A, B, C, K_n, I."""
        return {
            "M": self.M,
            "A": self.A,
            "B": self.B,
            "C": self.C,
            "K_n": compute_K(self.n, self.beta),
            "I": analytic_I(self.objective, self.n, self.beta),
        }


def law_for(objective: Objective, n: int, beta: float) -> LimitLaw:
    """Assemble the full limit law for a built-in objective."""
    _validate(n, beta)
    M = extremal_value(objective, n)
    C = shape_C(n, beta)
    return LimitLaw(
        objective=objective,
        n=n,
        beta=beta,
        M=M,
        A=exponent_A(n, beta),
        B=rate_constant_B(n, beta, analytic_I(objective, n, beta)),
        C=C,
    )


def weibull_cdf(law: LimitLaw, t: float | np.ndarray) -> float | np.ndarray:
    """CDF 1 - exp(-B * t^C) of the limit law; 0 for t < 0 by convention."""
    arr = np.asarray(t, dtype=float)
    tt = np.maximum(arr, 0.0)
    out = -np.expm1(-law.B * tt**law.C)
    if np.isscalar(t) or arr.ndim == 0:
        return float(out)
    return out
