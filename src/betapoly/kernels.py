"""The U-max kernels in polar form and their maximizer data.

The kernels are those of the paper's abstract: the perimeter and the area of
the convex hull of the ``n`` arguments, evaluated by
:func:`betapoly.geometry.hull_functional`.  Here the arguments are given by
central angles ``(phi_2, ..., phi_n)`` measured counterclockwise from the
first point, plus all ``n`` radii.

Both kernels are maximized exactly by the regular ``n``-gon on the unit
circle, in any of the ``(n-1)!`` angle orderings.  The finite-difference
routines verify the local data the limit law consumes: a vanishing angular
gradient, a negative-definite angular sub-Hessian, and strictly positive
inward radial derivatives at the boundary.

Analytic reference values: ``det(-G) = 2^(1-n) * n * sin(pi/n)^(n-1)`` for
the perimeter and the same with ``sin(2*pi/n)`` for the area.  Each radius
enters two cyclic terms, so the radial derivative is twice the per-edge
sensitivity: ``2*sin(pi/n)`` for the perimeter and ``sin(2*pi/n)`` for the
area (the per-edge values are ``sin(pi/n)`` and ``sin(2*pi/n)/2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Objective, hull_functional

TWO_PI = 2.0 * math.pi

# Finite-difference defaults.  The Hessian step balances second-difference
# truncation (~h^2) against roundoff (~eps/h^2); 1e-5 is too small for the
# 1e-4 determinant tolerance once n >= 5, hence the larger default.
GRADIENT_STEP = 1e-5
HESSIAN_STEP = 2e-4
RADIAL_STEP = 1e-6

# A kernel argument: central angles (n-1,) and radii (n,).
Point = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class KernelSpec:
    """The kernel of arity ``n``: ``objective`` of the hull of ``n`` points.

    Raises:
        ValueError: for ``n < 2`` (perimeter) or ``n < 3`` (area: the area
        of two points is identically zero, so no isolated maximum exists).
    """

    objective: Objective
    n: int

    def __post_init__(self) -> None:
        least = 2 if self.objective is Objective.PERIMETER else 3
        if self.n < least:
            raise ValueError(f"{self.objective.value} kernel needs n >= {least}, got {self.n}")

    def evaluate(self, angles, radii) -> float:
        """The kernel at angles ``(n-1,)`` and radii ``(n,)``."""
        a = np.asarray(angles, dtype=float)
        r = np.asarray(radii, dtype=float)
        if a.shape != (self.n - 1,) or r.shape != (self.n,):
            raise ValueError(f"expected angles ({self.n - 1},) and radii ({self.n},)")
        phi = np.concatenate(([0.0], a))
        pts = np.column_stack((r * np.cos(phi), r * np.sin(phi)))
        return float(hull_functional(pts[None], self.objective)[0])

    @property
    def maximizer(self) -> Point:
        """The regular n-gon on the unit circle as ``(angles, radii)``."""
        return TWO_PI * np.arange(1, self.n) / self.n, np.ones(self.n)


@dataclass(frozen=True)
class MaximizerAnalysis:
    """Finite-difference snapshot of a kernel at one point, normally its maximizer."""

    angular_gradient: np.ndarray
    sub_hessian: np.ndarray
    det_negG: float
    radial_partials: np.ndarray

    @property
    def a6_pass(self) -> bool:
        """Negative-definite angular sub-Hessian (nondegenerate maximum)."""
        if not math.isfinite(self.det_negG) or self.det_negG <= 0.0:
            return False
        eigs = np.linalg.eigvalsh(-self.sub_hessian)
        return bool(np.all(eigs > 0.0))

    @property
    def a7_pass(self) -> bool:
        """Strictly positive inward radial derivatives at the boundary."""
        return bool(np.all(np.isfinite(self.radial_partials)) and np.all(self.radial_partials > 0.0))


def kernel_for(objective: Objective, n: int) -> KernelSpec:
    return KernelSpec(objective, n)


def _base_point(spec: KernelSpec, point: Point | None, step: float) -> Point:
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    angles, radii = spec.maximizer if point is None else point
    return np.asarray(angles, dtype=float), np.asarray(radii, dtype=float)


def numeric_angular_gradient(
    spec: KernelSpec, point: Point | None = None, step: float = GRADIENT_STEP
) -> np.ndarray:
    """Central-difference gradient in the angular block; ~0 at an interior max.

    ``point`` is an ``(angles, radii)`` pair, here and below; the default is
    ``spec.maximizer``.
    """
    a0, r0 = _base_point(spec, point, step)
    grad = np.empty(spec.n - 1)
    for j in range(spec.n - 1):
        ap = a0.copy()
        am = a0.copy()
        ap[j] += step
        am[j] -= step
        grad[j] = (spec.evaluate(ap, r0) - spec.evaluate(am, r0)) / (2.0 * step)
    return grad


def numeric_sub_hessian(
    spec: KernelSpec, point: Point | None = None, step: float = HESSIAN_STEP
) -> np.ndarray:
    """Second-order central-difference Hessian in the angular block, radii fixed."""
    a0, r0 = _base_point(spec, point, step)
    d = spec.n - 1
    f0 = spec.evaluate(a0, r0)
    hess = np.empty((d, d))
    for i in range(d):
        ap = a0.copy()
        am = a0.copy()
        ap[i] += step
        am[i] -= step
        hess[i, i] = (spec.evaluate(ap, r0) - 2.0 * f0 + spec.evaluate(am, r0)) / step**2
        for j in range(i + 1, d):
            app = a0.copy()
            apm = a0.copy()
            amp = a0.copy()
            amm = a0.copy()
            app[[i, j]] += step
            amm[[i, j]] -= step
            apm[i] += step
            apm[j] -= step
            amp[i] -= step
            amp[j] += step
            val = (
                spec.evaluate(app, r0)
                - spec.evaluate(apm, r0)
                - spec.evaluate(amp, r0)
                + spec.evaluate(amm, r0)
            ) / (4.0 * step**2)
            hess[i, j] = hess[j, i] = val
    return hess


def numeric_radial_partials(
    spec: KernelSpec, point: Point | None = None, step: float = RADIAL_STEP
) -> np.ndarray:
    """One-sided (inward, second order) radial derivatives at the given radii."""
    a0, r0 = _base_point(spec, point, step)
    f0 = spec.evaluate(a0, r0)
    out = np.empty(spec.n)
    for j in range(spec.n):
        r1 = r0.copy()
        r2 = r0.copy()
        r1[j] -= step
        r2[j] -= 2.0 * step
        out[j] = (3.0 * f0 - 4.0 * spec.evaluate(a0, r1) + spec.evaluate(a0, r2)) / (2.0 * step)
    return out


def analyze_maximizer(
    spec: KernelSpec,
    point: Point | None = None,
    gradient_step: float = GRADIENT_STEP,
    hessian_step: float = HESSIAN_STEP,
    radial_step: float = RADIAL_STEP,
) -> MaximizerAnalysis:
    """Run all three finite-difference probes at ``point`` (default: the maximizer)."""
    grad = numeric_angular_gradient(spec, point, gradient_step)
    hess = numeric_sub_hessian(spec, point, hessian_step)
    partials = numeric_radial_partials(spec, point, radial_step)
    return MaximizerAnalysis(
        angular_gradient=grad,
        sub_hessian=hess,
        det_negG=float(np.linalg.det(-hess)),
        radial_partials=partials,
    )


def _maximizer_sum(n: int, det_negG: float, mean_log_partial: float, beta: float) -> float:
    """Sum of 1 / (sqrt(det(-G)) * prod_j (dh/dr_j)^(beta+1)) over the (n-1)! maximizers.

    The terms are equal by symmetry.  ``mean_log_partial`` is the mean of
    ``log(dh/dr_j)`` over the ``n`` vertices, so the product is
    ``exp(n * (beta+1) * mean_log_partial)``.
    """
    if beta <= -1.0:
        raise ValueError(f"beta must be > -1, got {beta}")
    log_i = (
        math.lgamma(n)
        - 0.5 * math.log(det_negG)
        - n * (beta + 1.0) * mean_log_partial
    )
    return math.exp(log_i)


def compute_I(spec: KernelSpec, analyses: Sequence[MaximizerAnalysis], beta: float) -> float:
    """I from the one analysis of ``spec``'s maximizer, times the (n-1)! symmetric copies.

    Raises:
        ValueError: unless exactly one analysis is given, or on an A6/A7
        violation.
    """
    if len(analyses) != 1:
        raise ValueError(f"expected exactly one maximizer analysis, got {len(analyses)}")
    (a,) = analyses
    if not a.a6_pass:
        raise ValueError("sub-Hessian is singular or indefinite (A6 violation)")
    if not a.a7_pass:
        raise ValueError("nonpositive radial derivative (A7 violation)")
    return _maximizer_sum(spec.n, a.det_negG, float(np.mean(np.log(a.radial_partials))), beta)


def analytic_det_negG(objective: Objective, n: int) -> float:
    """Closed-form det(-G) at any maximizer of the kernel."""
    ang = math.pi / n if objective is Objective.PERIMETER else TWO_PI / n
    return 2.0 ** (1 - n) * n * math.sin(ang) ** (n - 1)


def analytic_radial_partial(objective: Objective, n: int) -> float:
    """Closed-form boundary radial derivative (identical across coordinates).

    Each radius appears in the two cyclic terms adjacent to its vertex, so
    the value is twice the single-edge sensitivity.
    """
    if objective is Objective.PERIMETER:
        return 2.0 * math.sin(math.pi / n)
    return math.sin(TWO_PI / n)


def analytic_I(objective: Objective, n: int, beta: float) -> float:
    """Closed form of :func:`compute_I`."""
    KernelSpec(objective, n)  # rejects n below the kernel's range
    return _maximizer_sum(
        n, analytic_det_negG(objective, n), math.log(analytic_radial_partial(objective, n)), beta
    )
