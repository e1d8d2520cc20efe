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

import numpy as np

from .geometry import Objective, hull_functional
from .sampler import BetaParams, cartesian, check_real, check_vertex_count

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
    """The kernel of arity ``n``: ``objective`` (``Objective.parse``) of the hull of ``n`` points.

    Raises:
        ValueError: for an ``n`` that is not an integer, ``n < 2``
        (perimeter) or ``n < 3`` (area: the area of two points is
        identically zero, so no isolated maximum exists).
    """

    objective: Objective
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "objective", Objective.parse(self.objective))
        least = 2 if self.objective is Objective.PERIMETER else 3
        n = check_vertex_count(self.n, least, f"{self.objective.value} kernel")
        object.__setattr__(self, "n", n)

    def evaluate(self, angles, radii) -> float | np.ndarray:
        """The kernel at angles ``(..., n-1)`` and radii ``(..., n)``.

        The leading axes broadcast.  Two 1-D arguments give a float, any
        stack an array of the broadcast leading shape; each row's value is
        bit for bit that of the row evaluated alone.
        """
        a = np.asarray(angles, dtype=float)
        r = np.asarray(radii, dtype=float)
        if a.shape[-1:] != (self.n - 1,) or r.shape[-1:] != (self.n,):
            raise ValueError(f"expected angles (..., {self.n - 1}) and radii (..., {self.n})")
        lead = np.broadcast_shapes(a.shape[:-1], r.shape[:-1])
        phi = np.concatenate((np.zeros(a.shape[:-1] + (1,)), a), axis=-1)
        pts = cartesian(phi, r).reshape(-1, self.n, 2)
        values = hull_functional(pts, self.objective).reshape(lead)
        return float(values) if a.ndim == r.ndim == 1 else values

    @property
    def maximizer(self) -> Point:
        """The regular n-gon on the unit circle as ``(angles, radii)``."""
        return math.tau * np.arange(1, self.n) / self.n, np.ones(self.n)


@dataclass(frozen=True)
class MaximizerAnalysis:
    """Finite-difference snapshot of a kernel at its maximizer."""

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


def _base_point(spec: KernelSpec, point: Point | None, step: float) -> tuple[Point, float]:
    step = check_real(step, "step")
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    angles, radii = spec.maximizer if point is None else point
    return (np.asarray(angles, dtype=float), np.asarray(radii, dtype=float)), step


def numeric_angular_gradient(
    spec: KernelSpec, point: Point | None = None, step: float = GRADIENT_STEP
) -> np.ndarray:
    """Central-difference gradient in the angular block; ~0 at an interior max.

    ``point`` is an ``(angles, radii)`` pair, here and below; the default is
    ``spec.maximizer``.
    """
    (a0, r0), step = _base_point(spec, point, step)
    shift = step * np.eye(spec.n - 1)
    return (spec.evaluate(a0 + shift, r0) - spec.evaluate(a0 - shift, r0)) / (2.0 * step)


def numeric_sub_hessian(
    spec: KernelSpec, point: Point | None = None, step: float = HESSIAN_STEP
) -> np.ndarray:
    """Second-order central-difference Hessian in the angular block, radii fixed.

    The off-diagonal entries are computed for ``i < j`` and mirrored.
    """
    (a0, r0), step = _base_point(spec, point, step)
    if step**2 == 0.0:  # the differences below would divide 0 by 0
        raise ValueError(f"step**2 underflows to 0 for step {step}")
    shift = step * np.eye(spec.n - 1)
    f0 = spec.evaluate(a0, r0)
    plus, minus = a0 + shift, a0 - shift
    fp, fm = spec.evaluate(np.stack((plus, minus)), r0)
    hess = np.diag((fp - 2.0 * f0 + fm) / step**2)
    i, j = np.triu_indices(spec.n - 1, 1)
    corners = (plus[i] + shift[j], plus[i] - shift[j], minus[i] + shift[j], minus[i] - shift[j])
    fpp, fpm, fmp, fmm = spec.evaluate(np.stack(corners), r0)
    hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * step**2)
    return hess


def numeric_radial_partials(
    spec: KernelSpec, point: Point | None = None, step: float = RADIAL_STEP
) -> np.ndarray:
    """One-sided (inward, second order) radial derivatives at the given radii."""
    (a0, r0), step = _base_point(spec, point, step)
    shift = step * np.eye(spec.n)
    f0 = spec.evaluate(a0, r0)
    f1, f2 = spec.evaluate(a0, np.stack((r0 - shift, r0 - 2.0 * shift)))
    return (3.0 * f0 - 4.0 * f1 + f2) / (2.0 * step)


def analyze_maximizer(spec: KernelSpec, step: float | None = None) -> MaximizerAnalysis:
    """Run all three finite-difference probes at ``spec.maximizer``.

    ``step`` replaces all three built-in steps; ``None`` keeps them.
    """
    steps = (GRADIENT_STEP, HESSIAN_STEP, RADIAL_STEP) if step is None else (step,) * 3
    hess = numeric_sub_hessian(spec, step=steps[1])
    return MaximizerAnalysis(
        angular_gradient=numeric_angular_gradient(spec, step=steps[0]),
        sub_hessian=hess,
        det_negG=float(np.linalg.det(-hess)),
        radial_partials=numeric_radial_partials(spec, step=steps[2]),
    )


def _maximizer_sum(n: int, det_negG: float, mean_log_partial: float, beta: float) -> float:
    """Sum of 1 / (sqrt(det(-G)) * prod_j (dh/dr_j)^(beta+1)) over the (n-1)! maximizers.

    The terms are equal by symmetry.  ``mean_log_partial`` is the mean of
    ``log(dh/dr_j)`` over the ``n`` vertices, so the product is
    ``exp(n * (beta+1) * mean_log_partial)``.
    """
    beta = BetaParams(beta).beta
    log_i = (
        math.lgamma(n)
        - 0.5 * math.log(det_negG)
        - n * (beta + 1.0) * mean_log_partial
    )
    return math.exp(log_i)


def compute_I(spec: KernelSpec, analysis: MaximizerAnalysis, beta: float) -> float:
    """I from the analysis of ``spec``'s maximizer, times the (n-1)! symmetric copies.

    Raises:
        ValueError: on an A6/A7 violation, or unless ``beta`` is finite and > -1.
    """
    if not analysis.a6_pass:
        raise ValueError("sub-Hessian is singular or indefinite (A6 violation)")
    if not analysis.a7_pass:
        raise ValueError("nonpositive radial derivative (A7 violation)")
    partials = analysis.radial_partials
    return _maximizer_sum(spec.n, analysis.det_negG, float(np.mean(np.log(partials))), beta)


def analytic_det_negG(objective: Objective | str, n: int) -> float:
    """Closed-form det(-G) at any maximizer of ``KernelSpec(objective, n)``."""
    spec = KernelSpec(objective, n)
    n, ang = spec.n, (math.pi if spec.objective is Objective.PERIMETER else math.tau)
    return 2.0 ** (1 - n) * n * math.sin(ang / n) ** (n - 1)


def analytic_radial_partial(objective: Objective | str, n: int) -> float:
    """Closed-form boundary radial derivative of ``KernelSpec(objective, n)``, at every vertex.

    Each radius appears in the two cyclic terms adjacent to its vertex, so
    the value is twice the single-edge sensitivity.
    """
    spec = KernelSpec(objective, n)
    if spec.objective is Objective.PERIMETER:
        return 2.0 * math.sin(math.pi / spec.n)
    return math.sin(math.tau / spec.n)


def analytic_I(objective: Objective | str, n: int, beta: float) -> float:
    """Closed form of :func:`compute_I` for ``KernelSpec(objective, n)``."""
    spec = KernelSpec(objective, n)
    objective, n = spec.objective, spec.n
    return _maximizer_sum(
        n, analytic_det_negG(objective, n), math.log(analytic_radial_partial(objective, n)), beta
    )
