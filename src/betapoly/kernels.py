"""Rotation-invariant polygon kernels in polar form and their maximizer data.

A kernel of arity ``n`` is evaluated on central angles ``(phi_2, ..., phi_n)``
measured counterclockwise from the first point, plus all ``n`` radii.  The
built-in perimeter and area kernels sort the angles internally and take the
cyclic sum over the induced order, which makes them well defined for any
argument order at the cost of smoothness far from the maximizers (harmless:
derivatives are only taken near maximizers, where the order is strict).

Both built-ins are maximized exactly by the regular ``n``-gon on the unit
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
from typing import Callable, Sequence

import numpy as np

from .geometry import Objective

TWO_PI = 2.0 * math.pi

# Finite-difference defaults.  The Hessian step balances second-difference
# truncation (~h^2) against roundoff (~eps/h^2); 1e-5 is too small for the
# 1e-4 determinant tolerance once n >= 5, hence the larger default.
GRADIENT_STEP = 1e-5
HESSIAN_STEP = 2e-4
RADIAL_STEP = 1e-6


@dataclass(frozen=True)
class Maximizer:
    """A maximizing configuration: angles strictly inside (0, 2*pi), radii 1."""

    angles: tuple[float, ...]
    radii: tuple[float, ...]

    @classmethod
    def regular_ngon(cls, n: int) -> "Maximizer":
        return cls(
            angles=tuple(TWO_PI * j / n for j in range(1, n)),
            radii=(1.0,) * n,
        )


@dataclass(frozen=True)
class KernelSpec:
    """A rotation-invariant kernel with its maximizer metadata.

    ``evaluate`` maps (angles[n-1], radii[n]) to a float (or -inf where the
    kernel is undefined).  ``maximizers`` holds one canonical representative
    per symmetry orbit; ``symmetry_multiplicity`` is the total number of
    distinct maximizers it stands for ((n-1)! for the built-ins).
    """

    name: str
    arity: int
    evaluate: Callable[[np.ndarray, np.ndarray], float]
    maximizers: tuple[Maximizer, ...]
    symmetry_multiplicity: int

    def __post_init__(self) -> None:
        if self.arity < 2:
            raise ValueError(f"kernel arity must be >= 2, got {self.arity}")
        if self.symmetry_multiplicity < 1:
            raise ValueError("symmetry_multiplicity must be >= 1")
        if not self.maximizers:
            raise ValueError("at least one maximizer is required")
        for v in self.maximizers:
            if len(v.angles) != self.arity - 1 or len(v.radii) != self.arity:
                raise ValueError("maximizer dimensions do not match kernel arity")


@dataclass(frozen=True)
class MaximizerAnalysis:
    """Finite-difference snapshot of a kernel at one maximizer."""

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


def _sorted_cycle(n: int, angles: np.ndarray, radii: np.ndarray):
    phi = np.empty(n)
    phi[0] = 0.0
    phi[1:] = np.mod(angles, TWO_PI)
    order = np.argsort(phi, kind="stable")
    phi_s = phi[order]
    r_s = radii[order]
    gaps = np.empty(n)
    gaps[:-1] = np.diff(phi_s)
    gaps[-1] = TWO_PI - phi_s[-1]
    return r_s, gaps


def perimeter_kernel(n: int) -> KernelSpec:
    """Cyclic chord-length sum over the angular order; max ``limits.extremal_value``."""
    if n < 2:
        raise ValueError(f"perimeter kernel needs n >= 2, got {n}")

    def evaluate(angles: np.ndarray, radii: np.ndarray) -> float:
        a = np.asarray(angles, dtype=float)
        r = np.asarray(radii, dtype=float)
        if a.shape != (n - 1,) or r.shape != (n,):
            raise ValueError(f"expected angles ({n - 1},) and radii ({n},)")
        r_s, gaps = _sorted_cycle(n, a, r)
        r_next = np.roll(r_s, -1)
        sq = r_s**2 + r_next**2 - 2.0 * r_s * r_next * np.cos(gaps)
        return float(np.sum(np.sqrt(np.maximum(sq, 0.0))))

    return KernelSpec(
        name="perimeter",
        arity=n,
        evaluate=evaluate,
        maximizers=(Maximizer.regular_ngon(n),),
        symmetry_multiplicity=math.factorial(n - 1),
    )


def area_kernel(n: int) -> KernelSpec:
    """Cyclic sum of r_i * r_{i+1} * sin(gap) / 2; max ``limits.extremal_value``.

    Rejects ``n = 2``: the area of two points is identically zero, so no
    isolated interior maximum exists.
    """
    if n < 3:
        raise ValueError(f"area kernel needs n >= 3, got {n}")

    def evaluate(angles: np.ndarray, radii: np.ndarray) -> float:
        a = np.asarray(angles, dtype=float)
        r = np.asarray(radii, dtype=float)
        if a.shape != (n - 1,) or r.shape != (n,):
            raise ValueError(f"expected angles ({n - 1},) and radii ({n},)")
        r_s, gaps = _sorted_cycle(n, a, r)
        r_next = np.roll(r_s, -1)
        return float(0.5 * np.sum(r_s * r_next * np.sin(gaps)))

    return KernelSpec(
        name="area",
        arity=n,
        evaluate=evaluate,
        maximizers=(Maximizer.regular_ngon(n),),
        symmetry_multiplicity=math.factorial(n - 1),
    )


def kernel_for(objective: Objective, n: int) -> KernelSpec:
    return perimeter_kernel(n) if objective is Objective.PERIMETER else area_kernel(n)


def polar_from_points(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central angles (relative to point 0, counterclockwise) and radii.

    Raises:
        ValueError: if the first point sits at the origin (no reference
        direction).
    """
    pts = np.asarray(points, dtype=float)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    if radii[0] == 0.0:
        raise ValueError("first point at the origin: reference angle undefined")
    raw = np.arctan2(pts[:, 1], pts[:, 0])
    angles = np.mod(raw[1:] - raw[0], TWO_PI)
    return angles, radii


def _eval_checked(spec: KernelSpec, angles: np.ndarray, radii: np.ndarray) -> float:
    val = spec.evaluate(angles, radii)
    if val == -math.inf or not math.isfinite(val):
        raise ValueError("kernel evaluation failed (reached an undefined region)")
    return val


def numeric_angular_gradient(
    spec: KernelSpec, maximizer: Maximizer | None = None, step: float = GRADIENT_STEP
) -> np.ndarray:
    """Central-difference gradient in the angular block; ~0 at an interior max."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    v = maximizer or spec.maximizers[0]
    a0 = np.asarray(v.angles, dtype=float)
    r0 = np.asarray(v.radii, dtype=float)
    grad = np.empty(spec.arity - 1)
    for j in range(spec.arity - 1):
        ap = a0.copy()
        am = a0.copy()
        ap[j] += step
        am[j] -= step
        grad[j] = (_eval_checked(spec, ap, r0) - _eval_checked(spec, am, r0)) / (2.0 * step)
    return grad


def numeric_sub_hessian(
    spec: KernelSpec, maximizer: Maximizer | None = None, step: float = HESSIAN_STEP
) -> np.ndarray:
    """Second-order central-difference Hessian in the angular block, radii fixed at 1."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    v = maximizer or spec.maximizers[0]
    a0 = np.asarray(v.angles, dtype=float)
    r0 = np.asarray(v.radii, dtype=float)
    d = spec.arity - 1
    f0 = _eval_checked(spec, a0, r0)
    hess = np.empty((d, d))
    for i in range(d):
        ap = a0.copy()
        am = a0.copy()
        ap[i] += step
        am[i] -= step
        hess[i, i] = (_eval_checked(spec, ap, r0) - 2.0 * f0 + _eval_checked(spec, am, r0)) / step**2
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
                _eval_checked(spec, app, r0)
                - _eval_checked(spec, apm, r0)
                - _eval_checked(spec, amp, r0)
                + _eval_checked(spec, amm, r0)
            ) / (4.0 * step**2)
            hess[i, j] = hess[j, i] = val
    return hess


def numeric_radial_partials(
    spec: KernelSpec, maximizer: Maximizer | None = None, step: float = RADIAL_STEP
) -> np.ndarray:
    """One-sided (inward, second order) radial derivatives at the boundary r=1."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    v = maximizer or spec.maximizers[0]
    a0 = np.asarray(v.angles, dtype=float)
    r0 = np.asarray(v.radii, dtype=float)
    f0 = _eval_checked(spec, a0, r0)
    out = np.empty(spec.arity)
    for j in range(spec.arity):
        r1 = r0.copy()
        r2 = r0.copy()
        r1[j] -= step
        r2[j] -= 2.0 * step
        out[j] = (3.0 * f0 - 4.0 * _eval_checked(spec, a0, r1) + _eval_checked(spec, a0, r2)) / (
            2.0 * step
        )
    return out


def analyze_maximizer(
    spec: KernelSpec,
    maximizer: Maximizer | None = None,
    gradient_step: float = GRADIENT_STEP,
    hessian_step: float = HESSIAN_STEP,
    radial_step: float = RADIAL_STEP,
) -> MaximizerAnalysis:
    """Run all three finite-difference probes at one maximizer."""
    v = maximizer or spec.maximizers[0]
    grad = numeric_angular_gradient(spec, v, gradient_step)
    hess = numeric_sub_hessian(spec, v, hessian_step)
    partials = numeric_radial_partials(spec, v, radial_step)
    return MaximizerAnalysis(
        angular_gradient=grad,
        sub_hessian=hess,
        det_negG=float(np.linalg.det(-hess)),
        radial_partials=partials,
    )


def compute_I(spec: KernelSpec, analyses: Sequence[MaximizerAnalysis], beta: float) -> float:
    """Sum over maximizers of 1 / (sqrt(det(-G)) * prod_j (dh/dr_j)^(beta+1)).

    A single analysis is accepted for symmetric kernels and scaled by the
    symmetry multiplicity; otherwise one analysis per maximizer is required.

    Raises:
        ValueError: on missing analyses or any A6/A7 violation.
    """
    if not analyses:
        raise ValueError("at least one maximizer analysis is required")
    for a in analyses:
        if not a.a6_pass:
            raise ValueError("sub-Hessian is singular or indefinite (A6 violation)")
        if not a.a7_pass:
            raise ValueError("nonpositive radial derivative (A7 violation)")
    terms = [
        1.0 / (math.sqrt(a.det_negG) * float(np.prod(a.radial_partials ** (beta + 1.0))))
        for a in analyses
    ]
    if len(terms) == spec.symmetry_multiplicity:
        return float(sum(terms))
    if len(terms) == 1:
        return float(spec.symmetry_multiplicity * terms[0])
    raise ValueError(
        f"got {len(terms)} analyses for a kernel with multiplicity "
        f"{spec.symmetry_multiplicity}; pass one, or one per maximizer"
    )


def analytic_det_negG(objective: Objective, n: int) -> float:
    """Closed-form det(-G) at any maximizer of the built-in kernels."""
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
    """Closed form of :func:`compute_I` for the built-in kernels."""
    if n < (2 if objective is Objective.PERIMETER else 3):
        raise ValueError(f"n too small for {objective.value} kernel: {n}")
    if beta <= -1.0:
        raise ValueError(f"beta must be > -1, got {beta}")
    det = analytic_det_negG(objective, n)
    partial = analytic_radial_partial(objective, n)
    log_i = (
        math.lgamma(n)
        - 0.5 * math.log(det)
        - n * (beta + 1.0) * math.log(partial)
    )
    return math.exp(log_i)
