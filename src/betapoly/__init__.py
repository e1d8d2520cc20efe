"""Extremal statistics of random polygons in the unit disk.

Samples points from the radially symmetric family with density proportional
to ``(1 - r^2)^beta``, computes the exact maximum perimeter/area over all
n-point subsets, evaluates the closed-form constants of the Weibull limit of
the scaled deficiency, and verifies tail and limit behavior by reproducible
Monte Carlo.
"""

from .geometry import (
    Objective,
    PolygonChain,
    UMaxResult,
    convex_hull,
    hull_functional,
    max_kgon,
    polygon_area,
    polygon_perimeter,
    umax,
    umax_bruteforce,
)
from .kernels import (
    KernelSpec,
    MaximizerAnalysis,
    analytic_I,
    analytic_det_negG,
    analytic_radial_partial,
    analyze_maximizer,
    compute_I,
    numeric_angular_gradient,
    numeric_radial_partials,
    numeric_sub_hessian,
)
from .limits import (
    LimitLaw,
    compute_K,
    exponent_A,
    extremal_value,
    law_for,
    rate_constant_B,
    shape_C,
    weibull_cdf,
)
from .montecarlo import (
    ConsistencyReport,
    EmpiricalCDF,
    ShapeFit,
    SimConfig,
    TailProbeResult,
    TrialRecord,
    consistency_check,
    fit_shape,
    ks_distance,
    run_trials,
    tail_prefactor,
    tail_probe,
)
from .sampler import (
    BetaParams,
    SeedPolicy,
    radius_cdf,
    read_points_csv,
    sample_batch,
    write_points_csv,
)

__version__ = "0.1.0"
