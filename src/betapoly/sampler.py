"""Exact sampling from the radially symmetric beta family on the unit disk.

The density is proportional to ``(1 - x^2 - y^2)^beta`` on the closed unit
disk, ``beta > -1``.  In polar coordinates the angle is uniform on
``[0, 2*pi)`` and independent of the radius, whose CDF is
``F(s) = 1 - (1 - s^2)^(beta + 1)``.  The closed-form inverse of ``F`` gives
a rejection-free sampler for every admissible ``beta``.

Precision note: the inverse map sends ``u`` to a radius within one ulp of 1
once ``(1 - u)^(1/(beta+1))`` drops below ~2e-16, so round-tripping through
``radius_cdf`` loses accuracy for ``u`` extremely close to 1, and the window
widens as ``beta`` approaches -1: it starts near u = 0.02 at beta = -0.999
(u = 0.19 at beta = -0.99), and 96% (69%) of the radii round to 1 there.
The radius itself stays within one ulp of the exact inverse.  No clamping
is applied.

Because the radius increases with its uniform, a trial can tell from the
uniform alone which points can reach a radius: :func:`radius_uniform_floor`
gives a uniform below which the computed inverse, rounding included, stays
short of it.  Its certificate (proved in its docstring) needs only that
``pow`` is accurate to 2^-42 relative, some 2 000 ulp (libm's is within
1 ulp), and it holds for every ``beta > -1`` and every radius.  It is tight
for the radii a trial meets (``1 - u*`` exceeds the exact tail mass by a
relative ~1e-11 where ``1 - radius^2`` is ~1e-3), and loose only where the
inverse itself is: once ``1 - radius^2`` nears 2^-50 the bound admits up
to 2^(beta+1) times the exact tail, and near ``beta = -1`` the floor falls
toward 0 (below 0.035 at ``beta = -0.999``), so nearly every point is
kept.  It is exactly 0, keeping every point, for radii below ~1e-6 or not
positive.

``uniform_chunks`` lays out a stream's uniforms and ``points_from_uniforms``
maps them to points, for ``sample_batch``, trials and tail chunks alike.
It yields the two blocks in lockstep, a chunk of points at a time, so a
stream above ``_CHUNK`` points is never held whole.  ``select_uniforms``
is a trial's selector: it reads the trial's stream and keeps the points
whose radius uniform reaches a floor.
"""

from __future__ import annotations

import csv
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Points per chunk of uniform_chunks when its caller names no size.  Bounds
# memory (and keeps the working set in cache) only: any value gives the same
# doubles and the same points.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class BetaParams:
    """Shape parameter of the disk density proportional to (1 - r^2)^beta, stored as a float."""

    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", check_real(self.beta, "beta"))
        if not math.isfinite(self.beta) or self.beta <= -1.0:
            raise ValueError(f"beta must be finite and > -1, got {self.beta}")


def check_real(value, name: str) -> float:
    """``value`` as a ``float`` if it is a real number (not a ``bool``), else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def check_integer(value, name: str, least: int | None = None) -> int:
    """``value`` as an ``int`` if it is an integer ``>= least``; else ``ValueError``.

    The one rule for counts, indices and seeds across the package: Python and
    numpy integers pass; ``bool``, floats (``4.0`` too) and non-numbers raise.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def check_vertex_count(n, least: int = 2, owner: str = "a polygon") -> int:
    """``n`` as an ``int``, if it is an integer ``>= least``; else ``ValueError``."""
    n = check_integer(n, "n")
    if n < least:
        raise ValueError(f"{owner} needs n >= {least}, got {n}")
    return n


@dataclass(frozen=True)
class SeedPolicy:
    """Deterministic stream derivation for reproducible (parallel) sampling.

    Trial ``t`` draws from ``PCG64(SeedSequence((master_seed, t)))``.  Within
    a trial the stream has a fixed layout (the whole angle block first, then
    the radius block), so every coordinate is a pure function of
    ``(master_seed, trial_index, point_index)`` regardless of worker count,
    scheduling or the size of the chunks it is read in (``uniform_chunks``).
    """

    master_seed: int

    def __post_init__(self) -> None:
        seed = check_integer(self.master_seed, "master_seed")
        if not 0 <= seed < 2**64:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {seed}")
        object.__setattr__(self, "master_seed", seed)

    def trial_generator(self, trial_index: int, skip: int = 0) -> np.random.Generator:
        """The stream of ``trial_index``, advanced past its first ``skip`` draws.

        One draw is one 64-bit output, which is what ``Generator.random``
        consumes per float64, so ``trial_generator(t, skip=k).random(c)``
        equals ``trial_generator(t).random(k + c)[k:]`` bit for bit.
        """
        trial_index = check_integer(trial_index, "trial_index", least=0)
        skip = check_integer(skip, "skip", least=0)
        bits = np.random.PCG64(np.random.SeedSequence((self.master_seed, trial_index)))
        if skip:
            bits.advance(skip)
        return np.random.Generator(bits)


def radius_cdf(params: BetaParams, s: float | np.ndarray) -> float | np.ndarray:
    """CDF of the radial coordinate: F(s) = 1 - (1 - s^2)^(beta + 1).

    Raises:
        ValueError: if any ``s`` falls outside [0, 1].
    """
    arr = np.asarray(s, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):  # NaN fails both
        raise ValueError(f"radius must lie in [0, 1], got {s}")
    out = 1.0 - (1.0 - arr**2) ** (params.beta + 1.0)
    return float(out) if np.isscalar(s) or arr.ndim == 0 else out


def _radius_from_uniform(params: BetaParams, u: np.ndarray, out=None) -> np.ndarray:
    # Inverse of radius_cdf; accepts u in [0, 1).
    return np.sqrt(1.0 - (1.0 - u) ** (1.0 / (params.beta + 1.0)), out=out)


# Relative slack of each step of radius_uniform_floor's bound.  It grants
# the elementwise pow in _radius_from_uniform a relative error of a quarter
# of it, 2^-42.
_FLOOR_SLACK = 2.0**-40


def radius_uniform_floor(params: BetaParams, radius: float) -> float:
    """A uniform ``u*`` below which no radius ``_radius_from_uniform`` computes reaches ``radius``.

    So the points whose computed radius reaches ``radius`` are among those
    with ``u >= u*``, and only those need the inverse CDF.  Returns 0.0
    (every point kept) unless ``radius`` lies in (0, 1] and the bound ``X``
    below is below 1.

    Proof.  Let ``d = 2^-53`` be the unit roundoff, ``R = radius`` in (0, 1],
    ``W = 1 - R^2`` and ``e = 1 / (beta + 1)``, all exact reals.  For a
    uniform ``u`` the inverse computes ``v = fl(1 - u)``, the exponent
    ``e' = fl(1 / fl(beta + 1))``, ``p = pow(v, e')`` and
    ``r = fl(sqrt(fl(1 - p)))``.  Suppose ``r >= R``.

    1. Subtraction and ``sqrt`` round correctly, ``fl(y) <= y (1 + d)``, so
       ``1 - p >= R^2 / (1 + d)^3 >= R^2 (1 - 3d)``: ``p <= W + 3d``.
    2. ``pow`` errs by at most ``P = 2^-42`` relative for normal
       results and by less than the least normal, 2^-1022, below them, so
       ``v^e' <= (W + 4d) / (1 - P) =: X``.
    3. ``e'`` is two roundings of ``e``: ``e' <= e (1 + 3d)``.  If ``X < 1``
       then ``ln v <= ln X / e' <= (beta + 1) ln X / (1 + 3d) =: L``, as
       ``ln X < 0``.
    4. ``fl(1 - u)`` is exact for ``u >= 1/2`` (Sterbenz) and within half an
       ulp of 1, 2^-54, below, so ``u >= 1 - v - 2^-54 >= 1 - exp(L) - 2^-54``.

    The code computes ``X' = ((1 - R)(1 + R) + 8d)(1 + s)``,
    ``L' = fl(beta + 1) log(X') (1 - s)`` and
    ``u* = -expm1(L') (1 - 4d) - 4d``, with ``s = _FLOOR_SLACK = 4P``, and
    ``log`` and ``expm1`` within 2d relative.  ``(1 - R)(1 + R)`` is ``W``
    within a factor ``(1 - d)^3``, so ``X' >= (W + 5d)(1 - 2d)(1 + s) >=
    (W + 4d)(1 + s/2) >= X``.  ``L'`` is ``(beta + 1) ln X'`` within
    ``(1 + 6d)(1 - s) <= 1 - s/2 <= 1 / (1 + 3d)``, and ``ln X' < 0``, so
    ``L' >= L``.  Then ``-expm1(L')`` is at most ``1 - exp(L)`` times
    ``1 + 2d``, which ``1 - 4d`` absorbs with the product's rounding, and
    ``- 4d`` covers the 2^-54 of step 4 and the last subtraction's rounding
    (below ``d``, as ``u* < 1``).  Hence ``u* <= 1 - exp(L) - 2^-54 <= u``.

    The bound holds for every ``beta > -1``.  It is loose where the inverse
    loses precision: ``1 - u*`` is about ``X'^(beta+1) >= (8d)^(beta+1)``,
    above 0.96 at ``beta = -0.999``, and for ``W`` near ``d`` the ``8d``
    term dominates ``X'``.
    """
    if not 0.0 < radius <= 1.0:
        return 0.0
    d, s = 2.0**-53, _FLOOR_SLACK
    x = ((1.0 - radius) * (1.0 + radius) + 8.0 * d) * (1.0 + s)
    if x >= 1.0:
        return 0.0
    log_v = (params.beta + 1.0) * math.log(x) * (1.0 - s)
    return max(0.0, -math.expm1(log_v) * (1.0 - 4.0 * d) - 4.0 * d)


def sample_batch(
    params: BetaParams,
    count: int,
    seed_policy: SeedPolicy,
    trial_index: int = 0,
) -> np.ndarray:
    """Draw ``count`` independent points as a float64 array of shape (count, 2).

    Deterministic for fixed ``(master_seed, trial_index)``: the points are
    ``uniform_chunks(seed_policy, trial_index, count)`` read as one chunk.

    Raises:
        ValueError: if ``count`` is not an integer ``>= 1``.
    """
    count = check_integer(count, "count", least=1)
    ((angle_u, radius_u),) = uniform_chunks(seed_policy, trial_index, count, size=count)
    return points_from_uniforms(params, angle_u, radius_u)


def uniform_chunks(
    policy: SeedPolicy, stream: int, count: int, skip: int = 0, size: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The uniforms of ``count`` points of stream ``stream``, as ``(angle, radius)`` chunks.

    The one stream layout: the angle block is draws ``[skip, skip + count)``
    and the radius block the ``count`` draws after it.  A trial's points are
    its blocks at ``skip = 0``; a tail chunk of ``m`` ``n``-tuples at tuple
    ``start`` owns the blocks of ``n m`` points at ``skip = 2 n start``.
    Yields pairs of ``size`` points in order (``_CHUNK`` when ``None``), the
    last pair perhaps shorter.  Up to ``size`` points one generator draws
    both blocks; beyond that each block has its own generator, jumped to its
    first draw, so a reader never holds a whole block.  Each call draws
    afresh, so calling again replays the same doubles.
    """
    size = _CHUNK if size is None else size
    if count <= size:
        rng = policy.trial_generator(stream, skip=skip)
        yield rng.random(count), rng.random(count)
        return
    angle = policy.trial_generator(stream, skip=skip)
    radius = policy.trial_generator(stream, skip=skip + count)
    for lo in range(0, count, size):
        part = min(size, count - lo)
        yield angle.random(part), radius.random(part)


def select_uniforms(
    policy: SeedPolicy, stream: int, count: int, floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points of ``stream`` with radius uniform ``>= floor``: indices (sorted) and uniforms.

    Reads ``uniform_chunks(policy, stream, count)`` a chunk at a time and
    returns copies.  It is a trial's selector: each call replays the
    stream, so a call at a lower floor returns a superset, the shared rows
    bit for bit.
    """
    parts, lo = [], 0
    for a, r in uniform_chunks(policy, stream, count):
        i = np.flatnonzero(r >= floor)
        parts.append((i + lo, a[i], r[i]))
        lo += len(r)
    return tuple(np.concatenate(p) for p in zip(*parts))


def points_from_uniforms(params: BetaParams, angle_u, radius_u) -> np.ndarray:
    """Point ``i``'s coordinates from ``angle_u[i]`` and ``radius_u[i]``, uniforms on [0, 1).

    The one formula behind every drawn point: angle ``2 pi u``, radius the
    inverse of ``radius_cdf``.  Elementwise, so the rows of any subset of
    uniforms are the same doubles as those rows of the whole block.  Both
    blocks are overwritten (with the angles and the radii) rather than
    copied, so blocks the caller still holds add no memory to the draw.
    """
    phi = np.multiply(math.tau, angle_u, out=angle_u)
    return cartesian(phi, _radius_from_uniform(params, radius_u, out=radius_u))


def cartesian(phi: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Coordinates ``(r cos phi, r sin phi)``, stacked on a last axis of length 2.

    ``phi`` and ``r`` broadcast, so 1-D arguments give shape ``(len(r), 2)``.
    """
    return np.stack((r * np.cos(phi), r * np.sin(phi)), axis=-1)


def write_points_csv(path: str | Path, points: np.ndarray) -> None:
    """Dump points to CSV with header ``x,y`` at 17 significant digits."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected an array of shape (N, 2), got {pts.shape}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in pts:
            writer.writerow([f"{x:.17g}", f"{y:.17g}"])


def read_points_csv(path: str | Path) -> np.ndarray:
    """Read a ``x,y`` CSV written by :func:`write_points_csv` (header optional)."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            if lineno == 0 and not _is_number(row[0]):
                continue  # header line
            if len(row) != 2:
                raise ValueError(f"{path}: expected 2 columns, got {len(row)}")
            rows.append((float(row[0]), float(row[1])))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True
