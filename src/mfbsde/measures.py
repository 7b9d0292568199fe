"""Empirical measures of particle clouds and their Wasserstein queries.

Only distances to a point mass and paired comparisons are needed by the
solvers; both have closed forms over a cloud. Exponential moments are
computed in log-sum-exp form, and the log value is the authoritative one
once exponents leave the comfortable range of float64.

Every per-particle norm in the package, here and in the drivers, solvers
and diagnostics, is the square root of :func:`sum_squares`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class MeasureError(ValueError):
    pass


def sum_squares(x: np.ndarray) -> np.ndarray:
    """Sum of squares over the trailing axis, as one contraction.

    The trailing axes here are short (n, d <= 4), and numpy's reduce over
    such an axis runs an inner loop per particle; ``np.einsum`` makes one
    pass. The square root equals ``np.linalg.norm(x, axis=-1)`` bitwise
    for a trailing axis of length <= 2 and to a few ulp beyond; inf and
    NaN propagate as they do there.
    """
    return np.einsum("...i,...i->...", x, x)


def _as_cloud(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise MeasureError(f"cloud must be (N, m), got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise MeasureError("cloud contains non-finite points")
    return pts


@dataclass(frozen=True)
class ParticleCloud:
    """Uniform empirical measure on N points of R^m."""

    points: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _as_cloud(self.points))

    @property
    def size(self) -> int:
        return self.points.shape[0]


def _check_order(p: float) -> float:
    if p not in (1, 2):
        raise MeasureError(f"Wasserstein order must be 1 or 2, got {p}")
    return float(p)


def wasserstein_to_delta(cloud: ParticleCloud, p: float = 2) -> float:
    """W_p distance to the point mass at the origin: a p-th moment root,
    sqrt(mean |x|^2) for p = 2 and mean |x| for p = 1."""
    p = _check_order(p)
    sq = sum_squares(cloud.points)
    return float(np.sqrt(np.mean(sq)) if p == 2 else np.mean(np.sqrt(sq)))


def paired_distance(a: ParticleCloud, b: ParticleCloud, p: float = 2) -> float:
    """Index-paired coupling cost, an upper bound for W_p(a, b)."""
    p = _check_order(p)
    if a.points.shape != b.points.shape:
        raise MeasureError("paired clouds must have identical shape")
    norms = np.sqrt(sum_squares(a.points - b.points))
    return float(np.mean(norms**p) ** (1.0 / p))


def exact_wasserstein_small(a: ParticleCloud, b: ParticleCloud, p: float = 2) -> float:
    """Brute-force optimal transport between tiny equal-size clouds.

    Exists for documentation and tests only; cost is N! over permutations.
    """
    p = _check_order(p)
    if a.points.shape != b.points.shape:
        raise MeasureError("clouds must have identical shape")
    n = a.size
    if n > 8:
        raise MeasureError("brute-force transport is limited to N <= 8")
    best = math.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean(np.sqrt(sum_squares(a.points - b.points[list(perm)])) ** p)
        best = min(best, float(cost))
    return best ** (1.0 / p)


def moment(cloud: ParticleCloud, fn) -> float:
    """Mean of ``fn`` over the cloud; ``fn`` maps one point to a real."""
    vals = np.array([fn(x) for x in cloud.points], dtype=np.float64)
    return float(vals.mean())


@dataclass(frozen=True)
class ExpMoment:
    """Empirical E[exp(q s)] with a log-scale companion.

    ``value`` overflows to inf for large exponents; ``log_value`` is exact
    up to float64 and is the field downstream checks should trust beyond
    exponents of about 50.
    """

    value: float
    log_value: float
    q: float


def exp_moment(samples: np.ndarray, q: float = 1.0) -> ExpMoment:
    s = np.asarray(samples, dtype=np.float64).ravel()
    if s.size == 0 or not np.isfinite(s).all():
        raise MeasureError("samples must be non-empty and finite")
    expo = q * s
    top = float(expo.max())
    log_val = top + math.log(float(np.mean(np.exp(expo - top)))) if np.isfinite(top) else top
    with np.errstate(over="ignore"):
        value = float(np.exp(log_val)) if log_val < 710.0 else math.inf
    return ExpMoment(value=value, log_value=log_val, q=float(q))


class MeasureView:
    """Law of one time-slice of the particle system, as drivers see it.

    Wraps the Y cloud (R^n marginal), optionally the Z cloud (rows flattened
    to R^{n d}), and the joint pairing; both are checked finite when the
    view is built. Distances to the point mass come from one
    :func:`sum_squares` contraction of the cloud and are cached, because a
    driver may ask for the same distance at every particle batch.
    """

    def __init__(self, y: np.ndarray, z: np.ndarray | None = None) -> None:
        self._y = _as_cloud(y)
        self._z: np.ndarray | None = None
        if z is not None:
            zc = np.asarray(z, dtype=np.float64)
            if zc.ndim == 3:
                zc = zc.reshape(zc.shape[0], -1)
            self._z = _as_cloud(zc)
            if self._z.shape[0] != self._y.shape[0]:
                raise MeasureError("Y and Z clouds must pair particle by particle")
        self._cache: dict[tuple[str, float], float] = {}

    @property
    def y_points(self) -> np.ndarray:
        return self._y

    @property
    def z_points(self) -> np.ndarray:
        if self._z is None:
            raise MeasureError("this view carries no Z marginal")
        return self._z

    @property
    def has_z(self) -> bool:
        return self._z is not None

    def mean_y(self) -> np.ndarray:
        return self._y.mean(axis=0)

    def _dist(self, tag: str, pts: np.ndarray, p: float) -> float:
        key = (tag, p)
        if key not in self._cache:
            self._cache[key] = wasserstein_to_delta(ParticleCloud(pts), p)
        return self._cache[key]

    def w_y(self, p: float = 2) -> float:
        """W_p(mu_1, delta_0) for the Y marginal."""
        return self._dist("y", self._y, p)

    def w_z(self, p: float = 2) -> float:
        """W_p(mu_2, delta_0) for the Z marginal."""
        return self._dist("z", self.z_points, p)
