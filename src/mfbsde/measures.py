"""Empirical measures of particle clouds and their Wasserstein queries.

Only distances to a point mass are needed by the solvers, and they have
a closed form over a cloud. Exponential moments are computed in
log-sum-exp form, and the log value is the authoritative one once
exponents leave the comfortable range of float64.

Every per-particle norm in the package, here and in the drivers, solvers
and diagnostics, is the square root of :func:`sum_squares`; every
per-particle sup over components is :func:`max_abs`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class MeasureError(ValueError):
    pass


def sum_squares(x: np.ndarray) -> np.ndarray:
    """Sum of squares over the trailing axis, x[..., 0]**2 + x[..., 1]**2
    + ..., added in that order with one pass per column.

    The square root equals ``np.linalg.norm(x, axis=-1)`` bitwise for a
    trailing axis of length <= 4 whose squares are normal floats. A square
    that overflows gives inf and NaN propagates, with no warning, so that
    non-finite values reach the solvers' own guards.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = x[..., 0] * x[..., 0]
        for i in range(1, x.shape[-1]):
            total += x[..., i] * x[..., i]
    return total


def max_abs(x: np.ndarray) -> np.ndarray:
    """Largest |x| over the trailing axis, with one pass per column;
    bitwise equal to ``np.abs(x).max(axis=-1)``, NaN included."""
    top = np.abs(x[..., 0])
    for i in range(1, x.shape[-1]):
        np.maximum(top, np.abs(x[..., i]), out=top)
    return top


def _flat_rows(z: np.ndarray) -> np.ndarray:
    """A Z cloud (N, n, d) as its (N, n d) rows; any other shape as given."""
    z = np.asarray(z, dtype=np.float64)
    return z.reshape(z.shape[0], -1) if z.ndim == 3 else z


def _as_cloud(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise MeasureError(f"cloud must be (N, m), got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise MeasureError("cloud contains non-finite points")
    return pts


def _check_order(p: float) -> float:
    if p not in (1, 2):
        raise MeasureError(f"Wasserstein order must be 1 or 2, got {p}")
    return float(p)


def _distance_to_delta(points: np.ndarray, p: float) -> float:
    """W_p distance of the cloud to the point mass at the origin: a p-th
    moment root, sqrt(mean |x|^2) for p = 2 and mean |x| for p = 1."""
    sq = sum_squares(points)
    return float(np.sqrt(np.mean(sq)) if p == 2 else np.mean(np.sqrt(sq)))


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
    to R^{n d}), and the joint pairing. ``MeasureView(y, z)`` checks both
    clouds finite when the view is built, and only then, raising
    :class:`MeasureError`; :meth:`of_checked` builds the same view over
    clouds the caller has already found finite, without that scan. Distances
    to the point mass are p-th moment roots of the per-particle norms.
    """

    def __init__(self, y: np.ndarray, z: np.ndarray | None = None) -> None:
        self._pair(_as_cloud(y), None if z is None else _as_cloud(_flat_rows(z)))

    @classmethod
    def of_checked(cls, y: np.ndarray, z: np.ndarray | None = None) -> "MeasureView":
        """The view of float64 clouds Y (N, n) and Z (N, n, d) or (N, m)
        known to be finite, built without the finiteness scan; its queries
        equal those of ``MeasureView(y, z)``."""
        view = cls.__new__(cls)
        view._pair(y, None if z is None else _flat_rows(z))
        return view

    def _pair(self, y: np.ndarray, z: np.ndarray | None) -> None:
        if z is not None and z.shape[0] != y.shape[0]:
            raise MeasureError("Y and Z clouds must pair particle by particle")
        self._y, self._z = y, z

    @property
    def z_points(self) -> np.ndarray:
        if self._z is None:
            raise MeasureError("this view carries no Z marginal")
        return self._z

    def mean_y(self) -> np.ndarray:
        return self._y.mean(axis=0)

    def w_y(self, p: float = 2) -> float:
        """W_p(mu_1, delta_0) for the Y marginal."""
        return _distance_to_delta(self._y, _check_order(p))

    def w_z(self, p: float = 2) -> float:
        """W_p(mu_2, delta_0) for the Z marginal."""
        return _distance_to_delta(self.z_points, _check_order(p))
