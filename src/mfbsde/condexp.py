"""Least-squares conditional expectations on a particle ensemble.

The conditioning state at node k is the Brownian value W_{t_k}. A polynomial
design is built on the whitened state z = M^T (x - m): m is the state's mean
and M holds the eigenvectors of its s x s covariance, each scaled by its
eigenvalue^{-1/2}. A direction whose eigenvalue is at most ``_RANK_FLOOR``
times the largest one, or ``_RANK_FLOOR``^2 |m|^2, is constant or an affine
copy of another and is dropped, so a constant state fits a plain mean with
rank 1. The design's columns are the probabilists' Hermite products
He_a(z) of total degree at most the basis degree; total-degree polynomials
are invariant under affine maps, so they span what the monomials of the
state span. A piecewise design holds the indicators of each coordinate's
nonempty bins. Either is built as its (p, N) transpose A^T, whose rows are
its columns.

A :class:`NodeFactor` holds the whitening and R^{-1}, R^T R = A^T A from
one Cholesky factorization of the Gram matrix G. When that factorization
fails or a column's angle to the span of the others has a sine of at most
``_PIVOT_FLOOR``, R comes from the ridged Gram matrix G + lam I,
lam = 1e-10 tr(G)/p, instead. An ensemble with fewer particles than design
columns is refused with a :class:`RegressionError`, and so is a non-finite
conditioning state, whenever its node is visited. A :class:`NodeOperator`
holds two things: its design A^T, a C-contiguous (p, N) array, and its
factor; it fits an (N,) vector or an (N, m) block v as
A (R^{-1} (R^{-T} (A^T v))), one triangle after the other, and one rebuilt
from a kept factor is bitwise equal to a fresh one. An ensemble's
:class:`FactorTable` for a basis, ``FactorTable.of(paths, basis)``, factors
each node once for every solve and diagnostic on it and builds a fresh
operator at every access.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .paths import PathEnsemble, is_count

RIDGE_SCALE = 1e-10
# sin_j = 1 / sqrt(G_jj (G^{-1})_jj) is the sine of the angle between design
# column j and the span of the other columns: the Cholesky pivot R_jj /
# sqrt(G_jj) that column j would have if it came last. Whitened designs of
# continuous states read at least 2.5e-3 (Brownian states up to degree 9 on
# 300 to 8192 particles, uniform ones at degree 7 on 300, (x, x + 0.01 noise)
# at degree 7). Singular Gram matrices whose Cholesky factorization still
# succeeded read at most 1e-7 (states with a coordinate of 2 to 5 values,
# alone, paired or beside a normal one, at degrees 3 to 7); their smallest
# pivot R_jj / sqrt(G_jj) read up to 7.6e-3, so only the sine tells them apart.
_PIVOT_FLOOR = 1e-6
# Covariance eigenvalues are accurate to about 1e-16 of the largest one, and
# centring a constant coordinate of value c leaves about 1e-15 |c|.
_RANK_FLOOR = 1e-12


class RegressionError(ValueError):
    pass


@dataclass(frozen=True)
class RegressionBasis:
    """Finite-dimensional regression family.

    kind="polynomial": all polynomials of total degree <= degree.
    kind="piecewise": indicator columns of per-coordinate equal-width bins
    (their span contains constants, so the tower property is preserved).
    Raises :class:`RegressionError` (a ``ValueError``) for an unknown kind,
    or unless the degree is an int >= 0 and the bin count an int >= 1,
    whatever the kind; a bool is neither.
    """

    kind: str = "polynomial"
    degree: int = 3
    bins: int = 50

    def __post_init__(self) -> None:
        if self.kind not in ("polynomial", "piecewise"):
            raise RegressionError(f"unknown basis kind {self.kind!r}")
        counts = {"degree": (self.degree, 0), "bins": (self.bins, 1)}
        bad = [f"{k}={v!r}" for k, (v, least) in counts.items() if not is_count(v, least)]
        if bad:
            raise RegressionError(f"bad basis option(s): {', '.join(bad)}")


@dataclass(frozen=True)
class ProjectionInfo:
    ridge_used: bool
    dropped_columns: int
    rank: int


def _design_polynomial(
    state: np.ndarray, degree: int, whitening: tuple[np.ndarray, np.ndarray] | None
) -> tuple[np.ndarray, int, tuple[np.ndarray, np.ndarray]]:
    # The state is gathered once as contiguous (s, N) rows and centred in
    # place; a given whitening skips the mean, the covariance and its
    # eigenvectors. The whitened coordinates are the design's degree-1 rows.
    # Every later row is one product of two earlier ones, (a, ...) times
    # (c^k) or, for a pure power, (c^{k-1}) times (c), and a pure power then
    # takes off its Hermite term: He_k(z) = z He_{k-1}(z) - (k - 1) He_{k-2}(z),
    # He_0 = 1. Once rotated, the centred state's first row is scratch.
    n, s = state.shape
    coords = np.array(state.T, order="C")
    if whitening is None:
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            mean = coords.sum(axis=1) / max(n, 1)
            coords -= mean[:, None]
            cov = _gram(coords) / max(n, 1)
            floor = _RANK_FLOOR * (mean @ mean)
        if not (np.isfinite(cov).all() and math.isfinite(floor)):
            raise RegressionError("the mean, squared mean or covariance of the conditioning state overflows float64")
        w, v = np.linalg.eigh(cov)
        kept = w > _RANK_FLOOR * max(w[-1], floor)
        whitening = (mean, v[:, kept] / np.sqrt(w[kept]))
    else:
        coords -= whitening[0][:, None]
    r = whitening[1].shape[1]
    combos = [()] + [c for deg in range(1, degree + 1) for c in combinations_with_replacement(range(r), deg)]
    row = {combo: i for i, combo in enumerate(combos)}
    at = np.empty((len(combos), n))
    at[0] = 1.0
    # over an inner dimension of 1, np.matmul ran about 6x slower than np.multiply (N = 16384)
    if degree:
        (np.multiply if s == 1 else np.matmul)(whitening[1].T, coords, out=at[1 : r + 1])
    spare = coords[0]
    for i, combo in enumerate(combos[r + 1 :], start=r + 1):
        k = combo.count(combo[-1])
        split = len(combo) - (k if k < len(combo) else 1)
        np.multiply(at[row[combo[:split]]], at[row[combo[split:]]], out=at[i])
        if k == len(combo):
            at[i] -= 1.0 if k == 2 else np.multiply(at[row[combo[2:]]], k - 1, out=spare)
    return at, math.comb(s + degree, degree) - len(combos), whitening


def _design_piecewise(state: np.ndarray, bins: int) -> tuple[np.ndarray, int]:
    # Indicator rows of each coordinate's nonempty equal-width bins. One
    # coordinate's bins span the constants; more coordinates add up as blocks
    # after an intercept row (product bins would explode), and a constant
    # one, whose single bin repeats the intercept, adds no row.
    n, s = state.shape
    rows, dropped = [np.ones((1, n))] if s > 1 else [], 0
    for x in state.T:
        edges = np.linspace(float(x.min()), float(x.max()), bins + 1)
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, bins - 1)
        filled, bin_of = np.unique(idx, return_inverse=True)
        if s > 1 and len(filled) == 1:
            dropped += bins
            continue
        block = np.zeros((len(filled), n))
        block[bin_of, np.arange(n)] = 1.0
        rows.append(block)
        dropped += bins - len(filled)
    return np.concatenate(rows), dropped


def _design(
    state: np.ndarray, basis: RegressionBasis, whitening: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, int, tuple[np.ndarray, np.ndarray] | None]:
    """(A^T, columns dropped, the polynomial design's whitening): the
    whitening is found from the state unless one is given."""
    state = np.asarray(state, dtype=np.float64)
    if state.ndim == 1:
        state = state[:, None]
    if state.ndim != 2:
        raise RegressionError(f"state must be (N, s), got shape {state.shape}")
    if basis.kind == "polynomial":
        return _design_polynomial(state, basis.degree, whitening)
    return *_design_piecewise(state, basis.bins), None


def _gram(at: np.ndarray) -> np.ndarray:
    """A^T A from the (p, N) array A^T. numpy hands the product of an array
    with its own transpose to BLAS syrk, which one-thread OpenBLAS runs about
    five times slower than gemm at p = 4, N = 16384; so gemm forms the
    p x (p - 1) block G[:, 1:], and symmetry and one dot product fill in
    column 0."""
    cross = at @ at[1:].T
    gram = np.empty((len(at), len(at)))
    gram[:, 1:] = cross
    gram[1:, 0] = cross[0]
    gram[0, 0] = at[0] @ at[0]
    return gram


@dataclass(frozen=True, eq=False)
class NodeFactor:
    """The p x p part of one state's projection, factored once.

    ``whitening`` is the polynomial design's (mean, M), None for a piecewise
    one; ``rinv`` is R^{-1}, with R^T R = A^T A or, on a ridge node,
    A^T A + lam I, so A (A^T A [+ lam I])^{-1} A^T = Q Q^T with Q = A R^{-1}.
    No array here has a particle axis.
    """

    whitening: tuple[np.ndarray, np.ndarray] | None
    info: ProjectionInfo
    rinv: np.ndarray

    @classmethod
    def of(cls, at: np.ndarray, dropped: int, whitening: tuple[np.ndarray, np.ndarray] | None) -> "NodeFactor":
        """R^{-1} from one Cholesky factorization of A^T A, or from the
        ridged one when that fails or a sine is at most ``_PIVOT_FLOOR``. Raises
        :class:`RegressionError` naming both counts when the design has more
        columns than there are particles."""
        p, n = at.shape
        if p > n:
            raise RegressionError(
                f"{p} basis columns kept but only {n} particles: a fit needs at least as many particles as columns"
            )
        gram = _gram(at)
        try:
            rinv = np.linalg.inv(np.linalg.cholesky(gram).T)
            # (G^{-1})_jj is the squared norm of row j of R^{-1}
            ridge = not (1.0 / np.sqrt(np.diag(gram) * (rinv**2).sum(axis=1))).min() > _PIVOT_FLOOR
        except np.linalg.LinAlgError:
            ridge = True
        if ridge:
            rinv = np.linalg.inv(np.linalg.cholesky(gram + RIDGE_SCALE * np.trace(gram) / p * np.eye(p)).T)
        return cls(whitening, ProjectionInfo(ridge_used=ridge, dropped_columns=dropped, rank=p), rinv)


class NodeOperator:
    """E[. | state] for one conditioning state.

    Built from the state's design and its :class:`NodeFactor`, factored
    here unless one is given; a state that holds a non-finite value, or
    whose mean, squared mean or covariance overflows, is then refused with
    a :class:`RegressionError`. The operator holds only its
    design A^T, a C-contiguous (p, N) array, and its factor, and fits v as
    A (R^{-1} (R^{-T} (A^T v))), the two triangles applied in turn rather
    than formed into (A^T A)^{-1}. A given factor skips the finiteness
    check, the covariance and its eigenvectors, and the factorization: its
    whitening rebuilds the design, so a rebuilt operator is bitwise equal to
    a fresh one.
    """

    def __init__(self, state: np.ndarray, basis: RegressionBasis, factor: NodeFactor | None = None) -> None:
        if factor is None and not np.isfinite(state).all():
            raise RegressionError("the conditioning state holds a non-finite value")
        self._at, dropped, whitening = _design(state, basis, None if factor is None else factor.whitening)
        self.factor = NodeFactor.of(self._at, dropped, whitening) if factor is None else factor
        self.info = self.factor.info

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Fitted E[values | state] at each particle; ``values`` is (N,) or an
        (N, m) block of right-hand sides, and the fit has its shape."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim not in (1, 2):
            raise RegressionError(f"values must be (N,) or (N, m), got shape {values.shape}")
        if values.shape[0] != self._at.shape[1]:
            raise RegressionError("values and state must share the particle axis")
        return self._at.T @ (self.factor.rinv @ (self.factor.rinv.T @ (self._at @ values)))


class FactorTable:
    """Node factors of one ensemble and basis, keyed by node index.
    ``states[k]`` is the (N, s) conditioning state of node k. Every access
    builds a fresh operator, one design, from node k's state and its
    factor, factored on first use; nothing is kept for a refused state. The
    table holds no array with a particle axis beyond ``states``."""

    def __init__(self, basis: RegressionBasis, states) -> None:
        self._basis = basis
        self._states = states
        self._factors: dict = {}

    @classmethod
    def of(cls, paths: PathEnsemble, basis: RegressionBasis) -> "FactorTable":
        """The ensemble's one table for ``basis``, kept on the ensemble. It
        indexes the ensemble's read-only Brownian array, never the ensemble,
        so a dropped ensemble is freed by reference counting."""
        table = paths._factor_tables.get(basis)
        if table is None:
            table = paths._factor_tables[basis] = cls(basis, paths._w)
        return table

    def __getitem__(self, k: int) -> NodeOperator:
        if k < 0:  # an array of states would wrap it round
            raise IndexError(f"node index {k} is negative")
        op = NodeOperator(self._states[k], self._basis, self._factors.get(k))
        self._factors[k] = op.factor
        return op


@dataclass(frozen=True)
class RegressionEngine:
    """A basis bound to the projection every solver and diagnostic fits with."""

    basis: RegressionBasis

    def project(self, values: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Fitted E[values | state] at each particle: one factor, one apply."""
        return NodeOperator(state, self.basis).apply(values)
