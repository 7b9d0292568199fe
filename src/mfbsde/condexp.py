"""Least-squares conditional expectations on a particle ensemble.

The conditioning state at node k is the Brownian value W_{t_k}. Constant
design columns (min == max, an exact test) are dropped first, so a constant
state, whatever its value, fits a plain mean with rank 1; an ensemble with
fewer particles than kept columns is refused with a :class:`RegressionError`.
A polynomial design is column-major: the (N, p) transpose of a (p, N)
buffer whose rows are its columns.

A :class:`NodeFactor` holds R^{-1}, R^T R = A^T A for the kept columns A.
R comes from the Gram matrix G = A^T A: with column scales s = sqrt(diag G),
R = L^T diag(s), L the Cholesky factor of G / (s s^T), when L is well
conditioned; else from the thin Householder QR of A; and, when that R is
numerically singular, from the Cholesky factor of the ridged Gram matrix
G + lam I, lam = 1e-10 tr(G)/p. A non-finite conditioning state is refused
when its node is first factored. A :class:`NodeOperator` holds two things:
its kept design A^T, a C-contiguous (p, N) array, and its factor; it fits an
(N,) vector or an (N, m) block v as A (R^{-1} (R^{-T} (A^T v))), one
triangle after the other, and one rebuilt from a kept factor is bitwise
equal to a fresh one. A :class:`FactorTable` keys factors by node index,
factors each node once and builds a fresh operator at every access.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from .paths import is_count

RIDGE_SCALE = 1e-10
# Largest sqrt(k_1(L) k_inf(L)), an upper bound on the 2-norm condition
# number of L, for which R comes from the scaled Gram matrix; a Cholesky R
# then loses at most about two digits to Householder's.
CHOLESKY_CONDITION = 10.0


class RegressionError(ValueError):
    pass


@dataclass(frozen=True)
class RegressionBasis:
    """Finite-dimensional regression family.

    kind="polynomial": all monomials of total degree <= degree.
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


def _design_polynomial(state: np.ndarray, degree: int) -> np.ndarray:
    # Column (a, ..., c) is column (a, ...) times x_c: the same products, in
    # the same order, as multiplying 1 by x_a, ..., x_c one at a time. Each
    # column is a contiguous row of a (p, N) buffer; the design is its (N, p)
    # transpose.
    n, s = state.shape
    combos = [()] + [c for deg in range(1, degree + 1) for c in combinations_with_replacement(range(s), deg)]
    column = {combo: i for i, combo in enumerate(combos)}
    coords = np.ascontiguousarray(state.T)
    columns = np.empty((len(combos), n))
    columns[0] = 1.0
    for i, combo in enumerate(combos[1:], start=1):
        np.multiply(columns[column[combo[:-1]]], coords[combo[-1]], out=columns[i])
    return columns.T


def _design_piecewise(state: np.ndarray, bins: int) -> np.ndarray:
    n, s = state.shape
    pieces = []
    for j in range(s):
        x = state[:, j]
        lo, hi = float(x.min()), float(x.max())
        if hi <= lo:
            pieces.append(np.ones((n, 1)))
            continue
        edges = np.linspace(lo, hi, bins + 1)
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, bins - 1)
        block = np.zeros((n, bins))
        block[np.arange(n), idx] = 1.0
        pieces.append(block)
    if s == 1:
        return pieces[0]
    # product bins across coordinates would explode; use additive blocks
    # plus an intercept, which still spans constants.
    return np.column_stack([np.ones(n)] + pieces)


def _design(state: np.ndarray, basis: RegressionBasis) -> np.ndarray:
    state = np.asarray(state, dtype=np.float64)
    if state.ndim == 1:
        state = state[:, None]
    if state.ndim != 2:
        raise RegressionError(f"state must be (N, s), got shape {state.shape}")
    if basis.kind == "polynomial":
        return _design_polynomial(state, basis.degree)
    return _design_piecewise(state, basis.bins)


def _kept(design: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    """The kept columns A; the design itself, uncopied, when all are kept."""
    return design if len(keep) == design.shape[1] else design[:, keep]


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


def _gram_r(gram: np.ndarray) -> np.ndarray | None:
    """R = L^T diag(s) with L L^T = G / (s s^T), s = sqrt(diag G), or None
    when that Cholesky fails or L is worse conditioned than
    ``CHOLESKY_CONDITION`` allows. The estimate comes from L and L^{-1}."""
    scale = np.sqrt(np.diag(gram))
    with np.errstate(divide="ignore", invalid="ignore"):  # a NaN fails the Cholesky
        scaled = gram / np.outer(scale, scale)
    try:
        lower = np.linalg.cholesky(scaled)
        inverse = np.linalg.inv(lower)
    except np.linalg.LinAlgError:
        return None
    # ||M||_1 ||M||_inf for M = L and L^{-1}: largest column sum times
    # largest row sum of |M|; sqrt(k_1 k_inf) bounds the 2-norm k_2 above
    absolute = np.abs(np.stack([lower, inverse]))
    norms = absolute.sum(axis=1).max(axis=1) * absolute.sum(axis=2).max(axis=1)
    if not math.sqrt(norms.prod()) <= CHOLESKY_CONDITION:
        return None
    return lower.T * scale


@dataclass(frozen=True, eq=False)
class NodeFactor:
    """The p x p part of one state's projection, factored once.

    ``keep`` lists the design columns that are not constant (the intercept
    always stays); ``rinv`` is R^{-1}, R from the scaled Gram matrix or the
    QR with R^T R = A^T A or, on a ridge node, with R^T R = A^T A + lam I, so
    A (A^T A [+ lam I])^{-1} A^T = Q Q^T with Q = A R^{-1} on every path. No
    array here has a particle axis.
    """

    keep: tuple[int, ...]
    info: ProjectionInfo
    rinv: np.ndarray

    @classmethod
    def of(cls, design: np.ndarray) -> "NodeFactor":
        """Constant-column test, R from the scaled Gram matrix (the thin QR's
        when that is ill conditioned), the ridge test on diag(R), then
        R^{-1}. Raises :class:`RegressionError` naming both counts when more
        columns are kept than there are particles."""
        # the initial values make an empty ensemble vary in no column
        varies = design.min(axis=0, initial=np.inf) < design.max(axis=0, initial=-np.inf)
        keep = (0,) + tuple(j for j in range(1, design.shape[1]) if varies[j])
        if len(keep) > design.shape[0]:
            raise RegressionError(
                f"{len(keep)} basis columns kept but only {design.shape[0]} particles: "
                "a fit needs at least as many particles as columns"
            )
        a = _kept(design, keep)
        gram = _gram(a.T)
        r = _gram_r(gram)
        if r is None:
            r = np.linalg.qr(a, mode="r")
        diag = np.abs(np.diag(r))
        ridge = bool(diag.min() <= 1e-12 * max(diag.max(), 1.0))
        info = ProjectionInfo(ridge_used=ridge, dropped_columns=design.shape[1] - len(keep), rank=len(keep))
        if ridge:
            lam = RIDGE_SCALE * np.trace(gram) / gram.shape[0]
            r = np.linalg.cholesky(gram + lam * np.eye(gram.shape[0])).T
        return cls(keep, info, np.linalg.inv(r))


class NodeOperator:
    """E[. | state] for one conditioning state.

    Built from the state's design and its :class:`NodeFactor`, factored
    here unless one is given; a state that holds a non-finite value is then
    refused with a :class:`RegressionError`. The operator holds only its
    kept design A^T, a C-contiguous (p, N) array, and its factor, and fits
    v as A (R^{-1} (R^{-T} (A^T v))), the two triangles applied in turn
    rather than formed into (A^T A)^{-1}. A given factor skips the
    finiteness check, the constant-column test and the factorization, so a
    rebuilt operator is bitwise equal to a fresh one.
    """

    def __init__(self, state: np.ndarray, basis: RegressionBasis, factor: NodeFactor | None = None) -> None:
        if factor is None and not np.isfinite(state).all():
            raise RegressionError("the conditioning state holds a non-finite value")
        design = _design(state, basis)
        self.factor = NodeFactor.of(design) if factor is None else factor
        self.info = self.factor.info
        self._at = np.ascontiguousarray(_kept(design, self.factor.keep).T)  # A^T

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
    ``state_at(k)`` gives the (N, s) conditioning state of node k. Every
    access builds a fresh operator, one design, from node k's state and its
    factor, factored on first use; the table itself holds no array with a
    particle axis."""

    def __init__(self, basis: RegressionBasis, state_at: Callable[[int], np.ndarray]) -> None:
        self._basis = basis
        self._state_at = state_at
        self._kept: dict = {}

    def __getitem__(self, k: int) -> NodeOperator:
        op = NodeOperator(self._state_at(k), self._basis, self._kept.get(k))
        self._kept[k] = op.factor
        return op


@dataclass(frozen=True)
class RegressionEngine:
    """A basis bound to the projection every solver and diagnostic fits with."""

    basis: RegressionBasis

    def project(self, values: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Fitted E[values | state] at each particle: one factor, one apply."""
        return NodeOperator(state, self.basis).apply(values)
