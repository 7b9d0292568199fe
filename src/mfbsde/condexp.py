"""Least-squares conditional expectations on a particle ensemble.

The conditioning state at node k is the Brownian value W_{t_k}. A fit
solves the normal equations through a thin QR factorization; a trace-scaled
ridge fallback (penalty 1e-10 * tr(A^T A)/p) catches rank deficiency, and
constant columns (min == max, an exact test) are dropped first, so a
constant state, whatever its value, reduces to a plain mean with rank 1.
A polynomial design is column-major: the (N, p) transpose of a (p, N)
buffer whose rows are its columns.

A :class:`NodeFactor` holds the p x p part of one state's factorization, a
:class:`NodeOperator` combines it with the state's design, and its
``apply`` fits an (N,) vector or an (N, m) block of right-hand sides. An
operator rebuilt from a kept factor is bitwise equal to a fresh one. A
:class:`FactorTable` keys factors by node index, factors each node once and
builds a fresh operator at every access.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

RIDGE_SCALE = 1e-10


class RegressionError(ValueError):
    pass


@dataclass(frozen=True)
class RegressionBasis:
    """Finite-dimensional regression family.

    kind="polynomial": all monomials of total degree <= degree.
    kind="piecewise": indicator columns of per-coordinate equal-width bins
    (their span contains constants, so the tower property is preserved).
    Raises :class:`RegressionError` (a ``ValueError``) for an unknown kind,
    a degree or bin count that is not an int (a bool is none), a negative
    degree or a bin count below 1.
    """

    kind: str = "polynomial"
    degree: int = 3
    bins: int = 50

    def __post_init__(self) -> None:
        for name in ("degree", "bins"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise RegressionError(f"basis {name} must be an integer, got {value!r}")
        if self.kind not in ("polynomial", "piecewise"):
            raise RegressionError(f"unknown basis kind {self.kind!r}")
        if self.kind == "polynomial" and self.degree < 0:
            raise RegressionError("polynomial degree must be >= 0")
        if self.kind == "piecewise" and self.bins < 1:
            raise RegressionError("bin count must be >= 1")


@dataclass(frozen=True)
class ProjectionInfo:
    ridge_used: bool
    dropped_columns: int
    rank: int


def _design_polynomial(state: np.ndarray, degree: int) -> np.ndarray:
    # Column (a, ..., c) is column (a, ...) times x_c: the same products, in
    # the same order, as multiplying 1 by x_a, ..., x_c one at a time. Each
    # column is a contiguous row of a (p, N) buffer; the design is its
    # (N, p) transpose.
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


@dataclass(frozen=True, eq=False)
class NodeFactor:
    """The p x p part of one state's projection, factored once.

    ``keep`` lists the design columns that are not constant (the
    intercept always stays). On the QR path ``rinv`` is R^{-1} of the thin
    QR of the kept columns, which are the design itself, uncopied, when
    none is dropped; when R is numerically singular ``system`` is the ridge
    system instead. No array here has a particle axis.
    """

    keep: tuple[int, ...]
    info: ProjectionInfo
    rinv: np.ndarray | None = None
    system: np.ndarray | None = None

    @classmethod
    def of(cls, design: np.ndarray) -> "NodeFactor":
        """Constant-column test, R of the thin QR, the ridge test on
        diag(R), then R^{-1} or the ridge system."""
        keep = (0,) + tuple(j for j in range(1, design.shape[1]) if design[:, j].min() < design[:, j].max())
        a = design if len(keep) == design.shape[1] else design[:, keep]
        r = np.linalg.qr(a, mode="r")
        diag = np.abs(np.diag(r))
        ridge = bool(diag.min() <= 1e-12 * max(diag.max(), 1.0))
        info = ProjectionInfo(ridge_used=ridge, dropped_columns=design.shape[1] - len(keep), rank=len(keep))
        if not ridge:
            return cls(keep, info, rinv=np.linalg.inv(r))
        gram = a.T @ a
        lam = RIDGE_SCALE * np.trace(gram) / gram.shape[0]
        return cls(keep, info, system=gram + lam * np.eye(gram.shape[0]))


class NodeOperator:
    """E[. | state] for one conditioning state.

    Built from the state's design and its :class:`NodeFactor`, factored
    here unless one is given. On the QR path the operator holds only
    Q = A R^{-1}, with A the kept design columns (the design itself,
    uncopied, when every column is kept), and fits v as Q (Q^T v). A given
    factor skips the constant-column test and the QR, and since a fresh
    factor forms Q the same way, a rebuilt operator is bitwise equal to a
    fresh one. On the ridge path it holds A and solves the ridge system.
    """

    def __init__(self, state: np.ndarray, basis: RegressionBasis, factor: NodeFactor | None = None) -> None:
        design = _design(state, basis)
        if factor is None:
            factor = NodeFactor.of(design)
        self.factor = factor
        self.info = factor.info
        if factor.info.ridge_used:
            self._cols = design[:, factor.keep]  # A
        elif len(factor.keep) == design.shape[1]:
            self._cols = design @ factor.rinv  # Q, with no copy of the design
        else:
            self._cols = design[:, factor.keep] @ factor.rinv  # Q

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Fitted E[values | state] at each particle; ``values`` is (N,) or an
        (N, m) block of right-hand sides, and the fit has its shape."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim not in (1, 2):
            raise RegressionError(f"values must be (N,) or (N, m), got shape {values.shape}")
        if values.shape[0] != self._cols.shape[0]:
            raise RegressionError("values and state must share the particle axis")
        if not self.info.ridge_used:
            return self._cols @ (self._cols.T @ values)
        return self._cols @ np.linalg.solve(self.factor.system, self._cols.T @ values)


class FactorTable:
    """Node factors of one ensemble and basis, keyed by node index.
    ``state_at(k)`` gives the conditioning state of node k. Every access
    builds a fresh operator from node k's state and its factor, factored on
    first use, so the table holds no particle-sized array."""

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
