"""Least-squares conditional expectations on a particle ensemble.

The conditioning state at node k is the Brownian value W_{t_k}. Projections
solve the normal equations through a thin QR factorization; a trace-scaled
ridge fallback (penalty 1e-10 * tr(A^T A)/p) catches rank deficiency, and
columns with no sample variance are dropped up front so the degenerate
node-0 state reduces cleanly to a plain mean.

A fit is split in two: :class:`NodeOperator` factors the design of one
state once, and its ``apply`` fits any number of right-hand sides against
that factorization. An :class:`OperatorTable` keys operators by node
index and lives as long as its owner: the solvers keep one per window for
``local`` and ``global`` (every Picard iteration and BMO norm of the window
shares it), one for all outer sweeps of ``volterra``, and one operator per
node visit for ``theta``.
"""
from __future__ import annotations

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
    """

    kind: str = "polynomial"
    degree: int = 3
    bins: int = 50

    def __post_init__(self) -> None:
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
    n, s = state.shape
    cols = [np.ones(n)]
    for deg in range(1, degree + 1):
        for combo in combinations_with_replacement(range(s), deg):
            col = np.ones(n)
            for j in combo:
                col = col * state[:, j]
            cols.append(col)
    return np.column_stack(cols)


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


class NodeOperator:
    """E[. | state] for one conditioning state, factored once.

    Holds the design with its variance-free columns dropped, then either
    the thin QR factors or, when R is numerically singular, the ridge
    system; ``info`` describes the fit.
    """

    def __init__(self, state: np.ndarray, basis: RegressionBasis) -> None:
        design = _design(state, basis)
        # Drop columns without sample variance, keeping the leading constant.
        keep = [0] + [j for j in range(1, design.shape[1]) if design[:, j].std() > 0.0]
        a = design[:, keep]
        q, r = np.linalg.qr(a)
        diag = np.abs(np.diag(r))
        ridge = bool(diag.min() <= 1e-12 * max(diag.max(), 1.0))
        self._a = a
        if not ridge:
            self._q, self._r = q, r
        else:
            gram = a.T @ a
            lam = RIDGE_SCALE * np.trace(gram) / gram.shape[0]
            self._system = gram + lam * np.eye(gram.shape[0])
        self.info = ProjectionInfo(ridge_used=ridge, dropped_columns=design.shape[1] - len(keep), rank=len(keep))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Fitted E[values | state] at each particle; ``values`` is (N,) or an
        (N, m) block of right-hand sides, and the fit has its shape."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim not in (1, 2):
            raise RegressionError(f"values must be (N,) or (N, m), got shape {values.shape}")
        if values.shape[0] != self._a.shape[0]:
            raise RegressionError("values and state must share the particle axis")
        if not self.info.ridge_used:
            coef = np.linalg.solve(self._r, self._q.T @ values)
        else:
            coef = np.linalg.solve(self._system, self._a.T @ values)
        return self._a @ coef


class OperatorTable:
    """Node operators of one ensemble and basis, keyed by node index and
    factored on first use. ``state_at(k)`` gives the conditioning state of
    node k. The table keeps every operator it built until it is dropped."""

    def __init__(self, basis: RegressionBasis, state_at: Callable[[int], np.ndarray]) -> None:
        self._basis = basis
        self._state_at = state_at
        self._ops: dict[int, NodeOperator] = {}

    def __getitem__(self, k: int) -> NodeOperator:
        op = self._ops.get(k)
        if op is None:
            op = self._ops[k] = NodeOperator(self._state_at(k), self._basis)
        return op


@dataclass(frozen=True)
class RegressionEngine:
    """A basis bound to the projection every solver and diagnostic fits with."""

    basis: RegressionBasis

    def operator(self, state: np.ndarray) -> NodeOperator:
        return NodeOperator(state, self.basis)

    def project(self, values: np.ndarray, state: np.ndarray) -> np.ndarray:
        """Fitted E[values | state] at each particle: one factor, one apply."""
        return self.operator(state).apply(values)
