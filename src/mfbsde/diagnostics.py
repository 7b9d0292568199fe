"""A-priori bound checks, BMO estimators, and Picard trace summaries.

Checks never gate a solve; they return reports that callers (tests and the
command line) interpret. Monte Carlo comparisons use a 5 percent slack,
exact identities use none. The BMO estimators take the time grid from
their ensemble and their node factors from its factor table, and
:func:`check_apriori_local` refuses a solution whose grid is not its
ensemble's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .condexp import FactorTable
from .constants import GlobalConstants, _radii_at, estimate_terms
from .generators import CertificateLocal
from .measures import ExpMoment, exp_moment, max_abs, sum_squares
from .paths import require_grid

MC_SLACK = 0.05
CONTRACTION_FLOOR = 1e-15  # contraction_trace floors exact zeros here before the log fit


@dataclass(frozen=True)
class BoundReport:
    name: str
    observed: float
    bound: float
    satisfied: bool
    slack: float = 0.0
    note: str = ""


def _compare(name: str, observed: float, bound: float, slack: float, note: str = "") -> BoundReport:
    ok = bool(observed <= bound * (1.0 + slack))
    return BoundReport(name=name, observed=float(observed), bound=float(bound), satisfied=ok, slack=slack, note=note)


def _tail_sums(z_values: np.ndarray, dt: float) -> np.ndarray:
    """Per-particle tail sums sum_{j>=k} |Z_j|^2 dt, including node k, as
    an (N, K) view of a node-major buffer; Z is (N, K, d) for one component
    or (N, K, n, d). Each node's tail is a contiguous row of the buffer, and
    the sums are added in the order of a reversed cumulative sum."""
    z_values = np.asarray(z_values, dtype=np.float64)
    n_part, n_steps = z_values.shape[:2]
    tails = np.empty((n_steps, n_part))
    running = np.zeros(n_part)
    for k in reversed(range(n_steps)):
        running = tails[k] = running + sum_squares(z_values[:, k].reshape(n_part, -1)) * dt
    return tails.T


def bmo_profile(z_values, paths, engine, k_lo: int = 0, operators=None) -> np.ndarray:
    """Per-node conditional remaining quadratic variation, particle maximum.

    Entry k of the (K,) profile of one Z array estimates
    max_omega E[ sum_{j>=k} |Z_j|^2 dt | F_{t_k} ] by projecting the tail
    sum onto the node-k state. Node k's operator, k a global node index,
    comes from the ensemble's :class:`mfbsde.condexp.FactorTable` for
    ``engine``'s basis, or from ``operators``, a ``local`` window's dict of
    built operators. The step dt is that of the ensemble's grid.
    """
    tails = _tail_sums(z_values, paths.grid.dt).T  # (K, N)
    if operators is None:
        operators = FactorTable.of(paths, engine.basis)
    return np.array([operators[k_lo + k].apply(tail).max() for k, tail in enumerate(tails)])


def bmo_norm(z_values, paths, engine, k_lo: int = 0, operators=None) -> float:
    """BMO norm of one Z array on its nodes: the square root of the
    :func:`bmo_profile` maximum."""
    profile = bmo_profile(z_values, paths, engine, k_lo=k_lo, operators=operators)
    return float(math.sqrt(max(profile.max(), 0.0)))


def john_nirenberg(z_values: np.ndarray, paths, engine, k_lo: int = 0) -> BoundReport:
    """Exponential-moment comparison E[exp(QV_tail)] <= 1/(1 - bmo^2).

    Only meaningful below the unit BMO threshold; above it the report is
    marked skipped rather than failed.
    """
    norm = bmo_norm(z_values, paths, engine, k_lo=k_lo)
    if norm >= 1.0:
        return _compare("john_nirenberg", norm, math.inf, 0.0, note="skipped: BMO norm not below the unit threshold")
    tails = _tail_sums(z_values, paths.grid.dt)
    observed = float(np.exp(tails).mean(axis=0).max())
    bound = 1.0 / (1.0 - norm**2)
    return _compare("john_nirenberg", observed, bound, MC_SLACK, note=f"bmo={norm:.6g}")


def check_apriori_local(sol, cert: CertificateLocal, input_sup: float, input_qv: float, paths, engine) -> list[BoundReport]:
    """Sup and quadratic-variation bounds of the frozen-coefficient solve:
    the estimates of :func:`mfbsde.constants.estimate_terms` at the inputs
    ``input_sup`` and ``input_qv``, the sup norm of the frozen Y input and
    the squared BMO norm of the frozen Z input (at a Picard fixed point, the
    solution's own), with n the solution's component count. A bound beyond
    float64 range reads inf. Raises ``ValueError`` naming the value unless
    both inputs are >= 0 (inf is allowed), and naming the span or both grids
    for a solution of no step or on a grid that is not the ensemble's."""
    for name, value in (("input_sup", input_sup), ("input_qv", input_qv)):
        if not value >= 0.0:
            raise ValueError(f"{name} must be >= 0 (inf is allowed), got {value!r}")
    if sol.Z.shape[1] == 0:
        raise ValueError(f"solution spans {sol.Z.shape[1]} steps from node {sol.k_lo}; the a-priori bounds need at least one")
    require_grid(sol.grid, paths, "solution")
    n, g = sol.components, cert.gamma
    log_c_sup, log_c_qv, log_b, s, _ = estimate_terms(cert, n, input_sup, math.log(input_qv) if input_qv > 0.0 else -math.inf)
    y_obs = float(np.abs(sol.Y).max())
    z_obs = bmo_norm(sol.Z, paths, engine, k_lo=sol.k_lo) ** 2
    log_len = math.log((sol.Y.shape[1] - 1) * sol.grid.dt)
    # log(c l + b l^s) for c = c_sup and c = c_qv
    log_sup, log_qv = (np.logaddexp(c + log_len, log_b + s * log_len) for c in (log_c_sup, log_c_qv))
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN in Y gives a NaN bound, which no report satisfies
        k1, log_k2_y = _radii_at(cert, n, y_obs)
        y_bound = k1 / 2.0 + n * np.exp(log_sup)
        log_front = math.log(4.0 * n) - math.log(g) + 2.0 * g * y_obs  # log 2 (2n/g) exp(2 g y)
        z_bound = np.exp(np.logaddexp(log_k2_y, log_front + log_qv)) / 2.0
    return [_compare("apriori_sup", y_obs, y_bound, MC_SLACK), _compare("apriori_qv", z_obs, z_bound, MC_SLACK)]


def check_envelope(sol, gconsts: GlobalConstants, n: int) -> list[BoundReport]:
    """Componentwise envelope |Y^i_t|^2 <= eta(t)/n plus the kappa cap;
    ``ValueError`` naming both values for an n or a horizon (of the
    constants) that is not the solution's."""
    if n != sol.Y.shape[2]:
        raise ValueError(f"n = {n!r} is not the solution's component count {sol.Y.shape[2]}")
    if gconsts.eta.horizon != sol.grid.horizon:
        raise ValueError(f"constants for horizon {gconsts.eta.horizon!r} on a grid of horizon {sol.grid.horizon!r}")
    times = sol.grid.nodes[sol.k_lo : sol.k_lo + sol.Y.shape[1]]
    eta_vals = gconsts.eta(times) / n
    comp_sq = np.max(np.abs(sol.Y), axis=(0, 2)) ** 2  # per node, worst component
    worst = float(np.max(comp_sq / np.maximum(eta_vals, 1e-300)))
    return [
        _compare("envelope_nodes", worst, 1.0, MC_SLACK, note="max_k max_i |Y^i_k|^2 / (eta(t_k)/n)"),
        _compare("kappa_cap", float(sum_squares(sol.Y).max()), gconsts.kappa, MC_SLACK),
    ]


@dataclass(frozen=True)
class ThetaGap:
    """Interpolated Picard differences and their exponential moments."""

    theta: float
    delta: np.ndarray
    delta_tilde: np.ndarray
    moments: dict = field(default_factory=dict)


def theta_gap(y_m: np.ndarray, y_mp: np.ndarray, theta: float, gamma: float = 1.0) -> ThetaGap:
    """Monitors Delta = (Y^{m+p} - th Y^m)/(1-th), tilde with roles swapped.

    The identity (1-th) Delta + th Y^m = Y^{m+p} holds by construction and
    is what the exactness test checks. Raises ``ValueError`` unless theta
    lies in (0, 1) and the two iterates have one (N, K, ...) shape, K >= 1.
    """
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    y_m = np.asarray(y_m, dtype=np.float64)
    y_mp = np.asarray(y_mp, dtype=np.float64)
    if y_m.shape != y_mp.shape:
        raise ValueError(f"iterates must have one shape, got {y_m.shape} and {y_mp.shape}")
    if y_m.ndim < 2 or y_m.shape[1] < 1:
        raise ValueError(f"iterates must be (N, K, ...) with K >= 1 nodes, got shape {y_m.shape}")
    delta = (y_mp - theta * y_m) / (1.0 - theta)
    delta_tilde = (y_m - theta * y_mp) / (1.0 - theta)
    moments: dict[str, ExpMoment] = {}
    for tag, arr in (("delta", delta), ("delta_tilde", delta_tilde)):
        # per-particle sup over the nodes (axis 1) and components, node by node
        sup = np.zeros(len(arr))
        for k in range(arr.shape[1]):
            np.maximum(sup, max_abs(arr[:, k].reshape(len(arr), -1)), out=sup)
        for q in (1, 2):
            moments[f"{tag}_q{q}"] = exp_moment(gamma * sup, q=q)
    return ThetaGap(theta=theta, delta=delta, delta_tilde=delta_tilde, moments=moments)


@dataclass(frozen=True)
class ContractionSummary:
    rate: float
    monotone_from_second: bool
    contracting: bool
    count: int


def contraction_trace(differences: np.ndarray) -> ContractionSummary:
    """Geometric-rate fit of successive Picard differences.

    Fits log d_i against i by least squares after flooring exact zeros;
    ``monotone_from_second`` ignores the first difference, which measures
    the initializer rather than the contraction. Raises ``ValueError`` for
    fewer than three differences and, naming the first, for one that is not
    finite or is negative: a Picard difference is a norm.
    """
    d = np.asarray(differences, dtype=np.float64).ravel()
    if d.size < 3:
        raise ValueError("need at least three Picard differences to fit a rate")
    valid = np.isfinite(d) & (d >= 0.0)
    if not valid.all():
        bad = int(np.argmin(valid))
        raise ValueError(f"Picard difference {bad} is {d[bad]}; a rate needs finite, non-negative differences")
    floored = np.maximum(d, CONTRACTION_FLOOR)
    idx = np.arange(d.size)
    slope = np.polyfit(idx, np.log(floored), 1)[0]
    rate = float(np.exp(slope))
    tail = d[1:]
    monotone = bool(np.all(np.diff(tail) <= 1e-12 * np.maximum(tail[:-1], CONTRACTION_FLOOR)))
    return ContractionSummary(
        rate=rate,
        monotone_from_second=monotone,
        contracting=rate < 1.0,
        count=int(d.size),
    )
