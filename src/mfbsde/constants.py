"""Explicit constants: radii, window lengths, envelopes, Picard parameters.

Everything here is a closed form or the root of a window equation, found
by a Newton iteration in log x. Quantities that can exceed float64 range
(the quadratic-variation radius K2 and the envelope-level J2) carry a
log-scale companion which is the authoritative value once the linear one
saturates.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .generators import CertificateGlobal, CertificateLocal, MonomialFn

_LOG_HUGE = math.log(sys.float_info.max)  # exp overflows just above this
_ROOT_RESIDUAL = 1e-10  # a window root with a larger relative residual is unresolved


class ConstantsError(ValueError):
    pass


class WindowEquationError(ConstantsError):
    """The window equation has no positive root (degenerate certificate),
    or none that float64 resolves."""


def _overflow_is_bad_input(fn):
    """Raise :class:`ConstantsError` naming ``fn`` and its arguments where
    its float arithmetic overflows."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise ConstantsError(f"{fn.__name__}{args!r} overflows float64 ({exc})") from None

    return checked


def m_const(n: int, lam: float, alpha: float) -> float:
    """Young-inequality constant ((1-a)/2) (1+a)^((1+a)/(1-a)) (n lam)^(2/(1-a)), or inf."""
    if not 0 <= alpha < 1:
        raise ConstantsError("alpha must lie in [0, 1)")
    if n < 1 or lam < 0:
        raise ConstantsError("need n >= 1 and lam >= 0")
    a = float(alpha)
    try:
        return ((1.0 - a) / 2.0) * (1.0 + a) ** ((1.0 + a) / (1.0 - a)) * (n * lam) ** (2.0 / (1.0 - a))
    except OverflowError:  # a power beyond float64 range
        return math.inf


@_overflow_is_bad_input
def local_radii(cert: CertificateLocal, n: int) -> tuple[float, float]:
    """Sup radius K1 and quadratic-variation radius K2 of the invariant ball:
    the one public route to them when :func:`local_window` finds no root.
    A K2 beyond float64 range raises :class:`ConstantsError` naming log K2."""
    k1, log_k2, k2 = _radii_with_log(cert, n)
    if k2 == math.inf:
        raise OverflowError(f"K2 = exp({log_k2!r}) is beyond float64 range")
    return k1, k2


def _radii_with_log(cert: CertificateLocal, n: int) -> tuple[float, float, float]:
    if n < 1:
        raise ConstantsError("need at least one component")
    k1, log_k2 = _radii_at(cert, n)
    if log_k2 == math.inf:
        raise OverflowError("log K2 is inf")
    return k1, log_k2, math.exp(log_k2) if log_k2 < _LOG_HUGE else math.inf


def _radii_at(cert: CertificateLocal, n: int, y: float | None = None) -> tuple[float, float]:
    """K1 and log K2(y) of :func:`estimate_terms`, at y = K1 unless given."""
    g = cert.gamma
    k1 = (2.0 * n / g) * math.log(2.0) + 2.0 * n * (cert.M1 + cert.M2)
    # log(2n/g^2) by parts where g^2 leaves float64's normal range
    log_c = math.log(2.0 * n / g**2) if 1e-154 < g < 1e154 else math.log(2.0 * n) - 2.0 * math.log(g)
    log_t2 = math.log((2.0 * n / g) * (1.0 + 2.0 * cert.M2)) + 2.0 * g * (k1 if y is None else y)
    return k1, float(np.logaddexp(log_c + 2.0 * g * cert.M1, log_t2))


@dataclass(frozen=True)
class LocalConstants:
    """Window data: radii, both root lengths, and their relative residuals."""

    K1: float
    K2: float
    log_K2: float
    m_nla: float
    x1: float
    x2: float
    eps: float
    residual_x1: float
    residual_x2: float


def _solve_power_equation(log_lin: float, log_pow: float, s: float, rhs_log: float) -> tuple[float, float]:
    """Root of exp(log_lin) * x + exp(log_pow) * x^s = exp(rhs_log), x > 0.

    Coefficients live in log scale so envelope-level certificates cannot
    overflow; -inf marks an absent term. In u = log x the equation reads
    F(u) = logaddexp(log_lin + u, log_pow + s u) - rhs_log = 0, and F, a
    log-sum-exp of two affine maps, is convex and increasing with slope in
    [s, 1]. Either term alone reaches the right side at its one-term root,
    so F >= 0 at the smaller one, u0, which is the root itself when the
    other term is absent. From any point right of the root, a Newton step
    on a convex increasing function lands between the root and that point,
    so the iterates from u0 fall to the root monotonically, quadratically
    near it; the loop ends once F is not positive or a step no longer moves
    u. The returned residual is relative to the right side (which matches
    the absolute residual for order-one scales); a root that leaves float64
    range, or whose residual is not below ``_ROOT_RESIDUAL``, raises
    :class:`WindowEquationError`.
    """
    for log_coef in (log_lin, log_pow):  # -inf marks an absent term; +inf or nan is out of range
        if log_coef != -math.inf and not math.isfinite(log_coef):
            raise OverflowError(f"window-equation coefficient exp({log_coef!r}) is out of float64 range")
    if log_lin == log_pow == -math.inf:
        raise WindowEquationError("all window-equation coefficients vanish")
    u = min(rhs_log - log_lin, (rhs_log - log_pow) / s)
    while True:
        lin, power = log_lin + u, log_pow + s * u
        log_lhs = max(lin, power) + math.log1p(math.exp(-abs(lin - power)))
        # F / F', with F' = s + (1 - s) * (the linear term's share of the left side)
        step = (log_lhs - rhs_log) / (s + (1.0 - s) * math.exp(lin - log_lhs))
        if not (step > 0.0 and u - step < u):
            break
        u -= step
    residual = abs(math.expm1(log_lhs - rhs_log))
    root = math.exp(u) if u < _LOG_HUGE else math.inf
    if not (0.0 < root < math.inf and residual < _ROOT_RESIDUAL):
        raise WindowEquationError(f"window equation has no resolved root: x = {root!r} with relative residual {residual!r}")
    return root, residual


def estimate_terms(cert: CertificateLocal, n: int, sup: float, log_qv: float) -> tuple[float, float, float, float, float]:
    """The two a-priori estimates of a frozen-coefficient solve. With a
    frozen input of sup norm ``sup`` and squared BMO norm v = exp(``log_qv``),
    the output of a window of length l has
      y = sup |Y| <= K1/2 + n (c_sup l + b l^s),
      ||Z||^2_BMO <= K2(y)/2 + (2n/g) exp(2 g y) (c_qv l + b l^s),
    where s = (1-a)/2, b = g0 v^((1+a)/2), c_qv = psi(sup) + psi0(sup) +
    M v^((1+a)/(1-a)) with M = m_const(n, lam, a), c_sup is c_qv with M
    times g^((1+a)/(1-a)), K1 = (2n/g) log 2 + 2n (M1 + M2) and K2(y) =
    (2n/g^2) exp(2 g M1) + (2n/g)(1 + 2 M2) exp(2 g y). The ball's radii are
    K1 and K2 = K2(K1): :func:`local_window` finds the lengths at which the
    estimates at (sup, v, y) = (K1, K2, K1) reach them, and
    :func:`mfbsde.diagnostics.check_apriori_local` evaluates them. Returns
    log c_sup, log c_qv, log b (-inf marks an absent term), s and M (or inf)."""
    a = cert.alpha
    m_nla = m_const(n, cert.lam, a)
    exp_hi = (1.0 + a) / (1.0 - a)
    psi = float(cert.psi(sup)) + float(cert.psi0(sup))
    log_drift = math.log(psi) if psi > 0.0 else -math.inf
    log_quad = math.log(m_nla) + exp_hi * log_qv if m_nla > 0.0 and log_qv > -math.inf else -math.inf  # a zero v takes an inf M out
    log_b = math.log(cert.gamma0) + 0.5 * (1.0 + a) * log_qv if cert.gamma0 > 0.0 else -math.inf
    log_c_sup = float(np.logaddexp(log_drift, log_quad + exp_hi * math.log(cert.gamma)))
    return log_c_sup, float(np.logaddexp(log_drift, log_quad)), log_b, (1.0 - a) / 2.0, m_nla


@_overflow_is_bad_input
def local_window(cert: CertificateLocal, n: int) -> LocalConstants:
    """Certified window length eps = min(x1, x2), where the estimates of
    :func:`estimate_terms` reach K1 and K2. The second reaches K2 where its
    terms sum to (exp(2 g (M1 - K1)) / g + 1 + 2 M2) / 2, formed from the
    two terms of K2 with no difference of large logs. Raises
    :class:`ConstantsError` for n < 1 or constants beyond float64 range and
    :class:`WindowEquationError` for a root float64 does not resolve."""
    k1, log_k2, k2 = _radii_with_log(cert, n)
    log_c_sup, log_c_qv, log_b, s, m_nla = estimate_terms(cert, n, k1, log_k2)
    x1, res1 = _solve_power_equation(log_c_sup, log_b, s, math.log(k1 / (2.0 * n)))
    g = cert.gamma
    rhs2_log = float(np.logaddexp(2.0 * g * (cert.M1 - k1) - math.log(g), math.log1p(2.0 * cert.M2))) - math.log(2.0)
    x2, res2 = _solve_power_equation(log_c_qv, log_b, s, rhs2_log)
    return LocalConstants(
        K1=k1,
        K2=k2,
        log_K2=log_k2,
        m_nla=m_nla,
        x1=x1,
        x2=x2,
        eps=min(x1, x2),
        residual_x1=res1,
        residual_x2=res2,
    )


# ---------------------------------------------------------------------------
# Global stitching constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeRecord:
    """eta(t) = (n C + b/a) exp(a (T - t)) - b/a with a = C(2n+1), b = n C."""

    a: float
    b: float
    terminal: float
    horizon: float

    def __call__(self, t):
        shift = self.b / self.a
        return (self.terminal + shift) * np.exp(self.a * (self.horizon - np.asarray(t))) - shift


@dataclass(frozen=True)
class GlobalConstants:
    c_tilde: float
    eta: EnvelopeRecord
    kappa: float
    delta_kappa: float
    J1: float
    J2: float
    log_J2: float
    window: LocalConstants


def kappa_local_certificate(cert: CertificateGlobal, kappa: float, horizon: float) -> CertificateLocal:
    """Small-window certificate at the envelope level sqrt(kappa).

    The linear growth L|y| + L W2(mu1, d0) maps onto psi and psi0, the
    terminal bound becomes sqrt(kappa), and the integral bound of zeta is
    kept from the certificate via Cauchy-Schwarz on M3.
    """
    return CertificateLocal(
        gamma=cert.gamma,
        lam=0.0,
        gamma0=0.0,
        alpha=0.0,
        M1=math.sqrt(kappa),
        M2=math.sqrt(horizon * cert.M3),
        psi=MonomialFn(0.0, cert.L, 1.0),
        psi0=MonomialFn(0.0, cert.L, 1.0),
    )


@_overflow_is_bad_input
def global_ode(cert: CertificateGlobal, n: int, horizon: float) -> GlobalConstants:
    """Envelope ODE in closed form plus the stitching window at level kappa.

    C = M1^2 + M3 + 3 L^2 + 2; eta solves eta' = -C(2n+1) eta - n C with
    eta(T) = n C, and kappa = eta(0). Feasibility requires ||xi||^2 <= n C.
    A kappa beyond float64 range raises :class:`ConstantsError` naming C, n
    and T.
    """
    if horizon <= 0:
        raise ConstantsError("horizon must be positive")
    if n < 1:
        raise ConstantsError("need at least one component")
    c = cert.M1**2 + cert.M3 + 3.0 * cert.L**2 + 2.0
    a = c * (2.0 * n + 1.0)
    b = n * c
    eta = EnvelopeRecord(a=a, b=b, terminal=n * c, horizon=horizon)
    with np.errstate(over="ignore"):
        kappa = float(eta(0.0))
    if not math.isfinite(kappa):
        raise ConstantsError(
            f"envelope level kappa = eta(0) is not finite for C={c!r}, n={n!r}, T={horizon!r} (C(2n+1)T = {a * horizon:.6g})"
        )
    window = local_window(kappa_local_certificate(cert, kappa, horizon), n)
    j1 = math.sqrt(kappa)
    g = cert.gamma
    # J2 = 2n phi(M1) + 2n phi'(J1) (sqrt(T M3) + 2 L J1 T), in log scale
    # when the exponential leaves float64 range.
    inner = math.sqrt(horizon * cert.M3) + 2.0 * cert.L * j1 * horizon
    log_phi_p = _log_phi_prime_mag(g, j1)
    base = 2.0 * n * phi(g, cert.M1)
    if inner > 0.0 and math.isfinite(log_phi_p):
        log_term = math.log(2.0 * n * inner) + log_phi_p
        log_j2 = float(np.logaddexp(math.log(base) if base > 0 else -math.inf, log_term))
    else:
        log_j2 = math.log(base) if base > 0 else -math.inf
    j2 = math.exp(log_j2) if log_j2 < _LOG_HUGE else math.inf
    return GlobalConstants(
        c_tilde=c,
        eta=eta,
        kappa=kappa,
        delta_kappa=window.eps,
        J1=j1,
        J2=j2,
        log_J2=log_j2,
        window=window,
    )


# ---------------------------------------------------------------------------
# Test function phi and Picard-scheme constants
# ---------------------------------------------------------------------------


def phi(gamma: float, x):
    """phi(x) = (exp(g|x|) - g|x| - 1) / g^2; phi'' - g |phi'| = 1."""
    ax = gamma * np.abs(np.asarray(x, dtype=np.float64))
    return (np.expm1(ax) - ax) / gamma**2


def phi_prime(gamma: float, x):
    x = np.asarray(x, dtype=np.float64)
    return np.expm1(gamma * np.abs(x)) / gamma * np.sign(x)


def phi_double_prime(gamma: float, x):
    return np.exp(gamma * np.abs(np.asarray(x, dtype=np.float64)))


def _log_phi_prime_mag(gamma: float, x: float) -> float:
    e = gamma * abs(x)
    if e > _LOG_HUGE:
        return e - math.log(gamma)
    val = abs(math.expm1(e)) / gamma
    return math.log(val) if val > 0 else -math.inf


def picard_ratio_bound(q: float) -> float:
    """R(q) = (q/(q-1))^(2q), the reverse-Hoelder constant; R(2) = 16."""
    if q <= 1:
        raise ConstantsError("q must exceed 1")
    return (q / (q - 1.0)) ** (2.0 * q)


@dataclass(frozen=True)
class ThetaConstants:
    """Parameters of the convergence proof for the Picard scheme."""

    q: float
    R_q: float
    eps: float | None
    m0: int | None
    eps_star: float | None
    n0: int | None


def _step_count(rate: float, horizon: float) -> int:
    # Unique positive integer m with rate*T <= m < rate*T + 1.
    m = math.ceil(rate * horizon)
    return max(1, m)


@_overflow_is_bad_input
def theta_consts(K: float, n: int, horizon: float, q: float = 2.0) -> ThetaConstants:
    """Stage counts for the Picard scheme; K = 0 skips the windowing."""
    if K < 0 or n < 1 or horizon <= 0:
        raise ConstantsError("need K >= 0, n >= 1, horizon > 0")
    r_q = picard_ratio_bound(q)
    if K == 0.0:
        return ThetaConstants(q=q, R_q=r_q, eps=None, m0=None, eps_star=None, n0=None)
    eps = 1.0 / (4.0 * n * K)
    eps_star = 1.0 / (16.0 * n * K)
    return ThetaConstants(
        q=q,
        R_q=r_q,
        eps=eps,
        m0=_step_count(4.0 * n * K, horizon),
        eps_star=eps_star,
        n0=_step_count(16.0 * n * K, horizon),
    )


@_overflow_is_bad_input
def volterra_weight(C: float, horizon: float) -> float:
    """Weight exponent beta = 32 C^2 T of the contraction norm; raises
    :class:`ConstantsError` naming C and T when it is not finite."""
    if C < 0 or horizon <= 0:
        raise ConstantsError("need C >= 0 and horizon > 0")
    beta = 32.0 * C**2 * horizon
    if not math.isfinite(beta):
        raise ConstantsError(f"volterra weight 32 C^2 T is not finite for C={C!r}, T={horizon!r}")
    return beta
