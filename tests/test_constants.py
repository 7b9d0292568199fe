import math
import re
import warnings

import numpy as np
import pytest

from mfbsde.constants import (
    ConstantsError,
    WindowEquationError,
    EnvelopeRecord,
    _solve_power_equation,
    global_ode,
    kappa_local_certificate,
    local_radii,
    local_window,
    m_const,
    phi,
    phi_double_prime,
    phi_prime,
    picard_ratio_bound,
    theta_consts,
    volterra_weight,
)
from mfbsde.generators import (
    CertificateGlobal,
    CertificateLocal,
    MonomialFn,
    fixture,
    fixture_names,
)


def test_m_const_half_power_value():
    # hand evaluation: (1/4) * 3^3 * 1^4 = 27/32 at n = lam = 1, alpha = 1/2
    assert m_const(1, 1.0, 0.5) == pytest.approx(27.0 / 32.0, abs=1e-12)


def test_m_const_alpha_zero_and_continuity():
    assert m_const(1, 1.0, 0.0) == pytest.approx(0.5, abs=1e-14)
    assert m_const(1, 1.0, 1e-9) == pytest.approx(0.5, abs=1e-6)
    assert m_const(2, 0.75, 1.0 / 3.0) == pytest.approx(
        (1.0 / 3.0) * (4.0 / 3.0) ** 2.0 * 1.5**3, abs=1e-12
    )


def test_local_radii_hand_value():
    cert = CertificateLocal(gamma=1.0, lam=0.0, gamma0=0.0, alpha=0.0, M1=0.0, M2=0.0)
    k1, k2 = local_radii(cert, 1)
    assert k1 == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert k2 == pytest.approx(34.0, abs=1e-10)


def _alpha_zero_roots(cert, n):
    """Closed-form window roots for alpha = 0: both equations reduce to
    A x + B sqrt(x) = C, solved by the positive quadratic root."""
    k1, k2 = local_radii(cert, n)
    m = m_const(n, cert.lam, 0.0)
    psum = cert.psi(k1) + cert.psi0(k1)
    g = cert.gamma

    def root(a, b, c):
        s = (-b + math.sqrt(b * b + 4.0 * a * c)) / (2.0 * a)
        return s * s

    x1 = root(n * psum + n * g * m * k2, n * cert.gamma0 * math.sqrt(k2), k1 / 2.0)
    rhs2 = (g * k2 / (2.0 * n)) * math.exp(-2.0 * g * k1)
    x2 = root(2.0 * psum + 2.0 * m * k2, 2.0 * cert.gamma0 * math.sqrt(k2), rhs2)
    return x1, x2


def test_window_matches_alpha_zero_closed_form():
    cert = CertificateLocal(
        gamma=1.0,
        lam=0.5,
        gamma0=0.3,
        alpha=0.0,
        M1=0.2,
        M2=0.1,
        psi=MonomialFn(0.1, 0.2, 1.0),
        psi0=MonomialFn(0.0, 0.3, 1.0),
    )
    win = local_window(cert, 1)
    x1, x2 = _alpha_zero_roots(cert, 1)
    assert win.x1 == pytest.approx(x1, rel=1e-10)
    assert win.x2 == pytest.approx(x2, rel=1e-10)
    assert win.eps == pytest.approx(min(x1, x2), rel=1e-10)


@pytest.mark.parametrize("name", fixture_names())
def test_window_residuals_tiny_for_fixture_certificates(name):
    params = {"terminal": "tanh"} if name in ("pure_quadratic", "bounded_sine_mf") else {}
    bundle = fixture(name, **params)
    if bundle.local is None:
        pytest.skip(f"{name} carries no small-window certificate")
    win = local_window(bundle.local, bundle.spec.n)
    assert win.eps > 0
    assert win.residual_x1 <= 1e-10
    assert win.residual_x2 <= 1e-10


def test_envelope_closed_form_hand_value():
    # a = 3, b = 1, terminal 1, horizon 1: eta(0) = (4/3) e^3 - 1/3
    eta = EnvelopeRecord(a=3.0, b=1.0, terminal=1.0, horizon=1.0)
    assert float(eta(0.0)) == pytest.approx((4.0 / 3.0) * math.exp(3.0) - 1.0 / 3.0, rel=1e-14)
    assert float(eta(1.0)) == pytest.approx(1.0, abs=1e-12)


def test_envelope_matches_rk4_integration():
    cert = CertificateGlobal(L=1.0, gamma=2.0, M1=1.0, M3=0.5)
    n, horizon = 2, 0.8
    g = global_ode(cert, n, horizon)
    c = cert.M1**2 + cert.M3 + 3.0 * cert.L**2 + 2.0
    a, b = c * (2 * n + 1), n * c

    # integrate eta' = -(a eta + b) backwards from eta(T) = n c
    steps = 20_000
    h = horizon / steps
    eta = n * c
    f = lambda v: a * v + b
    for _ in range(steps):
        k1 = f(eta)
        k2 = f(eta + 0.5 * h * k1)
        k3 = f(eta + 0.5 * h * k2)
        k4 = f(eta + h * k3)
        eta += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert g.kappa == pytest.approx(eta, rel=1e-8)

    ts = np.linspace(0.0, horizon, 9)
    vals = g.eta(ts)
    assert np.all(np.diff(vals) < 0), "envelope must decrease toward the terminal"


def test_global_ode_terminal_always_feasible():
    # the envelope constant dominates M1^2 by construction, so any
    # terminal within the certificate bound fits under kappa
    cert = CertificateGlobal(L=1.0, gamma=2.0, M1=3.0, M3=0.5)
    n = 2
    g = global_ode(cert, n, 1.0)
    c = cert.M1**2 + cert.M3 + 3.0 + 2.0
    assert cert.M1**2 <= n * c
    assert g.kappa > n * c
    assert 0 < g.delta_kappa < 1.0
    assert g.J1 == pytest.approx(math.sqrt(g.kappa))


@pytest.mark.parametrize("n", [2, 3])
def test_kappa_window_matches_its_closed_form(n):
    # eq41's kappa-window has lam = gamma0 = 0 and psi = psi0 = L x, so the
    # second budget is linear, 4 L K1 x2 = exp(2 g (M1 - K1)) / g + 1 + 2 M2;
    # its right side once came from log K2 - 2 g K1, two numbers near 6.6e13
    # at n = 2 and 1.2e28 at n = 3, which kept four digits of x2 at n = 2
    # and none at n = 3
    cert = fixture("eq41", n=n).global_
    g = global_ode(cert, n, 1.0)
    local = kappa_local_certificate(cert, g.kappa, 1.0)
    gam = local.gamma
    k1 = (2.0 * n / gam) * math.log(2.0) + 2.0 * n * (local.M1 + local.M2)
    x2 = (math.exp(2.0 * gam * (local.M1 - k1)) / gam + 1.0 + 2.0 * local.M2) / (4.0 * cert.L * k1)
    assert g.window.x2 < g.window.x1
    assert abs(g.delta_kappa - x2) <= 1e-12 * x2


def test_kappa_certificate_conversion():
    cert = CertificateGlobal(L=1.5, gamma=2.0, M1=1.0, M3=4.0)
    local = kappa_local_certificate(cert, kappa=9.0, horizon=0.25)
    assert local.gamma == cert.gamma
    assert local.M1 == pytest.approx(3.0)
    assert local.M2 == pytest.approx(1.0)  # sqrt(0.25 * 4)
    assert local.lam == 0.0 and local.gamma0 == 0.0 and local.alpha == 0.0
    assert local.psi(2.0) == pytest.approx(3.0)  # L * x


def test_theta_consts_hand_values():
    t = theta_consts(1.0, 1, 1.0, q=2.0)
    assert t.R_q == 16.0
    assert t.eps == pytest.approx(0.25)
    assert t.m0 == 4
    assert t.eps_star == pytest.approx(1.0 / 16.0)
    assert t.n0 == 16


def test_theta_consts_integer_boundary():
    # 4nKT = 3.2 -> first integer at or above is 4
    t = theta_consts(0.8, 1, 1.0)
    assert t.m0 == 4
    # exact integer stays put
    assert theta_consts(1.0, 1, 0.5).m0 == 2


def test_theta_consts_zero_lipschitz_skips_windowing():
    t = theta_consts(0.0, 3, 2.0)
    assert t.eps is None and t.m0 is None and t.n0 is None
    assert t.R_q == 16.0


def test_picard_ratio_bound():
    assert picard_ratio_bound(2.0) == 16.0
    assert picard_ratio_bound(3.0) == pytest.approx((1.5) ** 6)
    with pytest.raises(ConstantsError):
        picard_ratio_bound(1.0)


def test_volterra_weight():
    assert volterra_weight(1.0, 1.0) == 32.0
    assert volterra_weight(0.5, 2.0) == pytest.approx(16.0)
    with pytest.raises(ConstantsError):
        volterra_weight(-1.0, 1.0)


@pytest.mark.parametrize(
    "C, horizon, message",
    [(1.0, 1e308, "not finite for C=1.0, T=1e+308"), (1e200, 1.0, "overflows float64")],
    ids=["product-inf", "square-overflow"],
)
def test_volterra_weight_refuses_an_infinite_weight(C, horizon, message):
    with pytest.raises(ConstantsError, match=re.escape(message)):
        volterra_weight(C, horizon)


def test_phi_family_basic_relations():
    x = np.linspace(-2.0, 2.0, 41)
    for g in (0.25, 1.0, 2.0):
        v = phi(g, x)
        assert np.all(v >= 0)
        assert phi(g, 0.0) == pytest.approx(0.0, abs=1e-15)
        # second derivative minus gamma times |first| is identically one
        resid = phi_double_prime(g, x) - g * np.abs(phi_prime(g, x)) - 1.0
        assert np.abs(resid).max() < 1e-12


def test_window_rejects_nonpositive_inputs():
    cert = CertificateLocal(gamma=1.0, lam=0.0, gamma0=0.0, alpha=0.0, M1=0.0, M2=0.0)
    with pytest.raises(ConstantsError):
        local_window(cert, 0)


def test_window_equation_with_an_unresolvable_root_is_refused():
    # at M1 = 1e200 the bracket sits near -4e200, where a fixed step of 50
    # is lost to rounding and the loop never ended; a bracket that grows
    # with its magnitude ends, on a root that underflows to 0
    cert = CertificateLocal(gamma=1.0, lam=0.1, gamma0=0.1, alpha=0.0, M1=1e200, M2=0.0)
    with pytest.raises(WindowEquationError, match="no resolved root: x = 0.0"):
        local_window(cert, 1)


def test_global_ode_refuses_an_infinite_envelope_level():
    # C(2n+1)T = 10 * 5 * 15 = 750 > 709: eta(0) used to overflow with a
    # RuntimeWarning and reach the window equation as an infinite radius
    cert = CertificateGlobal(L=1.0, gamma=2.0, M1=1.0, M3=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstantsError, match=re.escape("eta(0) is not finite for C=10.0, n=2, T=15.0")):
            global_ode(cert, 2, 15.0)


@pytest.mark.parametrize("n", [1, 2])
def test_global_ode_without_an_inner_term_takes_j2_from_the_terminal_alone(n):
    # with M3 = 0 the inner term 2 L J1 T underflows to 0 at L = 1e-200 and
    # T = 1e-130, so J2 = 2n phi(gamma, M1) exactly; L = M3 = 0 gives no
    # window (all window-equation coefficients vanish)
    cert = CertificateGlobal(L=1e-200, gamma=1.0, M1=1.0, M3=0.0)
    g = global_ode(cert, n, 1e-130)
    assert 2.0 * cert.L * g.J1 * 1e-130 == 0.0
    assert g.log_J2 == math.log(2.0 * n * phi(1.0, 1.0))
    assert math.isfinite(g.J2) and g.J2 == pytest.approx(2.0 * n * (math.e - 2.0), rel=1e-15)
    with pytest.raises(WindowEquationError, match="all window-equation coefficients vanish"):
        global_ode(CertificateGlobal(L=0.0, gamma=1.0, M1=1.0, M3=0.0), n, 1.0)


def test_an_overflowing_drift_bound_is_refused_not_dropped():
    # psi(K1) past float64 range used to drop the drift term from the window
    # equation, so a larger bound certified a longer window
    def window(c1):
        cert = CertificateLocal(gamma=1.0, lam=0.1, gamma0=0.1, alpha=0.0, M1=1.0, M2=0.0, psi=MonomialFn(0.0, c1, 8.0))
        return local_window(cert, 1).eps

    eps = [window(c1) for c1 in (0.0, 1.0, 1e300)]
    assert eps == sorted(eps, reverse=True) and eps[-1] > 0.0
    for c1 in (1e305, 1e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConstantsError, match="overflows float64"):
                window(c1)


def test_a_root_below_the_float64_limit_resolves():
    # x = e^709.5 = 1.35e308 is finite, yet a cut at 709.0 read it as inf
    root, residual = _solve_power_equation(0.0, -math.inf, 0.5, 709.5)
    assert root == pytest.approx(math.exp(709.5), rel=1e-12)
    assert residual < 1e-10
    with pytest.raises(WindowEquationError, match="no resolved root: x = inf"):
        _solve_power_equation(0.0, -math.inf, 0.5, 709.8)


@pytest.mark.parametrize("log_coef", [math.inf, math.nan])
def test_a_non_finite_window_coefficient_is_refused(log_coef):
    # -inf marks an absent term; +inf or nan used to be read as absent too
    with pytest.raises(OverflowError, match="out of float64 range"):
        _solve_power_equation(log_coef, 0.0, 0.5, 0.0)
    with pytest.raises(OverflowError, match="out of float64 range"):
        _solve_power_equation(0.0, log_coef, 0.5, 0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: local_radii(CertificateLocal(gamma=1e308, lam=0.1, gamma0=0.1, alpha=0.0, M1=1.0, M2=0.0), 1),
        lambda: local_window(CertificateLocal(gamma=1e308, lam=0.1, gamma0=0.1, alpha=0.0, M1=1.0, M2=0.0), 1),
        lambda: global_ode(CertificateGlobal(L=1.0, gamma=2.0, M1=1e200, M3=4.0), 2, 1.0),
        lambda: theta_consts(1e308, 1, 1.0),
        lambda: theta_consts(1.0, 1, 1e308),
    ],
    ids=["radii-gamma-1e308", "window-gamma-1e308", "global-M1-1e200", "theta-K-1e308", "theta-horizon-1e308"],
)
def test_overflowing_certificate_raises_constants_error(build):
    with pytest.raises(ConstantsError, match="overflows float64"):
        build()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: m_const(1, 1.0, 1.0), r"alpha must lie in \[0, 1\)"),
        (lambda: m_const(1, 1.0, -0.1), r"alpha must lie in \[0, 1\)"),
        (lambda: m_const(0, 1.0, 0.5), "need n >= 1 and lam >= 0"),
        (lambda: m_const(1, -1.0, 0.5), "need n >= 1 and lam >= 0"),
        (lambda: global_ode(CertificateGlobal(L=1.0, gamma=2.0, M1=1.0, M3=4.0), 2, 0.0), "horizon must be positive"),
        (lambda: global_ode(CertificateGlobal(L=1.0, gamma=2.0, M1=1.0, M3=4.0), 0, 1.0), "need at least one component"),
        (lambda: global_ode(CertificateGlobal(L=1.0, gamma=2.0, M1=1.0, M3=4.0), -1, 1.0), "need at least one component"),
        (lambda: theta_consts(-1.0, 1, 1.0), "need K >= 0, n >= 1, horizon > 0"),
        (lambda: theta_consts(1.0, 0, 1.0), "need K >= 0, n >= 1, horizon > 0"),
        (lambda: theta_consts(1.0, 1, 0.0), "need K >= 0, n >= 1, horizon > 0"),
    ],
    ids=["m-alpha-1", "m-alpha-negative", "m-n-0", "m-lam-negative", "global-horizon-0", "global-n-0", "global-n-negative", "theta-K", "theta-n", "theta-horizon"],
)
def test_constants_refuse_arguments_out_of_range(call, message):
    with pytest.raises(ConstantsError, match=message):
        call()


def test_local_radii_reach_a_certificate_whose_window_equation_has_no_root():
    # criterion 4's certificate: both window-equation coefficients vanish, so
    # local_window has no window to give, while the radii stay well defined
    cert = CertificateLocal(gamma=1.0, lam=0.0, gamma0=0.0, alpha=0.0, M1=0.0, M2=0.0)
    with pytest.raises(WindowEquationError, match="all window-equation coefficients vanish"):
        local_window(cert, 1)
    k1, k2 = local_radii(cert, 1)
    assert k1 == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
    assert k2 == pytest.approx(2.0 + 2.0 * 16.0, rel=1e-14)  # 2n/gamma^2 + (2n/gamma) e^(2 gamma K1)
