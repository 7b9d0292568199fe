"""Property tests of the window. For coefficients and right sides anywhere
in float64's log range, the window-equation root is returned with a
relative residual below 1e-10, or refused with a ``WindowEquationError``
only when it may leave float64 range, and it never falls as the right side
grows. At the window's roots x1 and x2, the a-priori estimates that
``check_apriori_local`` evaluates reach the radii K1 and K2."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfbsde.condexp import RegressionBasis, RegressionEngine
from mfbsde.constants import ConstantsError, WindowEquationError, _solve_power_equation, local_window
from mfbsde.diagnostics import check_apriori_local
from mfbsde.generators import CertificateLocal, MonomialFn, fixture, fixture_names
from mfbsde.paths import build_grid, sample_brownian
from mfbsde.solvers import Solution

_LOG_COEF = st.one_of(st.floats(-700.0, 700.0), st.just(-math.inf))


def _log_root_bounds(log_lin, log_pow, s, rhs_log):
    # one term alone reaches the right side at its one-term root, and at the
    # root the larger term holds at least half of it
    def smaller_one_term_root(r):
        return min(r - log_lin, (r - log_pow) / s)

    return smaller_one_term_root(rhs_log - math.log(2.0)), smaller_one_term_root(rhs_log)


@settings(max_examples=400, deadline=None)
@given(
    log_lin=_LOG_COEF,
    log_pow=_LOG_COEF,
    s=st.floats(0.0, 0.5, exclude_min=True),
    rhs_log=st.floats(-700.0, 700.0),
    rise=st.floats(1e-6, 100.0),
)
def test_window_root_is_resolved_or_refused_and_grows_with_the_right_side(log_lin, log_pow, s, rhs_log, rise):
    assume(not log_lin == log_pow == -math.inf)
    roots = []
    for r in (rhs_log, rhs_log + rise):
        lo, hi = _log_root_bounds(log_lin, log_pow, s, r)
        try:
            x, residual = _solve_power_equation(log_lin, log_pow, s, r)
        except WindowEquationError:
            # exp(u) is 0 below about -745.1, and the solver refuses u >= 709
            assert hi < -745.0 or lo >= 709.0 or not (lo > -746.0 and hi < 709.0)
            roots.append(None)
            continue
        assert 0.0 < x < math.inf and residual < 1e-10
        if x >= np.finfo(float).tiny:  # log x of a subnormal root is coarse
            u = math.log(x)
            assert lo - 1e-9 <= u <= hi + 1e-9
            assert abs(math.expm1(float(np.logaddexp(log_lin + u, log_pow + s * u)) - r)) < 1e-10
        roots.append(x)
    if None not in roots:
        assert roots[1] >= roots[0]


def _assert_estimates_reach_the_radii(cert, n):
    """On a one-step solution of length x1, or x2, with sup |Y| = K1, and at
    the inputs (K1, K2), the sup bound is K1 and the QV bound is K2, up to
    the root's residual and 1e-12."""
    win = local_window(cert, n)
    engine = RegressionEngine(RegressionBasis(kind="polynomial", degree=1))
    for length, which, radius, residual in ((win.x1, 0, win.K1, win.residual_x1), (win.x2, 1, win.K2, win.residual_x2)):
        grid = build_grid(length, 1)
        sol = Solution(Y=np.full((8, 2, n), win.K1), Z=np.zeros((8, 1, n, 1)), grid=grid)
        bound = check_apriori_local(sol, cert, win.K1, win.K2, sample_brownian(grid, 8, 1, seed=0), engine)[which].bound
        assert abs(bound - radius) <= (1e-12 + residual) * radius, (which, bound, radius)


# every registry fixture with a local certificate, and the two with n = 3
_REGISTRY = [(name, {"terminal": "tanh"} if name in ("pure_quadratic", "bounded_sine_mf") else {}) for name in fixture_names()]
_LOCAL = [(name, params) for name, params in _REGISTRY if fixture(name, **params).local is not None] + [("eq41", {"n": 3}), ("remark31", {"n": 3})]


@pytest.mark.parametrize("name, params", _LOCAL, ids=[f"{name}-n{params['n']}" if params.get("n") else name for name, params in _LOCAL])
def test_registry_estimates_reach_the_radii_at_the_window_roots(name, params):
    bundle = fixture(name, **params)
    _assert_estimates_reach_the_radii(bundle.local, bundle.spec.n)


_COEF = st.floats(0.0, 3.0)


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(0.1, 3.0),
    lam=_COEF,
    gamma0=_COEF,
    alpha=st.floats(0.0, 0.9),
    m1=st.floats(0.0, 2.0),
    m2=st.floats(0.0, 2.0),
    psi=st.tuples(_COEF, _COEF, st.floats(1.0, 3.0)),
    psi0=st.tuples(_COEF, _COEF, st.floats(1.0, 3.0)),
    n=st.integers(1, 3),
)
def test_drawn_estimates_reach_the_radii_at_the_window_roots(gamma, lam, gamma0, alpha, m1, m2, psi, psi0, n):
    cert = CertificateLocal(gamma=gamma, lam=lam, gamma0=gamma0, alpha=alpha, M1=m1, M2=m2, psi=MonomialFn(*psi), psi0=MonomialFn(*psi0))
    try:
        win = local_window(cert, n)
    except ConstantsError:
        assume(False)
    assume(math.isfinite(win.K2) and min(win.x1, win.x2) >= np.finfo(float).tiny)
    _assert_estimates_reach_the_radii(cert, n)
