"""Property test of the window-equation root: for coefficients and right
sides anywhere in float64's log range, the root is returned with a relative
residual below 1e-10, or refused with a ``WindowEquationError`` only when it
may leave float64 range, and it never falls as the right side grows."""
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfbsde.constants import WindowEquationError, _solve_power_equation

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
