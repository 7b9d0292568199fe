import math

import numpy as np
import pytest

from mfbsde.condexp import RegressionBasis, RegressionEngine
from mfbsde.constants import global_ode, local_window
from mfbsde.diagnostics import (
    bmo_norm,
    bmo_profile,
    check_apriori_local,
    check_envelope,
    contraction_trace,
    john_nirenberg,
    theta_gap,
)
from mfbsde.generators import CertificateGlobal, fixture
from mfbsde.paths import build_grid, sample_brownian
from mfbsde.solvers import SolverOptions, solve_local

ENGINE = RegressionEngine(RegressionBasis(kind="polynomial", degree=3))


def test_bmo_of_unit_integrand_is_sqrt_horizon():
    grid = build_grid(0.64, 16)
    paths = sample_brownian(grid, 256, 1, seed=1)
    z = np.ones((256, 16, 1))
    # conditional tail quadratic variation is deterministic, so the
    # regression is exact and the norm hits sqrt(T) to rounding
    assert bmo_norm(z, paths, ENGINE) == pytest.approx(math.sqrt(0.64), abs=1e-12)
    profile = bmo_profile(z, paths, ENGINE)
    expected = 0.64 - grid.nodes[:-1]
    np.testing.assert_allclose(profile, expected, atol=1e-12)


def test_bmo_accepts_component_stacked_z():
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 128, 2, seed=2)
    z4 = np.random.default_rng(0).standard_normal((128, 8, 3, 2))
    v4 = bmo_norm(z4, paths, ENGINE)
    v3 = bmo_norm(z4.reshape(128, 8, 6), paths, ENGINE)
    assert v4 == pytest.approx(v3, rel=1e-12)


def test_john_nirenberg_below_unit_threshold():
    grid = build_grid(1.0, 16)
    paths = sample_brownian(grid, 512, 1, seed=3)
    z = np.full((512, 16, 1), 0.5)
    report = john_nirenberg(z, paths, ENGINE)
    assert report.name == "john_nirenberg"
    # tail mass exp(0.25) against the geometric bound 1/(1 - 0.25)
    assert report.observed == pytest.approx(math.exp(0.25), rel=1e-10)
    assert report.bound == pytest.approx(1.0 / 0.75, rel=1e-12)
    assert report.satisfied


def test_john_nirenberg_skips_above_threshold():
    grid = build_grid(4.0, 8)
    paths = sample_brownian(grid, 128, 1, seed=4)
    z = np.ones((128, 8, 1))  # bmo = 2 > 1
    report = john_nirenberg(z, paths, ENGINE)
    assert not math.isfinite(report.bound)
    assert report.satisfied  # vacuous: no finite bound to violate
    assert "skipped" in report.note


def test_apriori_reports_on_window_solve():
    bundle = fixture("bounded_sine_mf", terminal="tanh")
    win = local_window(bundle.local, bundle.spec.n)
    grid = build_grid(win.eps / 2.0, 8)
    paths = sample_brownian(grid, 512, 2, seed=5)
    term = bundle.terminal(paths)
    sol, trace = solve_local(bundle.spec, bundle.local, term, paths, ENGINE, SolverOptions(tol=1e-8))
    last = trace.steps[-1]
    reports = check_apriori_local(
        sol, bundle.local,
        input_sup=last.max_abs_y, input_qv=last.qv_sq, paths=paths, engine=ENGINE,
    )
    names = {r.name for r in reports}
    assert names == {"apriori_sup", "apriori_qv"}
    for r in reports:
        assert r.satisfied, f"{r.name}: observed {r.observed} vs bound {r.bound}"
        assert r.observed <= r.bound


def test_envelope_check_flags_violation():
    cert = CertificateGlobal(L=1.0, gamma=2.0, M1=1.0, M3=1.0)
    gconsts = global_ode(cert, 1, 1.0)

    class Shell:
        pass

    sol = Shell()
    sol.grid = build_grid(1.0, 4)
    sol.k_lo = 0
    sol.Y = np.full((16, 5, 1), 0.5)
    ok = check_envelope(sol, gconsts, 1)
    assert all(r.satisfied for r in ok)

    sol.Y = np.full((16, 5, 1), 1e6)
    bad = check_envelope(sol, gconsts, 1)
    assert not all(r.satisfied for r in bad)


def test_theta_gap_identity():
    rng = np.random.default_rng(6)
    y_m = rng.standard_normal((64, 9, 2))
    y_mp = rng.standard_normal((64, 9, 2))
    theta = 0.25
    gap = theta_gap(y_m, y_mp, theta)
    # the interpolation reconstructs the newer iterate exactly
    rebuilt = (1.0 - theta) * gap.delta + theta * y_m
    np.testing.assert_allclose(rebuilt, y_mp, atol=1e-12)
    assert gap.moments["delta_q1"].log_value >= 0.0
    assert gap.moments["delta_q2"].log_value >= gap.moments["delta_q1"].log_value
    assert "delta_tilde_q1" in gap.moments


def test_theta_gap_equal_iterates():
    y = np.random.default_rng(7).standard_normal((32, 5, 1))
    gap = theta_gap(y, y, 0.5)
    np.testing.assert_allclose(gap.delta, y, atol=1e-13)
    np.testing.assert_allclose(gap.delta_tilde, y, atol=1e-13)


def test_theta_gap_refuses_iterates_of_different_shapes():
    # the two iterates used to broadcast into a (4, 3, 1) difference
    with pytest.raises(ValueError, match=r"one shape, got \(4, 3, 1\) and \(4, 1, 1\)"):
        theta_gap(np.zeros((4, 3, 1)), np.ones((4, 1, 1)), 0.5)


@pytest.mark.parametrize("shape", [(4,), (4, 0, 1), (4, 0)])
def test_theta_gap_refuses_iterates_without_a_node_axis(shape):
    # 1-D iterates used to raise IndexError, and zero-node ones to report
    # log moments of 0, as if the iterates were equal
    with pytest.raises(ValueError, match=r"\(N, K, \.\.\.\) with K >= 1 nodes"):
        theta_gap(np.zeros(shape), np.ones(shape), 0.5)


def test_contraction_trace_geometric():
    diffs = 3.0 * 0.2 ** np.arange(6)
    summary = contraction_trace(diffs)
    assert summary.contracting
    assert summary.monotone_from_second
    assert summary.rate == pytest.approx(0.2, rel=1e-6)
    assert summary.count == 6


def test_contraction_trace_flags_growth():
    # rising tail breaks monotonicity even when the overall fit decays
    summary = contraction_trace(np.array([1.0, 0.5, 0.6, 0.7]))
    assert not summary.monotone_from_second
    # an outright growing sequence also fails the rate criterion
    growing = contraction_trace(np.array([1.0, 2.0, 4.0, 8.0]))
    assert not growing.contracting
    assert not growing.monotone_from_second


def test_contraction_trace_needs_three_points():
    with pytest.raises(ValueError):
        contraction_trace(np.array([1.0, 0.5]))


@pytest.mark.parametrize(
    "diffs, bad",
    [([1.0, np.inf, 0.1], "1 is inf"), ([1.0, np.nan, 0.5], "1 is nan"), ([1.0, 0.5, np.nan, np.inf], "2 is nan")],
)
def test_contraction_trace_refuses_a_non_finite_difference(diffs, bad):
    # these used to fit rate=nan, and the inf to report a monotone tail
    with pytest.raises(ValueError, match=f"Picard difference {bad}"):
        contraction_trace(np.array(diffs))


@pytest.mark.parametrize("diffs, bad", [([1.0, -5.0, -6.0, -7.0], "1 is -5.0"), ([1.0, 0.5, 0.0, -1e-300], "3 is -1e-300")])
def test_contraction_trace_refuses_a_negative_difference(diffs, bad):
    # the first used to be floored to an exact zero and read as contracting
    with pytest.raises(ValueError, match=f"Picard difference {bad}; a rate needs finite, non-negative"):
        contraction_trace(np.array(diffs))


def test_contraction_trace_handles_exact_zeros():
    summary = contraction_trace(np.array([1.0, 1e-3, 0.0, 0.0]))
    assert summary.contracting
    assert summary.monotone_from_second


def test_apriori_refuses_a_solution_from_another_grid():
    bundle = fixture("bounded_sine_mf", terminal="tanh")
    win = local_window(bundle.local, bundle.spec.n)
    paths = sample_brownian(build_grid(win.eps / 2.0, 8), 256, 2, seed=5)
    sol, trace = solve_local(bundle.spec, bundle.local, bundle.terminal(paths), paths, ENGINE, SolverOptions(tol=1e-8))
    other = sample_brownian(build_grid(win.eps, 8), 256, 2, seed=5)
    with pytest.raises(ValueError) as exc:
        check_apriori_local(sol, bundle.local, 1.0, 1.0, paths=other, engine=ENGINE)
    assert repr(sol.grid) in str(exc.value) and repr(other.grid) in str(exc.value)


@pytest.mark.parametrize("theta", [0.0, 1.0, -0.5, float("nan")])
def test_theta_gap_refuses_a_theta_outside_the_open_unit_interval(theta):
    y = np.zeros((8, 3, 1))
    with pytest.raises(ValueError, match=r"theta must lie in \(0, 1\)"):
        theta_gap(y, y, theta)
