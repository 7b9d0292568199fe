"""Scheme invariants that hold for any ensemble, checked with hypothesis.

Particle permutation: the particles of an ensemble are exchangeable, so
solving on a permuted ensemble must give the permuted Y and Z. Every
regression, law query and clip treats the particles alike; only rounding
in the least-squares fits depends on their order.

Cole-Hopf scaling: for the driver (gamma/2)|z|^2, Y' = 2 Y and Z' = 2 Z
solve the problem with gamma / 2 and terminal 2 xi. Doubling is exact in
floating point and every fit is linear in its values, so the scaled theta
solve equals the doubled one bitwise.

Terminal shift: for a driver that reads neither Y nor the law, xi + c gives
Y + c and the same Z, while the basis holds constants: the fit of a shifted
value is the shifted fit, and the centered increment products do not see c.

Component permutation: for a driver symmetric in its components, whose
terminal maps each coordinate of the Brownian endpoint alike, swapping the
noise coordinates swaps the terminal's components, so Y and Z come out with
their components and noise axes swapped, under ``theta`` and under
``global``'s windows alike. A polynomial basis spans the same functions in
either coordinate order; only rounding in the fits sees the order.

Global stitching: the windows of a ``global`` solve tile [0, T] backward
from T, node K of the stitched Y is the terminal itself, and the window
that ends at K, re-solved alone with ``solve_local``, gives the stitched
Y and Z on its span bitwise.

One discrete equation across schemes: ``theta`` and whole-grid ``local``
run the same Picard map, one backward pass with Y, the other Z rows and
the law frozen at the previous iterate, so on one ensemble they converge to
one discrete solution. ``theta``, given ``local``'s Z clip, and ``local``
agree to 10 times the Picard tolerance in Y and Z at every node.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbsde import (
    PathEnsemble,
    RegressionBasis,
    RegressionEngine,
    SolverOptions,
    build_grid,
    fixture,
    sample_brownian,
    solve_global,
    solve_local,
    solve_theta,
)
from mfbsde.constants import kappa_local_certificate, local_window

ENGINE = RegressionEngine(RegressionBasis(kind="polynomial", degree=3))


def _assert_rel_close(actual, reference, rel=1e-12):
    assert np.abs(actual - reference).max() <= rel * np.abs(reference).max()


def _solve(scheme, bundle, grid, paths):
    terminal = bundle.terminal(paths)
    if scheme == "global":
        sol, report = solve_global(bundle.spec, bundle.global_, terminal, paths, ENGINE)
        return sol, [(w.k_lo, w.k_hi, w.iterations, w.halvings) for w in report.windows]
    opts = SolverOptions(tol=1e-8, law_refinements=1)
    sol, trace = solve_local(bundle.spec, bundle.local, terminal, paths, ENGINE, opts)
    return sol, trace.iterations


_CASES = {
    # n = 2, a joint law and cross rows; 1-node windows
    "global": (("eq41", {"n": 2}), 0.5),
    # one 8-node window whose law is refined once per iteration
    "local": (("bounded_sine_mf", {"terminal": "tanh"}), 0.059),
}


@pytest.mark.parametrize("scheme", sorted(_CASES))
@settings(max_examples=4)
@given(
    log2_particles=st.integers(9, 10),
    seed=st.integers(0, 2**16),
    order_seed=st.integers(0, 2**16),
)
def test_a_permuted_ensemble_gives_the_permuted_solution(scheme, log2_particles, seed, order_seed):
    (name, params), horizon = _CASES[scheme]
    bundle = fixture(name, **params)
    grid = build_grid(horizon, 8)
    paths = sample_brownian(grid, 2**log2_particles, bundle.spec.d, seed=seed)
    order = np.random.default_rng(order_seed).permutation(paths.particles)
    permuted = PathEnsemble(grid, paths.increments[order], seed=seed)
    sol, counts = _solve(scheme, bundle, grid, paths)
    sol_p, counts_p = _solve(scheme, bundle, grid, permuted)
    assert counts_p == counts
    _assert_rel_close(sol_p.Y, sol.Y[order])
    _assert_rel_close(sol_p.Z, sol.Z[order])


def _theta_pure_quadratic(gamma, terminal, paths):
    bundle = fixture("pure_quadratic", gamma=gamma)
    sol, trace = solve_theta(bundle.spec, bundle.convex, terminal, paths, ENGINE)
    assert trace.converged
    return sol


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_cole_hopf_scaling_holds_bitwise(seed):
    paths = sample_brownian(build_grid(1.0, 16), 2048, 1, seed=seed)
    xi = np.tanh(paths.terminal())
    sol = _theta_pure_quadratic(2.0, xi, paths)
    scaled = _theta_pure_quadratic(1.0, 2.0 * xi, paths)
    assert np.array_equal(2.0 * sol.Y, scaled.Y)
    assert np.array_equal(2.0 * sol.Z, scaled.Z)


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16), shift=st.floats(-1.0, 1.0))
def test_a_terminal_shift_moves_y_alone(seed, shift):
    paths = sample_brownian(build_grid(1.0, 16), 2048, 1, seed=seed)
    xi = np.tanh(paths.terminal())
    sol = _theta_pure_quadratic(1.0, xi, paths)
    shifted = _theta_pure_quadratic(1.0, xi + shift, paths)
    assert np.abs(shifted.Y - (sol.Y + shift)).max() <= 1e-12
    assert np.abs(shifted.Z - sol.Z).max() <= 1e-12


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_swapped_noise_coordinates_swap_the_components(seed):
    bundle = fixture("bounded_sine_mf", n=2)
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 1024, 2, seed=seed)
    swapped = PathEnsemble(grid, paths.increments[:, :, ::-1], seed=seed)
    opts = SolverOptions(tol=1e-10)
    sol, trace = solve_theta(bundle.spec, bundle.convex, bundle.terminal(paths), paths, ENGINE, opts)
    sol_s, trace_s = solve_theta(bundle.spec, bundle.convex, bundle.terminal(swapped), swapped, ENGINE, opts)
    assert trace.converged and trace_s.iterations == trace.iterations
    _assert_rel_close(sol_s.Y, sol.Y[:, :, ::-1])
    _assert_rel_close(sol_s.Z, sol.Z[:, :, ::-1, ::-1])


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_swapped_noise_coordinates_swap_the_global_components(seed):
    # eq41 with n = 2: cross rows and a joint law, 16 one-node windows
    bundle = fixture("eq41", n=2)
    grid = build_grid(1.0, 16)
    paths = sample_brownian(grid, 1024, 2, seed=seed)
    swapped = PathEnsemble(grid, paths.increments[:, :, ::-1], seed=seed)
    sol, windows = _solve("global", bundle, grid, paths)
    sol_s, windows_s = _solve("global", bundle, grid, swapped)
    assert windows_s == windows
    _assert_rel_close(sol_s.Y, sol.Y[:, :, ::-1])
    _assert_rel_close(sol_s.Z, sol.Z[:, :, ::-1, ::-1])


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16), steps=st.sampled_from([8, 16]))
def test_global_windows_tile_the_grid_and_repeat_as_local_solves(seed, steps):
    bundle = fixture("eq41", n=2)
    grid = build_grid(1.0, steps)
    paths = sample_brownian(grid, 512, 2, seed=seed)
    terminal = bundle.terminal(paths)
    sol, report = solve_global(bundle.spec, bundle.global_, terminal, paths, ENGINE)
    edges = [(w.k_hi, w.k_lo) for w in report.windows]  # backward from T
    assert edges[0][0] == steps and edges[-1][1] == 0
    assert all(hi > lo for hi, lo in edges) and all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
    assert _same_bits(sol.Y[:, steps], np.asarray(terminal, dtype=np.float64))
    first, consts = report.windows[0], report.constants
    cert = kappa_local_certificate(bundle.global_, consts.kappa, grid.horizon)
    window, _ = solve_local(bundle.spec, cert, sol.Y[:, steps], paths, ENGINE, k_lo=first.k_lo, k_hi=first.k_hi)
    assert _same_bits(window.Y, sol.Y[:, first.k_lo :]) and _same_bits(window.Z, sol.Z[:, first.k_lo :])


# fixtures with a local and a convex certificate: (name, params)
_CROSS_SCHEME = {
    "pure_quadratic": ("pure_quadratic", {"terminal": "tanh"}),
    "linear_mf": ("linear_mf", {"terminal": "const"}),
    "bounded_sine_mf": ("bounded_sine_mf", {"terminal": "tanh"}),
}


@pytest.mark.parametrize("row", sorted(_CROSS_SCHEME))
@pytest.mark.parametrize("steps", [8, 16])
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_theta_and_whole_grid_local_agree_at_every_node(row, steps, seed):
    name, params = _CROSS_SCHEME[row]
    bundle = fixture(name, **params)
    paths = sample_brownian(build_grid(1.0, steps), 1024, bundle.spec.d, seed=seed)
    terminal = bundle.terminal(paths)
    opts = SolverOptions(tol=1e-9, max_iter=60)
    local, _ = solve_local(bundle.spec, bundle.local, terminal, paths, ENGINE, opts)
    k2 = local_window(bundle.local, bundle.spec.n).K2
    clip = 4.0 * math.sqrt(k2) if math.isfinite(k2) else None  # solve_local's own
    theta, _ = solve_theta(bundle.spec, bundle.convex, terminal, paths, ENGINE, replace(opts, z_clip=clip))
    assert np.abs(theta.Y - local.Y).max() <= 10 * opts.tol
    assert np.abs(theta.Z - local.Z).max() <= 10 * opts.tol
