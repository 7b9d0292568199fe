"""Scheme invariants that hold for any ensemble, checked with hypothesis.

Particle permutation: the particles of an ensemble are exchangeable, so
solving on a permuted ensemble must give the permuted Y and Z. Every
regression, law query and clip treats the particles alike; only rounding
in the least-squares fits depends on their order.
"""
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
)

ENGINE = RegressionEngine(RegressionBasis(kind="polynomial", degree=3))


def _assert_rel_close(actual, reference, rel=1e-12):
    assert np.abs(actual - reference).max() <= rel * np.abs(reference).max()


def _solve(scheme, bundle, grid, paths):
    terminal = bundle.terminal(paths)
    if scheme == "global":
        sol, report = solve_global(bundle.spec, bundle.global_, terminal, grid, paths, ENGINE)
        return sol, [(w.k_lo, w.k_hi, w.iterations, w.halvings) for w in report.windows]
    opts = SolverOptions(tol=1e-8, law_refinements=1)
    sol, trace = solve_local(bundle.spec, bundle.local, terminal, grid, paths, ENGINE, opts)
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
