"""A theta solve overwrites one (Y, Z) iterate in place. The reference here
is the two-buffer loop it replaced: each sweep's kernel pass allocates a new
iterate, the sweep record is reduced from the new and the previous iterate
after the pass, and the a-priori excess from the last iterate. The in-place
solve must equal it bitwise.

A scalar driver that reads neither Y nor the law replays its sweeps from
the second on instead of running the kernel again; the replayed solve must
equal the same solve with the driver declared to read Y, bitwise."""
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from mfbsde import solvers
from mfbsde.condexp import FactorTable, RegressionBasis, RegressionEngine
from mfbsde.generators import CertificateConvex, fixture
from mfbsde.paths import build_grid, sample_brownian
from mfbsde.solvers import PicardStep, PicardTrace, Solution, SolverDivergence, SolverOptions, run_scheme, solve_theta

ENGINE = RegressionEngine(RegressionBasis(kind="polynomial", degree=3))


def _two_buffer_step(it, y_new, y_prev):
    dy = max_y = 0.0
    with np.errstate(over="ignore"):
        for j in range(y_new.shape[1]):
            dy = max(dy, float(np.abs(y_new[:, j] - y_prev[:, j]).max()))
            max_y = max(max_y, float(np.abs(y_new[:, j]).max()))
    return PicardStep(iteration=it, dy_sup=dy, combined=dy, max_abs_y=max_y)


def _two_buffer_theta(spec, cert, terminal, paths, engine, opts=SolverOptions()):
    """The theta solve with a previous and a new iterate alive in every sweep."""
    grid = paths.grid
    terminal = solvers._terminal_block(terminal, paths.particles, spec.n, grid.steps)
    n, d, m = spec.n, spec.d, grid.steps
    y_prev = np.zeros((m + 1, paths.particles, n)).swapaxes(0, 1)
    z_prev = np.zeros((m, paths.particles, n, d)).swapaxes(0, 1)
    if opts.init_offset:
        y_prev += opts.init_offset
    trace = PicardTrace()
    clips = 0
    # a table of its own, so the reference factors every node independently
    operators = FactorTable(engine.basis, [paths.brownian_at(k) for k in range(m + 1)])
    for it in range(1, opts.max_iter + 1):
        driver = partial(solvers._own_rows, spec, y_prev, z_prev, (y_prev, z_prev), 0)
        y_new, z_new, c = solvers._backward(paths, driver, terminal, operators, opts, 0, m)
        clips += c
        step = _two_buffer_step(it, y_new, y_prev)
        trace.steps.append(step)
        converged = step.dy_sup <= opts.tol
        y_prev, z_prev = y_new, z_new
        if converged:
            trace.converged = True
            break
        d_all = trace.differences()
        if it >= 4 and np.all(np.diff(d_all[-3:]) > 0) and d_all[-1] > 1e3:
            raise SolverDivergence("Picard sweeps diverging", trace)
    if not trace.converged:
        raise SolverDivergence(f"no convergence within {opts.max_iter} sweeps", trace)
    trace.apriori_excess = solvers._apriori_excess(y_prev.swapaxes(0, 1), cert, spec.zeta_level, grid)[0]
    return Solution(Y=y_prev, Z=z_prev, grid=grid, clip_events=clips), trace


def _assert_same_solve(got, ref):
    (sol, trace), (ref_sol, ref_trace) = got, ref
    assert np.array_equal(sol.Y, ref_sol.Y) and np.array_equal(sol.Z, ref_sol.Z)
    assert sol.clip_events == ref_sol.clip_events
    assert trace.converged == ref_trace.converged
    assert trace.steps == ref_trace.steps
    assert trace.apriori_excess == ref_trace.apriori_excess


# (fixture, fixture params, certificate or None for the fixture's, horizon, steps, particles, options)
_CASES = {
    "pure_quadratic": ("pure_quadratic", {"terminal": "brownian"}, None, 1.0, 16, 1024, {"z_clip": 0.8}),
    # sweep 1's terminal point reads the offset terminal row, not the terminal
    "linear_mf_offset": ("linear_mf", {}, None, 1.0, 8, 1024, {"init_offset": 0.3}),
    "bounded_sine_mf_inner": ("bounded_sine_mf", {"n": 2}, None, 1.0, 8, 1024, {"inner_sweeps": 2}),
    # eq41 reads the other Z rows and the joint law of the previous sweep
    "eq41": ("eq41", {"n": 2}, CertificateConvex(K=1.0, gamma=2.0), 0.1, 8, 512, {}),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_in_place_theta_equals_the_two_buffer_loop_bitwise(case):
    name, params, cert, horizon, steps, particles, options = _CASES[case]
    bundle = fixture(name, **params)
    cert = bundle.convex if cert is None else cert
    paths = sample_brownian(build_grid(horizon, steps), particles, bundle.spec.d, seed=21)
    terminal = bundle.terminal(paths)
    opts = SolverOptions(tol=1e-10, max_iter=60, **options)
    got = solve_theta(bundle.spec, cert, terminal, paths, ENGINE, opts)
    ref = _two_buffer_theta(bundle.spec, cert, terminal, paths, ENGINE, opts)
    assert got[1].iterations >= 2
    if options.get("z_clip"):
        assert got[0].clip_events > 0
    _assert_same_solve(got, ref)


def test_volterra_inner_in_place_theta_equals_the_two_buffer_loop_bitwise(monkeypatch):
    bundle = fixture("volterra_demo")
    grid = build_grid(1.0, 16)
    paths = sample_brownian(grid, 1024, 1, seed=3)
    opts = SolverOptions(tol=1e-10, max_iter=60)
    got = run_scheme(bundle, "volterra", grid, paths, ENGINE, opts)[:2]
    monkeypatch.setattr(solvers, "solve_theta", _two_buffer_theta)
    ref = run_scheme(bundle, "volterra", grid, paths, ENGINE, opts)[:2]
    assert got[1].iterations > 2
    _assert_same_solve(got, ref)


def test_in_place_theta_refuses_the_blow_up_the_two_buffer_loop_reaches():
    # max |Y| is about 2e234: the sweeps converge, and the a-priori check
    # refuses the answer with the excess of the two-buffer loop's iterate
    bundle = fixture("pure_quadratic", gamma=20.0, terminal="brownian")
    paths = sample_brownian(build_grid(1.0, 16), 1024, 1, seed=4)
    terminal = bundle.terminal(paths)
    opts = SolverOptions(tol=1e-7)
    with pytest.raises(SolverDivergence, match="^a-priori estimate broken at node 0 ") as info:
        solve_theta(bundle.spec, bundle.convex, terminal, paths, ENGINE, opts)
    _, ref_trace = _two_buffer_theta(bundle.spec, bundle.convex, terminal, paths, ENGINE, opts)
    trace = info.value.trace
    assert trace.converged and trace.steps == ref_trace.steps
    assert trace.apriori_excess == ref_trace.apriori_excess > 1e235
    assert str(info.value).endswith(f"excess {ref_trace.apriori_excess:.3g} > 0.5")


def test_theta_solve_holds_one_iterate():
    # the parent's two-buffer loop peaked at about 2.3 iterates
    bundle = fixture("pure_quadratic", terminal="brownian")
    grid = build_grid(1.0, 32)
    paths = sample_brownian(grid, 4096, 1, seed=8)
    terminal = bundle.terminal(paths)
    iterate_bytes = 8 * paths.particles * ((grid.steps + 1) + grid.steps)
    tracemalloc.start()
    try:
        _, trace = solve_theta(bundle.spec, bundle.convex, terminal, paths, ENGINE, SolverOptions(tol=1e-8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.converged and trace.iterations == 2
    assert peak < 1.75 * iterate_bytes


def _count_kernel_passes(monkeypatch) -> list:
    passes, kernel = [], solvers._backward

    def counted(*args, **kwargs):
        passes.append(None)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(solvers, "_backward", counted)
    return passes


@pytest.mark.parametrize("z_clip", [None, 0.8])
def test_a_driver_that_freezes_nothing_replays_its_confirming_sweep(monkeypatch, z_clip):
    bundle = fixture("pure_quadratic", terminal="brownian")
    paths = sample_brownian(build_grid(1.0, 16), 1024, 1, seed=21)
    terminal = bundle.terminal(paths)
    opts = SolverOptions(tol=1e-10, z_clip=z_clip)
    passes = _count_kernel_passes(monkeypatch)
    got = solve_theta(bundle.spec, bundle.convex, terminal, paths, ENGINE, opts)
    assert len(passes) == 1 and got[1].iterations == 2
    ref = solve_theta(replace(bundle.spec, reads_y=True), bundle.convex, terminal, paths, ENGINE, opts)
    assert len(passes) == 3 and ref[1].steps[1].dy_sup == 0.0
    if z_clip:
        assert got[0].clip_events > 0
    _assert_same_solve(got, ref)


def test_a_replaying_solve_still_needs_its_confirming_sweep(monkeypatch):
    bundle = fixture("pure_quadratic", terminal="brownian")
    paths = sample_brownian(build_grid(1.0, 8), 512, 1, seed=5)
    passes = _count_kernel_passes(monkeypatch)
    with pytest.raises(SolverDivergence, match="^no convergence within 1 sweeps$") as exc:
        solve_theta(bundle.spec, bundle.convex, bundle.terminal(paths), paths, ENGINE, SolverOptions(max_iter=1))
    assert len(passes) == 1 and exc.value.trace.iterations == 1
