import gc
import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest

from mfbsde import solvers
from mfbsde.condexp import FactorTable, NodeOperator, RegressionBasis, RegressionEngine
from mfbsde.diagnostics import bmo_norm, check_apriori_local, john_nirenberg
from mfbsde.generators import CertificateConvex, CertificateGlobal, GeneratorSpec, _no_stage, fixture, fixture_names
from mfbsde.measures import MeasureError, MeasureView
from mfbsde.paths import build_grid, coarsen, sample_brownian
from mfbsde.solvers import (
    Solution,
    SolverDivergence,
    SolverOptions,
    _own_rows,
    dump_solution,
    export_csv,
    load_solution,
    psi_map,
    run_scheme,
    solve_global,
    solve_local,
    solve_theta,
    solve_volterra,
    summarize_nodes,
    weighted_ratios,
)

ENGINE = RegressionEngine(RegressionBasis(kind="polynomial", degree=3))


def _scalar_spec(value=lambda t, y: np.zeros(y.shape)):
    """A one-component, law-free spec on one noise dimension whose driver
    ``value(t, y)`` reads no Z."""
    return GeneratorSpec(
        n=1, d=1, evaluate=lambda t, y, law, stage: value(t, y), z_stage=_no_stage, law_dependence="none"
    )


def _flat_iterate(paths, terminal):
    """The iterate with Y the terminal (N,) at every node and Z zero."""
    steps = paths.grid.steps
    y = np.repeat(np.asarray(terminal, dtype=np.float64)[:, None, None], steps + 1, axis=1)
    return Solution(Y=y, Z=np.zeros((len(terminal), steps, 1, paths.dimension)), grid=paths.grid)


def test_scalar_zero_driver_is_martingale():
    grid = build_grid(1.0, 32)
    paths = sample_brownian(grid, 4096, 1, seed=7)
    term = paths.terminal()[:, 0]
    sol = psi_map(_scalar_spec(), _flat_iterate(paths, term), paths, ENGINE)
    assert sol.clip_events == 0
    assert abs(sol.Y[:, 0].mean()) < 0.03
    assert np.sqrt(np.mean((sol.Z - 1.0) ** 2)) < 0.08


def test_scalar_constant_driver_shifts_exactly():
    grid = build_grid(1.0, 16)
    paths = sample_brownian(grid, 512, 1, seed=3)
    spec = _scalar_spec(lambda t, y: np.full(y.shape, 2.5))
    sol = psi_map(spec, _flat_iterate(paths, np.ones(512)), paths, ENGINE)
    # trapezoid weights sum to dt per step for a constant integrand
    assert sol.Y[:, 0].mean() == pytest.approx(1.0 + 2.5, abs=1e-12)


def test_scalar_range_validation():
    # psi_map reads its window from its iterate: a full-span iterate placed
    # from node 5 runs past the 8-step grid, and 8 particles are not 16
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 16, 1, seed=1)
    with pytest.raises(ValueError, match=re.escape("bad node range [5, 13]")):
        psi_map(_scalar_spec(), replace(_flat_iterate(paths, np.ones(16)), k_lo=5), paths, ENGINE)
    grid_repr = "TimeGrid(horizon=1.0, steps=8)"
    expected = (
        f"iterate has grid, first node, Y and Z shapes ({grid_repr}, 0, (8, 9, 1), (8, 8, 1, 1)); "
        f"expected ({grid_repr}, 0, (16, 9, 1), (16, 8, 1, 1))"
    )
    with pytest.raises(ValueError, match=re.escape(expected)):
        psi_map(_scalar_spec(), _flat_iterate(paths, np.ones(8)), paths, ENGINE)


@pytest.mark.parametrize("k_lo, k_hi", [(5, 5), (6, 5), (0, 9), (-1, 3)])
def test_local_refuses_a_bad_node_range_before_any_fit(k_lo, k_hi):
    # these used to fail inside the head fit: KeyError, a negative dimension,
    # an IndexError
    bundle = fixture("eq41", n=2)
    paths = sample_brownian(build_grid(1.0, 8), 256, 2, seed=1)
    with pytest.raises(ValueError, match=re.escape(f"bad node range [{k_lo}, {k_hi}]")):
        solve_local(bundle.spec, bundle.local, bundle.terminal(paths), paths, ENGINE, k_lo=k_lo, k_hi=k_hi)


def test_quadratic_initial_value():
    bundle = fixture("pure_quadratic", gamma=1.0, terminal="brownian")
    grid = build_grid(1.0, 32)
    paths = sample_brownian(grid, 8192, 1, seed=11)
    sol, trace, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, SolverOptions(tol=1e-8))
    assert trace.converged
    assert sol.y0()[0] == pytest.approx(0.5, abs=0.03)


def test_theta_law_free_driver_takes_one_iteration_per_node():
    # the driver reads neither Y nor the law, so a node's second iteration
    # would reproduce its first bitwise: each node takes one, recorded as 0
    bundle = fixture("pure_quadratic", gamma=1.0, terminal="brownian")
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 256, 1, seed=2)
    sol, trace, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, SolverOptions(tol=1e-12))
    assert trace.iterations == grid.steps
    assert all((s.iteration, s.dy_sup, s.combined) == (1, 0.0, 0.0) for s in trace.steps)


def test_theta_linear_mean_field_value():
    bundle = fixture("linear_mf", a=0.0, b=1.0, terminal="const", value=1.0)
    grid = build_grid(1.0, 32)
    paths = sample_brownian(grid, 1024, 1, seed=13)
    sol, trace, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, SolverOptions(tol=1e-10, max_iter=60))
    assert sol.y0()[0] == pytest.approx(math.e, rel=0.02)
    # deterministic solution: Z stays at the noise floor
    assert np.abs(sol.Z).max() < 1e-8


def test_psi_map_keeps_terminal_bitwise():
    bundle = fixture("bounded_sine_mf", terminal="tanh")
    grid = build_grid(0.05, 4)
    paths = sample_brownian(grid, 128, 2, seed=5)
    term = bundle.terminal(paths)
    sol, trace = solve_local(bundle.spec, bundle.local, term, paths, ENGINE, SolverOptions())
    np.testing.assert_array_equal(sol.Y[:, -1, :], term)


def test_local_contracts_and_reports_ball():
    bundle = fixture("bounded_sine_mf", terminal="tanh")
    grid = build_grid(0.059, 12)
    paths = sample_brownian(grid, 1024, 2, seed=5)
    term = bundle.terminal(paths)
    sol, trace = solve_local(bundle.spec, bundle.local, term, paths, ENGINE, SolverOptions(tol=1e-8))
    assert trace.converged
    diffs = trace.differences()
    assert len(diffs) >= 3
    assert np.all(np.diff(diffs[1:]) < 0)
    assert all(s.in_ball_sup and s.in_ball_qv for s in trace.steps)


def test_local_uniqueness_probe_same_fixed_point():
    bundle = fixture("bounded_sine_mf", terminal="tanh")
    grid = build_grid(0.059, 8)
    paths = sample_brownian(grid, 512, 2, seed=8)
    term = bundle.terminal(paths)
    tol = 1e-9
    base, _ = solve_local(bundle.spec, bundle.local, term, paths, ENGINE, SolverOptions(tol=tol))
    probe, _ = solve_local(
        bundle.spec, bundle.local, term, paths, ENGINE, SolverOptions(tol=tol, init_offset=0.5)
    )
    assert np.abs(base.y0() - probe.y0()).max() <= 10 * tol


def test_local_divergence_reports_trace():
    # strong Y feedback on a window of length 4 blows up at rate about
    # (aT)^m / m!, so the ratio monitor must abort the iteration
    bundle = fixture("linear_mf", a=5.0, b=0.0, terminal="const", value=1.0)
    grid = build_grid(4.0, 16)
    paths = sample_brownian(grid, 256, 1, seed=4)
    term = bundle.terminal(paths)
    with pytest.raises(SolverDivergence) as exc:
        solve_local(
            bundle.spec, bundle.local, term, paths, ENGINE,
            SolverOptions(tol=1e-10, max_iter=12),
        )
    assert exc.value.trace is not None
    assert exc.value.trace.iterations >= 3


def test_law_refinements_reach_the_same_fixed_point_in_no_more_iterations():
    # refining the frozen law inside an iteration changes the path to the
    # fixed point, not the fixed point
    bundle = fixture("bounded_sine_mf", terminal="tanh")
    grid = build_grid(0.05, 8)
    paths = sample_brownian(grid, 1024, bundle.spec.d, seed=5)
    tol = 1e-8
    runs = [
        run_scheme(bundle, "local", grid, paths, ENGINE, SolverOptions(tol=tol, law_refinements=r))[:2]
        for r in (0, 1, 2)
    ]
    assert all(trace.converged for _, trace in runs)
    for sol, _ in runs[1:]:
        np.testing.assert_allclose(sol.y0(), runs[0][0].y0(), rtol=0, atol=10 * tol)
    iterations = [trace.iterations for _, trace in runs]
    assert iterations == sorted(iterations, reverse=True)


def test_clip_counting():
    bundle = fixture("pure_quadratic", gamma=1.0, terminal="brownian")
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 256, 1, seed=2)
    sol, trace, _ = run_scheme(
        bundle, "theta", grid, paths, ENGINE, SolverOptions(tol=1e-10, z_clip=0.2)
    )
    assert sol.clip_events > 0


def test_determinism_bitwise():
    bundle = fixture("eq41", n=2)
    grid = build_grid(0.25, 8)

    def once():
        paths = sample_brownian(grid, 512, 2, seed=77)
        sol, _ = solve_global(bundle.spec, bundle.global_, bundle.terminal(paths), paths, ENGINE)
        return sol

    a, b = once(), once()
    np.testing.assert_array_equal(a.Y, b.Y)
    np.testing.assert_array_equal(a.Z, b.Z)


def test_discrete_residual_after_convergence():
    # once the Picard iteration stops, one more application of the map
    # moves the iterate by at most twice the stopping tolerance
    bundle = fixture("bounded_sine_mf", terminal="tanh")
    grid = build_grid(0.059, 8)
    paths = sample_brownian(grid, 512, 2, seed=6)
    term = bundle.terminal(paths)
    tol = 1e-8
    sol, trace = solve_local(bundle.spec, bundle.local, term, paths, ENGINE, SolverOptions(tol=tol))
    again = psi_map(bundle.spec, sol, paths, ENGINE, SolverOptions())
    assert np.abs(again.Y - sol.Y).max() <= 2 * tol


def test_grid_refinement_consistency_on_shared_noise():
    # solve on a coarse grid and on its refinement driven by the same
    # underlying increments; initial values must agree to scheme order
    bundle = fixture("pure_quadratic", gamma=1.0, terminal="brownian")
    fine_grid = build_grid(1.0, 64)
    fine = sample_brownian(fine_grid, 8192, 1, seed=21)
    coarse = coarsen(fine, 4)
    opts = SolverOptions(tol=1e-9)
    sol_f, _, _ = run_scheme(bundle, "theta", fine_grid, fine, ENGINE, opts)
    sol_c, _, _ = run_scheme(bundle, "theta", coarse.grid, coarse, ENGINE, opts)
    gap = abs(sol_f.y0()[0] - sol_c.y0()[0])
    assert gap < 0.02


def test_global_windows_partition_and_seams():
    bundle = fixture("eq41", n=2)
    grid = build_grid(0.5, 16)
    paths = sample_brownian(grid, 1024, 2, seed=9)
    term = bundle.terminal(paths)
    sol, report = solve_global(bundle.spec, bundle.global_, term, paths, ENGINE)
    assert report.terminal_feasible
    # windows tile the grid back to front without gaps
    edges = sorted((w.k_lo, w.k_hi) for w in report.windows)
    assert edges[0][0] == 0 and edges[-1][1] == grid.steps
    for (a_lo, a_hi), (b_lo, b_hi) in zip(edges, edges[1:]):
        assert a_hi == b_lo
    cap = math.ceil(grid.horizon / report.constants.delta_kappa) + 6
    assert report.window_count <= cap
    np.testing.assert_array_equal(sol.Y[:, -1, :], term)
    assert np.isfinite(sol.Y).all() and np.isfinite(sol.Z).all()


def test_volterra_zero_delay_equals_inner():
    bundle = fixture("volterra_demo")
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 512, 1, seed=3)
    term = bundle.terminal(paths)
    zero_g = lambda j, y, z, law: np.zeros((y.shape[0], 1))
    inner, _ = solve_theta(bundle.spec, bundle.convex, term, paths, ENGINE, SolverOptions())
    vol, trace = solve_volterra(
        bundle.spec, zero_g, bundle.volterra, bundle.convex, term, paths, ENGINE, SolverOptions()
    )
    np.testing.assert_array_equal(vol.Y, inner.Y)
    assert trace.iterations == 2


def test_volterra_unit_delay_shifts_by_time_to_go():
    bundle = fixture("volterra_demo")
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 512, 1, seed=3)
    term = bundle.terminal(paths)
    one_g = lambda j, y, z, law: np.ones((y.shape[0], 1))
    inner, _ = solve_theta(bundle.spec, bundle.convex, term, paths, ENGINE, SolverOptions())
    vol, _ = solve_volterra(
        bundle.spec, one_g, bundle.volterra, bundle.convex, term, paths, ENGINE, SolverOptions()
    )
    shift = vol.Y[:, :, 0] - inner.Y[:, :, 0]
    expected = grid.horizon - grid.nodes
    np.testing.assert_allclose(shift, np.broadcast_to(expected, shift.shape), atol=1e-12)


def test_volterra_weighted_ratios_contract():
    bundle = fixture("volterra_demo")
    grid = build_grid(1.0, 16)
    paths = sample_brownian(grid, 1024, 1, seed=5)
    sol, trace, _ = run_scheme(bundle, "volterra", grid, paths, ENGINE, SolverOptions(tol=1e-8))
    ratios = weighted_ratios(trace)
    assert len(ratios) >= 2
    assert np.all(ratios[1:] <= 0.5)


def test_inner_sweeps_option_changes_little():
    bundle = fixture("pure_quadratic", gamma=1.0, terminal="brownian")
    grid = build_grid(1.0, 16)
    paths = sample_brownian(grid, 2048, 1, seed=14)
    one, _, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, SolverOptions(tol=1e-9))
    two, _, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, SolverOptions(tol=1e-9, inner_sweeps=2))
    assert abs(one.y0()[0] - two.y0()[0]) < 0.02


def test_run_scheme_rejects_missing_certificates():
    bundle = fixture("pure_quadratic", gamma=1.0, terminal="brownian")
    grid = build_grid(1.0, 4)
    paths = sample_brownian(grid, 64, 1, seed=1)
    with pytest.raises(ValueError):
        run_scheme(bundle, "local", grid, paths, ENGINE)
    with pytest.raises(ValueError):
        run_scheme(bundle, "nope", grid, paths, ENGINE)


def test_solution_dump_load_roundtrip(tmp_path):
    bundle = fixture("pure_quadratic", gamma=1.0, terminal="brownian")
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 128, 1, seed=2)
    sol, _, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, SolverOptions())
    target = tmp_path / "sol.bin"
    dump_solution(sol, str(target))
    back = load_solution(str(target))
    np.testing.assert_array_equal(back.Y, sol.Y)
    np.testing.assert_array_equal(back.Z, sol.Z)
    assert back.grid.steps == sol.grid.steps
    assert back.k_lo == sol.k_lo


def test_csv_export_per_node(tmp_path):
    import csv

    bundle = fixture("pure_quadratic", gamma=1.0, terminal="brownian")
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 128, 1, seed=2)
    sol, _, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, SolverOptions())
    rows = summarize_nodes(sol, paths, ENGINE)
    assert len(rows) == grid.steps + 1
    target = tmp_path / "nodes.csv"
    export_csv(sol, paths, ENGINE, str(target))
    with open(target) as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == grid.steps + 1
    assert float(parsed[0]["time"]) == 0.0
    assert {"node", "time", "max_abs_y", "mean_abs_y0", "tail_qv"} <= set(parsed[0].keys())


def test_solution_load_rejects_truncated_payload(tmp_path):
    bundle = fixture("pure_quadratic", gamma=1.0, terminal="brownian")
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 64, 1, seed=2)
    sol, _, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, SolverOptions())
    target = tmp_path / "sol.bin"
    dump_solution(sol, str(target))
    target.write_bytes(target.read_bytes()[:-5])
    with pytest.raises(ValueError, match="truncated solution payload"):
        load_solution(str(target))


def test_solution_load_rejects_corrupt_header(tmp_path):
    import struct

    bundle = fixture("pure_quadratic", gamma=1.0, terminal="brownian")
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 64, 1, seed=2)
    sol, _, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, SolverOptions())
    target = tmp_path / "sol.bin"
    dump_solution(sol, str(target))
    raw = bytearray(target.read_bytes())
    raw[8 + 4 * 8 : 8 + 5 * 8] = struct.pack("<q", 5)  # start node 5 + span 8 overruns 8 steps
    target.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="corrupt solution header"):
        load_solution(str(target))


# Reference for the component-vectorized kernel: one scalar sweep per
# component, each driving the full driver with the other rows frozen.


def _law_reference(spec, y, z, j):
    if spec.law_dependence == "none":
        return None
    if spec.law_dependence == "y_only":
        return MeasureView(y[:, j])
    return MeasureView(y[:, j], z[:, min(j, z.shape[1] - 1)])


def _per_component(spec, y_frozen, z_frozen, laws, terminal, paths, opts, k_lo, k_hi):
    span = k_hi - k_lo
    n_part = paths.particles
    out_y = np.empty((n_part, span + 1, spec.n))
    out_z = np.empty((n_part, span, spec.n, spec.d))
    operators = FactorTable.of(paths, ENGINE.basis)
    for i in range(spec.n):
        def driver(k, t, rows, i=i):
            # component i alone through the kernel: its Z row is rows[:, 0]
            j = k - k_lo
            other = np.zeros((n_part, spec.n, spec.d)) if z_frozen is None else z_frozen[:, min(j, span - 1)]
            law = _law_reference(spec, *laws, j)
            return _frozen_full_driver(spec, i, y_frozen[:, j], other, law, t, rows[:, 0])[:, None]

        y, z, _ = solvers._backward(paths, driver, terminal[:, i : i + 1], operators, opts, k_lo, k_hi)
        out_y[:, :, i], out_z[:, :, i, :] = y[:, :, 0], z[:, :, 0]
    return out_y, out_z


def _assert_rel_close(actual, reference, rel=1e-12):
    assert np.abs(actual - reference).max() <= rel * np.abs(reference).max()


@pytest.mark.parametrize("field", ["particles", "components", "noise_dim"])
def test_solution_load_refuses_an_empty_header(tmp_path, field):
    # a file announcing zero particles, components or noise dimension used to
    # load, and y0() then warned "Mean of empty slice"
    import struct

    sizes = {"particles": 4, "components": 2, "noise_dim": 3}
    sizes[field] = 0
    n_part, n, d = sizes.values()
    span, steps = 2, 2
    payload = np.zeros(n_part * (span + 1) * n + n_part * span * n * d).tobytes()
    target = tmp_path / "sol.bin"
    target.write_bytes(b"MFBS0001" + struct.pack("<qqqqqqd", n_part, span, n, d, 0, steps, 1.0) + payload)
    with pytest.raises(ValueError, match="corrupt solution header"):
        load_solution(str(target))


def test_a_span_zero_solution_keeps_its_noise_dimension(tmp_path):
    # dump_solution used to write d = 1 for an empty Z
    sol = Solution(Y=np.ones((4, 1, 2)), Z=np.zeros((4, 0, 2, 3)), grid=build_grid(1.0, 4), k_lo=4)
    dump_solution(sol, str(tmp_path / "sol.bin"))
    back = load_solution(str(tmp_path / "sol.bin"))
    assert back.Z.shape == (4, 0, 2, 3) and np.array_equal(back.Y, sol.Y)


@pytest.mark.parametrize("array, index, value", [("Y", (1, 2, 0), np.nan), ("Z", (3, 0, 1, 2), -np.inf)])
def test_solution_load_refuses_a_non_finite_payload(tmp_path, array, index, value):
    # a dumped solution with one NaN used to load silently; the solvers
    # never write a non-finite value
    sol = Solution(Y=np.ones((4, 3, 2)), Z=np.zeros((4, 2, 2, 3)), grid=build_grid(1.0, 2))
    getattr(sol, array)[index] = value
    dump_solution(sol, str(tmp_path / "sol.bin"))
    with pytest.raises(ValueError, match=f"non-finite {array} value"):
        load_solution(str(tmp_path / "sol.bin"))


def test_psi_map_matches_per_component_sweeps():
    # eq41 with n = 2: cross rows and the joint law both enter the driver
    bundle = fixture("eq41", n=2)
    spec = bundle.spec
    grid = build_grid(0.5, 8)
    paths = sample_brownian(grid, 512, 2, seed=31)
    k_lo, k_hi = 2, 6
    span = k_hi - k_lo
    rng = np.random.default_rng(31)
    terminal = bundle.terminal(paths)
    y_in = terminal[:, None, :] + 0.2 * rng.standard_normal((512, span + 1, 2))
    y_in[:, span] = terminal
    z_in = 0.3 * rng.standard_normal((512, span, 2, 2))
    iterate = Solution(Y=y_in, Z=z_in, grid=grid, k_lo=k_lo)
    opts = SolverOptions()
    out = psi_map(spec, iterate, paths, ENGINE, opts)
    ref_y, ref_z = _per_component(spec, y_in, z_in, (y_in, z_in), terminal, paths, opts, k_lo, k_hi)
    _assert_rel_close(out.Y, ref_y)
    _assert_rel_close(out.Z, ref_z)


def _per_component_node_wise(spec, terminal, paths, opts):
    """theta's discrete equation solved node by node with one driver call,
    fit and Z fit per component: node k fits E_k[Y_{k+1}] and Z_k once, its
    rows clipped to z_clip, then iterates Y_k from Y_{k+1} + init_offset,
    the driver reading Y_k's last iterate, Z_k in the other rows and the law
    of (Y_k, Z_k), until two iterates differ by at most tol. Each extra
    inner sweep refits the own rows from Y_{k+1} + (dt/2) (f_k + f_{k+1})
    and calls the driver again; each iteration's own rows are the node's Z,
    which the next iteration's other rows and law read, and so does the
    terminal point, with Z_{K-1}'s fit as its own rows. The node's last
    driver value is the terminal-side value of the node below."""
    grid, n_part, n = paths.grid, paths.particles, spec.n
    m, dt = grid.steps, grid.dt
    y = np.empty((n_part, m + 1, n))
    z = np.empty((n_part, m, n, spec.d))
    y[:, m] = terminal
    operators = FactorTable.of(paths, ENGINE.basis)

    def fits(op, values, dw):
        fit = np.column_stack([op.apply(values[:, i]) for i in range(n)])
        rows = np.stack([op.apply((values[:, i] - fit[:, i])[:, None] * dw / dt) for i in range(n)], axis=1)
        if opts.z_clip is not None:
            norms = np.sqrt((rows**2).sum(axis=2, keepdims=True))
            rows = rows * np.where(norms > opts.z_clip, opts.z_clip / norms, 1.0)
        return fit, rows

    def driver(j, t, own):
        law = _law_reference(spec, y, z, j)
        rows = z[:, min(j, m - 1)]
        return np.column_stack([_frozen_full_driver(spec, i, y[:, j], rows, law, t, own[:, i]) for i in range(n)])

    for k in range(m - 1, -1, -1):
        op, dw, t = operators[k], paths.increments[:, k, :], grid.nodes[k]
        fit, z_fit = fits(op, y[:, k + 1], dw)
        z[:, k], y[:, k] = z_fit, y[:, k + 1] + opts.init_offset
        for _ in range(opts.max_iter):
            if k == m - 1:
                f_next = driver(m, grid.nodes[m], z_fit)
            own = z_fit
            f_here = driver(k, t, own)
            for _ in range(opts.inner_sweeps - 1):
                _, own = fits(op, y[:, k + 1] + 0.5 * dt * (f_here + f_next), dw)
                f_here = driver(k, t, own)
            new = fit + 0.5 * dt * (f_here + f_next)
            settled = np.abs(new - y[:, k]).max() <= opts.tol
            y[:, k], z[:, k] = new, own
            if settled:
                break
        f_next = f_here
    return y, z


def test_theta_matches_per_component_sweeps():
    bundle = fixture("bounded_sine_mf", n=2)
    spec = bundle.spec
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 512, 2, seed=32)
    terminal = bundle.terminal(paths)
    opts = SolverOptions(tol=1e-8)
    sol, trace = solve_theta(spec, bundle.convex, terminal, paths, ENGINE, opts)
    assert trace.converged and trace.iterations >= 3 * grid.steps
    ref_y, ref_z = _per_component_node_wise(spec, terminal, paths, opts)
    _assert_rel_close(sol.Y, ref_y)
    _assert_rel_close(sol.Z, ref_z)


@pytest.mark.parametrize(
    "name, horizon, options",
    [
        ("eq41", 0.1, {}),
        ("bounded_sine_mf", 1.0, {"init_offset": 0.3}),
        ("bounded_sine_mf", 1.0, {"z_clip": 0.5}),
        ("eq41", 0.1, {"inner_sweeps": 2}),
    ],
    ids=["other_rows", "offset", "clip", "inner"],
)
def test_theta_matches_the_node_wise_reference(name, horizon, options):
    # eq41 reads the other rows, so reading them as zero would differ by
    # about 0.06; each node starts at the settled Y above plus the offset,
    # clips its one Z fit, and refits its own rows in every iteration's
    # inner sweep, which the next iteration's other rows and law read
    bundle = fixture(name, n=2)
    grid = build_grid(horizon, 8)
    paths = sample_brownian(grid, 512, 2, seed=34)
    terminal = bundle.terminal(paths)
    opts = SolverOptions(tol=1e-8, **options)
    cert = bundle.convex or CertificateConvex(K=1.0, gamma=2.0)  # eq41 has no convex certificate
    sol, trace = solve_theta(bundle.spec, cert, terminal, paths, ENGINE, opts)
    assert trace.converged and trace.iterations >= 3 * grid.steps
    assert (sol.clip_events > 0) == ("z_clip" in options)
    ref_y, ref_z = _per_component_node_wise(bundle.spec, terminal, paths, opts)
    _assert_rel_close(sol.Y, ref_y)
    _assert_rel_close(sol.Z, ref_z)


def _bad_terminal_calls():
    """(id, call(terminal), particles, the bad terminal shapes) for every
    public solver; each shape has the wrong width or particle count."""
    def on(name, **params):
        bundle = fixture(name, **params)
        grid = build_grid(0.5, 4)
        return bundle, grid, sample_brownian(grid, 64, bundle.spec.d, seed=8)

    eq41, eq_grid, eq_paths = on("eq41", n=2)
    sine, sine_grid, sine_paths = on("bounded_sine_mf", n=2)
    volt, volt_grid, volt_paths = on("volterra_demo")
    opts = SolverOptions(tol=1e-8)
    return [
        (
            "local",
            lambda t: solve_local(eq41.spec, eq41.local, t, eq_paths, ENGINE, opts, 3, 4),
            [(64, 3), (64,), (63, 2)],
        ),
        (
            "theta",
            lambda t: solve_theta(sine.spec, sine.convex, t, sine_paths, ENGINE, opts),
            [(64, 1), (64, 3), (63, 2)],
        ),
        (
            "global",
            lambda t: solve_global(eq41.spec, eq41.global_, t, eq_paths, ENGINE),
            [(64, 3), (64,), (63, 2)],
        ),
        (
            "volterra",
            lambda t: solve_volterra(
                volt.spec, volt.g, volt.volterra, volt.convex, t, volt_paths, ENGINE, opts
            ),
            [(64, 2), (63,)],
        ),
        (
            "run_scheme",
            lambda t: run_scheme(replace(sine, terminal=lambda paths: t), "theta", sine_grid, sine_paths, ENGINE, opts),
            [(64, 1), (64,), (65, 2)],
        ),
    ]


_BAD_TERMINALS = [(name, call, shape) for name, call, shapes in _bad_terminal_calls() for shape in shapes]


@pytest.mark.parametrize(
    "name, call, shape", _BAD_TERMINALS, ids=[f"{n}-{'x'.join(map(str, s))}" for n, _, s in _BAD_TERMINALS]
)
def test_every_solver_refuses_a_terminal_of_the_wrong_shape(name, call, shape):
    with pytest.raises(ValueError, match=r"terminal has shape .*; expected \(64, [12]\)"):
        call(np.full(shape, 0.5))


def _frozen_full_driver(spec, i, y, other, law, t, rows):
    """Component i of the full driver at the frozen rows with row i set to
    ``rows``: what freezing a component means, without ``others``."""
    z_mod = other.copy()
    z_mod[:, i] = rows
    return spec(t, y, z_mod, law)[:, i]


@pytest.mark.parametrize("name", fixture_names())
def test_own_rows_match_per_component_freezing(name):
    spec = fixture(name).spec
    n, d, span, k_lo = spec.n, spec.d, 3, 2
    rng = np.random.default_rng(47)
    y = rng.standard_normal((128, span + 1, n))
    z = rng.standard_normal((128, span, n, d))
    rows = 1.5 * rng.standard_normal((128, n, d))
    for k in (k_lo + 1, k_lo + span):  # an inner and the terminal node
        j = k - k_lo
        other = z[:, min(j, span - 1)]
        law = _law_reference(spec, y, z, j)
        values = _own_rows(spec, y, z, (y, z), k_lo, k, 0.3, rows)
        full = np.column_stack([_frozen_full_driver(spec, i, y[:, j], other, law, 0.3, rows[:, i]) for i in range(n)])
        if name == "remark31":  # |z| adds the own and the other squares in another order
            _assert_rel_close(values, full, rel=1e-14)
        else:
            assert np.array_equal(values, full)


def test_psi_map_makes_one_driver_call_per_node():
    # one call gives all n components: K node visits plus the terminal point
    bundle = fixture("eq41", n=3)
    calls = []
    spec = replace(
        bundle.spec, evaluate=lambda *args, _f=bundle.spec.evaluate: calls.append(args[1].shape) or _f(*args)
    )
    grid = build_grid(0.5, 8)
    paths = sample_brownian(grid, 256, 3, seed=33)
    k_lo, k_hi = 3, 8
    terminal = bundle.terminal(paths)
    iterate = Solution(
        Y=np.repeat(terminal[:, None, :], 6, axis=1), Z=np.zeros((256, 5, 3, 3)), grid=grid, k_lo=k_lo
    )
    psi_map(spec, iterate, paths, ENGINE, SolverOptions())
    assert calls == [(256, 3)] * (k_hi - k_lo + 1)


def _count_operator_builds(monkeypatch):
    builds = []
    real_init = NodeOperator.__init__
    monkeypatch.setattr(NodeOperator, "__init__", lambda op, *args: builds.append(1) or real_init(op, *args))
    return builds


def test_global_factors_each_node_once(monkeypatch, factor_calls):
    # every Picard iteration, law query and BMO norm of a window shares the
    # operators its local solve builds, so the whole stitched solve factors
    # each node once and builds each node's operator once
    bundle = fixture("eq41", n=2)
    grid = build_grid(0.5, 16)
    paths = sample_brownian(grid, 1024, 2, seed=9)
    builds = _count_operator_builds(monkeypatch)
    sol, report = solve_global(bundle.spec, bundle.global_, bundle.terminal(paths), paths, ENGINE)
    assert sum(w.halvings for w in report.windows) == 0
    assert sum(w.iterations for w in report.windows) > 2 * report.window_count
    assert len(factor_calls) == len(builds) == grid.steps


def test_global_halves_a_failing_window_and_factors_each_node_once(monkeypatch, factor_calls):
    # windows of 4 steps are solved in full and then refused, so each is
    # retried at 2 steps on operators rebuilt from the factors kept on the
    # ensemble; the refused solve runs on the same draw sampled again, an
    # ensemble with no factors yet
    bundle = fixture("eq41", n=2)
    grid = build_grid(1.0, 16)
    paths = sample_brownian(grid, 2**10, 2, seed=9)
    terminal = bundle.terminal(paths)
    real_ode, real_local = solvers.global_ode, solvers.solve_local

    def solve_with_windows_of(steps, paths):
        monkeypatch.setattr(solvers, "global_ode", lambda *args: replace(real_ode(*args), delta_kappa=steps * grid.dt))
        return solve_global(bundle.spec, bundle.global_, terminal, paths, ENGINE)

    ref, ref_report = solve_with_windows_of(2, paths)
    assert [w.halvings for w in ref_report.windows] == [0] * 8

    def refuse_long_windows(*args, k_lo, k_hi, **kwargs):
        sol, trace = real_local(*args, k_lo=k_lo, k_hi=k_hi, **kwargs)
        if k_hi - k_lo > 2:
            raise SolverDivergence("refused", trace)
        return sol, trace

    monkeypatch.setattr(solvers, "solve_local", refuse_long_windows)
    factor_calls.clear()
    sol, report = solve_with_windows_of(4, sample_brownian(grid, 2**10, 2, seed=9))
    # the last window is capped at the 2 steps left, so it never halves
    assert [w.halvings for w in report.windows] == [1] * 7 + [0]
    edges = [(w.k_lo, w.k_hi) for w in report.windows]
    assert edges == [(k - 2, k) for k in range(grid.steps, 0, -2)]
    assert edges == [(w.k_lo, w.k_hi) for w in ref_report.windows]
    assert np.array_equal(sol.Y, ref.Y) and np.array_equal(sol.Z, ref.Z)
    assert len(factor_calls) == grid.steps


@pytest.mark.parametrize("inner_sweeps", [1, 3])
def test_theta_factors_each_node_once_per_solve(factor_calls, inner_sweeps):
    # the solve factors each node once, however many iterations and inner
    # sweeps the node takes
    bundle = fixture("pure_quadratic", gamma=1.0, terminal="brownian")
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 1024, 1, seed=5)
    opts = SolverOptions(tol=1e-8, inner_sweeps=inner_sweeps)
    _, trace, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, opts)
    assert trace.iterations > 1
    assert len(factor_calls) == grid.steps


class _FreshEachVisit:
    """A factor table that forgets: every access factors node k afresh."""

    def __init__(self, basis, paths):
        self.basis, self.paths = basis, paths

    def __getitem__(self, k):
        return NodeOperator(self.paths.brownian_at(k), self.basis)

    @classmethod
    def of(cls, paths, basis):
        return cls(basis, paths)


@pytest.mark.parametrize(
    "name, params", [("linear_mf", {}), ("bounded_sine_mf", {"n": 2})], ids=["linear_mf", "bounded_sine_mf"]
)
def test_theta_with_kept_factors_equals_fresh_factoring_bitwise(monkeypatch, factor_calls, name, params):
    bundle = fixture(name, **params)
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 1024, bundle.spec.d, seed=15)
    opts = SolverOptions(tol=1e-10, max_iter=60)
    # the first solve factors each node once; the re-solve factors none
    kept, kept_trace, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, opts)
    assert len(factor_calls) == grid.steps
    again, again_trace, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, opts)
    assert len(factor_calls) == grid.steps
    factor_calls.clear()
    monkeypatch.setattr(solvers, "FactorTable", _FreshEachVisit)
    fresh, fresh_trace, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, opts)
    # every node reads its operator once, however many iterations it takes
    assert len(factor_calls) == grid.steps < fresh_trace.iterations
    for sol, trace in ((kept, kept_trace), (again, again_trace)):
        assert trace.steps == fresh_trace.steps
        assert np.array_equal(sol.Y, fresh.Y) and np.array_equal(sol.Z, fresh.Z)


def test_volterra_factors_outer_nodes_once(factor_calls):
    # the volterra solve's inner theta solve and every outer sweep share the
    # ensemble's factors: on a fresh ensemble each node is factored once,
    # and after a theta solve on the ensemble none is; each sweep evaluates
    # g on the nodes 0..M-1 its tail sums read
    bundle = fixture("volterra_demo")
    g_calls = []
    bundle = replace(bundle, g=lambda *args, _g=bundle.g: g_calls.append(args[0]) or _g(*args))
    grid = build_grid(1.0, 16)
    fresh, outer, _ = run_scheme(bundle, "volterra", grid, sample_brownian(grid, 1024, 1, seed=3), ENGINE)
    assert outer.iterations > 2
    assert len(factor_calls) == grid.steps
    assert g_calls == list(range(grid.steps)) * outer.iterations
    paths = sample_brownian(grid, 1024, 1, seed=3)
    factor_calls.clear()
    _, inner, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, SolverOptions())
    assert inner.iterations > 1
    assert len(factor_calls) == grid.steps
    factor_calls.clear()
    kept, kept_outer, _ = run_scheme(bundle, "volterra", grid, paths, ENGINE, SolverOptions())
    assert factor_calls == []
    assert kept_outer.steps == outer.steps
    assert np.array_equal(kept.Y, fresh.Y) and np.array_equal(kept.Z, fresh.Z)


def test_a_solved_ensemble_factors_no_node_again(factor_calls):
    # the ensemble keeps one factor table per basis: after a solve, a
    # re-solve, a uniqueness probe from a shifted start, the diagnostics,
    # the CSV rows and a psi_map pass all rebuild their operators from it
    bundle = fixture("eq41", n=2)
    grid = build_grid(0.5, 16)
    paths = sample_brownian(grid, 1024, 2, seed=9)
    sol, _, extras = run_scheme(bundle, "global", grid, paths, ENGINE)
    assert len(factor_calls) == grid.steps
    factor_calls.clear()
    again, _, again_extras = run_scheme(bundle, "global", grid, paths, ENGINE)
    assert np.array_equal(again.Y, sol.Y) and np.array_equal(again.Z, sol.Z)
    assert again_extras["report"] == extras["report"]
    probe, _, _ = run_scheme(bundle, "global", grid, paths, ENGINE, SolverOptions(init_offset=0.5))
    assert np.abs(probe.y0() - sol.y0()).max() <= 1e-5
    norm = bmo_norm(sol.Z, paths, ENGINE)
    john_nirenberg(sol.Z, paths, ENGINE)
    last = extras["report"].windows[-1].steps[-1]
    check_apriori_local(sol, bundle.local, last.max_abs_y, last.qv_sq, paths, ENGINE)
    rows = summarize_nodes(sol, paths, ENGINE)
    psi_map(bundle.spec, sol, paths, ENGINE)
    assert factor_calls == []
    assert norm > 0.0 and len(rows) == grid.steps + 1


@pytest.mark.parametrize("name, params, scheme", [("linear_mf", {}, "theta"), ("eq41", {"n": 2}, "global")])
def test_a_dropped_ensemble_is_freed_by_reference_counting(name, params, scheme):
    # the factor tables an ensemble keeps index its Brownian values, never
    # the ensemble, so no reference cycle outlives the last reference
    bundle = fixture(name, **params)
    grid = build_grid(0.5, 8)
    paths = sample_brownian(grid, 256, bundle.spec.d, seed=4)
    sol, _, _ = run_scheme(bundle, scheme, grid, paths, ENGINE)
    summarize_nodes(sol, paths, ENGINE)
    table = FactorTable.of(paths, ENGINE.basis)
    gc.disable()
    try:
        dropped = weakref.ref(paths)
        del paths
        assert dropped() is None
    finally:
        gc.enable()
    # the table outlives its ensemble and still builds operators
    assert table[3].info.rank == (10 if bundle.spec.d == 2 else 4)


def test_global_eq41_pinned_small_solve():
    # y0 and counts recorded from the solver before row norms became
    # contractions; the contraction moves y0 by rounding only
    bundle = fixture("eq41", n=2)
    grid = build_grid(1.0, 16)
    paths = sample_brownian(grid, 2**10, 2, seed=9)
    sol, report = solve_global(bundle.spec, bundle.global_, bundle.terminal(paths), paths, ENGINE)
    _assert_rel_close(sol.y0(), np.array([7.580996396792982, 7.5816648246167695]))
    assert sum(w.iterations for w in report.windows) == 103
    assert report.window_count == 16
    assert sum(w.halvings for w in report.windows) == 0
    assert sol.clip_events == 0


def test_non_finite_values_stop_the_kernel_at_their_node():
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 256, 1, seed=6)

    def blows_up_at_node_5(t, y):
        return np.full(y.shape, np.inf if t == grid.nodes[5] else 0.0)

    with pytest.raises(SolverDivergence, match=r"non-finite Y at node 5 \(t=0.625\) in component 0"):
        psi_map(_scalar_spec(blows_up_at_node_5), _flat_iterate(paths, np.zeros(256)), paths, ENGINE)


def test_non_finite_terminal_names_its_component():
    # a law-free two-component driver, so the NaN in component 1 reaches
    # the kernel's check rather than a law query
    spec = GeneratorSpec(
        n=2, d=2, evaluate=lambda t, y, law, stage: np.zeros(y.shape), z_stage=_no_stage, law_dependence="none"
    )
    grid = build_grid(0.5, 8)
    paths = sample_brownian(grid, 512, 2, seed=7)
    terminal = paths.terminal().copy()
    iterate = Solution(
        Y=np.repeat(terminal[:, None, :], 5, axis=1), Z=np.zeros((512, 4, 2, 2)), grid=grid, k_lo=4
    )
    iterate.Y[3, -1, 1] = np.nan
    with pytest.raises(SolverDivergence, match="non-finite Z at node 7 .* in component 1"):
        psi_map(spec, iterate, paths, ENGINE, SolverOptions())


def _solve_eq41_local(terminal, grid, paths):
    bundle = fixture("eq41", n=2)
    return solve_local(bundle.spec, bundle.local, terminal, paths, ENGINE, SolverOptions(), 7, 8)


def _solve_eq41_global(terminal, grid, paths):
    bundle = fixture("eq41", n=2)
    return solve_global(bundle.spec, bundle.global_, terminal, paths, ENGINE)


def _solve_bounded_sine_theta(terminal, grid, paths):
    bundle = fixture("bounded_sine_mf", n=2)
    return solve_theta(bundle.spec, bundle.convex, terminal, paths, ENGINE)


@pytest.mark.parametrize(
    "solve", [_solve_eq41_local, _solve_eq41_global, _solve_bounded_sine_theta], ids=["local", "global", "theta"]
)
def test_non_finite_terminal_is_a_divergence_at_intake(solve):
    # the terminal is checked once, when a scheme takes it in; law views over
    # the iterates do not scan again, so no scheme reports it as a bad cloud
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 512, 2, seed=3)
    terminal = np.tanh(paths.terminal())
    terminal[100, 1] = np.nan
    with pytest.raises(SolverDivergence, match=r"non-finite terminal at node 8 in component 1"):
        solve(terminal, grid, paths)


# Node-major storage: the solvers keep each iterate in a (K, N, ...) buffer
# and hand it out as its (N, K, ...) view.

_SCHEME_CASES = [
    ("theta", "linear_mf", {}, 1.0, 8),
    ("local", "bounded_sine_mf", {"terminal": "tanh"}, 0.059, 8),
    ("global", "eq41", {"n": 2}, 0.5, 8),
    ("volterra", "volterra_demo", {}, 1.0, 8),
]


@pytest.mark.parametrize("scheme, name, params, horizon, steps", _SCHEME_CASES, ids=[c[0] for c in _SCHEME_CASES])
def test_schemes_return_contiguous_node_slices(scheme, name, params, horizon, steps):
    bundle = fixture(name, **params)
    grid = build_grid(horizon, steps)
    paths = sample_brownian(grid, 512, bundle.spec.d, seed=4)
    sol, _, _ = run_scheme(bundle, scheme, grid, paths, ENGINE, SolverOptions(tol=1e-8))
    n, d = bundle.spec.n, bundle.spec.d
    assert sol.Y.shape == (512, steps + 1, n)
    assert sol.Z.shape == (512, steps, n, d)
    assert all(sol.Y[:, k].flags.c_contiguous for k in range(steps + 1))
    assert all(sol.Z[:, k].flags.c_contiguous for k in range(steps))


def test_dump_writes_particle_major_bytes_and_load_keeps_the_layout(tmp_path):
    bundle = fixture("bounded_sine_mf", n=2)
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 256, 2, seed=3)
    sol, _, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, SolverOptions(tol=1e-8))
    copy = Solution(Y=np.ascontiguousarray(sol.Y), Z=np.ascontiguousarray(sol.Z), grid=grid)
    dump_solution(sol, str(tmp_path / "views.bin"))
    dump_solution(copy, str(tmp_path / "copies.bin"))
    assert (tmp_path / "views.bin").read_bytes() == (tmp_path / "copies.bin").read_bytes()
    back = load_solution(str(tmp_path / "views.bin"))
    assert np.array_equal(back.Y, sol.Y) and np.array_equal(back.Z, sol.Z)
    assert back.Y[:, 3].flags.c_contiguous and back.Z[:, 3].flags.c_contiguous


def test_csv_from_the_solve_factors_equals_fresh_factoring_bytewise(tmp_path, factor_calls):
    bundle = fixture("linear_mf")
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 512, 1, seed=6)
    sol, _, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, SolverOptions(tol=1e-10, max_iter=60))
    factor_calls.clear()
    export_csv(sol, paths, ENGINE, str(tmp_path / "kept.csv"))
    assert factor_calls == []
    # the same draw sampled again is an ensemble with no factors yet
    export_csv(sol, sample_brownian(grid, 512, 1, seed=6), ENGINE, str(tmp_path / "fresh.csv"))
    assert len(factor_calls) == grid.steps
    assert (tmp_path / "kept.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def _recorded_theta_iterations(monkeypatch, bundle):
    """A theta solve, with each node iteration's node and the iterate pair
    (previous and new Y at the node) it was judged on, copied as the kernel
    hands them over."""
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 1024, bundle.spec.d, seed=12)
    pairs, real_backward = [], solvers._backward

    def recording(*args, settle):
        y, z, settled = settle

        def judged(k, it, y_old, y_new):
            pairs.append((k, y_old.copy(), y_new.copy()))
            return settled(k, it, y_old, y_new)

        return real_backward(*args, settle=(y, z, judged))

    monkeypatch.setattr(solvers, "_backward", recording)
    sol, trace, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, SolverOptions(tol=1e-10, max_iter=60))
    assert trace.iterations == len(pairs) > 2 * grid.steps
    return sol, trace, pairs


@pytest.mark.parametrize(
    "name, params", [("linear_mf", {}), ("bounded_sine_mf", {"n": 2})], ids=["linear_mf", "bounded_sine_mf"]
)
def test_theta_trace_holds_each_nodes_iterations_in_visit_order(monkeypatch, name, params):
    # a node's step records the sup difference and max |Y| of its iterate
    # pair, measures no Z difference and keeps no monitors; its iterations
    # count from 1, start at the settled Y of the node above and stop at tol
    sol, trace, pairs = _recorded_theta_iterations(monkeypatch, fixture(name, **params))
    nodes = [k for k, _, _ in pairs]
    assert sorted(set(nodes), reverse=True) == list(dict.fromkeys(nodes)) == list(range(7, -1, -1))
    for step, (k, y_old, y_new), previous in zip(trace.steps, pairs, [None] + pairs):
        dy, max_y = float(np.abs(y_new - y_old).max()), float(np.abs(y_new).max())
        assert (step.dy_sup, step.combined, step.max_abs_y) == (dy, dy, max_y)
        assert step.dz_norm is None and step.monitors == {}
        first = previous is None or previous[0] != k
        assert (step.iteration == 1) == first
        if first:
            assert np.array_equal(y_old, sol.Y[:, k + 1])
    last_of_node = [s for s, after in zip(trace.steps, trace.steps[1:] + [None]) if after is None or after.iteration == 1]
    assert len(last_of_node) == 8 and all(s.combined <= 1e-10 for s in last_of_node)


@pytest.mark.parametrize("n, d", [(1, 1), (1, 2), (2, 2)])
def test_increment_fit_equals_the_einsum_formula_bitwise(n, d):
    rng = np.random.default_rng(n * 10 + d)
    grid = build_grid(1.0, 8)
    paths = sample_brownian(grid, 2048, d, seed=n + d)
    op = NodeOperator(paths.brownian_at(5), ENGINE.basis)
    values = np.sin(paths.brownian_at(6).sum(axis=1))[:, None] * rng.uniform(0.5, 2.0, n)
    fit, dw = op.apply(values), paths.increments[:, 5, :]
    products = np.einsum("ni,nd->nid", values - fit, dw) / grid.dt
    einsum_fit = op.apply(products.reshape(len(values), -1)).reshape(len(values), n, d)
    assert np.array_equal(solvers._increment_fit(values, fit, op, dw, grid.dt), einsum_fit)


# A window computes once what no Picard iteration of it can change: the first
# node visit's projections, and from the second iteration on, with one inner
# sweep, the terminal driver value, the head node's Z stage and, on one node,
# the BMO pair. A plain Picard loop over the public psi_map and bmo_norm,
# which recomputes all of them on every pass, is the reference.


def _reference_picard(spec, terminal, grid, paths, opts, k_lo, k_hi, iterations):
    """``iterations`` passes of psi_map, each with its law refinements, from
    the flat start; returns the last iterate and each pass's sup difference,
    BMO norm of the Z difference and squared BMO norm of Z."""
    span = k_hi - k_lo
    y = np.empty((span + 1, len(terminal), spec.n))  # node-major, as the solvers store it
    y[:] = terminal
    if opts.init_offset:
        y[:span] += opts.init_offset
    z = np.zeros((span, len(terminal), spec.n, spec.d))
    current = Solution(Y=y.swapaxes(0, 1), Z=z.swapaxes(0, 1), grid=grid, k_lo=k_lo)
    dy_sup, dz_norm, qv_sq = [], [], []
    for _ in range(iterations):
        out = psi_map(spec, current, paths, ENGINE, opts)
        for _ in range(opts.law_refinements):
            out = psi_map(spec, current, paths, ENGINE, opts, law_source=out)
        dy_sup.append(float(np.abs(out.Y - current.Y).max()))
        dz_norm.append(solvers.bmo_norm(out.Z - current.Z, paths, ENGINE, k_lo=k_lo))
        qv_sq.append(solvers.bmo_norm(out.Z, paths, ENGINE, k_lo=k_lo) ** 2)
        current = out
    return current, dy_sup, dz_norm, qv_sq


def _with_window_clip(opts, k2):
    """The options with the clip radius solve_local derives when none is set."""
    if opts.z_clip is not None:
        return opts
    return replace(opts, z_clip=4.0 * math.sqrt(k2) if math.isfinite(k2) else None)


_WINDOW_OPTIONS = [
    {"inner_sweeps": s, "law_refinements": r, "init_offset": o, "z_clip": c}
    for s in (1, 2)
    for r in (0, 1)
    for o in (0.0, 0.3)
    for c in (None, 0.5)
]


@pytest.mark.parametrize(
    "options", _WINDOW_OPTIONS, ids=["-".join(f"{k}={v}" for k, v in o.items()) for o in _WINDOW_OPTIONS]
)
def test_local_equals_a_plain_picard_loop_over_psi_map_bitwise(options):
    # eq41 with n = 2: cross rows and the joint law reach the terminal point
    bundle = fixture("eq41", n=2)
    spec = bundle.spec
    grid = build_grid(0.05, 8)
    paths = sample_brownian(grid, 512, spec.d, seed=41)
    k_lo, k_hi = 1, 6
    terminal = bundle.terminal(paths)
    opts = SolverOptions(tol=1e-8, **options)
    sol, trace = solve_local(spec, bundle.local, terminal, paths, ENGINE, opts, k_lo, k_hi)
    assert trace.converged and trace.iterations >= 3
    assert (sol.clip_events > 0) == (options["z_clip"] is not None)
    opts = _with_window_clip(opts, solvers.local_window(bundle.local, spec.n).K2)
    ref, dy_sup, dz_norm, qv_sq = _reference_picard(spec, terminal, grid, paths, opts, k_lo, k_hi, trace.iterations)
    assert np.array_equal(sol.Y, ref.Y) and np.array_equal(sol.Z, ref.Z)
    assert sol.clip_events == ref.clip_events
    assert [step.dy_sup for step in trace.steps] == dy_sup
    assert [step.dz_norm for step in trace.steps] == dz_norm
    assert [step.qv_sq for step in trace.steps] == qv_sq


def test_global_windows_equal_plain_picard_loops_over_psi_map_bitwise():
    bundle = fixture("eq41", n=2)
    spec = bundle.spec
    grid = build_grid(1.0, 16)
    paths = sample_brownian(grid, 2**10, 2, seed=9)
    sol, report = solve_global(spec, bundle.global_, bundle.terminal(paths), paths, ENGINE)
    assert sum(w.halvings for w in report.windows) == 0 and report.window_count == grid.steps
    opts = _with_window_clip(SolverOptions(), solvers.global_ode(bundle.global_, spec.n, grid.horizon).window.K2)
    for w in report.windows:
        ref, dy_sup, dz_norm, qv_sq = _reference_picard(
            spec, sol.Y[:, w.k_hi], grid, paths, opts, w.k_lo, w.k_hi, w.iterations
        )
        assert w.converged
        assert np.array_equal(sol.Y[:, w.k_lo : w.k_hi + 1], ref.Y)
        assert np.array_equal(sol.Z[:, w.k_lo : w.k_hi], ref.Z)
        assert [step.dy_sup for step in w.steps] == dy_sup
        assert [step.dz_norm for step in w.steps] == dz_norm
        assert [step.qv_sq for step in w.steps] == qv_sq


@pytest.mark.parametrize("inner_sweeps, total", [(1, 135), (2, 336)])
def test_global_window_evaluates_its_terminal_driver_value_once(inner_sweeps, total):
    # a 1-node window passes the terminal point and its node: 2 driver calls
    # in iteration 1, then the terminal value once and 1 call per iteration;
    # extra inner sweeps move the frozen Z, so every pass evaluates it again
    bundle = fixture("eq41", n=2)
    calls = []
    spec = replace(
        bundle.spec, evaluate=lambda *args, _f=bundle.spec.evaluate: calls.append(args[1].shape) or _f(*args)
    )
    grid = build_grid(1.0, 16)
    paths = sample_brownian(grid, 2**10, 2, seed=9)
    opts = SolverOptions(inner_sweeps=inner_sweeps)
    _, report = solve_global(spec, bundle.global_, bundle.terminal(paths), paths, ENGINE, opts)
    iterations = [w.iterations for w in report.windows]
    assert min(iterations) >= 2 and all(w.k_hi - w.k_lo == 1 for w in report.windows)
    expected = sum(i + 2 for i in iterations) if inner_sweeps == 1 else sum(3 * i for i in iterations)
    assert len(calls) == expected == total


def _staged_eq41(calls):
    """eq41 with n = 2, recording each ``z_stage`` call as True."""
    spec = fixture("eq41", n=2).spec
    return replace(spec, z_stage=lambda *args, _g=spec.z_stage: calls.append(True) or _g(*args))


@pytest.mark.parametrize("inner_sweeps, law_refinements", [(1, 0), (1, 1), (2, 0)])
def test_global_window_shares_its_head_z_stage(monkeypatch, inner_sweeps, law_refinements):
    # the terminal point and the head node read the same Z arguments, so
    # each pass computes one stage for both; with one inner sweep that stage
    # is fixed from iteration 2 on, and an extra inner sweep computes its own
    import mfbsde.measures as measures

    bundle, calls, scans = fixture("eq41", n=2), [], []
    real_cloud = measures._as_cloud
    monkeypatch.setattr(measures, "_as_cloud", lambda pts: scans.append(1) or real_cloud(pts))
    grid = build_grid(1.0, 16)
    paths = sample_brownian(grid, 2**10, 2, seed=9)
    opts = SolverOptions(inner_sweeps=inner_sweeps, law_refinements=law_refinements)
    _, report = solve_global(_staged_eq41(calls), bundle.global_, bundle.terminal(paths), paths, ENGINE, opts)
    iterations = [w.iterations for w in report.windows]
    assert min(iterations) >= 2 and all(w.k_hi - w.k_lo == 1 for w in report.windows)
    passes = law_refinements + 1
    if inner_sweeps == 1:
        expected = sum(passes + 1 for _ in iterations)  # every pass of iteration 1, then once per window
    else:
        expected = sum(2 * passes * i for i in iterations)  # the shared stage and the inner sweep's
    assert sum(calls) == expected
    assert (sum(calls), sum(iterations)) == {(1, 0): (32, 103), (1, 1): (48, 96), (2, 0): (224, 112)}[
        (inner_sweeps, law_refinements)
    ]
    assert not scans  # every law view is built over kernel-checked iterates


def test_global_window_projects_its_terminal_once(monkeypatch):
    # a 1-node window fits its terminal and the increment products once, and
    # projects its BMO tail sums once: from iteration 2 on its only Z is the
    # head Z, so the Z difference is 0 and the QV is iteration 1's
    bundle = fixture("eq41", n=2)
    grid = build_grid(1.0, 16)
    paths = sample_brownian(grid, 2**10, 2, seed=9)
    widths, bmo_calls = [], []
    real_apply, real_bmo = NodeOperator.apply, solvers.bmo_norm
    monkeypatch.setattr(NodeOperator, "apply", lambda op, v: widths.append(v.shape[1:]) or real_apply(op, v))
    monkeypatch.setattr(solvers, "bmo_norm", lambda *a, **kw: bmo_calls.append(1) or real_bmo(*a, **kw))
    _, report = solve_global(bundle.spec, bundle.global_, bundle.terminal(paths), paths, ENGINE)
    assert all(w.k_hi - w.k_lo == 1 for w in report.windows)
    assert sum(w.iterations for w in report.windows) == 103
    assert len(bmo_calls) == report.window_count
    assert widths.count((4,)) == report.window_count  # the n d increment products
    assert len(widths) == 3 * report.window_count == 48


@pytest.mark.parametrize("gamma", [20.0, 30.0])
def test_a_finite_theta_blow_up_raises_divergence_naming_the_node(gamma):
    # Y stays finite (max |Y| about 2e234 and 2e305) but |Y|^2 overflows, and
    # at gamma = 30 so does the squared Z difference; pytest turns the
    # overflow RuntimeWarning into an error, so none may escape
    bundle = fixture("pure_quadratic", gamma=gamma, terminal="brownian")
    grid = build_grid(1.0, 16)
    paths = sample_brownian(grid, 2**10, 1, seed=4)
    with pytest.raises(SolverDivergence, match=r"^a-priori estimate broken at node 0 \(t=0\) in component 0: .* > 0.5$"):
        solve_theta(bundle.spec, bundle.convex, bundle.terminal(paths), paths, ENGINE, SolverOptions(tol=1e-7))


def _excess_by_formula(y, cert, zeta, grid):
    """The (K, n) table of the a-priori excesses from whole-array
    expressions: plain means of exponentials and np.trapezoid, with the
    terminal side's standard error sd / (sqrt(N) mean) of its exponentials."""
    g, rate, t = cert.gamma, cert.K, grid.nodes
    xi = np.abs(y[:, -1])
    level = zeta + rate * np.sqrt((y**2).sum(axis=2)).mean(axis=0)
    table = np.empty((grid.steps, y.shape[2]))
    for k in range(grid.steps):
        integral = np.trapezoid(level[k:] * np.exp(rate * (t[k:] - t[k])), t[k:])
        lhs = np.log(np.mean(np.exp(g * np.abs(y[:, k])), axis=0))
        terminal = np.exp(g * np.exp(rate * (grid.horizon - t[k])) * xi)
        se = terminal.std(axis=0) / (math.sqrt(len(y)) * terminal.mean(axis=0))
        table[k] = lhs - np.log(terminal.mean(axis=0)) - solvers.APRIORI_SPREAD * se - g * integral
    return table


@pytest.mark.parametrize("K, zeta", [(0.0, 0.0), (0.0, 0.4), (0.7, 0.0), (0.7, 0.4)])
def test_theta_apriori_excess_equals_its_whole_array_formula(K, zeta):
    grid = build_grid(1.0, 8)
    y = np.random.default_rng(3).normal(0.0, 1.0, (256, grid.steps + 1, 2))
    cert = CertificateConvex(K=K, gamma=1.3)
    table = _excess_by_formula(y, cert, zeta, grid)
    excess, where = solvers._apriori_excess(y.swapaxes(0, 1), cert, zeta, grid)
    assert excess == pytest.approx(table.max(), rel=1e-12, abs=1e-12)
    k, i = np.unravel_index(np.argmax(table), table.shape)
    assert where == f"node {k} (t={grid.nodes[k]:.6g}) in component {i}"


def test_theta_apriori_excess_reads_inf_for_a_y_beyond_float64():
    # g |Y| overflows at node 3 in component 1; no RuntimeWarning may escape
    grid = build_grid(1.0, 4)
    y = np.zeros((grid.steps + 1, 64, 2))
    y[3, 5, 1] = 1e307
    excess = solvers._apriori_excess(y, CertificateConvex(K=0.5, gamma=100.0), 0.0, grid)
    assert excess == (math.inf, "node 3 (t=0.75) in component 1")


def test_theta_apriori_excess_reads_a_mean_field_level_beyond_float64_squares():
    # |Y|^2 overflows at node 3 but g |Y| does not: the level W1 = mean |Y|
    # stays finite, so the node's excess is about g |Y| / N, not -inf
    grid = build_grid(1.0, 4)
    y = np.zeros((grid.steps + 1, 64, 2))
    y[3, 5, 1] = 1e200
    cert = CertificateConvex(K=0.5, gamma=1.0)
    excess, where = solvers._apriori_excess(y, cert, 0.0, grid)
    assert excess > 1e199 and where == "node 3 (t=0.75) in component 1"
    # a level whose mean overflows reads inf on the nodes its integral reaches
    y[3] = 1e307
    assert solvers._apriori_excess(y, cert, 0.0, grid) == (math.inf, "node 0 (t=0) in component 0")


@pytest.mark.parametrize("gamma, seed, refused", [(5.0, 2, False), (5.0, 6, True), (2.0, 5, True)])
def test_theta_apriori_excess_allows_for_the_terminal_sampling_error(gamma, seed, refused):
    # closed form y0 = gamma / 2: gamma = 5, seed 2 reads 2.56 (+2.4%) with a
    # raw excess of 2.63, all of it the short sampled terminal moment (5.1
    # standard errors); seed 6 reads 4.74 (+89%) and gamma = 2, seed 5 1.50 (+50%)
    bundle = fixture("pure_quadratic", gamma=gamma, terminal="brownian")
    paths = sample_brownian(build_grid(1.0, 16), 2**10, 1, seed=seed)
    args = (bundle.spec, bundle.convex, bundle.terminal(paths), paths, ENGINE)
    if refused:
        with pytest.raises(SolverDivergence, match=r"^a-priori estimate broken at node [12] "):
            solve_theta(*args)
    else:
        sol, trace = solve_theta(*args)
        assert sol.y0()[0] == pytest.approx(gamma / 2.0, rel=0.03) and trace.apriori_excess <= solvers.APRIORI_EXCESS


def test_theta_apriori_excess_refuses_the_gamma_5_blow_up():
    # the nodes settle at y0 = 9.56e81 against a closed form of 2.5
    bundle = fixture("pure_quadratic", gamma=5.0, terminal="brownian")
    paths = sample_brownian(build_grid(1.0, 16), 2**10, 1, seed=5)
    with pytest.raises(SolverDivergence, match=r"^a-priori estimate broken at node 0 \(t=0\) in component 0: ") as info:
        solve_theta(bundle.spec, bundle.convex, bundle.terminal(paths), paths, ENGINE)
    trace = info.value.trace
    assert trace.converged and trace.apriori_excess > 1e82
    assert str(info.value).endswith(f"exponential-moment excess {trace.apriori_excess:.3g} > {solvers.APRIORI_EXCESS}")


@pytest.mark.parametrize(
    "scheme, name, params",
    [("theta", "bounded_sine_mf", {"terminal": "tanh"}), ("local", "bounded_sine_mf", {"terminal": "tanh"}), ("volterra", "volterra_demo", {})],
)
def test_theta_apriori_excess_is_recorded_by_theta_alone(scheme, name, params):
    grid = build_grid(1.0, 8)
    bundle = fixture(name, **params)
    paths = sample_brownian(grid, 1024, bundle.spec.d, seed=2)
    _, trace, _ = run_scheme(bundle, scheme, grid, paths, ENGINE, SolverOptions(tol=1e-8))
    if scheme == "theta":
        assert -1.0 < trace.apriori_excess <= 0.0
    else:
        assert trace.apriori_excess is None


# One grid per solve: every solver reads the grid from its ensemble, and
# run_scheme refuses a grid argument that is not the ensemble's.

_REFUSAL_FIXTURES = [
    ("theta", "pure_quadratic", {"gamma": 1.0, "terminal": "brownian"}),
    ("local", "bounded_sine_mf", {"terminal": "tanh"}),
    ("global", "eq41", {"n": 2}),
    ("volterra", "volterra_demo", {}),
]


@pytest.mark.parametrize("scheme, name, params", _REFUSAL_FIXTURES, ids=[c[0] for c in _REFUSAL_FIXTURES])
@pytest.mark.parametrize("horizon, steps", [(2.0, 16), (1.0, 8), (0.5, 8)])
def test_run_scheme_refuses_a_grid_that_is_not_the_ensembles(scheme, name, params, horizon, steps):
    bundle = fixture(name, **params)
    paths = sample_brownian(build_grid(1.0, 16), 64, bundle.spec.d, seed=3)
    other = build_grid(horizon, steps)
    with pytest.raises(ValueError) as exc:
        run_scheme(bundle, scheme, other, paths, ENGINE)
    assert repr(other) in str(exc.value) and repr(paths.grid) in str(exc.value)


@pytest.mark.parametrize("scheme, name, params, horizon, steps", _SCHEME_CASES, ids=[c[0] for c in _SCHEME_CASES])
def test_run_scheme_accepts_an_equal_grid_and_returns_the_ensembles(scheme, name, params, horizon, steps):
    bundle = fixture(name, **params)
    paths = sample_brownian(build_grid(horizon, steps), 256, bundle.spec.d, seed=4)
    equal = build_grid(horizon, steps)
    assert equal == paths.grid and equal is not paths.grid
    sol, _, _ = run_scheme(bundle, scheme, equal, paths, ENGINE, SolverOptions(tol=1e-8))
    assert sol.grid is paths.grid


def test_export_csv_refuses_a_solution_from_another_grid(tmp_path):
    bundle = fixture("linear_mf")
    paths = sample_brownian(build_grid(1.0, 16), 256, 1, seed=3)
    sol, _, _ = run_scheme(bundle, "theta", paths.grid, paths, ENGINE)
    other = sample_brownian(build_grid(2.0, 16), 256, 1, seed=3)
    with pytest.raises(ValueError, match=r"solution grid TimeGrid\(horizon=1.0, steps=16\) is not the ensemble's"):
        export_csv(sol, other, ENGINE, str(tmp_path / "nodes.csv"))
    assert not (tmp_path / "nodes.csv").exists()


def test_non_finite_volterra_value_stops_at_its_node():
    bundle = fixture("volterra_demo")
    paths = sample_brownian(build_grid(1.0, 8), 256, 1, seed=6)

    def g(k, y_hist, z, law):
        return np.full((y_hist.shape[0], 1), np.inf if k == 5 else 0.0)

    with pytest.raises(SolverDivergence, match="node 5"):
        run_scheme(replace(bundle, g=g), "volterra", paths.grid, paths, ENGINE)


def test_an_overflowing_volterra_tail_fit_stops_at_its_node():
    # the node-7 tail, 1.25e307, is finite; its projection overflows in the
    # matmul, which must surface as non-finite Y, not as a RuntimeWarning
    bundle = fixture("volterra_demo")
    paths = sample_brownian(build_grid(1.0, 8), 256, 1, seed=6)

    def g(k, y_hist, z, law):
        return np.full((y_hist.shape[0], 1), 1e308)

    with pytest.raises(SolverDivergence, match=r"^non-finite Y at node 7 \(t=0\.875\) in component 0$"):
        run_scheme(replace(bundle, g=g), "volterra", paths.grid, paths, ENGINE)


# A stiff linear driver f = 50 y on a constant terminal: the Picard map of a
# one-window solve expands, so each scheme's divergence rule must stop it.
def _stiff_linear():
    bundle = fixture("linear_mf", a=50.0, b=0.0, terminal="const")
    return bundle, sample_brownian(build_grid(1.0, 8), 256, 1, seed=4)


def test_local_ratio_rule_stops_an_expanding_window():
    bundle, paths = _stiff_linear()
    with pytest.raises(SolverDivergence, match=r"Picard ratios \[25\.\s+16\.796875\] not contracting") as exc:
        run_scheme(bundle, "local", paths.grid, paths, ENGINE)
    assert "window of length 1.000e+00" in str(exc.value)
    assert exc.value.trace.iterations == 3


def test_theta_stops_growing_node_differences():
    # 50 dt / 2 = 3.125: the top node's differences grow by that factor
    # from 6.25 and stop at the first past 1e3, its sixth
    bundle, paths = _stiff_linear()
    with pytest.raises(SolverDivergence, match=r"^Picard iterations diverging at node 7 \(t=0\.875\)$") as exc:
        run_scheme(bundle, "theta", paths.grid, paths, ENGINE)
    d = exc.value.trace.differences()
    assert [s.iteration for s in exc.value.trace.steps] == [1, 2, 3, 4, 5, 6]
    assert np.all(np.diff(d[-3:]) > 0) and d[-2] < 1e3 < d[-1]


def test_volterra_outer_loop_reports_its_own_failure():
    # two iterations per node converge the inner theta solve (its driver
    # reads no Y and no law, so it takes one) but not the outer loop
    bundle = fixture("volterra_demo")
    paths = sample_brownian(build_grid(1.0, 8), 256, 1, seed=4)
    opts = SolverOptions(max_iter=2)
    _, inner = solve_theta(bundle.spec, bundle.convex, bundle.terminal(paths), paths, ENGINE, opts)
    assert inner.converged and inner.iterations == paths.grid.steps
    with pytest.raises(SolverDivergence, match="^outer sweeps did not converge within 2$") as exc:
        run_scheme(bundle, "volterra", paths.grid, paths, ENGINE, opts)
    assert exc.value.trace.iterations == 2 and not exc.value.trace.converged


def test_global_halves_a_failing_window_to_one_step_then_raises(monkeypatch):
    # f = 2000 y expands even on one step of 1.25e-3; the certified window
    # covers the whole grid, so the first window is tried at 8, 4, 2, 1 steps
    bundle = fixture("linear_mf", a=2000.0, b=0.0, terminal="const")
    paths = sample_brownian(build_grid(0.01, 8), 256, 1, seed=4)
    cert = CertificateGlobal(L=1.0, gamma=1.0, M1=1.0, M3=0.0)
    spans = []
    real = solvers.solve_local

    def spy(*args, k_lo, k_hi, **kw):
        spans.append(k_hi - k_lo)
        return real(*args, k_lo=k_lo, k_hi=k_hi, **kw)

    monkeypatch.setattr(solvers, "solve_local", spy)
    with pytest.raises(SolverDivergence, match=r"not contracting on window of length 1\.250e-03") as exc:
        solve_global(bundle.spec, cert, np.ones((256, 1)), paths, ENGINE)
    assert spans == [8, 4, 2, 1]
    # the error carries the failing window's record: its span, halvings and steps
    trace = exc.value.trace
    assert (trace.k_lo, trace.k_hi, trace.halvings, trace.iterations) == (7, 8, 3, 3)
    assert not trace.converged


def test_an_overflowing_driver_stops_theta_at_its_node():
    # 0.5 gamma |z|^2 overflows at node 4; pytest turns a RuntimeWarning
    # that leaks out of the kernel into an error, so none may escape
    bundle = fixture("pure_quadratic", gamma=30.0, terminal="brownian")
    paths = sample_brownian(build_grid(1.0, 16), 2**12, 1, seed=6)
    with pytest.raises(SolverDivergence, match=r"^non-finite Y at node 4 \(t=0\.25\) in component 0$"):
        run_scheme(bundle, "theta", paths.grid, paths, ENGINE)


def test_a_non_finite_global_window_carries_its_record():
    # the driver is infinite from t = 0.25 down, so the one-node window
    # [4, 5] fails in its first pass; the kernel's error gets its record
    bundle = fixture("eq41", n=2)
    real = bundle.spec.evaluate
    spec = replace(bundle.spec, evaluate=lambda t, *args: real(t, *args) + (np.inf if t <= 0.25 else 0.0))
    paths = sample_brownian(build_grid(1.0, 16), 2**10, 2, seed=9)
    with pytest.raises(SolverDivergence, match=r"^non-finite Y at node 4 \(t=0\.25\) in component 0$") as exc:
        solve_global(spec, bundle.global_, bundle.terminal(paths), paths, ENGINE)
    trace = exc.value.trace
    assert (trace.k_lo, trace.k_hi, trace.halvings, trace.iterations) == (4, 5, 0, 0)


@pytest.mark.parametrize(
    "name, scheme, message",
    [
        ("remark31", "theta", "fixture remark31 has no Picard certificate"),
        ("linear_mf", "global", "fixture linear_mf has no global certificate"),
        ("pure_quadratic", "volterra", "fixture pure_quadratic has no Volterra data"),
    ],
)
def test_run_scheme_refuses_a_fixture_without_the_schemes_certificate(name, scheme, message):
    bundle = fixture(name)
    grid = build_grid(0.5, 4)
    paths = sample_brownian(grid, 64, bundle.spec.d, seed=8)
    with pytest.raises(ValueError, match=message):
        run_scheme(bundle, scheme, grid, paths, ENGINE)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: b"MFBS9999" + raw[8:], "not a solution file"),
        (lambda raw: raw[: 8 + 55], "truncated solution header"),
        (lambda raw: raw + b"\x00" * 8, "solution payload has 8 bytes past the announced arrays"),
    ],
    ids=["magic", "header", "trailing-bytes"],
)
def test_solution_load_refuses_a_bad_magic_header_or_tail(tmp_path, edit, message):
    grid = build_grid(1.0, 2)
    sol = Solution(Y=np.zeros((4, 3, 1)), Z=np.zeros((4, 2, 1, 1)), grid=grid)
    target = tmp_path / "sol.bin"
    dump_solution(sol, str(target))
    target.write_bytes(edit(target.read_bytes()))
    with pytest.raises(ValueError, match=message):
        load_solution(str(target))


def _nan_iterate(law_dependence, cloud, calls):
    """A two-component spec of the given law dependence that counts its
    driver calls, and a flat iterate with a NaN at interior node 4 of
    ``cloud`` ("Y" or "Z")."""
    def evaluate(t, y, law, stage):
        calls.append(t)
        return 0.0 * y  # a NaN in Y reaches the driver values

    spec = GeneratorSpec(n=2, d=2, evaluate=evaluate, z_stage=_no_stage, law_dependence=law_dependence)
    grid = build_grid(0.5, 8)
    paths = sample_brownian(grid, 256, 2, seed=7)
    iterate = Solution(
        Y=np.repeat(np.tanh(paths.terminal())[:, None, :], 9, axis=1), Z=np.zeros((256, 8, 2, 2)), grid=grid
    )
    getattr(iterate, cloud)[3, 4, 1] = np.nan
    return spec, iterate, paths


@pytest.mark.parametrize("law_dependence, cloud", [("y_only", "Y"), ("joint", "Y"), ("joint", "Z")])
def test_psi_map_refuses_a_non_finite_law_cloud_before_any_driver_call(law_dependence, cloud):
    calls = []
    spec, iterate, paths = _nan_iterate(law_dependence, cloud, calls)
    with pytest.raises(MeasureError, match="cloud contains non-finite points"):
        psi_map(spec, iterate, paths, ENGINE)
    assert calls == []


def test_psi_map_lets_a_law_free_driver_reach_the_kernels_node_check():
    calls = []
    spec, iterate, paths = _nan_iterate("none", "Y", calls)
    with pytest.raises(SolverDivergence, match=r"non-finite Y at node 4 \(t=0.25\) in component 1"):
        psi_map(spec, iterate, paths, ENGINE)
    assert len(calls) == 5  # the terminal point and nodes 7 to 4


def _window_iterate(paths, k_lo, k_hi, particles=None, n=2):
    """An iterate on nodes [k_lo, k_hi] whose Y at node k is k in every
    particle and component, with Z zero."""
    particles = paths.particles if particles is None else particles
    y = np.broadcast_to(np.arange(k_lo, k_hi + 1.0)[None, :, None], (particles, k_hi - k_lo + 1, n)).copy()
    return Solution(Y=y, Z=np.zeros((particles, k_hi - k_lo, n, paths.dimension)), grid=paths.grid, k_lo=k_lo)


def _counting_spec(calls):
    """A two-component spec with a joint law whose zero driver counts its calls."""
    def evaluate(t, y, law, stage):
        calls.append(t)
        return np.zeros(y.shape)

    return GeneratorSpec(n=2, d=2, evaluate=evaluate, z_stage=_no_stage, law_dependence="joint")


@pytest.mark.parametrize("k_lo", [0, 4])
def test_psi_map_solves_from_its_iterates_last_row(k_lo):
    # Y at node k is k, so a pass from any row but node 8's would give a
    # terminal row other than 8.0
    calls = []
    paths = sample_brownian(build_grid(0.5, 8), 256, 2, seed=7)
    out = psi_map(_counting_spec(calls), _window_iterate(paths, k_lo, 8), paths, ENGINE)
    assert out.k_lo == k_lo and out.Y.shape == (256, 9 - k_lo, 2)
    assert np.all(out.Y[:, -1] == 8.0) and len(calls) == 9 - k_lo


# iterates (and law sources) that do not fit an 8-step ensemble of 256
# particles with n = d = 2, from the ensemble, and the refusal each gets
_GRID = "TimeGrid(horizon=0.5, steps=8)"
_HAS = "has grid, first node, Y and Z shapes"
_FITTING = f"({_GRID}, 4, (256, 5, 2), (256, 4, 2, 2))"
_MISFITS = {
    "past the grid": (
        lambda p: (replace(_window_iterate(p, 0, 4), k_lo=6), None),
        "bad node range [6, 10]",
    ),
    "law on other nodes": (
        lambda p: (_window_iterate(p, 4, 8), _window_iterate(p, 3, 7)),
        f"law source {_HAS} ({_GRID}, 3, (256, 5, 2), (256, 4, 2, 2)); expected {_FITTING}",
    ),
    "law of another span": (
        lambda p: (_window_iterate(p, 4, 8), _window_iterate(p, 4, 7)),
        f"law source {_HAS} ({_GRID}, 4, (256, 4, 2), (256, 3, 2, 2)); expected {_FITTING}",
    ),
    "law on another grid": (
        lambda p: (_window_iterate(p, 4, 8), replace(_window_iterate(p, 4, 8), grid=build_grid(1.0, 8))),
        f"law source {_HAS} (TimeGrid(horizon=1.0, steps=8), 4, (256, 5, 2), (256, 4, 2, 2)); expected {_FITTING}",
    ),
    "iterate on another grid": (
        lambda p: (replace(_window_iterate(p, 4, 8), grid=build_grid(1.0, 8)), None),
        f"iterate {_HAS} (TimeGrid(horizon=1.0, steps=8), 4, (256, 5, 2), (256, 4, 2, 2)); expected {_FITTING}",
    ),
    "particles": (
        lambda p: (_window_iterate(p, 4, 8, particles=128), None),
        f"iterate {_HAS} ({_GRID}, 4, (128, 5, 2), (128, 4, 2, 2)); expected {_FITTING}",
    ),
    "components": (
        lambda p: (_window_iterate(p, 4, 8, n=3), None),
        f"iterate {_HAS} ({_GRID}, 4, (256, 5, 3), (256, 4, 3, 2)); expected {_FITTING}",
    ),
}


@pytest.mark.parametrize("misfit", list(_MISFITS))
def test_psi_map_refuses_an_iterate_that_does_not_fit_before_any_driver_call(misfit):
    calls = []
    paths = sample_brownian(build_grid(0.5, 8), 256, 2, seed=7)
    build, message = _MISFITS[misfit]
    iterate, law_source = build(paths)
    with pytest.raises(ValueError, match=re.escape(message)):
        psi_map(_counting_spec(calls), iterate, paths, ENGINE, law_source=law_source)
    assert calls == []
