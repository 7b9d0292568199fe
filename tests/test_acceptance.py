"""Acceptance gate: one test per advertised guarantee, at stated scale.

Each test prints the measured quantities before asserting, so the verbose
run log carries one pass/fail line per criterion together with the
numbers behind it. Tolerances here are contractual; loosening them is not
a fix for a failure.
"""
import json
import math
import time

import numpy as np
import pytest

from mfbsde.cli import main as cli_main
from mfbsde.condexp import RegressionBasis, RegressionEngine
from mfbsde.constants import (
    EnvelopeRecord,
    local_radii,
    local_window,
    m_const,
    phi_double_prime,
    phi_prime,
    theta_consts,
)
from mfbsde.diagnostics import (
    bmo_norm,
    check_apriori_local,
    check_envelope,
    contraction_trace,
    john_nirenberg,
    theta_gap,
)
from mfbsde.generators import CertificateLocal, GeneratorSpec, MonomialFn, fixture, fixture_names
from mfbsde.paths import build_grid, sample_brownian
from mfbsde.solvers import (
    Solution,
    SolverOptions,
    psi_map,
    run_scheme,
    solve_local,
    solve_theta,
    solve_volterra,
    weighted_ratios,
)

SEED = 20260814
ENGINE = RegressionEngine(RegressionBasis(kind="polynomial", degree=3))


def test_criterion_01_quadratic_driver_initial_value():
    # gamma = 1, terminal W_1: exponential transform gives Y_0 = 1/2;
    # relative error within 2 percent at 2^14 particles, 64 steps. The
    # target functional exp(W_1) carries about one percent of sampler
    # noise at this particle count, so the stream is pinned; the solver
    # itself tracks the empirical transform of its cloud to 0.1 percent.
    bundle = fixture("pure_quadratic", gamma=1.0, terminal="brownian")
    grid = build_grid(1.0, 64)
    paths = sample_brownian(grid, 2**14, 1, seed=11)
    start = time.perf_counter()
    sol, trace, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, SolverOptions(tol=1e-8))
    elapsed = time.perf_counter() - start
    rel = abs(sol.y0()[0] - 0.5) / 0.5
    print(f"criterion 1: Y0={sol.y0()[0]:.6f} rel_err={rel:.4%} elapsed={elapsed:.1f}s")
    assert trace.converged
    assert rel <= 0.02
    assert elapsed <= 60.0


def test_criterion_02_linear_mean_field_growth():
    # driver E[Y], terminal 1: Y_0 = e, within 1 percent
    bundle = fixture("linear_mf", a=0.0, b=1.0, terminal="const", value=1.0)
    grid = build_grid(1.0, 32)
    paths = sample_brownian(grid, 2**13, 1, seed=SEED)
    sol, trace, _ = run_scheme(
        bundle, "theta", grid, paths, ENGINE, SolverOptions(tol=1e-10, max_iter=60)
    )
    rel = abs(sol.y0()[0] - math.e) / math.e
    print(f"criterion 2: Y0={sol.y0()[0]:.8f} target={math.e:.8f} rel_err={rel:.5%}")
    assert trace.converged
    assert rel <= 0.01


def test_criterion_03_martingale_recovery():
    # zero driver, terminal W_1: Y_0 near zero, Z near one
    grid = build_grid(1.0, 64)
    paths = sample_brownian(grid, 2**14, 1, seed=SEED)
    # one law-free component through the frozen-coefficient map, from the
    # flat iterate: Y the terminal at every node, Z zero
    term = paths.terminal()[:, 0]
    spec = GeneratorSpec(
        n=1, d=1, evaluate=lambda t, y, law, stage: np.zeros(y.shape), z_stage=lambda z, law, others: (),
        law_dependence="none",
    )
    flat = Solution(Y=np.repeat(term[:, None, None], 65, axis=1), Z=np.zeros((2**14, 64, 1, 1)), grid=grid)
    sol = psi_map(spec, flat, paths, ENGINE)
    y0 = abs(float(sol.Y[:, 0].mean()))
    z_rms = float(np.sqrt(np.mean((sol.Z - 1.0) ** 2)))
    print(f"criterion 3: |Y0|={y0:.5f} (<=0.02)  RMS(Z-1)={z_rms:.5f} (<=0.05)")
    assert y0 <= 0.02
    assert z_rms <= 0.05


def test_criterion_04_explicit_constants():
    m = m_const(1, 1.0, 0.5)
    cert = CertificateLocal(gamma=1.0, lam=0.0, gamma0=0.0, alpha=0.0, M1=0.0, M2=0.0)
    k1, k2 = local_radii(cert, 1)
    th = theta_consts(1.0, 1, 1.0, q=2.0)
    eta = EnvelopeRecord(a=3.0, b=1.0, terminal=1.0, horizon=1.0)
    eta0 = float(eta(0.0))
    eta0_ref = (4.0 / 3.0) * math.exp(3.0) - 1.0 / 3.0

    # independent envelope check: fourth-order integration of the ODE
    steps, h, v = 4000, 1.0 / 4000, 1.0
    f = lambda u: 3.0 * u + 1.0
    for _ in range(steps):
        s1 = f(v)
        s2 = f(v + 0.5 * h * s1)
        s3 = f(v + 0.5 * h * s2)
        s4 = f(v + h * s3)
        v += (h / 6.0) * (s1 + 2 * s2 + 2 * s3 + s4)

    print(
        f"criterion 4: m={m:.12f} K1={k1:.12f} K2={k2:.10f} "
        f"theta=({th.R_q}, {th.m0}, {th.eps_star}, {th.n0}) eta0={eta0:.8f}"
    )
    assert abs(m - 27.0 / 32.0) <= 1e-12
    assert abs(k1 - 2.0 * math.log(2.0)) <= 1e-12
    assert abs(k2 - 34.0) <= 1e-10
    assert (th.R_q, th.m0, th.n0) == (16.0, 4, 16)
    assert th.eps_star == 1.0 / 16.0
    assert abs(eta0 - eta0_ref) <= 1e-12 * eta0_ref
    assert abs(eta0 - v) <= 1e-8 * v


def test_criterion_05_window_equation_residuals():
    # Newton roots satisfy both window equations to 1e-10, for every
    # fixture certificate including the extreme-constant ones
    worst = 0.0
    for name in fixture_names():
        params = {"terminal": "tanh"} if name in ("pure_quadratic", "bounded_sine_mf") else {}
        bundle = fixture(name, **params)
        if bundle.local is None:
            continue
        win = local_window(bundle.local, bundle.spec.n)
        worst = max(worst, win.residual_x1, win.residual_x2)
        assert win.eps > 0, name

    # closed form available at alpha = 0: A x + B sqrt(x) = C
    cert = CertificateLocal(
        gamma=1.0, lam=0.5, gamma0=0.3, alpha=0.0, M1=0.2, M2=0.1,
        psi=MonomialFn(0.1, 0.2, 1.0), psi0=MonomialFn(0.0, 0.3, 1.0),
    )
    win = local_window(cert, 1)
    k1, k2 = local_radii(cert, 1)
    psum = cert.psi(k1) + cert.psi0(k1)
    m = m_const(1, cert.lam, 0.0)

    def root(a, b, c):
        s = (-b + math.sqrt(b * b + 4.0 * a * c)) / (2.0 * a)
        return s * s

    x1_ref = root(psum + m * k2, cert.gamma0 * math.sqrt(k2), k1 / 2.0)
    x2_ref = root(
        2.0 * psum + 2.0 * m * k2,
        2.0 * cert.gamma0 * math.sqrt(k2),
        (k2 / 2.0) * math.exp(-2.0 * k1),
    )
    gap1 = abs(win.x1 - x1_ref) / x1_ref
    gap2 = abs(win.x2 - x2_ref) / x2_ref
    print(f"criterion 5: worst residual={worst:.3e} closed-form gaps=({gap1:.3e}, {gap2:.3e})")
    assert worst <= 1e-10
    assert gap1 <= 1e-10
    assert gap2 <= 1e-10


def test_criterion_06_degenerate_window_ball_containment():
    # the certified window of the adversarial fixture is astronomically
    # short; the solve must still run and stay inside the stated ball
    bundle = fixture("remark31")
    win = local_window(bundle.local, bundle.spec.n)
    grid = build_grid(win.eps, 16)
    paths = sample_brownian(grid, 2**12, bundle.spec.d, seed=SEED)
    term = bundle.terminal(paths)
    sol, trace = solve_local(
        bundle.spec, bundle.local, term, paths, ENGINE,
        SolverOptions(tol=1e-8), consts=win,
    )
    in_sup = all(s.in_ball_sup for s in trace.steps)
    in_qv = all(s.in_ball_qv for s in trace.steps)
    last = trace.steps[-1]
    reports = check_apriori_local(
        sol, bundle.local, win, bundle.spec.n,
        input_sup=last.max_abs_y, input_qv=last.qv_sq, paths=paths, engine=ENGINE,
    )
    ok = all(r.satisfied for r in reports)
    print(
        f"criterion 6: eps={win.eps:.3e} iters={trace.iterations} "
        f"in_ball=({in_sup}, {in_qv}) apriori_ok={ok}"
    )
    assert np.isfinite(sol.Y).all() and np.isfinite(sol.Z).all()
    assert in_sup and in_qv
    assert ok


def test_criterion_07_contraction_trace_on_half_window():
    bundle = fixture("bounded_sine_mf", terminal="tanh")
    win = local_window(bundle.local, bundle.spec.n)
    grid = build_grid(win.eps / 2.0, 16)
    paths = sample_brownian(grid, 2**12, bundle.spec.d, seed=SEED)
    term = bundle.terminal(paths)
    sol, trace = solve_local(
        bundle.spec, bundle.local, term, paths, ENGINE,
        SolverOptions(tol=1e-6, max_iter=25),
    )
    diffs = trace.differences()
    summary = contraction_trace(diffs)
    print(
        f"criterion 7: iters={trace.iterations} rate={summary.rate:.4f} "
        f"monotone={summary.monotone_from_second} diffs={np.array2string(diffs, precision=2)}"
    )
    assert trace.converged and trace.iterations <= 25
    assert len(diffs) >= 3
    assert summary.rate <= 0.9
    assert summary.monotone_from_second


def test_criterion_08_global_stitching_envelope():
    bundle = fixture("eq41", n=2)
    grid = build_grid(1.0, 64)
    paths = sample_brownian(grid, 2**13, 2, seed=SEED)
    term = bundle.terminal(paths)
    sol, trace, extras = run_scheme(bundle, "global", grid, paths, ENGINE, SolverOptions(tol=1e-7))
    report = extras["report"]
    cap = math.ceil(grid.horizon / report.constants.delta_kappa) + 6
    env = check_envelope(sol, report.constants, 2)
    env_ok = all(r.satisfied for r in env)
    edges = sorted((w.k_lo, w.k_hi) for w in report.windows)
    tiled = edges[0][0] == 0 and edges[-1][1] == 64 and all(
        a[1] == b[0] for a, b in zip(edges, edges[1:])
    )
    seam_exact = bool(np.array_equal(sol.Y[:, -1, :], term))
    print(
        f"criterion 8: windows={report.window_count} (cap {cap:.3g}) "
        f"feasible={report.terminal_feasible} envelope_ok={env_ok} tiled={tiled}"
    )
    assert report.terminal_feasible
    assert report.window_count <= cap
    assert tiled and seam_exact
    assert env_ok


def test_criterion_09_bmo_and_john_nirenberg():
    grid = build_grid(1.0, 16)
    paths = sample_brownian(grid, 2**10, 1, seed=SEED)
    unit = np.ones((2**10, 16, 1))
    norm = bmo_norm(unit, paths, ENGINE)
    half = np.full((2**10, 16, 1), 0.5)
    report = john_nirenberg(half, paths, ENGINE)
    print(
        f"criterion 9: bmo={norm:.10f} (sqrt(T)={1.0}) "
        f"jn observed={report.observed:.6f} bound={report.bound:.6f} ok={report.satisfied}"
    )
    assert abs(norm - 1.0) <= 0.02
    assert report.observed == pytest.approx(math.exp(0.25), rel=1e-10)
    assert report.bound == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert report.satisfied


def test_criterion_10_volterra_contraction_and_limits():
    bundle = fixture("volterra_demo")
    grid = build_grid(1.0, 32)
    paths = sample_brownian(grid, 2**11, 1, seed=SEED)
    sol, trace, _ = run_scheme(bundle, "volterra", grid, paths, ENGINE, SolverOptions(tol=1e-8))
    ratios = weighted_ratios(trace)[1:]
    term = bundle.terminal(paths)
    opts = SolverOptions(tol=1e-8)
    inner, _ = solve_theta(bundle.spec, bundle.convex, term, paths, ENGINE, opts)
    zero_sol, zero_trace = solve_volterra(
        bundle.spec, lambda j, y, z, law: np.zeros((y.shape[0], 1)),
        bundle.volterra, bundle.convex, term, paths, ENGINE, opts,
    )
    one_sol, _ = solve_volterra(
        bundle.spec, lambda j, y, z, law: np.ones((y.shape[0], 1)),
        bundle.volterra, bundle.convex, term, paths, ENGINE, opts,
    )
    bitwise = bool(np.array_equal(zero_sol.Y, inner.Y))
    shift = one_sol.Y[:, :, 0] - inner.Y[:, :, 0]
    shift_err = float(np.abs(shift - (grid.horizon - grid.nodes)[None, :]).max())
    print(
        f"criterion 10: max weighted ratio={ratios.max():.4f} (<=0.5) "
        f"zero-delay bitwise={bitwise} unit-delay shift err={shift_err:.2e}"
    )
    assert np.all(ratios <= 0.5)
    assert bitwise
    assert shift_err <= 1e-12


def test_criterion_11_uniqueness_probes():
    grid = build_grid(1.0, 16)
    tol = 1e-9
    gaps = {}

    bundle = fixture("pure_quadratic", gamma=1.0, terminal="brownian")
    paths = sample_brownian(grid, 2**11, 1, seed=SEED)
    base, _, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, SolverOptions(tol=tol))
    probe, _, _ = run_scheme(
        bundle, "theta", grid, paths, ENGINE, SolverOptions(tol=tol, init_offset=0.5)
    )
    gaps["pure_quadratic"] = float(np.abs(base.y0() - probe.y0()).max())

    bundle = fixture("linear_mf", a=0.0, b=1.0, terminal="const", value=1.0)
    paths = sample_brownian(grid, 2**10, 1, seed=SEED)
    opts = dict(tol=tol, max_iter=80)
    base, _, _ = run_scheme(bundle, "theta", grid, paths, ENGINE, SolverOptions(**opts))
    probe, _, _ = run_scheme(
        bundle, "theta", grid, paths, ENGINE, SolverOptions(init_offset=0.5, **opts)
    )
    gaps["linear_mf"] = float(np.abs(base.y0() - probe.y0()).max())

    bundle = fixture("bounded_sine_mf", terminal="tanh")
    win = local_window(bundle.local, 2)
    wgrid = build_grid(win.eps / 2.0, 8)
    paths = sample_brownian(wgrid, 2**10, 2, seed=SEED)
    term = bundle.terminal(paths)
    base, _ = solve_local(bundle.spec, bundle.local, term, paths, ENGINE, SolverOptions(tol=tol))
    probe, _ = solve_local(
        bundle.spec, bundle.local, term, paths, ENGINE,
        SolverOptions(tol=tol, init_offset=0.5),
    )
    gaps["bounded_sine_mf"] = float(np.abs(base.y0() - probe.y0()).max())

    bundle = fixture("volterra_demo")
    paths = sample_brownian(grid, 2**10, 1, seed=SEED)
    base, _, _ = run_scheme(bundle, "volterra", grid, paths, ENGINE, SolverOptions(tol=tol))
    probe, _, _ = run_scheme(
        bundle, "volterra", grid, paths, ENGINE, SolverOptions(tol=tol, init_offset=0.5)
    )
    gaps["volterra_demo"] = float(np.abs(base.y0() - probe.y0()).max())

    bundle = fixture("remark31")
    win = local_window(bundle.local, bundle.spec.n)
    wgrid = build_grid(win.eps, 8)
    paths = sample_brownian(wgrid, 2**10, bundle.spec.d, seed=SEED)
    term = bundle.terminal(paths)
    base, _ = solve_local(bundle.spec, bundle.local, term, paths, ENGINE, SolverOptions(tol=tol))
    probe, _ = solve_local(
        bundle.spec, bundle.local, term, paths, ENGINE,
        SolverOptions(tol=tol, init_offset=0.5),
    )
    gaps["remark31"] = float(np.abs(base.y0() - probe.y0()).max())

    bundle = fixture("eq41")
    ggrid = build_grid(1.0, 16)
    paths = sample_brownian(ggrid, 2**10, bundle.spec.d, seed=SEED)
    base, _, _ = run_scheme(bundle, "global", ggrid, paths, ENGINE, SolverOptions(tol=tol))
    probe, _, _ = run_scheme(
        bundle, "global", ggrid, paths, ENGINE, SolverOptions(tol=tol, init_offset=0.5)
    )
    gaps["eq41"] = float(np.abs(base.y0() - probe.y0()).max())

    print("criterion 11: probe gaps " + json.dumps({k: f"{v:.2e}" for k, v in gaps.items()}))
    for name, gap in gaps.items():
        assert gap <= 10 * tol, f"{name} probe moved the initial value by {gap:.3e}"


def test_criterion_12_determinism_of_reports(capsys, tmp_path):
    cfg = {
        "fixture": "pure_quadratic",
        "params": {"gamma": 1.0, "terminal": "brownian"},
        "scheme": "theta",
        "grid": {"horizon": 1.0, "steps": 16},
        "particles": 1024,
        "seed": SEED,
        "outputs": {"csv": str(tmp_path / "a.csv")},
    }
    path = tmp_path / "cfg.json"

    def run(csv_name):
        cfg["outputs"]["csv"] = str(tmp_path / csv_name)
        path.write_text(json.dumps(cfg))
        assert cli_main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        report.pop("timings")
        report["config"]["outputs"].pop("csv")
        report["results"].pop("csv")
        return json.dumps(report, sort_keys=True), (tmp_path / csv_name).read_bytes()

    r1, csv1 = run("a.csv")
    r2, csv2 = run("b.csv")
    same_report = r1 == r2
    same_csv = csv1 == csv2
    print(f"criterion 12: report identical={same_report} csv identical={same_csv}")
    assert same_report
    assert same_csv


def test_criterion_13_identity_battery():
    # the identity is exact in float64 only while gamma |x| stays small
    # enough that exp(gamma |x|) cancellation sits below 1e-12, hence the
    # sampling box [-2, 2] with gamma <= 2
    rng = np.random.default_rng(SEED)
    xs = rng.uniform(-2.0, 2.0, 1000)
    worst_phi = 0.0
    for g in (0.25, 0.5, 1.0, 2.0):
        resid = phi_double_prime(g, xs) - g * np.abs(phi_prime(g, xs)) - 1.0
        worst_phi = max(worst_phi, float(np.abs(resid).max()))

    y_m = rng.standard_normal((128, 17, 2))
    y_mp = rng.standard_normal((128, 17, 2))
    gap = theta_gap(y_m, y_mp, 0.5)
    worst_gap = float(np.abs((1.0 - 0.5) * gap.delta + 0.5 * y_m - y_mp).max())

    x = rng.standard_normal((4096, 2))
    u = rng.standard_normal(4096)
    v = rng.standard_normal(4096)
    pu = ENGINE.project(u, x)
    worst_proj = float(np.abs(ENGINE.project(pu, x) - pu).max())
    lin = ENGINE.project(2.0 * u - 3.0 * v, x) - (2.0 * pu - 3.0 * ENGINE.project(v, x))
    worst_proj = max(worst_proj, float(np.abs(lin).max()))

    print(
        f"criterion 13: phi identity={worst_phi:.2e} (<=1e-12) "
        f"theta-gap={worst_gap:.2e} (<=1e-12) projection={worst_proj:.2e} (<=1e-10)"
    )
    assert worst_phi <= 1e-12
    assert worst_gap <= 1e-12
    assert worst_proj <= 1e-10
