"""A theta solve settles each node in one (Y, Z) iterate before the node
below: node k fits its Z once and iterates only its Y.

The node rule: a node whose driver reads neither Y nor the law sees only
its own settled Z, in its own and in the other rows, so its first iterate is
its fixed point. It takes one iteration, recorded with a difference of 0,
and its answer must equal bitwise the same solve with the driver declared to
read Y, which confirms each node with a second iteration. With more than one
inner sweep the other rows read the node's refit own rows, so there the rule
holds for n = 1 alone."""
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mfbsde import solvers
from mfbsde.condexp import RegressionBasis, RegressionEngine
from mfbsde.generators import CertificateConvex, GeneratorSpec, fixture
from mfbsde.measures import sum_squares
from mfbsde.paths import build_grid, sample_brownian
from mfbsde.solvers import SolverDivergence, SolverOptions, solve_theta

ENGINE = RegressionEngine(RegressionBasis(kind="polynomial", degree=3))


def _cross_rows_stage(z, law, others):
    # own row norms, and each own row against the other component's row
    return sum_squares(z), (z * others[:, ::-1]).sum(axis=2)


# n = 2 and d = 2: each component reads its own row and the other one's,
# and neither Y nor the law
_CROSS_ROWS = GeneratorSpec(
    n=2,
    d=2,
    evaluate=lambda t, y, law, stage: 0.25 * stage[0] + 0.1 * stage[1],
    z_stage=_cross_rows_stage,
    law_dependence="none",
    reads_y=False,
)


def _cross_rows_problem(steps=8, particles=1024):
    paths = sample_brownian(build_grid(1.0, steps), particles, 2, seed=21)
    return paths, np.tanh(paths.terminal())


def _count_kernel_passes(monkeypatch) -> list:
    passes, kernel = [], solvers._backward

    def counted(*args, **kwargs):
        passes.append(None)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(solvers, "_backward", counted)
    return passes


@pytest.mark.parametrize("z_clip", [None, 0.3])
def test_a_node_that_reads_no_y_and_no_law_takes_one_iteration(monkeypatch, z_clip):
    paths, terminal = _cross_rows_problem()
    steps, cert = paths.grid.steps, CertificateConvex(K=0.0, gamma=1.0)
    opts = SolverOptions(tol=1e-10, z_clip=z_clip)
    passes = _count_kernel_passes(monkeypatch)
    sol, trace = solve_theta(_CROSS_ROWS, cert, terminal, paths, ENGINE, opts)
    assert len(passes) == 1 and trace.converged
    assert [(s.iteration, s.dy_sup, s.combined) for s in trace.steps] == [(1, 0.0, 0.0)] * steps
    ref, ref_trace = solve_theta(replace(_CROSS_ROWS, reads_y=True), cert, terminal, paths, ENGINE, opts)
    assert len(passes) == 2 and ref_trace.converged
    assert [s.iteration for s in ref_trace.steps] == [1, 2] * steps
    assert all(s.dy_sup == 0.0 for s in ref_trace.steps[1::2])
    assert np.array_equal(sol.Y, ref.Y) and np.array_equal(sol.Z, ref.Z)
    assert sol.clip_events == ref.clip_events and (sol.clip_events > 0) == bool(z_clip)
    assert trace.apriori_excess == ref_trace.apriori_excess


def test_only_a_node_that_reads_y_needs_its_confirming_iteration():
    paths, terminal = _cross_rows_problem()
    cert, opts = CertificateConvex(K=0.0, gamma=1.0), SolverOptions(max_iter=1)
    _, trace = solve_theta(_CROSS_ROWS, cert, terminal, paths, ENGINE, opts)
    assert trace.converged and trace.iterations == paths.grid.steps
    with pytest.raises(SolverDivergence, match=r"^no convergence within 1 iterations at node 7 \(t=0\.875\)$") as exc:
        solve_theta(replace(_CROSS_ROWS, reads_y=True), cert, terminal, paths, ENGINE, opts)
    assert exc.value.trace.iterations == 1 and not exc.value.trace.converged


def test_with_inner_sweeps_only_a_one_component_node_takes_one_iteration():
    # the next iteration's other rows read the refit own rows, so the first
    # iterate is no fixed point: node 7's second iteration moves Y by 2.6e-4
    paths, terminal = _cross_rows_problem()
    steps, cert = paths.grid.steps, CertificateConvex(K=0.0, gamma=1.0)
    opts = SolverOptions(tol=1e-10, inner_sweeps=2)
    _, trace = solve_theta(_CROSS_ROWS, cert, terminal, paths, ENGINE, opts)
    last = [s for s, after in zip(trace.steps, trace.steps[1:] + [None]) if after is None or after.iteration == 1]
    assert trace.converged and len(last) == steps
    assert all(s.iteration > 2 and s.dy_sup <= opts.tol for s in last)
    bundle = fixture("pure_quadratic", gamma=1.0, terminal="brownian")
    paths = sample_brownian(paths.grid, 1024, 1, seed=21)
    _, trace = solve_theta(bundle.spec, bundle.convex, bundle.terminal(paths), paths, ENGINE, opts)
    assert [(s.iteration, s.dy_sup) for s in trace.steps] == [(1, 0.0)] * steps


def test_theta_refuses_the_blow_up_its_nodes_converge_to():
    # max |Y| is about 2e234: every node converges, and the a-priori check
    # refuses the answer at node 0
    bundle = fixture("pure_quadratic", gamma=20.0, terminal="brownian")
    paths = sample_brownian(build_grid(1.0, 16), 1024, 1, seed=4)
    terminal = bundle.terminal(paths)
    with pytest.raises(SolverDivergence, match="^a-priori estimate broken at node 0 ") as info:
        solve_theta(bundle.spec, bundle.convex, terminal, paths, ENGINE, SolverOptions(tol=1e-7))
    trace = info.value.trace
    assert trace.converged and trace.iterations == paths.grid.steps
    assert trace.steps[-1].max_abs_y > 1e234
    assert trace.apriori_excess > 1e235
    assert str(info.value).endswith(f"excess {trace.apriori_excess:.3g} > 0.5")


def test_theta_solve_holds_one_iterate():
    # a two-buffer loop, a previous and a new iterate, peaked at about 2.3 iterates
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
    assert trace.converged and trace.iterations == grid.steps
    assert peak < 1.75 * iterate_bytes
