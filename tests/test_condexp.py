import numpy as np
import pytest

from mfbsde.condexp import (
    FactorTable,
    NodeOperator,
    RegressionBasis,
    RegressionEngine,
    RegressionError,
    _design,
)
from mfbsde.paths import build_grid, sample_brownian
from mfbsde.solvers import _increment_fit

ENGINE = RegressionEngine(RegressionBasis(kind="polynomial", degree=3))


def test_projection_of_measurable_function_is_exact():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5000, 1))
    values = 2.0 + x[:, 0] - 0.5 * x[:, 0] ** 3
    fitted = ENGINE.project(values, x)
    np.testing.assert_allclose(fitted, values, atol=1e-10)


def test_projection_idempotent_and_linear():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4000, 2))
    u = rng.standard_normal(4000)
    v = rng.standard_normal(4000)
    pu = ENGINE.project(u, x)
    pv = ENGINE.project(v, x)
    np.testing.assert_allclose(ENGINE.project(pu, x), pu, atol=1e-10)
    np.testing.assert_allclose(
        ENGINE.project(2.0 * u - 3.0 * v, x), 2.0 * pu - 3.0 * pv, atol=1e-10
    )


def test_tower_property_iterated_projection():
    # projecting an already-projected value changes nothing, so the two
    # evaluation orders agree to solver precision
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3000, 1))
    values = np.sin(3.0 * x[:, 0]) + rng.standard_normal(3000)
    once = ENGINE.project(values, x)
    twice = ENGINE.project(once, x)
    assert np.max(np.abs(once - twice)) < 1e-12


def test_conditional_mean_of_lognormal_increment():
    # E[exp(X + dW) | X] = exp(X + dt/2) with X uniform on [-1, 1]; a
    # quintic tracks exp there to well under a percent
    rng = np.random.default_rng(3)
    n = 200_000
    x = rng.uniform(-1.0, 1.0, (n, 1))
    dw = 0.1 * rng.standard_normal(n)
    target = np.exp(x[:, 0] + dw)
    fitted = NodeOperator(x, RegressionBasis(degree=5)).apply(target)
    truth = np.exp(x[:, 0] + 0.005)
    rel = np.abs(fitted - truth) / truth
    assert np.quantile(rel, 0.95) < 0.005


def test_increment_projection_recovers_integrand():
    # Y = z0 * dW with constant z0: the slope estimate is z0 up to
    # Monte Carlo noise of order sqrt(1/N)
    rng = np.random.default_rng(4)
    n, dt = 100_000, 0.01
    w = rng.standard_normal((n, 1))
    dw = np.sqrt(dt) * rng.standard_normal((n, 1))
    y_next = (1.7 * dw[:, 0] + 0.3)[:, None]
    op = NodeOperator(w, ENGINE.basis)
    z = _increment_fit(y_next, op.apply(y_next), op, dw, dt)
    assert z.shape == (n, 1, 1)
    # pointwise noise has heavy leverage in the state tails, so judge the
    # bulk of the distribution rather than the max
    err = np.abs(z[:, 0, 0] - 1.7)
    assert np.quantile(err, 0.99) < 0.05
    assert err.mean() < 0.01


def test_increment_projection_of_constant_is_exactly_zero():
    rng = np.random.default_rng(5)
    n, dt = 1000, 0.05
    w = rng.standard_normal((n, 1))
    dw = np.sqrt(dt) * rng.standard_normal((n, 1))
    y_next = np.full((n, 1), 3.14)
    op = NodeOperator(w, ENGINE.basis)
    z = _increment_fit(y_next, op.apply(y_next), op, dw, dt)
    # centering removes the constant before multiplying by the increment,
    # leaving only rounding residue from the least-squares solve
    assert np.abs(z).max() < 1e-12


def test_constant_state_falls_back_to_mean():
    values = np.array([1.0, 2.0, 3.0, 4.0])
    state = np.zeros((4, 1))
    op = NodeOperator(state, ENGINE.basis)
    np.testing.assert_allclose(op.apply(values), np.full(4, 2.5), atol=1e-13)
    assert op.info.dropped_columns > 0
    # a constant that is no power of two: its columns' std() rounds to about
    # 1e-17, so only an exact test drops them
    values = np.random.default_rng(4).standard_normal(8192)
    for constant in (0.1, 0.3, 1.0 / 3.0):
        for coords in (1, 2):
            op = NodeOperator(np.full((8192, coords), constant), ENGINE.basis)
            assert op.info.rank == 1 and not op.info.ridge_used
            assert op.info.dropped_columns == _design(np.zeros((1, coords)), ENGINE.basis).shape[1] - 1
            fit = op.apply(values)
            assert np.abs(fit - values.mean()).max() <= 1e-14 * abs(values.mean())


def test_ridge_fallback_reported():
    # nearly collinear columns push the design through the ridge path
    rng = np.random.default_rng(6)
    base = rng.standard_normal(500)
    state = np.column_stack([base, base * (1.0 + 1e-14)])
    values = base + rng.standard_normal(500) * 0.01
    op = NodeOperator(state, RegressionBasis(degree=2))
    assert np.isfinite(op.apply(values)).all()
    assert op.info.ridge_used or op.info.dropped_columns > 0


def test_piecewise_basis_projects_constants_exactly():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2000, 1))
    basis = RegressionBasis(kind="piecewise", bins=20)
    fitted = NodeOperator(x, basis).apply(np.full(2000, 2.0))
    np.testing.assert_allclose(fitted, 2.0, atol=1e-12)


def test_piecewise_basis_fits_step_function():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1, 1, (20_000, 1))
    values = np.where(x[:, 0] > 0, 1.0, -1.0) + 0.1 * rng.standard_normal(20_000)
    basis = RegressionBasis(kind="piecewise", bins=40)
    fitted = NodeOperator(x, basis).apply(values)
    core = np.abs(x[:, 0]) > 0.1
    assert np.abs(fitted[core] - np.sign(x[core, 0])).max() < 0.2


def test_shape_validation():
    with pytest.raises(RegressionError):
        ENGINE.project(np.ones(5), np.ones((4, 1)))
    with pytest.raises(RegressionError):
        RegressionBasis(kind="fourier")


@pytest.mark.parametrize("duplicated", [False, True], ids=["qr", "ridge"])
def test_block_projection_equals_columnwise_fits(duplicated):
    # an (N, 3) block is fitted against one factorization; each column must
    # match its own fit, on the QR path and on the ridge path that a
    # duplicated state coordinate forces
    rng = np.random.default_rng(9)
    x = rng.standard_normal(2000)
    other = x if duplicated else rng.standard_normal(2000)
    state = np.column_stack([x, other])
    block = np.column_stack([np.sin(x), x**2 + rng.standard_normal(2000), rng.standard_normal(2000)])
    op = NodeOperator(state, ENGINE.basis)
    fitted = op.apply(block)
    assert op.info.ridge_used == duplicated
    assert fitted.shape == block.shape
    for j in range(3):
        np.testing.assert_allclose(fitted[:, j], ENGINE.project(block[:, j], state), rtol=0, atol=1e-13)


def test_projection_rejects_three_axis_values():
    with pytest.raises(RegressionError):
        ENGINE.project(np.ones((4, 2, 2)), np.ones((4, 1)))


def _one_shot_fit(values, state, basis, householder=False):
    # The single-call fit: design, variance filter, QR (or ridge) and fit,
    # all redone for every right-hand side. The QR path fits Q (Q^T v) with
    # Q = A R^{-1}, as node operators do; ``householder`` gives the formula
    # they replaced, A R^{-1} (Q^T v) with Q from the QR itself.
    design = _design(state, basis)
    keep = [0] + [j for j in range(1, design.shape[1]) if design[:, j].std() > 0.0]
    a = design[:, keep]
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    if not diag.min() <= 1e-12 * max(diag.max(), 1.0):
        if householder:
            return a @ np.linalg.solve(r, q.T @ values)
        q = a @ np.linalg.inv(r)
        return q @ (q.T @ values)
    gram = a.T @ a
    lam = 1e-10 * np.trace(gram) / gram.shape[0]
    return a @ np.linalg.solve(gram + lam * np.eye(gram.shape[0]), a.T @ values)


def _state(kind, rng, n):
    x = rng.standard_normal(n)
    if kind == "qr":
        return np.column_stack([x, rng.standard_normal(n)])
    if kind == "ridge":  # a duplicated coordinate makes R singular
        return np.column_stack([x, x])
    return np.zeros((n, 2))  # node 0: W_0 = 0 leaves only the constant


@pytest.mark.parametrize("kind", ["qr", "ridge", "node0"])
def test_operator_apply_equals_one_shot_fit_bitwise(kind):
    rng = np.random.default_rng(10)
    state = _state(kind, rng, 1500)
    op = NodeOperator(state, ENGINE.basis)
    assert op.info.ridge_used == (kind == "ridge")
    assert (op.info.rank == 1) == (kind == "node0")
    block = np.column_stack([np.sin(state[:, 0]), rng.standard_normal(1500), state[:, 1] ** 2])
    # several applies on one operator, vector and block, in either order
    for values in (block[:, 1], block, block[:, 0], np.ascontiguousarray(block[:, :2])):
        expected = _one_shot_fit(values, state, ENGINE.basis)
        fitted = op.apply(values)
        assert fitted.shape == values.shape
        assert np.array_equal(fitted, expected)
        assert np.array_equal(ENGINE.project(values, state), expected)


def test_operator_table_factors_each_node_once(monkeypatch):
    rng = np.random.default_rng(11)
    states = {k: rng.standard_normal((300, 1)) for k in range(4)}
    calls = []
    real_qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: calls.append(a.shape) or real_qr(a, *args, **kw))
    values = rng.standard_normal(300)
    table = FactorTable(ENGINE.basis, states.__getitem__)
    for _ in range(3):
        for k in (3, 1, 3, 0):
            assert np.array_equal(table[k].apply(values), _one_shot_fit(values, states[k], ENGINE.basis))
    # every access builds a fresh operator from the factor the table keeps
    assert table[1] is not table[1] and table[1].factor is table[1].factor
    # three distinct nodes factored once each, plus one QR per reference fit
    assert len(calls) == 3 + 12


@pytest.mark.parametrize("kind", ["qr", "ridge", "node0"])
def test_rebuilt_operator_equals_fresh_one_bitwise(kind):
    rng = np.random.default_rng(12)
    state = _state(kind, rng, 1500)
    fresh = NodeOperator(state, ENGINE.basis)
    rebuilt = NodeOperator(state.copy(), ENGINE.basis, fresh.factor)
    assert rebuilt.factor is fresh.factor and rebuilt.info == fresh.info
    block = np.column_stack([np.sin(state[:, 0]), rng.standard_normal(1500)])
    for values in (block, block[:, 1]):
        assert np.array_equal(rebuilt.apply(values), fresh.apply(values))
    # what a factor table keeps per node is p x p at most: no particle axis
    arrays = [v for v in vars(fresh.factor).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 and (arrays[0] is fresh.factor.system) == (kind == "ridge")
    rank = fresh.info.rank
    assert len(fresh.factor.keep) == rank and all(a.shape == (rank, rank) for a in arrays)


@pytest.mark.parametrize("kind", ["qr", "ridge", "node0"])
def test_operator_fit_matches_householder_formula(kind):
    # Q (Q^T v) with Q = A R^{-1} against the A R^{-1} (Q^T v) it replaced:
    # the same projection, rounded differently
    rng = np.random.default_rng(13)
    state = _state(kind, rng, 1500)
    block = np.column_stack([np.sin(state[:, 0]), rng.standard_normal(1500), state[:, 1] ** 2])
    fitted = NodeOperator(state, ENGINE.basis).apply(block)
    householder = _one_shot_fit(block, state, ENGINE.basis, householder=True)
    assert np.abs(fitted - householder).max() <= 1e-12 * np.abs(fitted).max()


@pytest.mark.parametrize("d, steps", [(1, 32), (2, 64)])
def test_operator_columns_orthonormal_at_every_node(d, steps):
    grid = build_grid(1.0, steps)
    paths = sample_brownian(grid, 2**13, d, seed=14)
    for k in range(steps + 1):
        op = NodeOperator(paths.brownian_at(k), ENGINE.basis)
        assert not op.info.ridge_used
        q = op._cols
        assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-12, k


def test_operator_rejects_mismatched_values():
    op = NodeOperator(np.ones((4, 1)), ENGINE.basis)
    with pytest.raises(RegressionError):
        op.apply(np.ones(5))
    with pytest.raises(RegressionError):
        op.apply(np.ones((4, 2, 2)))
