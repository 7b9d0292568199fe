from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest

from mfbsde.condexp import (
    FactorTable,
    NodeOperator,
    ProjectionInfo,
    RegressionBasis,
    RegressionEngine,
    RegressionError,
    _design,
    _gram,
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
    # a constant that is no power of two: centring it leaves about 1e-17,
    # which the rank test drops with the constant's own directions
    values = np.random.default_rng(4).standard_normal(8192)
    for constant in (0.1, 0.3, 1.0 / 3.0):
        for coords in (1, 2):
            op = NodeOperator(np.full((8192, coords), constant), ENGINE.basis)
            assert op.info.rank == 1 and not op.info.ridge_used
            assert op.info.dropped_columns == comb(coords + 3, 3) - 1
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


@pytest.mark.parametrize(
    "options", [{"degree": -1}, {"kind": "piecewise", "degree": -1}, {"bins": 0}, {"kind": "piecewise", "bins": 0}]
)
def test_basis_counts_are_checked_whatever_the_kind(options):
    with pytest.raises(RegressionError, match="bad basis option"):
        RegressionBasis(**options)


@pytest.mark.parametrize("kind", ["cholesky", "ridge"])
def test_block_projection_equals_columnwise_fits(kind):
    # an (N, 3) block is fitted against one factorization; each column must
    # match its own fit, on the Cholesky path and on the ridge path
    rng = np.random.default_rng(9)
    state = _state(kind, rng, 2000)
    x = state[:, 0]
    block = np.column_stack([np.sin(x), x**2 + rng.standard_normal(2000), rng.standard_normal(2000)])
    op = NodeOperator(state, ENGINE.basis)
    fitted = op.apply(block)
    assert op.info.ridge_used == (kind == "ridge")
    assert fitted.shape == block.shape
    for j in range(3):
        np.testing.assert_allclose(fitted[:, j], ENGINE.project(block[:, j], state), rtol=0, atol=1e-13)


def test_projection_rejects_three_axis_values():
    with pytest.raises(RegressionError):
        ENGINE.project(np.ones((4, 2, 2)), np.ones((4, 1)))


def _one_shot_fit(values, state, basis):
    # The single-call fit: design, factor and fit, all redone for every
    # right-hand side, as node operators fit: A (R^{-1} (R^{-T} (A^T v)))
    # from the C-contiguous A^T, R from one Cholesky factorization of the
    # Gram matrix G, or of the ridged one when that fails or some column's
    # 1 / sqrt(G_jj (G^{-1})_jj) is at most 1e-6.
    at, _, _ = _design(state, basis)
    gram = _gram(at)
    try:
        rinv = np.linalg.inv(np.linalg.cholesky(gram).T)
        ridge = (1.0 / np.sqrt(np.diag(gram) * np.diag(np.linalg.inv(gram)))).min() <= 1e-6
    except np.linalg.LinAlgError:
        ridge = True
    if ridge:
        rinv = np.linalg.inv(np.linalg.cholesky(gram + 1e-10 * np.trace(gram) / len(gram) * np.eye(len(gram))).T)
    return at.T @ (rinv @ (rinv.T @ (at @ values)))


def _monomials(state, degree):
    """The raw monomial design of ``state``: 1, x_a, x_a x_b, ... up to
    total degree ``degree``, one column each."""
    combos = [c for deg in range(degree + 1) for c in combinations_with_replacement(range(state.shape[1]), deg)]
    return np.column_stack([np.prod(state[:, list(c)], axis=1) for c in combos])


def _householder_fit(values, state, degree):
    """A R^{-1} (Q^T v), Q and R from the Householder QR of the raw
    monomial design of ``state``: the projection onto the span a node with
    this state fits on."""
    a = _monomials(state, degree)
    q, r = np.linalg.qr(a)
    return a @ np.linalg.solve(r, q.T @ values)


KINDS = ["cholesky", "ridge", "copy", "node0"]


def _state(kind, rng, n):
    x = rng.standard_normal(n)
    if kind == "cholesky":
        return np.column_stack([x, rng.standard_normal(n)])
    if kind == "copy":  # an affine copy of x drops a direction
        return np.column_stack([x, 0.5 - 2.0 * x])
    if kind == "ridge":  # and on 3 values, He_3 is in the span of the lower degrees
        x = rng.integers(0, 3, n).astype(float)
        return np.column_stack([x, 0.5 - 2.0 * x])
    return np.zeros((n, 2))  # node 0: W_0 = 0 leaves only the constant


@pytest.mark.parametrize("kind", KINDS)
def test_operator_apply_equals_one_shot_fit_bitwise(kind):
    rng = np.random.default_rng(10)
    state = _state(kind, rng, 1500)
    op = NodeOperator(state, ENGINE.basis)
    assert op.info.ridge_used == (kind == "ridge")
    assert op.info.rank == {"copy": 4, "ridge": 4, "node0": 1}.get(kind, 10)
    assert op.info.rank + op.info.dropped_columns == 10
    block = np.column_stack([np.sin(state[:, 0]), rng.standard_normal(1500), state[:, 1] ** 2])
    # several applies on one operator, vector and block, in either order
    for values in (block[:, 1], block, block[:, 0], np.ascontiguousarray(block[:, :2])):
        expected = _one_shot_fit(values, state, ENGINE.basis)
        fitted = op.apply(values)
        assert fitted.shape == values.shape
        assert np.array_equal(fitted, expected)
        assert np.array_equal(ENGINE.project(values, state), expected)


def test_operator_table_factors_each_node_once(factor_calls):
    rng = np.random.default_rng(11)
    states = {k: rng.standard_normal((300, 1)) for k in range(4)}
    values = rng.standard_normal(300)
    table = FactorTable(ENGINE.basis, states)
    for _ in range(3):
        for k in (3, 1, 3, 0):
            assert np.array_equal(table[k].apply(values), _one_shot_fit(values, states[k], ENGINE.basis))
    # every access builds a fresh operator from the factor the table keeps
    assert table[1] is not table[1] and table[1].factor is table[1].factor
    # three distinct nodes factored once each
    assert len(factor_calls) == 3


def test_an_ensemble_keeps_one_table_per_basis(factor_calls):
    paths = sample_brownian(build_grid(1.0, 4), 300, 2, seed=13)
    table = FactorTable.of(paths, ENGINE.basis)
    assert FactorTable.of(paths, RegressionBasis(kind="polynomial", degree=3)) is table
    other = FactorTable.of(paths, RegressionBasis(degree=2))
    assert other is not table and FactorTable.of(paths, RegressionBasis(degree=2)) is other
    values = np.sin(paths.brownian_at(4)[:, 0])
    for _ in range(2):
        for k in range(1, 5):
            assert np.array_equal(table[k].apply(values), _one_shot_fit(values, paths.brownian_at(k), ENGINE.basis))
            other[k].apply(values)
    # the second basis factors each node once too: (10, N) and (6, N) designs
    assert sorted(factor_calls) == [(6, 300)] * 4 + [(10, 300)] * 4
    # a sampled ensemble built again from its seed has a table of its own
    assert FactorTable.of(sample_brownian(build_grid(1.0, 4), 300, 2, seed=13), ENGINE.basis) is not table


def test_a_non_finite_state_is_refused_at_every_access(factor_calls):
    # no factor is kept for a node whose state holds a non-finite value, so
    # every access refuses it again; an ensemble refuses Brownian sums that
    # overflow when it is built, so the table here indexes given states
    states = np.zeros((4, 50, 1))
    states[1:] = np.random.default_rng(14).standard_normal((50, 1))
    states[3, 7, 0] = np.inf
    table = FactorTable(ENGINE.basis, states)
    for _ in range(3):
        with pytest.raises(RegressionError, match="non-finite"):
            table[3]
    assert factor_calls == []
    table[1]
    with pytest.raises(IndexError, match="negative"):
        table[-1]
    assert len(factor_calls) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_rebuilt_operator_equals_fresh_one_bitwise(kind):
    rng = np.random.default_rng(12)
    state = _state(kind, rng, 1500)
    fresh = NodeOperator(state, ENGINE.basis)
    rebuilt = NodeOperator(state.copy(), ENGINE.basis, fresh.factor)
    assert rebuilt.factor is fresh.factor and rebuilt.info == fresh.info
    block = np.column_stack([np.sin(state[:, 0]), rng.standard_normal(1500)])
    for values in (block, block[:, 1]):
        assert np.array_equal(rebuilt.apply(values), fresh.apply(values))
    # what a factor table keeps per node is R^{-1}, p x p, and the state's
    # mean and whitening map, s and s x r: no particle axis
    mean, whiten = fresh.factor.whitening
    arrays = [v for v in vars(fresh.factor).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 and arrays[0] is fresh.factor.rinv
    rank, r = fresh.info.rank, {"copy": 1, "ridge": 1, "node0": 0}.get(kind, 2)
    assert (arrays[0].shape, mean.shape, whiten.shape) == ((rank, rank), (2,), (2, r))


@pytest.mark.parametrize("kind", KINDS)
def test_operator_fit_matches_householder_formula(kind):
    # Q (Q^T v) on the whitened Hermite design against A R^{-1} (Q^T v) from
    # the Householder QR of the raw monomials that span the same space: of
    # the state's independent coordinates, of none at node 0; a ridge node
    # against A (A^T A + lam I)^{-1} A^T v solved on its own design
    rng = np.random.default_rng(13)
    state = _state(kind, rng, 1500)
    block = np.column_stack([np.sin(state[:, 0]), rng.standard_normal(1500), state[:, 1] ** 2])
    op = NodeOperator(state, ENGINE.basis)
    fitted = op.apply(block)
    if kind == "ridge":
        a = op._at.T
        gram = a.T @ a
        reference = a @ np.linalg.solve(gram + 1e-10 * np.trace(gram) / len(gram) * np.eye(len(gram)), a.T @ block)
    else:
        reference = _householder_fit(block, state[:, : {"copy": 1, "node0": 0}.get(kind, 2)], 3)
    assert np.abs(fitted - reference).max() <= 1e-12 * np.abs(fitted).max()


@pytest.mark.parametrize("d, steps, degree", [(1, 32, 3), (2, 64, 3), (2, 16, 5), (2, 16, 7)])
def test_operator_columns_orthonormal_at_every_node(monkeypatch, d, steps, degree):
    # one Cholesky factorization of the whitened Hermite design's Gram matrix
    # gives orthonormal columns Q = A R^{-1} at every node, with no QR
    qr_calls = []
    real_qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: qr_calls.append(a.shape) or real_qr(a, *args, **kw))
    basis = RegressionBasis(degree=degree)
    grid = build_grid(1.0, steps)
    paths = sample_brownian(grid, 2**13, d, seed=14)
    for k in range(steps + 1):
        op = NodeOperator(paths.brownian_at(k), basis)
        assert not op.info.ridge_used
        assert op._at.flags.c_contiguous and op._at.shape == (op.info.rank, 2**13)
        qt = op.factor.rinv.T @ op._at  # Q^T = R^{-T} A^T
        assert np.abs(qt @ qt.T - np.eye(qt.shape[0])).max() <= 1e-12, k
    assert qr_calls == []


def test_a_singular_design_that_cholesky_factors_takes_the_ridge():
    # beside a normal coordinate, a 3-valued one makes the degree-3 design
    # singular, yet the rotation spreads the dependence over the cubic
    # columns: the Cholesky factorization succeeds and no pivot
    # R_jj / sqrt(G_jj) is below 3e-3, while the smallest sine of a column's
    # angle to the other columns is about 1e-8. A scratch copy that tests the
    # pivots instead of the sines misses this ridge.
    rng = np.random.default_rng(9)
    state = np.column_stack([rng.standard_normal(2000), rng.integers(0, 3, 2000)])
    at, _, _ = _design(state, ENGINE.basis)
    gram = _gram(at)
    r = np.linalg.cholesky(gram).T
    assert (np.diag(r) / np.sqrt(np.diag(gram))).min() > 3e-3
    op = NodeOperator(state, ENGINE.basis)
    assert op.info == ProjectionInfo(ridge_used=True, dropped_columns=0, rank=10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_nearly_collinear_state_is_projected_exactly(seed):
    # (x, x + 0.01 noise) makes the raw monomials of degree 5 about 1e12
    # ill conditioned; whitened, the state's Hermite columns stay
    # orthonormal through one Cholesky factorization and the fit is a
    # projection
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(2000)
    state = np.column_stack([x, x + 0.01 * rng.standard_normal(2000)])
    op = NodeOperator(state, RegressionBasis(degree=5))
    assert op.info == ProjectionInfo(ridge_used=False, dropped_columns=0, rank=21)
    qt = op.factor.rinv.T @ op._at
    assert np.abs(qt @ qt.T - np.eye(21)).max() <= 1e-12
    fit = op.apply(np.column_stack([np.sin(3.0 * x), rng.standard_normal(2000)]))
    assert np.abs(op.apply(fit) - fit).max() <= 1e-12 * np.abs(fit).max()


@pytest.mark.parametrize(
    "s, info", [(1, (False, 2, 48)), (2, (True, 4, 97)), (3, (True, 13, 138))], ids=["s1", "s2", "s3"]
)
def test_piecewise_design_drops_its_empty_bins(s, info):
    # 4000 normal particles in 50 bins a coordinate leave some tail bins
    # empty; additive blocks after an intercept are collinear, so s >= 2
    # takes the ridge
    state = np.random.default_rng(1).standard_normal((4000, s))
    op = NodeOperator(state, RegressionBasis(kind="piecewise", bins=50))
    assert op.info == ProjectionInfo(*info)
    values = np.random.default_rng(2).standard_normal(4000)
    fit = op.apply(values)
    assert np.abs(op.apply(fit) - fit).max() <= 1e-7 * np.abs(fit).max()


@pytest.mark.parametrize("kind", ["polynomial", "piecewise"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_state_is_refused_when_first_factored(kind, bad):
    # a NaN used to fail every min < max test, so all columns but the
    # intercept were dropped and the fit was the plain mean of the values
    basis = RegressionBasis(kind=kind, degree=3, bins=8)
    rng = np.random.default_rng(15)
    state = rng.standard_normal((200, 2))
    values = rng.standard_normal(200)
    state[17, 1] = bad
    with pytest.raises(RegressionError, match="non-finite"):
        RegressionEngine(basis).project(values, state)


@pytest.mark.parametrize("scale, shift", [(1.7e308 / 63, 0.0), (1e200, 0.0), (1e150, 1e160)])
def test_a_state_whose_mean_or_covariance_overflows_is_refused(scale, shift):
    # values 0..63 scaled up to 1.7e308 overflowed the mean, and shifted by
    # 1e160 the squared mean of the rank floor; each was fit as a constant
    # (rank 1, two columns dropped), 31.5 off at the ends
    values = np.arange(64.0)
    with pytest.raises(RegressionError, match="squared mean or covariance of the conditioning state overflows float64"):
        RegressionEngine(RegressionBasis(degree=2)).project(values, shift + values * scale)


@pytest.mark.parametrize("p, layout", [(1, "C"), (4, "C"), (10, "C"), (10, "F")])
def test_gram_is_the_symmetric_product_of_the_columns(p, layout):
    # a design with dropped columns hands over the (p, N) transpose of a
    # row-major copy, so A^T comes in either layout
    at = np.asarray(np.random.default_rng(16).standard_normal((p, 3000)), order=layout)
    gram = _gram(at)
    np.testing.assert_allclose(gram, at @ at.T, rtol=0, atol=1e-14 * np.abs(gram).max())
    assert np.array_equal(gram[:, 0], gram[0])


def test_operator_rejects_mismatched_values():
    op = NodeOperator(np.ones((4, 1)), ENGINE.basis)
    with pytest.raises(RegressionError):
        op.apply(np.ones(5))
    with pytest.raises(RegressionError):
        op.apply(np.ones((4, 2, 2)))


def test_more_columns_than_particles_is_refused_before_factoring():
    # degree 3 in two coordinates keeps ten columns; five particles cannot fit them
    state = np.random.default_rng(3).standard_normal((5, 2))
    with pytest.raises(RegressionError, match=r"10 basis columns kept but only 5 particles"):
        NodeOperator(state, ENGINE.basis)


@pytest.mark.parametrize("degree", [0, 3])
def test_an_empty_ensemble_is_refused(degree):
    with pytest.raises(RegressionError, match=r"1 basis columns kept but only 0 particles"):
        NodeOperator(np.zeros((0, 2)), RegressionBasis(degree=degree))


def test_a_constant_state_keeps_one_column_on_a_tiny_ensemble():
    op = NodeOperator(np.full((3, 2), 0.7), ENGINE.basis)
    assert op.info.rank == 1
    np.testing.assert_allclose(op.apply(np.array([1.0, 2.0, 6.0])), np.full(3, 3.0), rtol=1e-15)


def test_a_constant_coordinate_adds_no_piecewise_row():
    # next to a varying coordinate, a constant one's single bin would repeat
    # the intercept, so all its bins count as dropped
    x = np.random.default_rng(3).standard_normal((2000, 1))
    basis = RegressionBasis(kind="piecewise", bins=20)
    alone = NodeOperator(x, basis)
    paired = NodeOperator(np.column_stack([x[:, 0], np.full(2000, 0.7)]), basis)
    assert paired.info.dropped_columns == alone.info.dropped_columns + 20
    assert paired.info.rank == alone.info.rank + 1  # the intercept row
    values = np.random.default_rng(4).standard_normal(2000)
    assert np.abs(paired.apply(values) - alone.apply(values)).max() <= 1e-6


@pytest.mark.parametrize("kind", ["polynomial", "piecewise"])
def test_a_three_axis_state_is_refused(kind):
    with pytest.raises(RegressionError, match=r"state must be \(N, s\), got shape \(8, 2, 1\)"):
        NodeOperator(np.zeros((8, 2, 1)), RegressionBasis(kind=kind))
