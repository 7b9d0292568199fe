"""Property tests of the node operator: idempotence, linearity, the tower
property over nested conditioning states, exactness on the design span, the
direction an affine copy drops, the ridge fit on discrete states, and the
node factor against Householder fits."""
from math import comb

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mfbsde.condexp import RIDGE_SCALE, NodeOperator, ProjectionInfo, RegressionBasis, _design
from test_condexp import _householder_fit, _monomials

SETTINGS = settings(max_examples=60, deadline=None)


def _scale(values):
    return max(1.0, float(np.abs(values).max()))


@st.composite
def problems(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(60, 400))
    degree = draw(st.integers(0, 3))
    width = draw(st.integers(1, 3))
    scale = draw(st.floats(1e-3, 1e3))
    values = scale * rng.standard_normal((n, width))
    if draw(st.booleans()):
        values = values[:, 0]
    return rng, n, RegressionBasis(degree=degree), values


@SETTINGS
@given(problems())
def test_apply_is_idempotent_and_linear(problem):
    rng, n, basis, values = problem
    op = NodeOperator(rng.standard_normal((n, 2)), basis)
    fit = op.apply(values)
    assert fit.shape == values.shape
    np.testing.assert_allclose(op.apply(fit), fit, rtol=0, atol=1e-9 * _scale(values))
    other = rng.standard_normal(values.shape)
    np.testing.assert_allclose(
        op.apply(2.0 * values - 3.0 * other), 2.0 * fit - 3.0 * op.apply(other), rtol=0, atol=1e-9 * _scale(values)
    )


@SETTINGS
@given(problems())
def test_apply_has_the_tower_property(problem):
    # polynomials of x span a subspace of the polynomials of (x, y) of the
    # same degree, so conditioning on (x, y) first and then on x is the same
    # as conditioning on x
    rng, n, basis, values = problem
    x = rng.standard_normal((n, 1))
    coarse = NodeOperator(x, basis)
    fine = NodeOperator(np.column_stack([x, rng.standard_normal(n)]), basis)
    np.testing.assert_allclose(
        coarse.apply(fine.apply(values)), coarse.apply(values), rtol=0, atol=1e-9 * _scale(values)
    )


@SETTINGS
@given(problems())
def test_apply_is_exact_on_the_design_span(problem):
    rng, n, basis, _ = problem
    x = rng.standard_normal((n, 1))
    coef = rng.standard_normal(basis.degree + 1)
    values = sum(c * x[:, 0] ** p for p, c in enumerate(coef))
    np.testing.assert_allclose(NodeOperator(x, basis).apply(values), values, rtol=0, atol=1e-9 * _scale(values))


@st.composite
def copied_coordinate_problems(draw):
    # a state coordinate that repeats an earlier one up to an affine map,
    # exactly or up to noise far below the rank test's resolution
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(60, 200))  # degree 5 in three coordinates has 56 columns
    width = draw(st.integers(2, 3))
    state = rng.standard_normal((n, width))
    copy = draw(st.integers(1, width - 1))
    noise = draw(st.sampled_from([0.0, 1e-15, 1e-13]))
    shift, scale = draw(st.floats(-3.0, 3.0)), draw(st.sampled_from([-2.0, 0.5, 1.0]))
    state[:, copy] = shift + scale * state[:, draw(st.integers(0, copy - 1))] + noise * rng.standard_normal(n)
    values = rng.standard_normal((n, 2))
    values[:, 0] = np.sin(state[:, 0])
    return state, copy, RegressionBasis(degree=draw(st.integers(1, 5))), values


@SETTINGS
@given(copied_coordinate_problems())
def test_an_affine_copy_drops_its_direction(problem):
    # the copy adds nothing to the span, so the fit is the Householder fit
    # on the raw monomials of the other coordinates; a scratch copy whose
    # rank test keeps every positive eigenvalue fails here
    state, copy, basis, values = problem
    op = NodeOperator(state, basis)
    width, degree = state.shape[1], basis.degree
    rank = comb(width - 1 + degree, degree)
    assert op.info == ProjectionInfo(ridge_used=False, dropped_columns=comb(width + degree, degree) - rank, rank=rank)
    householder = _householder_fit(values, np.delete(state, copy, axis=1), degree)
    assert np.abs(op.apply(values) - householder).max() <= 1e-10 * np.abs(householder).max()


@st.composite
def discrete_problems(draw):
    # one coordinate of 2 to 5 evenly spaced values, maybe beside an affine
    # copy of it; at a degree of at least the value count the design is
    # singular. Evenly spaced values keep its nonzero singular values far
    # above the ridge's sqrt(lam); values drawn at random can nearly
    # coincide, and then the ridged system itself is too ill conditioned for
    # any two float64 solves of it to agree to 1e-11.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(60, 400))
    count = draw(st.integers(2, 5))
    x = draw(st.floats(-3.0, 3.0)) + draw(st.floats(0.1, 3.0)) * rng.integers(0, count, n)
    state = np.column_stack([x, 1.0 - 0.5 * x]) if draw(st.booleans()) else x[:, None]
    values = rng.standard_normal((n, 3))
    values[:, 0] = np.sin(x)
    return state, RegressionBasis(degree=draw(st.integers(max(3, count), 7))), values


@SETTINGS
@given(discrete_problems())
def test_ridge_fit_matches_the_ridge_solve(problem):
    # the Q (Q^T v) a ridge node fits, with R from the Cholesky factor of
    # A^T A + lam I, against A (A^T A + lam I)^{-1} A^T v solved directly. A
    # Cholesky factorization of the singular Gram matrix sometimes succeeds,
    # so a scratch copy that takes the ridge only when diag(R).min() <=
    # 1e-12 max(diag(R).max(), 1) fails here.
    state, basis, values = problem
    op = NodeOperator(state, basis)
    assert op.info.ridge_used
    a, _, _ = _design(state, basis)
    a = a.T
    gram = a.T @ a
    lam = RIDGE_SCALE * np.trace(gram) / gram.shape[0]
    solved = a @ np.linalg.solve(gram + lam * np.eye(gram.shape[0]), a.T @ values)
    fitted = op.apply(values)
    assert np.abs(fitted - solved).max() <= 1e-11 * np.abs(solved).max()
    columns = np.column_stack([op.apply(values[:, j]) for j in range(values.shape[1])])
    assert np.abs(columns - fitted).max() <= 1e-12 * np.abs(fitted).max()


@st.composite
def factor_problems(draw):
    # one or two coordinates of their own scale, and maybe a third that is
    # another scale, nearly or exactly a copy of the first: degrees 3 to 7
    # reach raw monomial designs from well to hopelessly conditioned, and
    # near copies whose direction the rank test keeps or drops
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(300, 1500))
    width = draw(st.integers(1, 2))
    scales = [draw(st.sampled_from([1e-2, 1.0, 1e2])) for _ in range(width)]
    state = rng.standard_normal((n, width)) * scales
    extra = draw(st.sampled_from(["none", "scaled", "near", "duplicate"]))
    if extra == "scaled":
        state = np.column_stack([state, draw(st.sampled_from([1e-3, 1e3])) * rng.standard_normal(n)])
    elif extra == "near":
        noise = draw(st.sampled_from([1e-2, 1e-5, 1e-9]))
        state = np.column_stack([state, state[:, 0] + noise * scales[0] * rng.standard_normal(n)])
    elif extra == "duplicate":
        state = np.column_stack([state, state[:, 0]])
    values = np.column_stack([np.sin(state[:, 0] / scales[0]), rng.standard_normal(n)])
    return state, RegressionBasis(degree=draw(st.integers(3, 7))), values


@settings(max_examples=80, deadline=None)
@given(factor_problems())
def test_node_factor_agrees_with_householder(problem):
    # every node keeps as many directions as the centred state has singular
    # values above 1e-6 of the largest and takes no ridge; its whitened
    # design A is conditioned to 1e4 or better, and one Cholesky pass loses
    # about u k(A)^2, so its columns Q = A R^{-1} are orthonormal and its fit
    # agrees with the Householder fit on its own design to 100 u k(A)^2, or
    # to 1e-12 where that is larger. Where the column-scaled raw monomials
    # of the state are conditioned to 10 or better, Q is orthonormal to 1e-12
    # and the fit agrees with the Householder fit on those monomials to 1e-12.
    state, basis, values = problem
    op = NodeOperator(state, basis)
    singular = np.linalg.svd(state - state.mean(axis=0), compute_uv=False)
    rank = comb(int((singular > 1e-6 * singular[0]).sum()) + basis.degree, basis.degree)
    full = comb(state.shape[1] + basis.degree, basis.degree)
    assert op.info == ProjectionInfo(ridge_used=False, dropped_columns=full - rank, rank=rank)
    a = op._at.T
    kappa = np.linalg.cond(a / np.linalg.norm(a, axis=0))
    assert kappa <= 1e4
    qt = op.factor.rinv.T @ op._at  # Q^T = R^{-T} A^T
    loss = np.abs(qt @ qt.T - np.eye(rank)).max()
    fitted = op.apply(values)
    q, r = np.linalg.qr(a)
    own = a @ np.linalg.solve(r, q.T @ values)
    bound = max(1e-12, 100 * np.finfo(float).eps * kappa**2)
    assert loss <= bound and np.abs(fitted - own).max() <= bound * np.abs(fitted).max()
    raw = _monomials(state, basis.degree)
    conditioned = rank == full and np.linalg.cond(raw / np.linalg.norm(raw, axis=0)) <= 10.0
    event("raw monomials conditioned to 10" if conditioned else "raw monomials worse conditioned")
    if conditioned:
        assert loss <= 1e-12
        householder = _householder_fit(values, state, basis.degree)
        assert np.abs(fitted - householder).max() <= 1e-12 * np.abs(fitted).max()
