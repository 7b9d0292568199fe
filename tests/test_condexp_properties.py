"""Property tests of the node operator: idempotence, linearity, the tower
property over nested conditioning states, exactness on the design span, the
ridge fit on rank-deficient designs, and the node factor against a
Householder-only one."""
import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mfbsde.condexp import RIDGE_SCALE, NodeFactor, NodeOperator, ProjectionInfo, RegressionBasis, _design, _gram

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
def rank_deficient_problems(draw):
    # a state coordinate that repeats an earlier one, exactly or up to noise
    # far below the ridge test's resolution, makes R of the QR singular
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(60, 200))  # degree 5 in three coordinates has 56 columns
    width = draw(st.integers(2, 3))
    state = rng.standard_normal((n, width))
    copy = draw(st.integers(1, width - 1))
    noise = draw(st.sampled_from([0.0, 1e-15, 1e-13]))
    state[:, copy] = state[:, draw(st.integers(0, copy - 1))] + noise * rng.standard_normal(n)
    values = rng.standard_normal((n, 3))
    values[:, 0] = np.sin(state[:, 0])
    return state, RegressionBasis(degree=draw(st.integers(1, 5))), values


@SETTINGS
@given(rank_deficient_problems())
def test_ridge_fit_matches_the_ridge_solve(problem):
    # the Q (Q^T v) a ridge node fits, with R from the Cholesky factor of
    # A^T A + lam I, against A (A^T A + lam I)^{-1} A^T v solved directly
    state, basis, values = problem
    op = NodeOperator(state, basis)
    assert op.info.ridge_used
    a = _design(state, basis)[:, list(op.factor.keep)]
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
    # reach well and ill conditioned designs, so both the scaled-Gram factor
    # and the Householder fallback run, and some nodes take the ridge
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


def _householder_factor(design):
    """(ProjectionInfo, R^{-1}, Q, R) of the Householder QR alone, ridged
    Gram Cholesky on a ridge node: the factor the scaled Gram one replaced."""
    keep = [0] + [j for j in range(1, design.shape[1]) if design[:, j].min() < design[:, j].max()]
    a = design if len(keep) == design.shape[1] else design[:, keep]
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diag(r))
    ridge = bool(diag.min() <= 1e-12 * max(diag.max(), 1.0))
    info = ProjectionInfo(ridge_used=ridge, dropped_columns=design.shape[1] - len(keep), rank=len(keep))
    rinv = np.linalg.inv(np.linalg.qr(a, mode="r"))
    if ridge:
        gram = _gram(a.T)
        rinv = np.linalg.inv(np.linalg.cholesky(gram + RIDGE_SCALE * np.trace(gram) / len(keep) * np.eye(len(keep))).T)
    return info, rinv, q, r


def _scaled_gram_is_well_conditioned(a):
    gram = a.T @ a
    s = np.sqrt(np.diag(gram))
    try:
        lower = np.linalg.cholesky(gram / np.outer(s, s))
    except np.linalg.LinAlgError:
        return False
    return bool(np.sqrt(np.linalg.cond(lower, 1) * np.linalg.cond(lower, np.inf)) <= 10.0)


@settings(max_examples=80, deadline=None)
@given(factor_problems())
def test_node_factor_agrees_with_householder(problem):
    # every node reports the Householder factor's ProjectionInfo; a node the
    # scaled Gram matrix factors fits within 1e-12 of the Householder formula
    # with an orthonormal Q, and any other node keeps the Householder (or
    # ridge) factor itself, bitwise
    state, basis, values = problem
    design = _design(state, basis)
    factor = NodeFactor.of(design)
    info, rinv, q, r = _householder_factor(design)
    assert factor.info == info
    a = design[:, list(factor.keep)]
    cholesky = _scaled_gram_is_well_conditioned(a)
    event("ridge" if info.ridge_used else "scaled Gram" if cholesky else "Householder fallback")
    if info.ridge_used or not cholesky:
        assert np.array_equal(factor.rinv, rinv)
        return
    op = NodeOperator(state, basis, factor)
    qt = factor.rinv.T @ op._at  # Q^T = R^{-T} A^T
    assert np.abs(qt @ qt.T - np.eye(len(factor.keep))).max() <= 1e-12
    fitted = op.apply(values)
    householder = a @ np.linalg.solve(r, q.T @ values)
    assert np.abs(fitted - householder).max() <= 1e-12 * np.abs(fitted).max()
