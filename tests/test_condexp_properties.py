"""Property tests of the node operator: idempotence, linearity, the tower
property over nested conditioning states, exactness on the design span, and
the ridge fit on rank-deficient designs."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbsde.condexp import RIDGE_SCALE, NodeOperator, RegressionBasis, _design

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
