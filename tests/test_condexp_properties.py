"""Property tests of the node operator: idempotence, linearity, the tower
property over nested conditioning states, exactness on the design span."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbsde.condexp import NodeOperator, RegressionBasis

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
