"""Property tests of the per-particle sum of squares: its square root is the
row norm np.linalg.norm computes, and the distances to the point mass built
on it agree with the p-th moment root of those norms. The per-particle
largest absolute value equals numpy's reduction over the trailing axis, and
the column-by-column maximum equals numpy's reduction over the particles."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mfbsde.measures import ParticleCloud, column_max, max_abs, sum_squares, wasserstein_to_delta

SETTINGS = settings(max_examples=150, deadline=None)

# Neither the helper nor np.linalg.norm rescales, so both lose relative
# precision once squares fall into the subnormal range, where rounding of
# the squares can differ; beyond two terms the cases are compared where
# every nonzero square is a normal float.
NORMAL_SQUARES = st.one_of(st.just(0.0), st.floats(1e-150, 1e150), st.floats(-1e150, -1e-150))


def _shapes(d_max):
    return st.tuples(st.integers(1, 8), st.integers(1, 4), st.integers(1, d_max))


@SETTINGS
@given(st.data())
def test_root_equals_norm_bitwise_for_short_rows(data):
    shape = data.draw(_shapes(2))
    x = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=True, allow_infinity=True)))
    with np.errstate(over="ignore", invalid="ignore"):  # squares of huge entries overflow to inf in both
        assert np.array_equal(np.sqrt(sum_squares(x)), np.linalg.norm(x, axis=-1), equal_nan=True)


@SETTINGS
@given(st.data())
def test_root_equals_norm_within_four_ulp(data):
    shape = data.draw(_shapes(4))
    x = data.draw(hnp.arrays(np.float64, shape, elements=NORMAL_SQUARES))
    root, norm = np.sqrt(sum_squares(x)), np.linalg.norm(x, axis=-1)
    assert root.shape == norm.shape == shape[:2]
    assert np.all(np.abs(root - norm) <= 4 * np.spacing(norm))


@SETTINGS
@given(st.data())
def test_root_equals_norm_bitwise_for_rows_of_three_and_four(data):
    # the squared columns are added in the order np.linalg.norm adds them
    shape = data.draw(st.tuples(st.integers(1, 8), st.integers(1, 4), st.integers(3, 4)))
    x = data.draw(hnp.arrays(np.float64, shape, elements=NORMAL_SQUARES))
    assert np.array_equal(np.sqrt(sum_squares(x)), np.linalg.norm(x, axis=-1))


@SETTINGS
@given(st.data())
def test_non_finite_entries_propagate_like_the_norm(data):
    shape = data.draw(_shapes(4))
    x = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    flat = x.reshape(-1)
    for _ in range(data.draw(st.integers(1, 3))):
        flat[data.draw(st.integers(0, flat.size - 1))] = data.draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    root, norm = np.sqrt(sum_squares(x)), np.linalg.norm(x, axis=-1)
    assert np.array_equal(np.isnan(root), np.isnan(norm))
    assert np.array_equal(np.isinf(root), np.isinf(norm))


@SETTINGS
@given(st.data())
def test_distance_to_point_mass_matches_moment_root_of_norms(data):
    shape = data.draw(st.tuples(st.integers(1, 64), st.integers(1, 4)))
    pts = data.draw(hnp.arrays(np.float64, shape, elements=NORMAL_SQUARES))
    norms = np.linalg.norm(pts, axis=1)
    for p in (1, 2):
        reference = float(np.mean(norms**p) ** (1.0 / p))
        assert abs(wasserstein_to_delta(ParticleCloud(pts), p) - reference) <= 1e-14 * reference


@SETTINGS
@given(st.data())
def test_max_abs_equals_the_trailing_axis_reduction_bitwise(data):
    shape = data.draw(_shapes(4))
    x = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=True, allow_infinity=True)))
    assert np.array_equal(max_abs(x), np.abs(x).max(axis=-1), equal_nan=True)


@SETTINGS
@given(st.data())
def test_column_max_equals_the_particle_axis_reduction_bitwise(data):
    shape = data.draw(st.tuples(st.integers(1, 64), st.integers(1, 4)))
    x = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=True, allow_infinity=True)))
    for block in (x, x[:, 0]):
        got, want = np.atleast_1d(column_max(block)), np.atleast_1d(np.max(block, axis=0))
        nan = np.isnan(want)
        assert got.shape == want.shape and np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))  # signed zeros too
