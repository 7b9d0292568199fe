import math

import numpy as np
import pytest

from mfbsde.measures import MeasureError, MeasureView, exp_moment


def test_distance_to_point_mass_is_moment_root():
    points = np.array([[3.0], [4.0]])
    view = MeasureView(points, points[:, :, None])
    for w in (view.w_y, view.w_z):
        assert w(p=1) == pytest.approx(3.5)
        assert w(p=2) == pytest.approx(math.sqrt(12.5))


def test_distance_scaling():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((50, 2))
    base = MeasureView(pts).w_y(p=2)
    scaled = MeasureView(3.0 * pts).w_y(p=2)
    assert scaled == pytest.approx(3.0 * base)


def test_exp_moment_matches_gaussian_mgf():
    rng = np.random.default_rng(12345)
    samples = rng.standard_normal(400_000)
    m = exp_moment(samples, q=1.0)
    assert m.value == pytest.approx(math.exp(0.5), rel=0.01)
    assert m.log_value == pytest.approx(0.5, abs=0.01)


def test_exp_moment_log_scale_authoritative():
    big = np.full(16, 800.0)
    m = exp_moment(big, q=1.0)
    assert math.isinf(m.value)
    assert m.log_value == pytest.approx(800.0)
    m2 = exp_moment(big, q=2.0)
    assert m2.log_value == pytest.approx(1600.0)


def test_measure_view_caches_and_flattens():
    y = np.arange(6, dtype=float).reshape(3, 2)
    z = np.arange(12, dtype=float).reshape(3, 2, 2)
    view = MeasureView(y, z)
    assert view.z_points.shape == (3, 4)
    np.testing.assert_allclose(view.mean_y(), y.mean(axis=0))
    assert view.w_y() == view.w_y()  # cached, deterministic
    expected = math.sqrt(np.mean(np.sum(y**2, axis=1)))
    assert view.w_y(p=2) == pytest.approx(expected)


def test_measure_view_distances_reuse_the_checked_points(monkeypatch):
    # the finiteness check runs once per cloud, when the view is built; a
    # distance query computes from the checked points without another
    import mfbsde.measures as measures

    rng = np.random.default_rng(5)
    y, z = rng.standard_normal((64, 2)), rng.standard_normal((64, 2, 2))
    checks = []
    real = measures._as_cloud
    monkeypatch.setattr(measures, "_as_cloud", lambda pts: checks.append(1) or real(pts))
    view = MeasureView(y, z)
    assert len(checks) == 2
    values = {(tag, p): getattr(view, tag)(p) for tag in ("w_y", "w_z") for p in (1, 2)}
    assert len(checks) == 2
    for (tag, p), value in values.items():
        points = y if tag == "w_y" else z.reshape(64, -1)
        assert value == MeasureView(points).w_y(p)


def test_measure_view_without_z():
    view = MeasureView(np.ones((4, 1)))
    with pytest.raises(MeasureError):
        view.w_z()


def test_rejects_non_finite_points():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(MeasureError, match="non-finite"):
            MeasureView(np.array([[bad]]))
        with pytest.raises(MeasureError, match="non-finite"):
            MeasureView(np.zeros((1, 1)), np.array([[[bad]]]))


def test_a_one_axis_cloud_is_one_column():
    assert MeasureView(np.array([3.0, 4.0])).w_y(2) == MeasureView(np.array([[3.0], [4.0]])).w_y(2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MeasureView(np.zeros((4, 2, 1))), r"cloud must be \(N, m\), got shape \(4, 2, 1\)"),
        (lambda: MeasureView(np.zeros((0, 1))), r"cloud must be \(N, m\), got shape \(0, 1\)"),
        (lambda: MeasureView(np.zeros((4, 1))).w_y(3), "order must be 1 or 2, got 3"),
        (lambda: MeasureView(np.zeros((4, 1)), np.zeros((4, 1, 1))).w_z(0), "order must be 1 or 2, got 0"),
        (lambda: MeasureView(np.zeros((4, 1)), np.zeros((3, 1, 1))), "Y and Z clouds must pair particle by particle"),
        (lambda: MeasureView.of_checked(np.zeros((4, 1)), np.zeros((3, 2))), "must pair particle by particle"),
    ],
    ids=["three-axis", "empty", "w_y-order-3", "w_z-order-0", "unpaired", "unpaired-checked"],
)
def test_measure_view_refusals(call, message):
    with pytest.raises(MeasureError, match=message):
        call()
