import math

import numpy as np
import pytest

from mfbsde.measures import (
    MeasureError,
    MeasureView,
    ParticleCloud,
    exact_wasserstein_small,
    exp_moment,
    moment,
    paired_distance,
    wasserstein_to_delta,
)


def cloud(*rows):
    return ParticleCloud(np.array(rows, dtype=float))


def test_distance_to_point_mass_is_moment_root():
    c = cloud([3.0], [4.0])
    assert wasserstein_to_delta(c, p=1) == pytest.approx(3.5)
    assert wasserstein_to_delta(c, p=2) == pytest.approx(math.sqrt(12.5))


def test_distance_scaling():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((50, 2))
    base = wasserstein_to_delta(ParticleCloud(pts), p=2)
    scaled = wasserstein_to_delta(ParticleCloud(3.0 * pts), p=2)
    assert scaled == pytest.approx(3.0 * base)


def test_paired_distance_triangle_inequality():
    rng = np.random.default_rng(1)
    a = ParticleCloud(rng.standard_normal((30, 1)))
    b = ParticleCloud(rng.standard_normal((30, 1)))
    c = ParticleCloud(rng.standard_normal((30, 1)))
    ab = paired_distance(a, b)
    bc = paired_distance(b, c)
    ac = paired_distance(a, c)
    assert ac <= ab + bc + 1e-12


def test_paired_distance_overestimates_true_coupling():
    # swapping labels costs the paired coupling 1 while the optimal
    # transport between identical clouds is free
    a = cloud([0.0], [1.0])
    b = cloud([1.0], [0.0])
    assert paired_distance(a, b, p=1) == pytest.approx(1.0)
    assert exact_wasserstein_small(a, b, p=1) == pytest.approx(0.0, abs=1e-15)


def test_exact_wasserstein_sorted_coupling():
    a = cloud([0.0], [2.0])
    b = cloud([1.0], [3.0])
    assert exact_wasserstein_small(a, b, p=1) == pytest.approx(1.0)
    assert exact_wasserstein_small(a, b, p=2) == pytest.approx(1.0)


def test_exact_wasserstein_size_guard():
    pts = np.zeros((9, 1))
    with pytest.raises(MeasureError):
        exact_wasserstein_small(ParticleCloud(pts), ParticleCloud(pts))


def test_moment_applies_function():
    c = cloud([1.0], [2.0], [3.0])
    assert moment(c, lambda x: float(x[0] ** 2)) == pytest.approx(14.0 / 3.0)


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
    assert view.has_z
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
        assert value == wasserstein_to_delta(ParticleCloud(points), p)


def test_measure_view_without_z():
    view = MeasureView(np.ones((4, 1)))
    assert not view.has_z
    with pytest.raises(MeasureError):
        view.w_z()


def test_rejects_non_finite_points():
    with pytest.raises(MeasureError):
        ParticleCloud(np.array([[np.nan]]))
