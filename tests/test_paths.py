import numpy as np
import pytest

from mfbsde.paths import (
    PathsError,
    TimeGrid,
    build_grid,
    coarsen,
    dump_ensemble,
    load_ensemble,
    sample_brownian,
)


def test_grid_nodes_and_dt():
    grid = build_grid(2.0, 8)
    assert grid.dt == pytest.approx(0.25)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == 2.0
    assert len(grid.nodes) == 9


def test_grid_rejects_bad_inputs():
    with pytest.raises(PathsError):
        build_grid(-1.0, 4)
    with pytest.raises(PathsError):
        build_grid(1.0, 0)


def test_increment_statistics():
    grid = build_grid(1.0, 16)
    ens = sample_brownian(grid, 60_000, 2, seed=123)
    inc = ens.increments
    assert inc.shape == (60_000, 16, 2)
    assert abs(inc.mean()) < 3e-4
    assert inc.var() == pytest.approx(grid.dt, rel=0.01)
    # terminal variance matches the horizon
    assert ens.terminal().var(axis=0) == pytest.approx([1.0, 1.0], rel=0.05)


def test_particle_prefix_stable_under_ensemble_growth():
    grid = build_grid(1.0, 8)
    small = sample_brownian(grid, 100, 3, seed=7)
    large = sample_brownian(grid, 1000, 3, seed=7)
    np.testing.assert_array_equal(small.increments, large.increments[:100])


def test_cross_particle_independence_surrogate():
    grid = build_grid(1.0, 4)
    ens = sample_brownian(grid, 40_000, 1, seed=99)
    w = ens.terminal()[:, 0]
    even, odd = w[0::2], w[1::2]
    corr = np.corrcoef(even, odd)[0, 1]
    assert abs(corr) < 0.02


def test_brownian_at_accumulates():
    grid = build_grid(1.0, 4)
    ens = sample_brownian(grid, 10, 2, seed=5)
    np.testing.assert_array_equal(ens.brownian_at(0), np.zeros((10, 2)))
    manual = ens.increments[:, :3, :].sum(axis=1)
    np.testing.assert_allclose(ens.brownian_at(3), manual, atol=1e-15)
    with pytest.raises(IndexError):
        ens.brownian_at(5)


def test_coarsen_preserves_brownian_values():
    grid = build_grid(1.0, 32)
    fine = sample_brownian(grid, 50, 2, seed=11)
    coarse = coarsen(fine, 4)
    assert coarse.grid.steps == 8
    # coarse nodes sit on fine nodes and carry identical values
    np.testing.assert_allclose(coarse.brownian_at(3), fine.brownian_at(12), atol=1e-14)
    np.testing.assert_allclose(coarse.terminal(), fine.terminal(), atol=1e-14)


def test_coarsen_requires_divisible_factor():
    grid = build_grid(1.0, 10)
    ens = sample_brownian(grid, 4, 1, seed=1)
    with pytest.raises(PathsError):
        coarsen(ens, 3)


def test_dump_load_roundtrip(tmp_path):
    grid = build_grid(0.5, 6)
    ens = sample_brownian(grid, 20, 2, seed=42)
    target = tmp_path / "paths.bin"
    dump_ensemble(ens, str(target))
    back = load_ensemble(str(target), grid)
    np.testing.assert_array_equal(back.increments, ens.increments)
    assert back.seed == ens.seed


def test_load_rejects_mismatched_grid(tmp_path):
    grid = build_grid(0.5, 6)
    ens = sample_brownian(grid, 20, 2, seed=42)
    target = tmp_path / "paths.bin"
    dump_ensemble(ens, str(target))
    with pytest.raises(PathsError):
        load_ensemble(str(target), build_grid(0.5, 12))


def test_load_rejects_negative_header_sizes(tmp_path):
    # (-1, 4, -2) multiplies to the 8 floats that follow, so only the sign
    # check stops it
    import struct

    target = tmp_path / "paths.bin"
    target.write_bytes(struct.pack("<qqqq", -1, 4, -2, 0) + np.zeros(8).tobytes())
    with pytest.raises(PathsError, match="corrupt ensemble header"):
        load_ensemble(str(target), build_grid(1.0, 4))


def test_load_reports_long_and_short_payloads(tmp_path):
    grid = build_grid(0.5, 6)
    target = tmp_path / "paths.bin"
    dump_ensemble(sample_brownian(grid, 20, 2, seed=42), str(target))
    good = target.read_bytes()
    target.write_bytes(good + bytes(8))
    with pytest.raises(PathsError, match="8 bytes past the announced increments"):
        load_ensemble(str(target), grid)
    target.write_bytes(good[:-8])
    with pytest.raises(PathsError, match="truncated ensemble payload"):
        load_ensemble(str(target), grid)
