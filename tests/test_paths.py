import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbsde import paths as paths_module
from mfbsde.paths import (
    PathEnsemble,
    PathsError,
    TimeGrid,
    build_grid,
    coarsen,
    dump_ensemble,
    is_count,
    is_finite_real,
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


def test_grid_takes_an_integer_horizon_within_float_range_only():
    assert TimeGrid(10**20, 4).nodes[-1] == 1e20
    with pytest.raises(PathsError, match="horizon must be a finite positive number"):
        TimeGrid(10**400, 4)


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


@pytest.mark.parametrize("factor", [True, 2.0, 0, -2])
def test_coarsen_names_a_factor_that_is_no_count(factor):
    # True used to coarsen as factor 1, and 2.0 to blame the coarse grid
    ens = sample_brownian(build_grid(1.0, 8), 4, 1, seed=1)
    with pytest.raises(PathsError, match=rf"^factor must be an integer >= 1, got {factor!r}$"):
        coarsen(ens, factor)


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


@pytest.mark.parametrize("shape", [(0, 4, 2), (3, 4, 0)])
def test_an_empty_ensemble_is_refused(tmp_path, shape):
    # it used to load, and a theta solve on it then died inside numpy
    import struct

    with pytest.raises(PathsError, match="N, d >= 1"):
        PathEnsemble(build_grid(1.0, 4), np.zeros(shape), 0)
    target = tmp_path / "paths.bin"
    target.write_bytes(struct.pack("<qqqq", *shape, 0))
    with pytest.raises(PathsError, match="corrupt ensemble header"):
        load_ensemble(str(target), build_grid(1.0, 4))


def test_a_brownian_sum_that_overflows_is_refused_at_its_first_node(tmp_path):
    # finite increments whose sum overflows used to give W = inf with only a
    # RuntimeWarning; the solve was refused later, at that node's factoring
    import struct

    grid = build_grid(1.0, 4)
    with pytest.raises(PathsError, match="^the Brownian values at node 2 overflow float64$"):
        PathEnsemble(grid, np.full((3, 4, 1), 1e308), 0)
    increments = np.zeros((3, 4, 2))
    increments[1, 2:, 1] = 1e308
    with pytest.raises(PathsError, match="^the Brownian values at node 4 overflow float64$"):
        PathEnsemble(grid, increments, 0)
    target = tmp_path / "paths.bin"
    target.write_bytes(struct.pack("<qqqq", 3, 4, 2, 0) + increments.astype("<f8").tobytes())
    with pytest.raises(PathsError, match="node 4 overflow"):
        load_ensemble(str(target), grid)


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


# Node-major storage: increments live in an (M, N, d) buffer and the paths
# in an (M+1, N, d) one; ``increments`` is the (N, M, d) view. The noise is
# drawn in particle blocks of ``paths._BLOCK``.


def _one_draw(grid, particles, dimension, seed):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return gen.standard_normal((particles, grid.steps, dimension)) * np.sqrt(grid.dt)


def _same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def _assert_node_slices_contiguous(ens):
    assert all(ens.increments[:, k].flags.c_contiguous for k in range(ens.grid.steps))
    assert all(ens.brownian_at(k).flags.c_contiguous for k in range(ens.grid.steps + 1))


@pytest.mark.parametrize("particles", [1, 1023, 1024, 1025, 3 * 1024 + 5])
@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_block_draws_equal_one_draw_bitwise(particles, dimension):
    grid = build_grid(0.7, 5)
    ens = sample_brownian(grid, particles, dimension, seed=31)
    assert _same_bits(ens.increments, _one_draw(grid, particles, dimension, 31))
    _assert_node_slices_contiguous(ens)


@settings(max_examples=40, deadline=None)
@given(
    particles=st.integers(1, 60),
    steps=st.integers(1, 6),
    dimension=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 16),
)
def test_block_draws_equal_one_draw_for_any_block_size(particles, steps, dimension, seed, block):
    grid = build_grid(1.0, steps)
    with mock.patch.object(paths_module, "_BLOCK", block):
        ens = sample_brownian(grid, particles, dimension, seed=seed)
    assert _same_bits(ens.increments, _one_draw(grid, particles, dimension, seed))


def test_brownian_values_equal_the_particle_major_cumsum_bitwise():
    grid = build_grid(1.0, 16)
    ens = sample_brownian(grid, 1500, 2, seed=8)
    cumulative = np.cumsum(np.ascontiguousarray(ens.increments), axis=1)
    assert _same_bits(ens.brownian_at(0), np.zeros((1500, 2)))
    for k in range(1, grid.steps + 1):
        assert _same_bits(ens.brownian_at(k), cumulative[:, k - 1])


def test_node_slices_contiguous_after_load_coarsen_and_particle_major_input(tmp_path):
    grid = build_grid(1.0, 8)
    ens = sample_brownian(grid, 700, 2, seed=4)
    dump_ensemble(ens, str(tmp_path / "paths.bin"))
    rebuilt = PathEnsemble(grid, np.ascontiguousarray(ens.increments), 4)
    for other in (load_ensemble(str(tmp_path / "paths.bin"), grid), coarsen(ens, 2), rebuilt):
        _assert_node_slices_contiguous(other)
    assert _same_bits(rebuilt.increments, ens.increments)
    assert all(_same_bits(rebuilt.brownian_at(k), ens.brownian_at(k)) for k in range(grid.steps + 1))
    # a view of a node-major buffer is kept, not copied
    assert np.shares_memory(PathEnsemble(grid, ens.increments, 4).increments, ens.increments)


def test_dump_writes_particle_major_bytes(tmp_path):
    grid = build_grid(0.5, 6)
    ens = sample_brownian(grid, 300, 3, seed=42)
    dump_ensemble(ens, str(tmp_path / "view.bin"))
    dump_ensemble(PathEnsemble(grid, np.ascontiguousarray(ens.increments), 42), str(tmp_path / "copy.bin"))
    payload = (tmp_path / "view.bin").read_bytes()
    assert payload == (tmp_path / "copy.bin").read_bytes()
    assert payload[32:] == np.ascontiguousarray(ens.increments).astype("<f8").tobytes()


def test_dump_writes_the_tobytes_layout_from_one_copy(tmp_path):
    # the payload used to go through tobytes(), a second full copy of the
    # increments next to the particle-major one
    grid = build_grid(1.0, 32)
    ens = sample_brownian(grid, 4000, 2, seed=8)
    particle_major = np.ascontiguousarray(ens.increments, dtype="<f8")
    tracemalloc.start()
    try:
        dump_ensemble(ens, str(tmp_path / "paths.bin"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * particle_major.nbytes
    header = paths_module._HEADER.pack(4000, 32, 2, 8)
    assert (tmp_path / "paths.bin").read_bytes() == header + particle_major.tobytes()


@pytest.mark.parametrize("dimension, factor", [(1, 2), (1, 8), (2, 4), (3, 16)])
def test_coarsen_equals_the_particle_major_reduction_bitwise(dimension, factor):
    # d = 1 with factor >= 8 sums pairwise in numpy, not in sequence
    grid = build_grid(1.0, 32)
    fine = sample_brownian(grid, 2100, dimension, seed=13)
    coarse = coarsen(fine, factor)
    particle_major = np.ascontiguousarray(fine.increments).reshape(2100, 32 // factor, factor, dimension)
    assert _same_bits(coarse.increments, particle_major.sum(axis=2))


def test_sampling_keeps_no_extra_ensemble_sized_buffer():
    # peak of the draw and the first path build: the increments, the paths
    # and one draw block, plus 10%
    particles, steps, dimension = 5000, 32, 2
    grid = build_grid(1.0, steps)
    bound = 8 * dimension * (particles * steps + particles * (steps + 1) + paths_module._BLOCK * steps)
    tracemalloc.start()
    try:
        ens = sample_brownian(grid, particles, dimension, seed=5)
        ens.brownian_at(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * bound


@pytest.mark.parametrize("value", [0, -3, 2.5, np.float64(1e300), 10**300])
def test_finite_real_accepts_ints_and_finite_floats(value):
    assert is_finite_real(value)


@pytest.mark.parametrize("value", [True, float("inf"), float("nan"), 10**400, -(10**400), "1.0", None, 1j])
def test_finite_real_refuses_bools_non_finite_and_ints_beyond_float_range(value):
    assert not is_finite_real(value)


def test_count_is_an_int_of_at_least_its_bound():
    assert is_count(0, 0) and is_count(10**400, 1) and is_count(np.int64(3), 3)
    assert not any(is_count(v, 1) for v in (0, True, 1.0, "1", None))


def test_a_horizon_too_small_to_split_is_refused():
    with pytest.raises(PathsError, match="grid nodes are not strictly increasing at this resolution"):
        build_grid(5e-324, 2)


@pytest.mark.parametrize(
    "increments, message",
    [
        (np.zeros((3, 5, 1)), "increment count 5 does not match grid steps 4"),
        (np.where(np.arange(12).reshape(3, 4, 1) == 7, np.nan, 0.0), "increments contain non-finite values"),
    ],
    ids=["step-count", "non-finite"],
)
def test_an_ensemble_refuses_increments_that_do_not_fit_its_grid(increments, message):
    with pytest.raises(PathsError, match=message):
        PathEnsemble(build_grid(1.0, 4), increments, 0)


def test_coarsen_by_one_returns_the_ensemble():
    ens = sample_brownian(build_grid(1.0, 4), 8, 1, seed=1)
    assert coarsen(ens, 1) is ens


def test_load_refuses_a_truncated_header(tmp_path):
    target = tmp_path / "paths.bin"
    target.write_bytes(b"\x00" * 7)
    with pytest.raises(PathsError, match="truncated ensemble header"):
        load_ensemble(str(target), build_grid(1.0, 4))
