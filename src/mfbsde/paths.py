"""Time grids and Brownian particle ensembles.

The increments of particle ``i`` depend only on ``(seed, i, M, d)``, never
on the ensemble size, so growing ``N`` appends particles and keeps the
existing paths. They are bitwise equal to ``standard_normal((N, M, d)) *
sqrt(dt)`` from the seed's Philox stream.

An ensemble is stored node-major: increments in an (M, N, d) buffer and
the Brownian values in an (M+1, N, d) one, so the node slices W_{t_k} and
dW_k are contiguous (N, d) blocks. ``PathEnsemble.increments`` is the
(N, M, d) axis-swapped view. Sampling needs one particle block of scratch
memory beyond these two buffers. Both file formats are particle-major.
"""
from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, field

import numpy as np

_HEADER = struct.Struct("<qqqq")  # N, M, d, seed (little-endian int64)
_BLOCK = 1024  # particles per draw block


class PathsError(ValueError):
    """Invalid grid or ensemble construction."""


def is_finite_real(value) -> bool:
    """Whether a number from outside is a real, not a bool, and finite as a
    float64; an int beyond float range is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def is_count(value, least: int) -> bool:
    """Whether a number from outside is an int, not a bool, of at least
    ``least``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_M = T.

    Raises :class:`PathsError` unless the horizon is a finite positive real
    number (an int will do) and ``steps`` an int >= 1; a bool is neither.
    """

    horizon: float
    steps: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_finite_real(self.horizon) or self.horizon <= 0.0:
            raise PathsError(f"horizon must be a finite positive number, got {self.horizon!r}")
        if not is_count(self.steps, 1):
            raise PathsError(f"steps must be an integer >= 1, got {self.steps!r}")
        nodes = np.linspace(0.0, float(self.horizon), self.steps + 1)
        if not np.all(np.diff(nodes) > 0.0):
            raise PathsError("grid nodes are not strictly increasing at this resolution")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps


def build_grid(horizon: float, steps: int) -> TimeGrid:
    """Validated uniform grid with ``steps`` intervals on [0, horizon]."""
    return TimeGrid(horizon, steps)


def require_grid(grid: TimeGrid, ensemble: "PathEnsemble", owner: str) -> None:
    """Raise ``ValueError`` naming both grids unless ``grid`` equals the
    ensemble's (the same horizon and step count); ``owner`` says whose grid
    it is."""
    if grid != ensemble.grid:
        raise ValueError(f"{owner} grid {grid!r} is not the ensemble's grid {ensemble.grid!r}")


class PathEnsemble:
    """N Brownian paths on a grid: per-step increments and their sums.

    ``increments`` has shape (N, M, d) and is a view of a node-major
    (M, N, d) buffer, so ``increments[:, k]`` is C-contiguous. Any finite
    (N, M, d) array with N, d >= 1 is accepted; it is copied into a
    node-major buffer unless it already is a view of one. The read-only
    node-major (M+1, N, d) Brownian values are built here, with the
    additions of a cumulative sum in its order, and a sum that overflows
    raises :class:`PathsError` naming its node; ``brownian_at(k)`` returns
    row k. The ensemble also keeps its node-factor table per regression
    basis (see ``mfbsde.condexp.FactorTable.of``).
    """

    def __init__(
        self,
        grid: TimeGrid,
        increments: np.ndarray,
        seed: int,
    ) -> None:
        increments = np.asarray(increments, dtype=np.float64)
        if increments.ndim != 3 or min(increments.shape[0], increments.shape[2]) < 1:
            raise PathsError(f"increments must be (N, M, d) with N, d >= 1, got shape {increments.shape}")
        if increments.shape[1] != grid.steps:
            raise PathsError(
                f"increment count {increments.shape[1]} does not match grid steps {grid.steps}"
            )
        node_major = np.ascontiguousarray(increments.swapaxes(0, 1))
        if not np.isfinite(node_major).all():
            raise PathsError("increments contain non-finite values")
        self.grid = grid
        self.increments = node_major.swapaxes(0, 1)
        self.seed = int(seed)
        w = np.empty((grid.steps + 1,) + node_major.shape[1:])
        w[0] = 0.0
        w[1] = node_major[0]
        with np.errstate(over="raise"):
            for k in range(1, grid.steps):
                try:
                    np.add(w[k], node_major[k], out=w[k + 1])
                except FloatingPointError:
                    raise PathsError(f"the Brownian values at node {k + 1} overflow float64") from None
        w.setflags(write=False)
        self._w = w
        self._factor_tables: dict = {}  # filled by condexp.FactorTable.of

    @property
    def particles(self) -> int:
        return self.increments.shape[0]

    @property
    def dimension(self) -> int:
        return self.increments.shape[2]

    def brownian_at(self, k: int) -> np.ndarray:
        """Brownian values W_{t_k} as a C-contiguous (N, d) array."""
        if not 0 <= k <= self.grid.steps:
            raise IndexError(f"node index {k} outside [0, {self.grid.steps}]")
        return self._w[k]

    def terminal(self) -> np.ndarray:
        return self.brownian_at(self.grid.steps)


def _by_blocks(steps: int, particles: int, dimension: int, fill) -> np.ndarray:
    """The (N, M, d) view of a node-major buffer filled one particle block at
    a time: ``fill(lo, block)`` writes particles lo, lo + 1, ... into a
    reused C-contiguous (b, M, d) block, b <= ``_BLOCK``, which is then
    copied into place. Scratch memory is one block."""
    out = np.empty((steps, particles, dimension))
    block = np.empty((min(particles, _BLOCK), steps, dimension))
    for lo in range(0, particles, _BLOCK):
        part = block[: min(_BLOCK, particles - lo)]
        fill(lo, part)
        for e in range(dimension):  # a copy strided over d is slower
            out[:, lo : lo + len(part), e] = part[:, :, e].T
    return out.swapaxes(0, 1)


def sample_brownian(
    grid: TimeGrid,
    particles: int,
    dimension: int,
    seed: int,
) -> PathEnsemble:
    """Draw an ensemble of Brownian increments, bitwise equal to
    ``standard_normal((N, M, d)) * sqrt(dt)`` from the seed's Philox stream,
    in blocks of particles. Raises :class:`PathsError` unless particles and
    dimension are ints >= 1 and the seed an int >= 0; a bool is none."""
    counts = {"particles": (particles, 1), "dimension": (dimension, 1), "seed": (seed, 0)}
    bad = [f"{k}={v!r}" for k, (v, least) in counts.items() if not is_count(v, least)]
    if bad:
        raise PathsError(f"bad ensemble argument(s): {', '.join(bad)}")
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    scale = np.sqrt(grid.dt)

    def draw(lo: int, block: np.ndarray) -> None:
        gen.standard_normal(out=block)
        block *= scale

    return PathEnsemble(grid, _by_blocks(grid.steps, particles, dimension, draw), seed)


def coarsen(ensemble: PathEnsemble, factor: int) -> PathEnsemble:
    """Aggregate increments onto a grid with ``factor`` fewer steps.

    The coarse ensemble visits exactly the same Brownian values at shared
    nodes, so solver output across resolutions differs only by the scheme.
    Raises :class:`PathsError` naming the factor unless it is an int >= 1,
    not a bool, that divides the step count.
    """
    if not is_count(factor, 1):
        raise PathsError(f"factor must be an integer >= 1, got {factor!r}")
    m = ensemble.grid.steps
    if m % factor != 0:
        raise PathsError(f"factor {factor} does not divide step count {m}")
    if factor == 1:
        return ensemble
    coarse_grid = build_grid(ensemble.grid.horizon, m // factor)
    n, _, d = ensemble.increments.shape

    def aggregate(lo: int, block: np.ndarray) -> None:
        # sum a particle-major copy, so the additions run in the order of the
        # particle-major reduction (pairwise for d = 1)
        fine = np.ascontiguousarray(ensemble.increments[lo : lo + len(block)])
        np.sum(fine.reshape(len(block), m // factor, factor, d), axis=2, out=block)

    return PathEnsemble(coarse_grid, _by_blocks(m // factor, n, d, aggregate), ensemble.seed)


def dump_ensemble(ensemble: PathEnsemble, path: str) -> None:
    """Write header {N, M, d, seed} then the (N, M, d) increments as
    row-major (particle-major) little-endian float64."""
    n, m, d = ensemble.increments.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(n, m, d, ensemble.seed))
        fh.write(np.ascontiguousarray(ensemble.increments, dtype="<f8").tobytes())


def load_ensemble(path: str, grid: TimeGrid) -> PathEnsemble:
    """Read an ensemble dumped by :func:`dump_ensemble` onto ``grid``,
    checking the header (at least one particle and dimension, the grid's
    step count) and that the payload holds exactly the increments it
    announces."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise PathsError("truncated ensemble header")
        n, m, d, seed = _HEADER.unpack(head)
        if min(n, d) < 1:
            raise PathsError(f"corrupt ensemble header: particles={n} steps={m} dimension={d}")
        if m != grid.steps:
            raise PathsError(f"file has {m} steps, grid has {grid.steps}")
        payload = fh.read()
    expected = 8 * n * m * d
    if len(payload) < expected:
        raise PathsError(f"truncated ensemble payload: {len(payload)} of {expected} bytes")
    if len(payload) > expected:
        raise PathsError(f"ensemble payload has {len(payload) - expected} bytes past the announced increments")
    raw = np.frombuffer(payload, dtype="<f8").reshape(n, m, d)
    node_major = np.array(raw.swapaxes(0, 1), dtype=np.float64, order="C")
    return PathEnsemble(grid, node_major.swapaxes(0, 1), seed)
