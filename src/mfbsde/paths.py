"""Time grids and Brownian particle ensembles.

Noise is drawn from a counter-based Philox stream so that the increments of
particle ``i`` depend only on ``(seed, i, M, d)`` and never on the ensemble
size: growing ``N`` appends particles without reshuffling existing paths,
which keeps refinement studies comparable.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

_HEADER = struct.Struct("<qqqq")  # N, M, d, seed (little-endian int64)


class PathsError(ValueError):
    """Invalid grid or ensemble construction."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_M = T."""

    horizon: float
    steps: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise PathsError(f"horizon must be finite and positive, got {self.horizon}")
        if self.steps < 1:
            raise PathsError(f"need at least one step, got {self.steps}")
        nodes = np.linspace(0.0, self.horizon, self.steps + 1)
        if not np.all(np.diff(nodes) > 0.0):
            raise PathsError("grid nodes are not strictly increasing at this resolution")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def dt(self) -> float:
        return self.horizon / self.steps


def build_grid(horizon: float, steps: int) -> TimeGrid:
    """Validated uniform grid with ``steps`` intervals on [0, horizon]."""
    return TimeGrid(float(horizon), int(steps))


class PathEnsemble:
    """N Brownian paths on a grid, stored as per-step increments (N, M, d)."""

    def __init__(
        self,
        grid: TimeGrid,
        increments: np.ndarray,
        seed: int,
    ) -> None:
        increments = np.asarray(increments, dtype=np.float64)
        if increments.ndim != 3:
            raise PathsError(f"increments must be (N, M, d), got shape {increments.shape}")
        if increments.shape[1] != grid.steps:
            raise PathsError(
                f"increment count {increments.shape[1]} does not match grid steps {grid.steps}"
            )
        if not np.isfinite(increments).all():
            raise PathsError("increments contain non-finite values")
        self.grid = grid
        self.increments = increments
        self.seed = int(seed)
        self._cumulative: np.ndarray | None = None

    @property
    def particles(self) -> int:
        return self.increments.shape[0]

    @property
    def dimension(self) -> int:
        return self.increments.shape[2]

    def _paths(self) -> np.ndarray:
        if self._cumulative is None:
            n, m, d = self.increments.shape
            out = np.zeros((n, m + 1, d))
            np.cumsum(self.increments, axis=1, out=out[:, 1:, :])
            out.setflags(write=False)
            self._cumulative = out
        return self._cumulative

    def brownian_at(self, k: int) -> np.ndarray:
        """Brownian values W_{t_k} as an (N, d) array."""
        if not 0 <= k <= self.grid.steps:
            raise IndexError(f"node index {k} outside [0, {self.grid.steps}]")
        return self._paths()[:, k, :]

    def terminal(self) -> np.ndarray:
        return self.brownian_at(self.grid.steps)


def sample_brownian(
    grid: TimeGrid,
    particles: int,
    dimension: int,
    seed: int,
) -> PathEnsemble:
    """Draw an ensemble of Brownian increments."""
    if particles < 1 or dimension < 1:
        raise PathsError("particles and dimension must be positive")
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    incs = gen.standard_normal((particles, grid.steps, dimension)) * np.sqrt(grid.dt)
    return PathEnsemble(grid, incs, seed)


def coarsen(ensemble: PathEnsemble, factor: int) -> PathEnsemble:
    """Aggregate increments onto a grid with ``factor`` fewer steps.

    The coarse ensemble visits exactly the same Brownian values at shared
    nodes, so solver output across resolutions differs only by the scheme.
    """
    m = ensemble.grid.steps
    if factor < 1 or m % factor != 0:
        raise PathsError(f"factor {factor} does not divide step count {m}")
    if factor == 1:
        return ensemble
    coarse_grid = build_grid(ensemble.grid.horizon, m // factor)
    n, _, d = ensemble.increments.shape
    incs = ensemble.increments.reshape(n, m // factor, factor, d).sum(axis=2)
    return PathEnsemble(coarse_grid, incs, ensemble.seed)


def dump_ensemble(ensemble: PathEnsemble, path: str) -> None:
    """Write header {N, M, d, seed} then row-major float64 increments."""
    n, m, d = ensemble.increments.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(n, m, d, ensemble.seed))
        fh.write(np.ascontiguousarray(ensemble.increments).astype("<f8").tobytes())


def load_ensemble(path: str, grid: TimeGrid) -> PathEnsemble:
    """Read an ensemble dumped by :func:`dump_ensemble` onto ``grid``,
    checking the header (sizes >= 0, the grid's step count) and that the
    payload holds exactly the increments it announces."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise PathsError("truncated ensemble header")
        n, m, d, seed = _HEADER.unpack(head)
        if min(n, m, d) < 0:
            raise PathsError(f"corrupt ensemble header: particles={n} steps={m} dimension={d}")
        if m != grid.steps:
            raise PathsError(f"file has {m} steps, grid has {grid.steps}")
        payload = fh.read()
    expected = 8 * n * m * d
    if len(payload) < expected:
        raise PathsError(f"truncated ensemble payload: {len(payload)} of {expected} bytes")
    if len(payload) > expected:
        raise PathsError(f"ensemble payload has {len(payload) - expected} bytes past the announced increments")
    raw = np.frombuffer(payload, dtype="<f8")
    return PathEnsemble(grid, raw.reshape(n, m, d).astype(np.float64), seed)
