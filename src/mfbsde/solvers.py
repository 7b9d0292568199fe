"""Backward particle solvers: one backward kernel, Picard maps, stitching.

Every scheme runs the same backward kernel. It walks the nodes once and
carries all n components: Y as (N, n) and Z as (N, n, d). With E_k the
regression projection at node k,

    Z_k = E_k[(Y_{k+1} - E_k[Y_{k+1}]) dW_k^T] / dt,
    Y_k = E_k[Y_{k+1}] + (dt/2) (f(t_k, Z_k) + f(t_{k+1}, Z_{k+1})),

a trapezoidal driver quadrature whose O(dt^2) bias is what the acceptance
tolerances assume. A node visit takes E_k (a
:class:`mfbsde.condexp.NodeOperator`) from its caller's table and applies
it to Y_{k+1}, whose fit serves both the centering and Y_k, to the centered
increment products as a single (N, n d) block, and to every inner sweep.
Every node is factored once per table: ``local`` and ``global`` keep an
:class:`mfbsde.condexp.OperatorTable` per window, shared by every Picard
iteration, law refinement and halving retry of the window and by its BMO
norms, and dropped when the window is solved; a ``volterra`` solve keeps
one for its inner ``theta`` solve and its outer sweeps. ``theta`` keeps a
:class:`mfbsde.condexp.FactorTable` for the whole solve, which holds each
node's p x p factor and rebuilds its operator at each visit. A non-finite
Y or Z stops the kernel at the node where it appears with
:class:`SolverDivergence`.

A ``local`` or ``global`` window computes once what none of its Picard
iterations can change. The first node visit, k = k_hi - 1, reads only the
window terminal Y_{k_hi}, node k's operator and dW_k, so E_k[Y_{k_hi}], the
clipped Z_k and its clip count are computed once per :func:`solve_local`
call; every pass still adds the clip count. With one inner sweep every pass
writes exactly that Z_k, so from the second iteration on everything the
terminal driver value at t_{k_hi} reads is fixed: the frozen Y, other rows
and law clouds (the terminal and that Z_k) and the own rows (that Z_k). It
is evaluated once, from the first iterate. The first iteration freezes the
flat start, whose Z is zero, and extra inner sweeps re-extract a Z_k that
moves, so neither reuses it. A 1-node window, what ``global`` gets when
delta_kappa is below the grid step, then makes one driver call and no
projection per pass.

Every iterate is stored node-major: Y in a (K+1, N, n) buffer and Z in a
(K, N, n, d) one, so a node visit reads Y_{k+1} and writes Y_k and Z_k as
contiguous slices, and reads W_{t_k} and dW_k as contiguous slices of the
node-major :class:`mfbsde.paths.PathEnsemble`. :class:`Solution` shows the
iterates through the axis-swapped views of shape (N, K+1, n) and
(N, K, n, d), and per-sweep monitors are accumulated node by node rather
than over full-size temporaries.

In a diagonally quadratic system component i is free only in its own Z row
z^i. A node's driver values for all n components come from one driver
call: the kernel's Z goes in as the own rows and the frozen rows as the
driver's ``others`` (see :class:`mfbsde.generators.Evaluator`). Every
argument other than the own row is frozen by one policy:

- ``theta``: the other rows are zero; Y and the law come from the previous
  sweep.
- ``local`` and ``global``: Y, the other rows and the law come from the
  input iterate; during law refinements the law comes from ``law_source``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .condexp import FactorTable, NodeOperator, OperatorTable, RegressionEngine
from .constants import (
    GlobalConstants,
    global_ode,
    kappa_local_certificate,
    local_window,
    volterra_weight,
)
from .diagnostics import bmo_norm
from .generators import (
    CertificateConvex,
    CertificateLocal,
    CertificateVolterra,
    FixtureBundle,
    GeneratorSpec,
    GSpec,
)
from .measures import MeasureView, exp_moment, max_abs, sum_squares
from .paths import PathEnsemble, TimeGrid

NodeDriver = Callable[[int, float, np.ndarray], np.ndarray]


class SolverDivergence(RuntimeError):
    """Picard iteration failed to contract; carries the trace so far."""

    def __init__(self, message: str, trace: "PicardTrace | None" = None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-6
    max_iter: int = 40
    z_clip: float | None = None
    inner_sweeps: int = 1
    init_offset: float = 0.0
    law_refinements: int = 0


@dataclass
class Solution:
    """Discrete solution pair: Y is (N, K+1, n), Z is (N, K, n, d).

    The memory is node-major: Y and Z are axis-swapped views of (K+1, N, n)
    and (K, N, n, d) buffers, so each node slice ``sol.Y[:, k]`` and
    ``sol.Z[:, k]`` is C-contiguous. ``np.ascontiguousarray(sol.Y)`` gives a
    particle-major copy; the solution file format is unchanged (see
    :func:`dump_solution`).

    ``k_lo`` locates the first node inside ``grid`` so window solves can
    address global states; full-span solutions have k_lo = 0.
    """

    Y: np.ndarray
    Z: np.ndarray
    grid: TimeGrid
    k_lo: int = 0
    clip_events: int = 0

    @property
    def particles(self) -> int:
        return self.Y.shape[0]

    @property
    def components(self) -> int:
        return self.Y.shape[2]

    def y0(self) -> np.ndarray:
        """Node-zero value per component (particle mean of the fitted Y)."""
        return self.Y[:, 0, :].mean(axis=0)

    def node_times(self) -> np.ndarray:
        return self.grid.nodes[self.k_lo : self.k_lo + self.Y.shape[1]]


@dataclass
class PicardStep:
    iteration: int
    dy_sup: float
    dz_norm: float
    combined: float
    max_abs_y: float
    qv_sq: float | None = None
    in_ball_sup: bool | None = None
    in_ball_qv: bool | None = None
    monitors: dict = field(default_factory=dict)


@dataclass
class PicardTrace:
    steps: list[PicardStep] = field(default_factory=list)
    converged: bool = False
    note: str = ""

    def differences(self) -> np.ndarray:
        return np.array([s.combined for s in self.steps])

    def ratios(self) -> np.ndarray:
        d = self.differences()
        with np.errstate(divide="ignore", invalid="ignore"):
            r = d[1:] / d[:-1]
        return np.where(np.isfinite(r), r, 0.0)

    @property
    def iterations(self) -> int:
        return len(self.steps)


def _clip_rows(z: np.ndarray, radius: float | None) -> tuple[np.ndarray, int]:
    """Rescale rows whose norm exceeds the radius; count the events."""
    if radius is None or not math.isfinite(radius):
        return z, 0
    norms = np.sqrt(sum_squares(z))[..., None]
    over = norms > radius
    if not over.any():
        return z, 0
    scale = np.where(over, radius / np.maximum(norms, 1e-300), 1.0)
    return z * scale, int(over.sum())


def _by_particle(node_major: np.ndarray) -> np.ndarray:
    """The (N, K, ...) view of a node-major (K, N, ...) buffer."""
    return node_major.swapaxes(0, 1)


def _increment_fit(values: np.ndarray, fit: np.ndarray, op: NodeOperator, dw: np.ndarray, dt: float) -> np.ndarray:
    """E_k[(values - fit) dW^T] / dt as an (N, n, d) array, all n d products
    fitted as one block; ``fit`` is E_k[values], so the product is centered.
    Product (i, e) is written into column i d + e of the block, one column
    at a time."""
    n_part, n = values.shape
    d = dw.shape[1]
    centered = values - fit
    products = np.empty((n_part, n * d))
    for i in range(n):
        for e in range(d):
            np.multiply(centered[:, i], dw[:, e], out=products[:, i * d + e])
    products /= dt
    return op.apply(products).reshape(n_part, n, d)


def _check_finite(k: int, t: float, y: np.ndarray, z: np.ndarray) -> None:
    """Raise SolverDivergence naming node k and the first component whose
    Y (N, n) or Z (N, n, d) holds a non-finite value."""
    for name, values in (("Z", z), ("Y", y)):
        finite = np.isfinite(values)
        if not finite.all():
            i = int(np.argmin(finite.reshape(len(values), values.shape[1], -1).all(axis=(0, 2))))
            raise SolverDivergence(f"non-finite {name} at node {k} (t={t:.6g}) in component {i}")


def _node_fit(op: NodeOperator, values: np.ndarray, dw: np.ndarray, dt: float, radius: float | None):
    """(E_k[values], the clipped Z fitted from values (N, n, d), clip events)."""
    fit = op.apply(values)
    z, clips = _clip_rows(_increment_fit(values, fit, op, dw, dt), radius)
    return fit, z, clips


def _backward(
    grid: TimeGrid,
    paths: PathEnsemble,
    driver: NodeDriver,
    terminal: np.ndarray,
    operators: OperatorTable,
    opts: SolverOptions,
    k_lo: int,
    k_hi: int,
    head: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The backward kernel on nodes [k_lo, k_hi] for terminal values (N, n).

    ``driver(k, t, z)`` maps Z (N, n, d) at node k to driver values (N, n);
    it must accept k = k_hi, where the terminal-side quadrature point takes
    the Z of node k_hi - 1. Extra inner sweeps re-extract Z from the
    driver-corrected target, a damping that helps stiff quadratic
    coefficients. Node k's operator is ``operators[k]``. ``head``, when
    given, replaces what the first visit computes from the terminal:
    (E_{k_hi-1}[Y_{k_hi}], the clipped Z_{k_hi-1}, its clip events, and the
    terminal driver value, or None to evaluate it). Returns (Y (N, K+1, n),
    Z (N, K, n, d), clip events), views of node-major buffers.
    """
    if not 0 <= k_lo < k_hi <= grid.steps:
        raise ValueError(f"bad node range [{k_lo}, {k_hi}]")
    n_part, n = terminal.shape
    if n_part != paths.particles:
        raise ValueError("terminal values must have one entry per particle")
    span, dt = k_hi - k_lo, grid.dt
    y = np.empty((span + 1, n_part, n))
    z = np.empty((span, n_part, n, paths.dimension))
    y[span] = terminal
    clips, f_next = 0, None
    for k in range(k_hi - 1, k_lo - 1, -1):
        j = k - k_lo
        op = operators[k]
        dw = paths.increments[:, k, :]
        y_next = y[j + 1]
        if k == k_hi - 1 and head is not None:
            fit_next, z_k, clips, f_next = head
        else:
            fit_next, z_k, c = _node_fit(op, y_next, dw, dt, opts.z_clip)
            clips += c
        if f_next is None:  # terminal quadrature point
            f_next = driver(k + 1, grid.nodes[k + 1], z_k)
        f_here = driver(k, grid.nodes[k], z_k)
        for _ in range(opts.inner_sweeps - 1):
            _, z_k, c = _node_fit(op, y_next + 0.5 * (f_here + f_next) * dt, dw, dt, opts.z_clip)
            clips += c
            f_here = driver(k, grid.nodes[k], z_k)
        y[j] = fit_next + 0.5 * (f_here + f_next) * dt
        z[j] = z_k
        _check_finite(k, grid.nodes[k], y[j], z_k)
        f_next = f_here
    return _by_particle(y), _by_particle(z), clips


def solve_scalar(
    grid: TimeGrid,
    paths: PathEnsemble,
    driver: NodeDriver,
    terminal: np.ndarray,
    engine: RegressionEngine,
    opts: SolverOptions = SolverOptions(),
    k_lo: int = 0,
    k_hi: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One backward sweep of a scalar quadratic BSDE on nodes [k_lo, k_hi]:
    the backward kernel with n = 1.

    ``driver(k, t, z)`` maps the Z values (N, d) at node k to driver values
    (N,); it must accept k = k_hi for the terminal-side quadrature point.
    Returns (Y (N, K+1), Z (N, K, d), clip events).
    """
    terminal = np.asarray(terminal, dtype=np.float64).reshape(-1, 1)
    k_hi = grid.steps if k_hi is None else k_hi
    operators = FactorTable(engine.basis, paths.brownian_at)
    y, z, clips = _backward(
        grid, paths, lambda k, t, rows: driver(k, t, rows[:, 0])[:, None], terminal, operators, opts, k_lo, k_hi
    )
    return y[:, :, 0], z[:, :, 0], clips


def _law_at(spec: GeneratorSpec, y: np.ndarray, z: np.ndarray, j: int) -> MeasureView | None:
    """Law view of node j of the clouds Y (N, K+1, n) and Z (N, K, n, d), as
    far as the driver reads it; the terminal node pairs with the last Z slice."""
    if spec.law_dependence == "none":
        return None
    if spec.law_dependence == "y_only":
        return MeasureView(y[:, j])
    return MeasureView(y[:, j], z[:, min(j, z.shape[1] - 1)])


def _own_rows(
    spec: GeneratorSpec, y: np.ndarray, z: np.ndarray | None, laws: tuple, k_lo: int, k: int, t: float, rows: np.ndarray
) -> np.ndarray:
    """Driver values (N, n) at node k with component i free in rows[:, i].

    Y, the other Z rows (zero when ``z`` is None) and the law of the
    clouds ``laws`` = (Y, Z) are frozen at j = k - k_lo; one driver call
    with one law view gives all n components. The terminal node takes the
    last Z slice.
    """
    j = k - k_lo
    other = np.zeros_like(rows) if z is None else z[:, min(j, z.shape[1] - 1)]
    return spec.evaluate(t, y[:, j], rows, _law_at(spec, *laws, j), other)


def _flat_solution(terminal: np.ndarray, grid: TimeGrid, span: int, d: int, k_lo: int, offset: float = 0.0) -> Solution:
    n_part, n_comp = terminal.shape
    y = np.empty((span + 1, n_part, n_comp))
    y[:] = terminal
    if offset:
        y[:span] += offset  # probe shifts the start, never the data
    z = np.zeros((span, n_part, n_comp, d))
    return Solution(Y=_by_particle(y), Z=_by_particle(z), grid=grid, k_lo=k_lo)


def psi_map(
    spec: GeneratorSpec,
    input_sol: Solution,
    grid: TimeGrid,
    paths: PathEnsemble,
    engine: RegressionEngine,
    opts: SolverOptions = SolverOptions(),
    k_lo: int = 0,
    k_hi: int | None = None,
    law_source: Solution | None = None,
    operators: OperatorTable | None = None,
    _head: tuple | None = None,
) -> Solution:
    """Frozen-coefficient map: one backward pass in which component i has
    its own Z row free while Y, the other rows and the law come from the
    input iterate (the law from ``law_source`` when given) at the same node.
    ``operators`` is the caller's node-operator table, if it keeps one;
    otherwise each node is factored for this pass alone. ``_head`` is the
    window head :func:`solve_local` computes once (see :func:`_backward`).
    """
    if k_hi is None:
        k_hi = grid.steps
    laws = law_source if law_source is not None else input_sol
    driver = partial(_own_rows, spec, input_sol.Y, input_sol.Z, (laws.Y, laws.Z), k_lo)
    terminal = input_sol.Y[:, k_hi - k_lo, :]
    if operators is None:
        operators = FactorTable(engine.basis, paths.brownian_at)
    y, z, clips = _backward(grid, paths, driver, terminal, operators, opts, k_lo, k_hi, _head)
    return Solution(Y=y, Z=z, grid=grid, k_lo=k_lo, clip_events=clips)


def _combined_norm(dy_sup: float, dz_bmo: float) -> float:
    return math.sqrt(dy_sup**2 + dz_bmo**2)


def solve_local(
    spec: GeneratorSpec,
    cert: CertificateLocal,
    terminal: np.ndarray,
    grid: TimeGrid,
    paths: PathEnsemble,
    engine: RegressionEngine,
    opts: SolverOptions = SolverOptions(),
    k_lo: int = 0,
    k_hi: int | None = None,
    consts=None,
    operators: OperatorTable | None = None,
) -> tuple[Solution, PicardTrace]:
    """Picard iteration of the frozen-coefficient map on one window.

    Starts from the flat terminal propagation with zero Z (plus any probe
    offset), records ball membership against (K1, K2), and raises
    :class:`SolverDivergence` when the empirical ratios stop contracting.
    Every iteration, law refinement and BMO norm factors each node once,
    through ``operators`` or, when the caller keeps no table, one owned by
    this call.

    The first node visit's projections read only the window terminal, so
    they are computed once per call; with ``inner_sweeps == 1`` the terminal
    driver value is fixed from the second iteration on and is evaluated once
    (see the module docstring). Every pass equals a plain :func:`psi_map`
    pass bitwise.
    """
    if k_hi is None:
        k_hi = grid.steps
    span = k_hi - k_lo
    terminal = np.asarray(terminal, dtype=np.float64)
    if terminal.ndim == 1:
        terminal = terminal[:, None]
    if consts is None:
        consts = local_window(cert, spec.n)
    k1, k2 = consts.K1, consts.K2
    if opts.z_clip is None:
        clip = 4.0 * math.sqrt(k2) if math.isfinite(k2) else None
        opts = replace(opts, z_clip=clip)
    if operators is None:
        operators = OperatorTable(engine.basis, paths.brownian_at)
    current = _flat_solution(terminal, grid, span, spec.d, k_lo, offset=opts.init_offset)
    dw_head = paths.increments[:, k_hi - 1, :]
    fit_head, z_head, clips_head = _node_fit(operators[k_hi - 1], current.Y[:, span], dw_head, grid.dt, opts.z_clip)
    f_terminal = None
    trace = PicardTrace()
    floor = 1e-13 * max(1.0, float(np.abs(terminal).max()))
    for it in range(1, opts.max_iter + 1):
        if it == 2 and opts.inner_sweeps == 1:
            # every pass from here on reads the same terminal-side driver value
            f_terminal = _own_rows(
                spec, current.Y, current.Z, (current.Y, current.Z), k_lo, k_hi, grid.nodes[k_hi], z_head
            )
        head = (fit_head, z_head, clips_head, f_terminal)
        out = psi_map(spec, current, grid, paths, engine, opts, k_lo, k_hi, operators=operators, _head=head)
        for _ in range(opts.law_refinements):
            out = psi_map(
                spec, current, grid, paths, engine, opts, k_lo, k_hi, law_source=out, operators=operators, _head=head
            )
        dy = float(np.abs(out.Y - current.Y).max())
        dz, qv_norm = bmo_norm((out.Z - current.Z, out.Z), grid, paths, engine, k_lo=k_lo, operators=operators)
        combined = _combined_norm(dy, dz)
        max_y = float(np.abs(out.Y).max())
        qv = qv_norm**2
        trace.steps.append(
            PicardStep(
                iteration=it,
                dy_sup=dy,
                dz_norm=dz,
                combined=combined,
                max_abs_y=max_y,
                qv_sq=qv,
                in_ball_sup=bool(max_y <= k1),
                in_ball_qv=bool(qv <= k2),
            )
        )
        current = out
        if combined <= max(opts.tol, floor):
            trace.converged = True
            break
        ratios = trace.ratios()
        if it >= 3 and np.all(ratios[-2:] > 0.9) and combined > 100.0 * opts.tol:
            raise SolverDivergence(
                f"Picard ratios {ratios[-2:]} not contracting on window of length "
                f"{span * grid.dt:.3e}; retry with a shorter window",
                trace,
            )
    if not trace.converged:
        raise SolverDivergence(
            f"no convergence to tol={opts.tol:g} within {opts.max_iter} iterations",
            trace,
        )
    return current, trace


@dataclass(frozen=True)
class WindowRecord:
    k_lo: int
    k_hi: int
    iterations: int
    halvings: int


@dataclass
class GlobalReport:
    constants: GlobalConstants
    windows: list[WindowRecord] = field(default_factory=list)
    terminal_feasible: bool = True

    @property
    def window_count(self) -> int:
        return len(self.windows)


def solve_global(
    spec: GeneratorSpec,
    cert,
    terminal: np.ndarray,
    grid: TimeGrid,
    paths: PathEnsemble,
    engine: RegressionEngine,
    opts: SolverOptions = SolverOptions(),
) -> tuple[Solution, GlobalReport]:
    """Backward stitching of local solves on windows of length delta_kappa.

    Windows are quantized to whole grid steps with a one-step floor (the
    certified length is often far below the grid resolution); a window that
    fails to contract is halved up to six times before giving up, reusing
    the window's node operators. Seam values are shared arrays, so
    stitching is exact by construction.
    """
    gconsts = global_ode(cert, spec.n, grid.horizon)
    terminal = np.asarray(terminal, dtype=np.float64)
    if terminal.ndim == 1:
        terminal = terminal[:, None]
    feasible = bool(np.max(sum_squares(terminal)) <= spec.n * gconsts.c_tilde)
    report = GlobalReport(constants=gconsts, terminal_feasible=feasible)
    dt = grid.dt
    spw = max(1, int(gconsts.delta_kappa / dt))
    # honor the certified window count even when flooring to whole steps
    cap = math.ceil(grid.horizon / gconsts.delta_kappa) + 6
    if math.isfinite(cap) and cap > 0:
        spw = max(spw, math.ceil(grid.steps / cap))
    local_cert = kappa_local_certificate(cert, gconsts.kappa, grid.horizon)
    window_consts = gconsts.window
    n, d = spec.n, spec.d
    full_y = _by_particle(np.empty((grid.steps + 1, paths.particles, n)))
    full_z = _by_particle(np.empty((grid.steps, paths.particles, n, d)))
    full_y[:, grid.steps, :] = terminal
    clips = 0
    k_hi = grid.steps
    while k_hi > 0:
        size = min(spw, k_hi)
        halvings = 0
        operators = OperatorTable(engine.basis, paths.brownian_at)
        while True:
            k_lo = k_hi - size
            try:
                sol, trace = solve_local(
                    spec,
                    local_cert,
                    full_y[:, k_hi, :],
                    grid,
                    paths,
                    engine,
                    opts,
                    k_lo=k_lo,
                    k_hi=k_hi,
                    consts=window_consts,
                    operators=operators,
                )
                break
            except SolverDivergence:
                if size == 1 or halvings >= 6:
                    raise
                size = max(1, size // 2)
                halvings += 1
        full_y[:, k_lo:k_hi, :] = sol.Y[:, :-1, :]
        full_z[:, k_lo:k_hi, :, :] = sol.Z
        clips += sol.clip_events
        report.windows.append(WindowRecord(k_lo=k_lo, k_hi=k_hi, iterations=trace.iterations, halvings=halvings))
        k_hi = k_lo
    solution = Solution(
        Y=full_y,
        Z=full_z,
        grid=grid,
        clip_events=clips,
    )
    return solution, report


def _theta_step(
    it: int, gamma: float, y_new: np.ndarray, y_prev: np.ndarray, z_new: np.ndarray, z_prev: np.ndarray
) -> PicardStep:
    """Sweep ``it``'s record: the sup and mean-square differences, max |Y|,
    and the log exponential moments of gamma sup_t |Y_t| (q = 1, 2) and,
    from the second sweep, of the theta = 1/2 interpolated difference.

    Every monitor is reduced node by node over contiguous slices; per-particle
    maxima of |Y_k|^2 get one square root at the end, which equals the
    maximum of the norms bitwise. The squared Z difference is summed node by
    node too, so ``dz_norm`` matches the whole-array mean to rounding.

    A finite Y can be too large for these monitors (|Y|^2 overflows above
    about 1e154); an overflowing monitor raises :class:`SolverDivergence`
    naming the sweep.
    """
    theta = 0.5
    dy = max_y = 0.0
    sup_sq = np.zeros(len(y_new))  # per particle: max over nodes of |Y_k|^2
    delta = np.zeros(len(y_new))  # per particle: max over nodes of |Delta_k|
    dz_sq = 0.0
    with np.errstate(over="ignore"):  # an overflow is reported below as divergence
        for j in range(z_new.shape[1]):
            dz_j = (z_new[:, j] - z_prev[:, j]).ravel()
            dz_sq += float(np.dot(dz_j, dz_j))
        for j in range(y_new.shape[1]):
            y_j, prev_j = y_new[:, j], y_prev[:, j]
            dy = max(dy, float(np.abs(y_j - prev_j).max()))
            max_y = max(max_y, float(np.abs(y_j).max()))
            np.maximum(sup_sq, sum_squares(y_j), out=sup_sq)
            if it >= 2:
                np.maximum(delta, max_abs((y_j - theta * prev_j) / (1.0 - theta)), out=delta)
        g_sup, g_delta = gamma * np.sqrt(sup_sq), gamma * delta  # the exponents' samples
    if not np.isfinite([dy, dz_sq, g_sup.max(), g_delta.max()]).all():
        raise SolverDivergence(f"sweep {it}: max |Y| = {max_y:.3g} overflows the sweep monitors")
    monitors = {f"exp_sup_q{q}_log": exp_moment(g_sup, q=q).log_value for q in (1, 2)}
    if it >= 2:
        monitors["theta_delta_sup_log"] = exp_moment(g_delta, q=1).log_value
    return PicardStep(
        iteration=it,
        dy_sup=dy,
        dz_norm=math.sqrt(dz_sq / z_new.size),
        combined=dy,
        max_abs_y=max_y,
        monitors=monitors,
    )


def solve_theta(
    spec: GeneratorSpec,
    cert: CertificateConvex,
    terminal: np.ndarray,
    grid: TimeGrid,
    paths: PathEnsemble,
    engine: RegressionEngine,
    opts: SolverOptions = SolverOptions(),
    operators: OperatorTable | None = None,
) -> tuple[Solution, PicardTrace]:
    """Picard scheme for unbounded terminals: sweep m+1 freezes the Y
    argument and the law at the previous sweep's iterate, starting from
    the zero pair. Exponential moments of the path supremum and the
    theta-interpolated differences (theta = 1/2) are recorded per sweep.
    Each node is factored once per solve: every sweep rebuilds its operator
    from the kept factor, in ``operators`` when the caller keeps the table
    and in one owned by this call otherwise.
    """
    terminal = np.asarray(terminal, dtype=np.float64)
    if terminal.ndim == 1:
        terminal = terminal[:, None]
    n, d, m = spec.n, spec.d, grid.steps
    y_prev = _by_particle(np.zeros((m + 1, paths.particles, n)))
    z_prev = _by_particle(np.zeros((m, paths.particles, n, d)))
    if opts.init_offset:
        y_prev += opts.init_offset
    trace = PicardTrace()
    gamma = cert.gamma
    clips = 0
    if operators is None:
        operators = FactorTable(engine.basis, paths.brownian_at)
    for it in range(1, opts.max_iter + 1):
        driver = partial(_own_rows, spec, y_prev, None, (y_prev, z_prev), 0)
        y_new, z_new, c = _backward(grid, paths, driver, terminal, operators, opts, 0, m)
        clips += c
        step = _theta_step(it, gamma, y_new, y_prev, z_new, z_prev)
        trace.steps.append(step)
        converged = step.dy_sup <= opts.tol
        y_prev, z_prev = y_new, z_new
        if converged:
            trace.converged = True
            break
        d_all = trace.differences()
        if it >= 4 and np.all(np.diff(d_all[-3:]) > 0) and d_all[-1] > 1e3:
            raise SolverDivergence("Picard sweeps diverging", trace)
    if not trace.converged:
        raise SolverDivergence(f"no convergence within {opts.max_iter} sweeps", trace)
    sol = Solution(
        Y=y_prev,
        Z=z_prev,
        grid=grid,
        clip_events=clips,
    )
    return sol, trace


def solve_volterra(
    spec: GeneratorSpec,
    g: GSpec,
    vcert: CertificateVolterra,
    ccert: CertificateConvex,
    terminal: np.ndarray,
    grid: TimeGrid,
    paths: PathEnsemble,
    engine: RegressionEngine,
    opts: SolverOptions = SolverOptions(),
) -> tuple[Solution, PicardTrace]:
    """Two-level scheme for a delayed (Volterra-type) mean-field term.

    The inner pair solves the plain BSDE without g. Outer sweep r maps

        Y^{r+1}_k = Y'_k + sum_{j >= k} E_k[ g(j, Y^r, Z', law_j) ] dt,

    using one projection of the tail sum per node. Each node is factored
    once per solve: one operator table serves the inner solve and every
    outer sweep. Convergence is tracked in the exp(beta t)-weighted squared
    sup norm with beta = 32 C^2 T, and iteration stops when the unweighted
    sup difference drops below tol.
    """
    operators = OperatorTable(engine.basis, paths.brownian_at)
    inner_sol, inner_trace = solve_theta(spec, ccert, terminal, grid, paths, engine, opts, operators)
    m = grid.steps
    beta = volterra_weight(vcert.C, grid.horizon)
    weights = np.exp(beta * grid.nodes)
    n = spec.n
    y_prev = np.zeros_like(inner_sol.Y)
    if opts.init_offset:
        y_prev += opts.init_offset
    trace = PicardTrace(note=f"inner sweeps: {inner_trace.iterations}")
    for it in range(1, opts.max_iter + 1):
        g_vals = np.empty((m + 1, paths.particles, n))  # node-major
        for j in range(m + 1):
            law = MeasureView(y_prev[:, j])
            g_vals[j] = g(j, y_prev, inner_sol.Z, law)
        tails = np.zeros((paths.particles, n))
        y_new = np.empty_like(y_prev)
        y_new[:, m, :] = inner_sol.Y[:, m, :]
        for k in range(m - 1, -1, -1):
            tails = tails + g_vals[k] * grid.dt
            y_new[:, k] = inner_sol.Y[:, k] + operators[k].apply(tails)
        diff = y_new - y_prev
        dy = float(np.abs(diff).max())
        weighted = float(np.mean(np.max(weights[None, :] * sum_squares(diff), axis=1)))
        trace.steps.append(
            PicardStep(
                iteration=it,
                dy_sup=dy,
                dz_norm=0.0,
                combined=dy,
                max_abs_y=float(np.abs(y_new).max()),
                monitors={"weighted_sq": weighted},
            )
        )
        y_prev = y_new
        if dy <= opts.tol:
            trace.converged = True
            break
    if not trace.converged:
        raise SolverDivergence(f"outer sweeps did not converge within {opts.max_iter}", trace)
    sol = Solution(
        Y=y_prev,
        Z=inner_sol.Z,
        grid=grid,
        clip_events=inner_sol.clip_events,
    )
    return sol, trace


def weighted_ratios(trace: PicardTrace) -> np.ndarray:
    """Successive ratios of the weighted squared outer differences."""
    w = np.array([s.monitors.get("weighted_sq", np.nan) for s in trace.steps])
    with np.errstate(divide="ignore", invalid="ignore"):
        r = w[1:] / w[:-1]
    return r


def run_scheme(
    bundle: FixtureBundle,
    scheme: str,
    grid: TimeGrid,
    paths: PathEnsemble,
    engine: RegressionEngine,
    opts: SolverOptions = SolverOptions(),
):
    """Dispatch a fixture to a scheme; returns (Solution, trace, extras).

    ``extras`` holds the window constants for ``local``, the stitching
    report for ``global`` and, for ``theta``, the solve's node-factor table
    under ``"operators"`` (which :func:`export_csv` takes)."""
    terminal = np.asarray(bundle.terminal(paths), dtype=np.float64)
    if terminal.ndim == 1:
        terminal = terminal[:, None]
    if terminal.shape != (paths.particles, bundle.spec.n):
        raise ValueError(f"terminal sampler returned shape {terminal.shape}")
    if scheme == "theta":
        if bundle.convex is None:
            raise ValueError(f"fixture {bundle.name} has no Picard certificate")
        operators = FactorTable(engine.basis, paths.brownian_at)
        sol, trace = solve_theta(bundle.spec, bundle.convex, terminal, grid, paths, engine, opts, operators)
        return sol, trace, {"operators": operators}
    if scheme == "local":
        if bundle.local is None:
            raise ValueError(f"fixture {bundle.name} has no local certificate")
        sol, trace = solve_local(bundle.spec, bundle.local, terminal, grid, paths, engine, opts)
        return sol, trace, {"window": local_window(bundle.local, bundle.spec.n)}
    if scheme == "global":
        if bundle.global_ is None:
            raise ValueError(f"fixture {bundle.name} has no global certificate")
        sol, report = solve_global(bundle.spec, bundle.global_, terminal, grid, paths, engine, opts)
        return sol, None, {"report": report}
    if scheme == "volterra":
        if bundle.volterra is None or bundle.g is None:
            raise ValueError(f"fixture {bundle.name} has no Volterra data")
        sol, trace = solve_volterra(
            bundle.spec, bundle.g, bundle.volterra, bundle.convex, terminal, grid, paths, engine, opts
        )
        return sol, trace, {}
    raise ValueError(f"unknown scheme {scheme!r}")


def summarize_nodes(sol: Solution, paths: PathEnsemble, engine: RegressionEngine, operators=None) -> list[dict]:
    """Per-node summary rows: time, mean |Y| per component, max |Y|, and a
    running estimate of the conditional tail quadratic variation. Node
    operators come from ``operators``, the solve's table (see
    :func:`run_scheme`), when given, else each node is factored here."""
    from .diagnostics import bmo_profile

    times = sol.node_times()
    span = sol.Z.shape[1]
    profile = bmo_profile(sol.Z, sol.grid, paths, engine, k_lo=sol.k_lo, operators=operators) if span else np.array([])
    rows = []
    for j, t in enumerate(times):
        row = {"node": sol.k_lo + j, "time": float(t), "max_abs_y": float(np.abs(sol.Y[:, j]).max())}
        for i in range(sol.components):
            row[f"mean_abs_y{i}"] = float(np.abs(sol.Y[:, j, i]).mean())
        row["tail_qv"] = float(profile[j]) if j < len(profile) else 0.0
        rows.append(row)
    return rows


def export_csv(sol: Solution, paths: PathEnsemble, engine: RegressionEngine, path: str, operators=None) -> None:
    import csv

    rows = summarize_nodes(sol, paths, engine, operators)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


_SOL_MAGIC = b"MFBS0001"


def dump_solution(sol: Solution, path: str) -> None:
    """Fixed binary layout: magic, int64 header (N, K, n, d, k_lo, steps),
    float64 horizon, then Y (N, K+1, n) and Z (N, K, n, d) row-major, that
    is particle-major whatever the solution's memory layout."""
    import struct

    n_part, kp1, n = sol.Y.shape
    d = sol.Z.shape[3] if sol.Z.size else 1
    with open(path, "wb") as fh:
        fh.write(_SOL_MAGIC)
        fh.write(struct.pack("<qqqqqq", n_part, kp1 - 1, n, d, sol.k_lo, sol.grid.steps))
        fh.write(struct.pack("<d", sol.grid.horizon))
        fh.write(np.ascontiguousarray(sol.Y, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(sol.Z, dtype="<f8").tobytes())


def load_solution(path: str) -> Solution:
    """Read a file written by :func:`dump_solution`, checking the header
    (sizes >= 0, the span inside the grid, a finite positive horizon) and
    that the payload holds exactly the Y and Z it announces. The arrays are
    copied into node-major buffers, as the solvers store them."""
    import struct

    with open(path, "rb") as fh:
        magic = fh.read(len(_SOL_MAGIC))
        if magic != _SOL_MAGIC:
            raise ValueError("not a solution file")
        head = fh.read(56)
        if len(head) != 56:
            raise ValueError("truncated solution header")
        n_part, span, n, d, k_lo, steps, horizon = struct.unpack("<qqqqqqd", head)
        payload = fh.read()
    if min(n_part, span, n, d, k_lo) < 0 or k_lo + span > steps or not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(
            f"corrupt solution header: particles={n_part} span={span} components={n} "
            f"noise_dim={d} start_node={k_lo} grid_steps={steps} horizon={horizon}"
        )
    y_count, z_count = n_part * (span + 1) * n, n_part * span * n * d
    expected = 8 * (y_count + z_count)
    if len(payload) < expected:
        raise ValueError(f"truncated solution payload: {len(payload)} of {expected} bytes")
    if len(payload) > expected:
        raise ValueError(f"solution payload has {len(payload) - expected} bytes past the announced arrays")
    raw = np.frombuffer(payload, dtype="<f8")
    grid = TimeGrid(horizon=horizon, steps=steps)
    y = np.ascontiguousarray(_by_particle(raw[:y_count].reshape(n_part, span + 1, n)), dtype=np.float64)
    z = np.ascontiguousarray(_by_particle(raw[y_count:].reshape(n_part, span, n, d)), dtype=np.float64)
    return Solution(Y=_by_particle(y), Z=_by_particle(z), grid=grid, k_lo=k_lo)
