"""Backward particle solvers: one backward kernel, Picard maps, stitching.

Every scheme runs the same backward kernel, :func:`_backward`, over nodes
[k_lo, k_hi] with all n components at once: Y is (N, n) and Z is (N, n, d)
per node. With E_k the regression projection at node k,

    Z_k = E_k[(Y_{k+1} - E_k[Y_{k+1}]) dW_k^T] / dt,
    Y_k = E_k[Y_{k+1}] + (dt/2) (f(t_k, Z_k) + f(t_{k+1}, Z_{k+1})),

a trapezoidal driver quadrature whose O(dt^2) bias is what the acceptance
tolerances assume. Node k's operator is ``operators[k]``: a
:class:`mfbsde.condexp.FactorTable`, or a dict of operators built once for
the nodes a call revisits (``local`` windows and ``volterra``). A solve
factors each node once. A non-finite Y or Z raises
:class:`SolverDivergence` naming the node.

Component i is free only in its own Z row. One driver call gives all n
components: the kernel's Z goes in as the own rows, and every other
argument is frozen at the scheme's input iterate at the same node (see
:func:`_own_rows`):

- ``theta``: Y, the other rows and the law come from the previous sweep.
- ``local`` and ``global``: Y, the other rows and the law come from the
  input iterate; during law refinements the law comes from the latest pass.

A ``local`` or ``global`` window computes once what its Picard iterations
cannot change: the head node's projections of the terminal; per pass one
driver Z stage, which the terminal point and the head node share; with one
inner sweep, from iteration 2 on, the terminal driver value and that stage;
on a one-node window also its BMO pair, as the Z difference is then 0 and
the QV iteration 1's. Every value is bitwise equal to a plain Picard loop
over :func:`psi_map` and ``bmo_norm``.

Every scheme takes its terminal through :func:`_terminal_block`: a terminal
that is not (particles, n) raises ``ValueError``, and a non-finite one
raises :class:`SolverDivergence` naming the terminal node and component.
The kernel checks every node it writes, so ``local``, ``global`` and
``theta`` build their law views over checked iterates without scanning
them again; :func:`psi_map` and ``volterra`` take iterates from outside
and scan each law view.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

from .condexp import FactorTable, NodeOperator, RegressionEngine
from .constants import (
    GlobalConstants,
    global_ode,
    kappa_local_certificate,
    local_window,
    volterra_weight,
)
from .diagnostics import bmo_norm, bmo_profile
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


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _is_count(value, least: int) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls shared by every scheme.

    Raises ``ValueError`` unless tol is finite and >= 0, init_offset is
    finite, max_iter and inner_sweeps are ints >= 1, law_refinements is an
    int >= 0 and z_clip is None or finite and > 0; a bool is no number.
    """

    tol: float = 1e-6
    max_iter: int = 40
    z_clip: float | None = None
    inner_sweeps: int = 1
    init_offset: float = 0.0
    law_refinements: int = 0

    def __post_init__(self) -> None:
        checks = {
            "tol": _is_real(self.tol) and self.tol >= 0,
            "init_offset": _is_real(self.init_offset),
            "max_iter": _is_count(self.max_iter, 1),
            "inner_sweeps": _is_count(self.inner_sweeps, 1),
            "law_refinements": _is_count(self.law_refinements, 0),
            "z_clip": self.z_clip is None or (_is_real(self.z_clip) and self.z_clip > 0),
        }
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            raise ValueError(f"bad solver option(s): {', '.join(f'{k}={getattr(self, k)!r}' for k in bad)}")


@dataclass
class Solution:
    """Discrete solution pair: Y is (N, K+1, n), Z is (N, K, n, d).

    Y and Z are axis-swapped views of node-major (K+1, N, n) and
    (K, N, n, d) buffers, so each node slice ``sol.Y[:, k]`` and
    ``sol.Z[:, k]`` is C-contiguous. ``k_lo`` locates the first node inside
    ``grid``; a full-span solution has k_lo = 0.
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


def _check_finite(k: int, t: float, z: np.ndarray | None, y: np.ndarray | None = None) -> None:
    """Raise SolverDivergence naming node k and the first component whose
    Z (N, n, d), else Y (N, n), holds a non-finite value; None is skipped."""
    for name, values in (("Z", z), ("Y", y)):
        if values is None:
            continue
        finite = np.isfinite(values)
        if not finite.all():
            i = int(np.argmin(finite.reshape(len(values), values.shape[1], -1).all(axis=(0, 2))))
            raise SolverDivergence(f"non-finite {name} at node {k} (t={t:.6g}) in component {i}")


def _node_fit(op: NodeOperator, values: np.ndarray, dw: np.ndarray, dt: float, radius: float | None):
    """(E_k[values], the clipped Z fitted from values (N, n, d), clip events)."""
    fit = op.apply(values)
    z, clips = _clip_rows(_increment_fit(values, fit, op, dw, dt), radius)
    return fit, z, clips


def _terminal_block(terminal, particles: int, n: int, k: int) -> np.ndarray:
    """The terminal values at node k as float64 (particles, n); a 1-D array
    is one column. Raises ``ValueError`` for any other shape, and
    :class:`SolverDivergence` naming node k and the first component that
    holds a non-finite value."""
    terminal = np.asarray(terminal, dtype=np.float64)
    if terminal.ndim == 1:
        terminal = terminal[:, None]
    if terminal.shape != (particles, n):
        raise ValueError(f"terminal has shape {terminal.shape}; expected ({particles}, {n})")
    finite = np.isfinite(terminal)
    if not finite.all():
        raise SolverDivergence(f"non-finite terminal at node {k} in component {int(np.argmin(finite.all(axis=0)))}")
    return terminal


def _backward(
    grid: TimeGrid,
    paths: PathEnsemble,
    driver: NodeDriver,
    terminal: np.ndarray,
    operators: FactorTable | dict[int, NodeOperator],
    opts: SolverOptions,
    k_lo: int,
    k_hi: int,
    head: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The backward kernel on nodes [k_lo, k_hi] for terminal values (N, n).

    ``driver(k, t, z)`` maps Z (N, n, d) at node k to driver values (N, n);
    it must accept k = k_hi, where the terminal-side quadrature point takes
    the Z of node k_hi - 1. Extra inner sweeps re-extract Z from the
    driver-corrected target. Node k's operator is ``operators[k]``, from a
    :class:`mfbsde.condexp.FactorTable` or a dict of built operators.
    ``head``, when given, is what the first visit would compute from the
    terminal: (E_{k_hi-1}[Y_{k_hi}], the clipped Z_{k_hi-1}, already found
    finite, its clip events, the terminal driver value or None to evaluate
    it, and a tuple that holds the driver's Z stage of the node's first
    driver calls or is empty). The terminal point and node k_hi - 1 read the
    same Z arguments, so both first calls get the stage as
    ``driver(k, t, z, stage)``. The result is bitwise equal to a run without
    ``head``. Returns (Y (N, K+1, n), Z (N, K, n, d), clip events) as views
    of node-major buffers; a one-node Z is the node's Z itself, uncopied.
    """
    if not 0 <= k_lo < k_hi <= grid.steps:
        raise ValueError(f"bad node range [{k_lo}, {k_hi}]")
    n_part, n = terminal.shape
    if n_part != paths.particles:
        raise ValueError("terminal values must have one entry per particle")
    span, dt = k_hi - k_lo, grid.dt
    y = np.empty((span + 1, n_part, n))
    z = np.empty((span, n_part, n, paths.dimension)) if span > 1 else None
    y[span] = terminal
    clips, f_next, checked = 0, None, None
    for k in range(k_hi - 1, k_lo - 1, -1):
        j = k - k_lo
        op = operators[k]
        dw = paths.increments[:, k, :]
        y_next = y[j + 1]
        stage = ()
        if k == k_hi - 1 and head is not None:
            fit_next, z_k, clips, f_next, stage = head
            checked = z_k
        else:
            fit_next, z_k, c = _node_fit(op, y_next, dw, dt, opts.z_clip)
            clips += c
        if f_next is None:  # terminal quadrature point
            f_next = driver(k + 1, grid.nodes[k + 1], z_k, *stage)
        f_here = driver(k, grid.nodes[k], z_k, *stage)
        for _ in range(opts.inner_sweeps - 1):
            _, z_k, c = _node_fit(op, y_next + 0.5 * (f_here + f_next) * dt, dw, dt, opts.z_clip)
            clips += c
            f_here = driver(k, grid.nodes[k], z_k)
        y[j] = fit_next + 0.5 * (f_here + f_next) * dt
        _check_finite(k, grid.nodes[k], None if z_k is checked else z_k, y[j])
        if z is None:
            z = z_k[None]
        else:
            z[j] = z_k
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

    ``terminal`` is (N,) or (N, 1). ``driver(k, t, z)`` maps the Z values
    (N, d) at node k to driver values (N,); it must accept k = k_hi for the
    terminal-side quadrature point. Returns (Y (N, K+1), Z (N, K, d), clip
    events).
    """
    k_hi = grid.steps if k_hi is None else k_hi
    terminal = _terminal_block(terminal, paths.particles, 1, k_hi)
    operators = FactorTable(engine.basis, paths.brownian_at)
    y, z, clips = _backward(
        grid, paths, lambda k, t, rows: driver(k, t, rows[:, 0])[:, None], terminal, operators, opts, k_lo, k_hi
    )
    return y[:, :, 0], z[:, :, 0], clips


def _law_at(
    spec: GeneratorSpec, j: int, y: np.ndarray, z: np.ndarray, view: Callable = MeasureView
) -> MeasureView | None:
    """Law view of node j of the clouds Y (N, K+1, n) and Z (N, K, n, d), as
    far as the driver reads it, built by ``view``: ``MeasureView``, which
    scans the clouds, or ``MeasureView.of_checked`` for kernel-checked
    iterates. The terminal node pairs with the last Z slice."""
    if spec.law_dependence == "none":
        return None
    if spec.law_dependence == "y_only":
        return view(y[:, j])
    return view(y[:, j], z[:, min(j, z.shape[1] - 1)])


def _own_rows(
    spec: GeneratorSpec, y: np.ndarray, z: np.ndarray, laws: tuple, k_lo: int, k: int, t: float, rows: np.ndarray, *stage
) -> np.ndarray:
    """Driver values (N, n) at node k with component i free in rows[:, i].

    Y (N, K+1, n), the other Z rows of z (N, K, n, d) and the law of the
    clouds ``laws`` = (Y, Z) or (Y, Z, view) (see :func:`_law_at`) are
    frozen at j = k - k_lo; the terminal node takes the last Z slice. One
    driver call gives all n components. A ``stage`` argument, the spec's Z
    stage of these Z arguments, reaches ``spec.evaluate`` as its sixth.
    """
    j = k - k_lo
    return spec.evaluate(t, y[:, j], rows, _law_at(spec, j, *laws), z[:, min(j, z.shape[1] - 1)], *stage)


def _head_stage(spec: GeneratorSpec, laws: tuple, span: int, rows: np.ndarray, others: np.ndarray) -> tuple:
    """The Z stage that the terminal point and node span - 1 of a window
    share: own rows ``rows``, other rows ``others`` and the law's Z cloud
    at span - 1; empty for a spec without ``z_stage``."""
    if spec.z_stage is None:
        return ()
    return (spec.z_stage(rows, _law_at(spec, span - 1, *laws), others),)


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
) -> Solution:
    """Frozen-coefficient map: one backward pass on nodes [k_lo, k_hi] from
    the input iterate's node-k_hi values, in which component i has its own
    Z row free while Y, the other rows and the law come from the input
    iterate (the law from ``law_source`` when given) at the same node. Each
    node is factored for this pass alone.
    """
    if k_hi is None:
        k_hi = grid.steps
    laws = law_source if law_source is not None else input_sol
    driver = partial(_own_rows, spec, input_sol.Y, input_sol.Z, (laws.Y, laws.Z), k_lo)
    terminal = input_sol.Y[:, k_hi - k_lo, :]
    operators = FactorTable(engine.basis, paths.brownian_at)
    y, z, clips = _backward(grid, paths, driver, terminal, operators, opts, k_lo, k_hi)
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
    operators: FactorTable | None = None,
) -> tuple[Solution, PicardTrace]:
    """Picard iteration of the frozen-coefficient map on one window.

    Starts from the flat terminal propagation with zero Z (plus any probe
    offset), records ball membership against (K1, K2), and raises
    :class:`SolverDivergence` when the empirical ratios stop contracting.
    Every iteration is a :func:`psi_map` pass followed by
    ``law_refinements`` passes whose law comes from the previous pass, and
    is bitwise equal to that sequence of :func:`psi_map` calls, and each
    step's BMO pair to ``bmo_norm`` of its Z difference and Z. The call
    builds each window node's operator once, from ``operators`` (a
    :class:`mfbsde.condexp.FactorTable`) or from a table of its own, and
    every pass and BMO norm of the call shares them.
    """
    if k_hi is None:
        k_hi = grid.steps
    span = k_hi - k_lo
    terminal = _terminal_block(terminal, paths.particles, spec.n, k_hi)
    if consts is None:
        consts = local_window(cert, spec.n)
    k1, k2 = consts.K1, consts.K2
    if opts.z_clip is None:
        clip = 4.0 * math.sqrt(k2) if math.isfinite(k2) else None
        opts = replace(opts, z_clip=clip)
    table = FactorTable(engine.basis, paths.brownian_at) if operators is None else operators
    operators = {k: table[k] for k in range(k_lo, k_hi)}
    current = _flat_solution(terminal, grid, span, spec.d, k_lo, offset=opts.init_offset)
    # the first node visit reads only the terminal, the same on every pass
    dw_head = paths.increments[:, k_hi - 1, :]
    fit_head, z_head, clips_head = _node_fit(operators[k_hi - 1], current.Y[:, span], dw_head, grid.dt, opts.z_clip)
    _check_finite(k_hi - 1, grid.nodes[k_hi - 1], z_head)
    f_terminal, stage = None, ()
    # with one inner sweep every pass writes z_head, so from iteration 2 on
    # each Z the head node reads is z_head, and a one-node window's Z is fixed
    fixed_z = opts.inner_sweeps == 1
    trace = PicardTrace()
    terminal_max = float(np.abs(terminal).max())
    floor = 1e-13 * max(1.0, terminal_max)
    for it in range(1, opts.max_iter + 1):
        laws = (current.Y, current.Z, MeasureView.of_checked)
        others = current.Z[:, span - 1]
        if it == 2 and fixed_z:
            stage = _head_stage(spec, laws, span, z_head, others)
            f_terminal = _own_rows(spec, current.Y, current.Z, laws, k_lo, k_hi, grid.nodes[k_hi], z_head, *stage)
        for _ in range(opts.law_refinements + 1):
            if it == 1 or not fixed_z:
                stage = _head_stage(spec, laws, span, z_head, others)
            head = (fit_head, z_head, clips_head, f_terminal, stage)
            driver = partial(_own_rows, spec, current.Y, current.Z, laws, k_lo)
            y, z, clips = _backward(grid, paths, driver, terminal, operators, opts, k_lo, k_hi, head)
            laws = (y, z, MeasureView.of_checked)
        out = Solution(Y=y, Z=z, grid=grid, k_lo=k_lo, clip_events=clips)
        # node-major slices of the nodes a pass writes; the terminal node stays
        moved = y.swapaxes(0, 1)[:span]
        dy = float(np.abs(moved - current.Y.swapaxes(0, 1)[:span]).max())
        if it == 1 or span > 1 or not fixed_z:
            dz, qv_norm = bmo_norm((out.Z - current.Z, out.Z), grid, paths, engine, k_lo=k_lo, operators=operators)
        else:  # out.Z and current.Z are both z_head: dz is 0 and the QV is iteration 1's
            dz = 0.0
        combined = _combined_norm(dy, dz)
        max_y = max(float(np.abs(moved).max()), terminal_max)
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
    fails to contract is halved up to six times before giving up. One
    :class:`mfbsde.condexp.FactorTable` serves every window and retry, so
    each node is factored once per solve. Seam values are shared arrays, so
    stitching is exact by construction.
    """
    gconsts = global_ode(cert, spec.n, grid.horizon)
    terminal = _terminal_block(terminal, paths.particles, spec.n, grid.steps)
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
    operators = FactorTable(engine.basis, paths.brownian_at)
    while k_hi > 0:
        size = min(spw, k_hi)
        halvings = 0
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
    operators: FactorTable | dict[int, NodeOperator] | None = None,
) -> tuple[Solution, PicardTrace]:
    """Picard scheme for unbounded terminals, from the zero pair: sweep m+1
    is one backward pass with Y, the other Z rows and the law frozen at
    sweep m's iterate. Each sweep records its exponential moments of the
    path supremum and of the theta-interpolated difference (theta = 1/2).
    ``operators[k]`` is node k's operator: a
    :class:`mfbsde.condexp.FactorTable` (a fresh operator per sweep from a
    kept factor) or a dict of built operators; without it a table owned by
    this call factors each node once.
    """
    terminal = _terminal_block(terminal, paths.particles, spec.n, grid.steps)
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
        driver = partial(_own_rows, spec, y_prev, z_prev, (y_prev, z_prev, MeasureView.of_checked), 0)
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

    using one projection of the tail sum per node; g is evaluated on nodes
    0..M-1, the only ones a tail sum reads. Each node's operator is built
    once per solve, into a dict that the inner solve and every outer sweep
    share. Convergence is tracked in the exp(beta t)-weighted squared sup
    norm with beta = 32 C^2 T, and iteration stops when the unweighted sup
    difference drops below tol.
    """
    table = FactorTable(engine.basis, paths.brownian_at)
    operators = {k: table[k] for k in range(grid.steps)}
    inner_sol, _ = solve_theta(spec, ccert, terminal, grid, paths, engine, opts, operators)
    m = grid.steps
    beta = volterra_weight(vcert.C, grid.horizon)
    weights = np.exp(beta * grid.nodes)
    n = spec.n
    y_prev = np.zeros_like(inner_sol.Y)
    if opts.init_offset:
        y_prev += opts.init_offset
    trace = PicardTrace()
    for it in range(1, opts.max_iter + 1):
        g_vals = np.empty((m, paths.particles, n))  # node-major
        for j in range(m):
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

    ``extras`` holds the stitching report for ``global`` under
    ``"report"`` and, for ``theta``, the solve's node-factor table under
    ``"operators"`` (which :func:`export_csv` takes); it is empty for
    ``local`` and ``volterra``. Raises
    ``ValueError`` when the fixture's terminal is not (particles, n), when
    it lacks the scheme's certificate, and for an unknown scheme, and
    :class:`SolverDivergence` when the terminal is not finite."""
    terminal = _terminal_block(bundle.terminal(paths), paths.particles, bundle.spec.n, grid.steps)
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
        return sol, trace, {}
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
