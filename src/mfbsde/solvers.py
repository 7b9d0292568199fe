"""Backward particle solvers: one backward kernel, Picard maps, stitching.

Every scheme runs the same backward kernel, :func:`_backward`, over nodes
[k_lo, k_hi] with all n components at once: Y is (N, n) and Z is (N, n, d)
per node. With E_k the regression projection at node k,

    Z_k = E_k[(Y_{k+1} - E_k[Y_{k+1}]) dW_k^T] / dt,
    Y_k = E_k[Y_{k+1}] + (dt/2) (f(t_k, Z_k) + f(t_{k+1}, Z_{k+1})),

a trapezoidal driver quadrature whose O(dt^2) bias is what the acceptance
tolerances assume. Node k's operator is ``operators[k]``: the ensemble's
table ``FactorTable.of(paths, engine.basis)``, which rebuilds it from the
node's kept factor at every access, or the dict of operators a ``local``
window builds once for the nodes its passes revisit. So each node of an
ensemble is factored once across every solve, CSV export and diagnostic
with one basis. A non-finite Y or Z raises :class:`SolverDivergence`
naming the node.

Component i is free only in its own Z row. One driver call gives all n
components: the kernel's Z goes in as the own rows, and every other
argument is frozen at the scheme's input iterate at the same node by
:func:`_own_rows`, the package's one freezing policy:

- ``theta``: Y is the node's last iterate, and the other rows and the law
  are the node's latest Z and its (Y, Z) clouds, in the one iterate the
  solve holds, where the kernel settles each node before the node below.
- ``local`` and ``global``: Y, the other rows and the law come from the
  input iterate; during law refinements the law comes from the latest pass.

Z reaches the driver only through its stage: :func:`_own_rows` builds one
law view and calls ``spec.evaluate(t, y, law, stage)`` with the stage
``spec.z_stage(rows, law, others)``, computed unless it is given.

A ``local`` or ``global`` window computes once what its Picard iterations
cannot change: the head node's projections of the terminal; per pass one
driver Z stage, which the terminal point and the head node share; with one
inner sweep, from iteration 2 on, the terminal driver value and that stage;
on a one-node window also its BMO pair, as the Z difference is then 0 and
the QV iteration 1's. Iteration 1 starts from Z = 0, so its Z difference
is its Z and takes its BMO norm from its QV. Every value is bitwise equal
to a plain Picard loop over :func:`psi_map` and ``bmo_norm``.

``local`` and ``volterra`` iterate whole passes through :func:`_picard`,
which records each pass's step in a :class:`PicardTrace`, the one record of
a solve, and stops at the scheme's threshold, on its divergence rule or
after max_iter passes. ``theta``'s node iterations run inside one kernel
pass, out of its reach, so ``solve_theta`` states that rule again per node,
with max_iter per node. A ``global`` record holds its windows'.

A ``theta`` answer is checked once against the estimate exp(g |Y_t|) <=
E_t exp(g |xi|) (Briand and Hu, PTRF 2006, Prop. 3), for K > 0 its form
exp(g |Y^i_t|) <= E_t exp(g e^{K(T-t)} |xi^i| + g int_t^T (zeta + K W1(mu_s, d0)) e^{K(s-t)} ds);
a node's log-mean excess above ``APRIORI_EXCESS`` = 0.5, net of
``APRIORI_SPREAD`` = 8 standard errors of the terminal side, diverges.

Each public call takes a fact once. Every solver and diagnostic reads the
time grid from its ensemble, ``paths.grid``, and every :class:`Solution` a
solver builds carries that grid object; :func:`psi_map` reads its window
from its iterate, and :func:`solve_local` derives its window constants
from its certificate.

Every scheme takes its terminal through :func:`_terminal_block`: a terminal
that is not (particles, n) raises ``ValueError``, and a non-finite one
raises :class:`SolverDivergence` naming the terminal node and component.
The kernel checks every node it writes, ``volterra`` every g block it
evaluates and every outer node it writes, and :func:`psi_map`, which takes
its iterate from outside, the clouds its law views read, once before its
pass; so every law view is built over checked clouds without a scan.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Protocol

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
from .measures import MeasureError, MeasureView, sum_squares
from .paths import PathEnsemble, TimeGrid, is_count, is_finite_real, require_grid


class NodeDriver(Protocol):
    """Driver values (N, n) at node k for Z (N, n, d); a head visit adds the node's Z stage."""

    def __call__(self, k: int, t: float, z: np.ndarray, stage=None) -> np.ndarray: ...


class SolverDivergence(RuntimeError):
    """Picard iteration failed to contract; carries the trace so far."""

    def __init__(self, message: str, trace: "PicardTrace | None" = None):
        super().__init__(message)
        self.trace = trace


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
            "tol": is_finite_real(self.tol) and self.tol >= 0,
            "init_offset": is_finite_real(self.init_offset),
            "max_iter": is_count(self.max_iter, 1),
            "inner_sweeps": is_count(self.inner_sweeps, 1),
            "law_refinements": is_count(self.law_refinements, 0),
            "z_clip": self.z_clip is None or (is_finite_real(self.z_clip) and self.z_clip > 0),
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
    combined: float
    max_abs_y: float
    dz_norm: float | None = None
    qv_sq: float | None = None
    in_ball_sup: bool | None = None
    in_ball_qv: bool | None = None
    monitors: dict = field(default_factory=dict)


@dataclass
class PicardTrace:
    """The record of a solve on nodes [k_lo, k_hi]: its steps, whether they
    converged and a ``theta`` answer's ``apriori_excess``. A ``global`` record
    has no steps; ``windows`` holds each window's record with the ``halvings`` it took. It holds no arrays."""

    steps: list[PicardStep] = field(default_factory=list)
    converged: bool = False
    k_lo: int = 0
    k_hi: int = 0
    halvings: int = 0
    windows: list["PicardTrace"] = field(default_factory=list)
    constants: GlobalConstants | None = None
    terminal_feasible: bool | None = None
    apriori_excess: float | None = None

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

    @property
    def window_count(self) -> int:
        return len(self.windows)


def _picard(passes, trace: PicardTrace, stop: float, diverging: Callable, exhausted: str):
    """The Picard loop over whole passes: append the step of each (step,
    state) pair that ``passes`` yields to ``trace``; return the state once a
    step's ``combined`` is at most ``stop``. Any :class:`SolverDivergence`
    carries the trace: the message ``diverging(trace)`` returns after a
    step, if any, ``exhausted`` when the passes run out, or a pass's own."""
    try:
        for step, state in passes:
            trace.steps.append(step)
            if step.combined <= stop:
                trace.converged = True
                return state
            message = diverging(trace)
            if message:
                raise SolverDivergence(message, trace)
    except SolverDivergence as exc:
        if exc.trace is None:
            exc.trace = trace
        raise
    raise SolverDivergence(exhausted, trace)


def _clip_rows(z: np.ndarray, radius: float | None) -> tuple[np.ndarray, int]:
    """Rescale rows whose norm exceeds the radius; count the events."""
    if radius is None:
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
    """E_k[(values - fit) dW^T] / dt as an (N, n, d) array: the n d products,
    (i, e) in column i d + e, fitted as one block; ``fit`` is E_k[values], so
    the product is centered."""
    n_part, n = values.shape
    d = dw.shape[1]
    centered = values - fit
    products = np.empty((n_part, n * d))
    # column by column: a broadcast product is bitwise equal but about 4x slower at N = 8192, n = d = 2
    for i in range(n):
        for e in range(d):
            np.multiply(centered[:, i], dw[:, e], out=products[:, i * d + e])
    products /= dt
    return op.apply(products).reshape(n_part, n, d)


def _check_finite(k: int, t: float, **blocks: np.ndarray | None) -> None:
    """Raise SolverDivergence naming node k, the block and the first
    component of the first block, in the order given, that holds a
    non-finite value; a block is (N, n) or (N, n, d), and None is skipped."""
    for name, values in blocks.items():
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


def _require_range(k_lo: int, k_hi: int, steps: int) -> None:
    if not 0 <= k_lo < k_hi <= steps:
        raise ValueError(f"bad node range [{k_lo}, {k_hi}]")


def _backward(
    paths: PathEnsemble,
    driver: NodeDriver,
    terminal: np.ndarray,
    operators: FactorTable | dict[int, NodeOperator],
    opts: SolverOptions,
    k_lo: int,
    k_hi: int,
    head: tuple | None = None,
    settle: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """The backward kernel on nodes [k_lo, k_hi] for terminal values (N, n).

    ``driver(k, t, z)`` maps Z (N, n, d) at node k to driver values (N, n);
    it must accept k = k_hi, where the terminal-side quadrature point takes
    the Z of node k_hi - 1. Extra inner sweeps re-extract Z from the
    driver-corrected target. Node k's operator is ``operators[k]``, from a
    :class:`mfbsde.condexp.FactorTable` or a ``local`` window's dict of
    built operators.
    ``head``, when given, is what the first visit would compute from the
    terminal: (E_{k_hi-1}[Y_{k_hi}], the clipped Z_{k_hi-1}, already found
    finite, its clip events, the terminal driver value or None to evaluate
    it, and the driver's Z stage of the node's first driver calls). The
    terminal point and node k_hi - 1 read the same Z arguments, so both
    first calls get the stage as ``driver(k, t, z, stage)``. The result is
    bitwise equal to a run without ``head``. Returns (Y (N, K+1, n), Z (N, K, n, d), clip events) as views
    of node-major buffers; a one-node Z is the node's Z itself, uncopied.
    The time grid is the ensemble's. The caller checks that the range lies
    inside it and that the terminal is (particles, n).

    ``settle`` = (Y, Z, settled) runs the pass in the node-major (K+1, N, n)
    and (K, N, n, d) buffers of the iterate the driver reads, and returns
    their views. Node k's fit, Z and terminal point come once from the
    settled Y_{k+1}; its Z is written first and its Y starts at Y_{k+1} +
    init_offset, then the driver calls, the trapezoid and the finite check
    repeat until ``settled(k, iteration, y_old, y_new)``; with inner sweeps
    each iteration writes its refit Z, which the next iteration and the
    terminal point, evaluated again, read. The node's last driver value is
    the terminal-side value of the node below.
    """
    grid = paths.grid
    n_part, n = terminal.shape
    span, dt = k_hi - k_lo, grid.dt
    if settle is None:
        y = np.empty((span + 1, n_part, n))
        z = np.empty((span, n_part, n, paths.dimension)) if span > 1 else None
        settled = None
    else:
        y, z, settled = settle
    y[span] = terminal
    y_next = y[span]
    clips, f_next = 0, None
    for k in range(k_hi - 1, k_lo - 1, -1):
        j, t = k - k_lo, grid.nodes[k]
        op, dw, stage = operators[k], paths.increments[:, k, :], ()
        if k == k_hi - 1 and head is not None:
            fit_next, z_fit, clips, f_next, shared = head
            stage = (shared,)
        else:
            fit_next, z_fit, c = _node_fit(op, y_next, dw, dt, opts.z_clip)
            clips += c
            _check_finite(k, t, Z=z_fit)
        if settled is not None:
            z[j], y[j] = z_fit, y_next + opts.init_offset
        for it in itertools.count(1):
            with np.errstate(over="ignore"):  # an overflow is caught below as non-finite Y or Z
                # the terminal point; with inner sweeps it reads the node's latest Z
                if f_next is None or (k == k_hi - 1 and it > 1 and opts.inner_sweeps > 1):
                    f_next = driver(k + 1, grid.nodes[k + 1], z_fit, *stage)
                z_k = z_fit
                f_here = driver(k, t, z_k, *stage)
                for _ in range(opts.inner_sweeps - 1):
                    _, z_k, c = _node_fit(op, y_next + 0.5 * (f_here + f_next) * dt, dw, dt, opts.z_clip)
                    clips += c
                    f_here = driver(k, t, z_k)
                y_k = fit_next + 0.5 * (f_here + f_next) * dt
            _check_finite(k, t, Z=None if z_k is z_fit else z_k, Y=y_k)
            done = settled is None or settled(k, it, y[j], y_k)
            y[j] = y_k
            if z is not None and (settled is None or z_k is not z_fit):  # the next iteration reads refit rows
                z[j] = z_k
            if done:
                break
        y_next, f_next = y[j], f_here
        if z is None:
            z = z_k[None]
    return _by_particle(y), _by_particle(z), clips


def _law_at(spec: GeneratorSpec, j: int, y: np.ndarray, z: np.ndarray) -> MeasureView | None:
    """Law view, unscanned, of node j of the finite clouds Y (N, K+1, n) and
    Z (N, K, n, d) as the driver reads it; the terminal node takes Z's last slice."""
    if spec.law_dependence == "none":
        return None
    if spec.law_dependence == "y_only":
        return MeasureView.of_checked(y[:, j])
    return MeasureView.of_checked(y[:, j], z[:, min(j, z.shape[1] - 1)])


def _own_rows(
    spec: GeneratorSpec, y: np.ndarray, z: np.ndarray, laws: tuple, k_lo: int, k: int, t: float, rows: np.ndarray, stage=None
) -> np.ndarray:
    """Driver values (N, n) at node k with component i free in rows[:, i].

    Y (N, K+1, n), the other Z rows of z (N, K, n, d) and the law of the
    clouds ``laws`` = (Y, Z) (see :func:`_law_at`) are frozen at
    j = k - k_lo; the terminal node takes the last Z slice. One driver call
    gives all n components: ``spec.evaluate`` of one law view and of
    ``stage``, the spec's ``z_stage`` of ``rows``, that view and the frozen
    rows, computed here unless it is given.
    """
    j = k - k_lo
    law = _law_at(spec, j, *laws)
    if stage is None:
        stage = spec.z_stage(rows, law, z[:, min(j, z.shape[1] - 1)])
    return spec.evaluate(t, y[:, j], law, stage)


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
    paths: PathEnsemble,
    engine: RegressionEngine,
    opts: SolverOptions = SolverOptions(),
    law_source: Solution | None = None,
) -> Solution:
    """Frozen-coefficient map: one backward pass on the iterate's nodes
    [k_lo, k_lo + span] from its last row, in which component i has its
    own Z row free while Y, the other rows and the law come from the input
    iterate (the law from ``law_source`` when given) at the same node. Node
    operators come from the ensemble's factor table. Before any driver call
    it raises ``ValueError``, naming both shapes, unless the window lies in
    the ensemble's grid and the iterate and ``law_source`` are (particles,
    span+1, n) and (particles, span, n, d) on its nodes of that grid, and
    ``MeasureError`` when a cloud the law views read is not finite.
    """
    grid, k_lo, span = paths.grid, input_sol.k_lo, input_sol.Y.shape[1] - 1
    _require_range(k_lo, k_lo + span, grid.steps)
    want = (grid, k_lo, (paths.particles, span + 1, spec.n), (paths.particles, span, spec.n, paths.dimension))
    laws = law_source if law_source is not None else input_sol
    for name, sol in (("iterate", input_sol), ("law source", laws)):
        got = (sol.grid, sol.k_lo, sol.Y.shape, sol.Z.shape)
        if got != want:
            raise ValueError(f"{name} has grid, first node, Y and Z shapes {got}; expected {want}")
    read = {"none": (), "y_only": (laws.Y,), "joint": (laws.Y, laws.Z)}[spec.law_dependence]
    if not all(np.isfinite(cloud).all() for cloud in read):
        raise MeasureError("cloud contains non-finite points")
    driver = partial(_own_rows, spec, input_sol.Y, input_sol.Z, (laws.Y, laws.Z), k_lo)
    table = FactorTable.of(paths, engine.basis)
    y, z, clips = _backward(paths, driver, input_sol.Y[:, span, :], table, opts, k_lo, k_lo + span)
    return Solution(Y=y, Z=z, grid=grid, k_lo=k_lo, clip_events=clips)


def solve_local(
    spec: GeneratorSpec,
    cert: CertificateLocal,
    terminal: np.ndarray,
    paths: PathEnsemble,
    engine: RegressionEngine,
    opts: SolverOptions = SolverOptions(),
    k_lo: int = 0,
    k_hi: int | None = None,
) -> tuple[Solution, PicardTrace]:
    """Picard iteration of the frozen-coefficient map on one window.

    Starts from the flat terminal propagation with zero Z (plus any probe
    offset), records ball membership against the radii (K1, K2) of
    ``local_window(cert, n)``, and raises
    :class:`SolverDivergence` when the empirical ratios stop contracting.
    Every iteration is a :func:`psi_map` pass followed by
    ``law_refinements`` passes whose law comes from the previous pass, and
    is bitwise equal to that sequence of :func:`psi_map` calls, and each
    step's BMO norms to ``bmo_norm`` of its Z difference and of its Z. The
    call builds each window node's operator once, from the ensemble's
    factor table, and every pass and BMO norm of the call shares them.
    """
    grid = paths.grid
    if k_hi is None:
        k_hi = grid.steps
    _require_range(k_lo, k_hi, grid.steps)
    span = k_hi - k_lo
    terminal = _terminal_block(terminal, paths.particles, spec.n, k_hi)
    consts = local_window(cert, spec.n)
    k1, k2 = consts.K1, consts.K2
    if opts.z_clip is None:
        clip = 4.0 * math.sqrt(k2) if math.isfinite(k2) else None
        opts = replace(opts, z_clip=clip)
    table = FactorTable.of(paths, engine.basis)
    operators = {k: table[k] for k in range(k_lo, k_hi)}
    current = _flat_solution(terminal, grid, span, spec.d, k_lo, offset=opts.init_offset)
    # the first node visit reads only the terminal, the same on every pass
    dw_head = paths.increments[:, k_hi - 1, :]
    fit_head, z_head, clips_head = _node_fit(operators[k_hi - 1], current.Y[:, span], dw_head, grid.dt, opts.z_clip)
    _check_finite(k_hi - 1, grid.nodes[k_hi - 1], Z=z_head)
    # with one inner sweep every pass writes z_head, so from iteration 2 on
    # each Z the head node reads is z_head, and a one-node window's Z is fixed
    fixed_z = opts.inner_sweeps == 1
    terminal_max = float(np.abs(terminal).max())

    def passes(current):
        f_terminal = None
        for it in range(1, opts.max_iter + 1):
            laws = (current.Y, current.Z)
            others = current.Z[:, span - 1]
            if it == 2 and fixed_z:
                stage = spec.z_stage(z_head, _law_at(spec, span - 1, *laws), others)
                f_terminal = _own_rows(spec, current.Y, current.Z, laws, k_lo, k_hi, grid.nodes[k_hi], z_head, stage)
            for _ in range(opts.law_refinements + 1):
                if it == 1 or not fixed_z:
                    stage = spec.z_stage(z_head, _law_at(spec, span - 1, *laws), others)
                head = (fit_head, z_head, clips_head, f_terminal, stage)
                driver = partial(_own_rows, spec, current.Y, current.Z, laws, k_lo)
                y, z, clips = _backward(paths, driver, terminal, operators, opts, k_lo, k_hi, head)
                laws = (y, z)
            out = Solution(Y=y, Z=z, grid=grid, k_lo=k_lo, clip_events=clips)
            # node-major slices of the nodes a pass writes; the terminal node stays
            moved = y.swapaxes(0, 1)[:span]
            dy = float(np.abs(moved - current.Y.swapaxes(0, 1)[:span]).max())
            if it == 1 or span > 1 or not fixed_z:
                qv_norm = bmo_norm(out.Z, paths, engine, k_lo=k_lo, operators=operators)
                dz = qv_norm if it == 1 else bmo_norm(out.Z - current.Z, paths, engine, k_lo=k_lo, operators=operators)
            else:  # out.Z and current.Z are both z_head: dz is 0 and the QV is iteration 1's
                dz = 0.0
            max_y = max(float(np.abs(moved).max()), terminal_max)
            qv = qv_norm**2
            yield PicardStep(
                iteration=it,
                dy_sup=dy,
                dz_norm=dz,
                combined=math.sqrt(dy**2 + dz**2),
                max_abs_y=max_y,
                qv_sq=qv,
                in_ball_sup=bool(max_y <= k1),
                in_ball_qv=bool(qv <= k2),
            ), out
            current = out

    def diverging(trace):
        ratios = trace.ratios()
        if trace.iterations >= 3 and np.all(ratios[-2:] > 0.9) and trace.steps[-1].combined > 100.0 * opts.tol:
            return (
                f"Picard ratios {ratios[-2:]} not contracting on window of length "
                f"{span * grid.dt:.3e}; retry with a shorter window"
            )

    trace = PicardTrace(k_lo=k_lo, k_hi=k_hi)
    stop = max(opts.tol, 1e-13 * max(1.0, terminal_max))
    exhausted = f"no convergence to tol={opts.tol:g} within {opts.max_iter} iterations"
    return _picard(passes(current), trace, stop, diverging, exhausted), trace


def solve_global(
    spec: GeneratorSpec,
    cert,
    terminal: np.ndarray,
    paths: PathEnsemble,
    engine: RegressionEngine,
    opts: SolverOptions = SolverOptions(),
) -> tuple[Solution, PicardTrace]:
    """Backward stitching of local solves on windows of length delta_kappa.

    Windows are quantized to whole grid steps with a one-step floor (the
    certified length is often far below the grid resolution); a window that
    fails to contract is halved up to six times before giving up. Every
    window and retry takes its operators from the ensemble's factor table,
    so no retry factors a node again. Seam values are shared arrays, so
    stitching is exact by construction. Each window is a :func:`solve_local`
    of the kappa-level certificate, whose constants are the record's
    ``constants.window``. The record holds each window's trace with its
    ``halvings``; a divergence carries the failing window's trace.
    """
    grid = paths.grid
    gconsts = global_ode(cert, spec.n, grid.horizon)
    terminal = _terminal_block(terminal, paths.particles, spec.n, grid.steps)
    dt = grid.dt
    spw = max(1, int(gconsts.delta_kappa / dt))
    # honor the certified window count even when flooring to whole steps
    cap = math.ceil(grid.horizon / gconsts.delta_kappa) + 6
    spw = max(spw, math.ceil(grid.steps / cap))
    local_cert = kappa_local_certificate(cert, gconsts.kappa, grid.horizon)
    n, d = spec.n, spec.d
    full_y = _by_particle(np.empty((grid.steps + 1, paths.particles, n)))
    full_z = _by_particle(np.empty((grid.steps, paths.particles, n, d)))
    full_y[:, grid.steps, :] = terminal
    clips = 0
    k_hi = grid.steps
    windows = []
    while k_hi > 0:
        size = min(spw, k_hi)
        halvings = 0
        while True:
            k_lo = k_hi - size
            try:
                sol, trace = solve_local(spec, local_cert, full_y[:, k_hi, :], paths, engine, opts, k_lo=k_lo, k_hi=k_hi)
                break
            except SolverDivergence as exc:
                exc.trace.halvings = halvings
                if size == 1 or halvings >= 6:
                    raise
                size = max(1, size // 2)
                halvings += 1
        full_y[:, k_lo:k_hi, :] = sol.Y[:, :-1, :]
        full_z[:, k_lo:k_hi, :, :] = sol.Z
        clips += sol.clip_events
        trace.halvings = halvings
        windows.append(trace)
        k_hi = k_lo
    solution = Solution(
        Y=full_y,
        Z=full_z,
        grid=grid,
        clip_events=clips,
    )
    feasible = bool(np.max(sum_squares(terminal)) <= spec.n * gconsts.c_tilde)
    report = PicardTrace(
        converged=True, k_hi=grid.steps, windows=windows, constants=gconsts, terminal_feasible=feasible
    )
    return solution, report


APRIORI_EXCESS = 0.5  # solve_theta refuses an answer whose a-priori excess is larger
APRIORI_SPREAD = 8.0  # standard errors of the terminal side that the excess is net of


def _apriori_excess(y_nodes: np.ndarray, cert: CertificateConvex, zeta: float, grid: TimeGrid) -> tuple[float, str]:
    """The largest excess of :func:`solve_theta`'s estimate, net of ``APRIORI_SPREAD`` standard errors of its
    terminal side, over nodes k < M and components i of the node-major Y (M+1, N, n), whose row M is the
    terminal, and where it is first reached; a non-finite side reads inf."""
    g, rate, t, m = cert.gamma, cert.K, grid.nodes, grid.steps

    # log mean exp(x) per column of x (N, n), NaN where x is not finite; with spread, its standard error sd(w) / (sqrt(N) mean(w))
    def log_mean_exp(x, spread=False):
        top = x.max(axis=0)
        w = np.exp(x - top)
        return top + np.log(w.mean(axis=0)), w.std(axis=0) / (math.sqrt(len(x)) * w.mean(axis=0)) if spread else None

    with np.errstate(over="ignore", invalid="ignore"):
        # W1(mu_s, d0) = mean |Y_s|, by hypot: no square to overflow
        level = zeta + rate * np.array([np.hypot.reduce(y, axis=1, initial=0.0).mean() if rate else 0.0 for y in y_nodes])
        # int_{t_k}^T level e^{K (s - t_k)} ds: e^{-K t_k} times the tail sum of the trapezoids of level e^{K s}
        weighted = level * np.exp(rate * t)
        integral = np.cumsum((0.5 * grid.dt * (weighted[:-1] + weighted[1:]))[::-1])[::-1] * np.exp(-rate * t[:m])
        scales = g * np.exp(rate * (grid.horizon - t[:m])) if rate else [g]  # at K = 0 one for all nodes
        log_xi, se_xi = np.array([log_mean_exp(s * np.abs(y_nodes[m]), spread=True) for s in scales]).transpose(1, 0, 2)
        log_y = np.array([log_mean_exp(g * np.abs(y))[0] for y in y_nodes[:m]])
        table = log_y - log_xi - APRIORI_SPREAD * se_xi - g * integral[:, None]
    table[np.isnan(table) | ~np.isfinite(integral)[:, None]] = math.inf
    k, i = np.unravel_index(np.argmax(table), table.shape)
    return float(table[k, i]), f"node {k} (t={t[k]:.6g}) in component {i}"


def solve_theta(
    spec: GeneratorSpec,
    cert: CertificateConvex,
    terminal: np.ndarray,
    paths: PathEnsemble,
    engine: RegressionEngine,
    opts: SolverOptions = SolverOptions(),
) -> tuple[Solution, PicardTrace]:
    """Node-wise Picard scheme for unbounded terminals: one kernel pass
    that settles each node before the node below (see :func:`_backward`),
    iterating Y_k alone from Y_{k+1} + ``init_offset`` until two iterates
    differ by at most tol. A driver that reads no Y (``spec.reads_y``
    False) and no law sees only the node's Z fit, so each node takes one
    iteration, recorded as 0 (with inner sweeps, if n = 1). The trace holds
    each node's iterations, counted from 1, in visit order, with the sup
    difference and max |Y_k|; a node whose last three differences rise past
    1e3, or that is unsettled after ``max_iter``, raises :class:`SolverDivergence` naming it.

    The answer is checked once against the estimate of the certificate
    (K, g), zeta = ``spec.zeta_level``, in its K > 0 form:
    exp(g |Y^i_t|) <= E_t exp(g e^{K(T-t)} |xi^i| + g int_t^T (zeta + K W1(mu_s, d0)) e^{K(s-t)} ds).
    The trace's ``apriori_excess`` is the worst log-mean excess of the left
    side over the right, net of 8 standard errors of the right side's
    sample; above 0.5 it raises :class:`SolverDivergence` naming its node."""
    grid = paths.grid
    terminal = _terminal_block(terminal, paths.particles, spec.n, grid.steps)
    y_nodes = np.empty((grid.steps + 1, paths.particles, spec.n))
    z_nodes = np.empty((grid.steps, paths.particles, spec.n, spec.d))
    y, z = _by_particle(y_nodes), _by_particle(z_nodes)
    driver = partial(_own_rows, spec, y, z, (y, z), 0)
    once = spec.law_dependence == "none" and not spec.reads_y and (spec.n == 1 or opts.inner_sweeps == 1)
    trace = PicardTrace(k_hi=grid.steps)

    def settled(k, it, y_old, y_new):  # the stop rule of _picard, per node
        with np.errstate(over="ignore"):  # an overflowing difference reads inf
            dy = 0.0 if once else float(np.abs(y_new - y_old).max())
        trace.steps.append(PicardStep(iteration=it, dy_sup=dy, combined=dy, max_abs_y=float(np.abs(y_new).max())))
        last = [s.combined for s in trace.steps[-3:]]
        diverging = it >= 4 and last[0] < last[1] < last[2] and last[2] > 1e3
        if dy > opts.tol and (diverging or it == opts.max_iter):
            failure = "Picard iterations diverging" if diverging else f"no convergence within {opts.max_iter} iterations"
            raise SolverDivergence(f"{failure} at node {k} (t={grid.nodes[k]:.6g})", trace)
        return dy <= opts.tol

    try:
        _, _, clips = _backward(paths, driver, terminal, FactorTable.of(paths, engine.basis), opts, 0, grid.steps, settle=(y_nodes, z_nodes, settled))
    except SolverDivergence as exc:  # a non-finite node
        exc.trace = exc.trace or trace
        raise
    trace.converged = True
    trace.apriori_excess, where = _apriori_excess(y_nodes, cert, spec.zeta_level, grid)
    if trace.apriori_excess > APRIORI_EXCESS:
        raise SolverDivergence(f"a-priori estimate broken at {where}: exponential-moment excess {trace.apriori_excess:.3g} > {APRIORI_EXCESS}", trace)
    return Solution(Y=y, Z=z, grid=grid, clip_events=clips), trace


def solve_volterra(
    spec: GeneratorSpec,
    g: GSpec,
    vcert: CertificateVolterra,
    ccert: CertificateConvex,
    terminal: np.ndarray,
    paths: PathEnsemble,
    engine: RegressionEngine,
    opts: SolverOptions = SolverOptions(),
) -> tuple[Solution, PicardTrace]:
    """Two-level scheme for a delayed (Volterra-type) mean-field term.

    The inner pair solves the plain BSDE without g. Outer sweep r maps

        Y^{r+1}_k = Y'_k + sum_{j >= k} E_k[ g(j, Y^r, Z', law_j) ] dt,

    using one projection of the tail sum per node; g is evaluated on nodes
    0..M-1, the only ones a tail sum reads. The inner solve and every outer
    sweep take their operators from the ensemble's factor table.
    Convergence is tracked in the exp(beta t)-weighted squared sup norm
    with beta = 32 C^2 T, and iteration stops when the unweighted sup
    difference drops below tol. A non-finite g block, or an outer node
    whose new Y is not finite (an overflowing tail fit too), raises
    :class:`SolverDivergence` naming the node and the component before any
    projection reads it, so the law views are built over checked clouds.
    """
    grid = paths.grid
    beta = volterra_weight(vcert.C, grid.horizon)
    operators = FactorTable.of(paths, engine.basis)
    inner_sol, _ = solve_theta(spec, ccert, terminal, paths, engine, opts)
    m = grid.steps
    weights = np.exp(beta * grid.nodes)
    n = spec.n
    y_prev = np.zeros_like(inner_sol.Y)
    if opts.init_offset:
        y_prev += opts.init_offset

    def sweeps(y_prev):
        for it in range(1, opts.max_iter + 1):
            g_vals = np.empty((m, paths.particles, n))  # node-major
            for j in range(m):
                g_vals[j] = g(j, y_prev, inner_sol.Z, MeasureView.of_checked(y_prev[:, j]))
                _check_finite(j, grid.nodes[j], g=g_vals[j])
            tails = np.zeros((paths.particles, n))
            y_new = np.empty_like(y_prev)
            y_new[:, m, :] = inner_sol.Y[:, m, :]
            for k in range(m - 1, -1, -1):
                tails = tails + g_vals[k] * grid.dt
                # an overflowing fit, inf - inf inside the product too, is caught below as non-finite Y
                with np.errstate(over="ignore", invalid="ignore"):
                    y_new[:, k] = inner_sol.Y[:, k] + operators[k].apply(tails)
                _check_finite(k, grid.nodes[k], Y=y_new[:, k])
            diff = y_new - y_prev
            dy = float(np.abs(diff).max())
            weighted = float(np.mean(np.max(weights[None, :] * sum_squares(diff), axis=1)))
            max_y = float(np.abs(y_new).max())
            yield PicardStep(iteration=it, dy_sup=dy, combined=dy, max_abs_y=max_y, monitors={"weighted_sq": weighted}), y_new
            y_prev = y_new

    trace = PicardTrace(k_hi=m)
    exhausted = f"outer sweeps did not converge within {opts.max_iter}"
    sol = Solution(
        Y=_picard(sweeps(y_prev), trace, opts.tol, lambda trace: None, exhausted),
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

    The scheme takes its node factors from the ensemble's factor table for
    the engine's basis, so a re-solve on the same ensemble, such as a
    probe from a shifted start, and :func:`export_csv` factor no node
    again. ``extras`` holds the stitching record for ``global`` (whose
    trace is None) under ``"report"`` and is empty otherwise. The scheme
    runs on the ensemble's grid, ``paths.grid``; ``grid`` must equal it.
    Raises ``ValueError`` naming both grids when it does not, when the
    fixture's terminal is not (particles, n), when it lacks the scheme's
    certificate, and for an unknown scheme, and :class:`SolverDivergence`
    when the terminal is not finite."""
    require_grid(grid, paths, "scheme")
    terminal = _terminal_block(bundle.terminal(paths), paths.particles, bundle.spec.n, grid.steps)
    if scheme == "theta":
        if bundle.convex is None:
            raise ValueError(f"fixture {bundle.name} has no Picard certificate")
        sol, trace = solve_theta(bundle.spec, bundle.convex, terminal, paths, engine, opts)
        return sol, trace, {}
    if scheme == "local":
        if bundle.local is None:
            raise ValueError(f"fixture {bundle.name} has no local certificate")
        sol, trace = solve_local(bundle.spec, bundle.local, terminal, paths, engine, opts)
        return sol, trace, {}
    if scheme == "global":
        if bundle.global_ is None:
            raise ValueError(f"fixture {bundle.name} has no global certificate")
        sol, report = solve_global(bundle.spec, bundle.global_, terminal, paths, engine, opts)
        return sol, None, {"report": report}
    if scheme == "volterra":
        if bundle.volterra is None or bundle.g is None:
            raise ValueError(f"fixture {bundle.name} has no Volterra data")
        sol, trace = solve_volterra(bundle.spec, bundle.g, bundle.volterra, bundle.convex, terminal, paths, engine, opts)
        return sol, trace, {}
    raise ValueError(f"unknown scheme {scheme!r}")


def summarize_nodes(sol: Solution, paths: PathEnsemble, engine: RegressionEngine) -> list[dict]:
    """Per-node summary rows: time, mean |Y| per component, max |Y|, and a
    running estimate of the conditional tail quadratic variation, whose
    node operators come from the ensemble's factor table. Raises
    ``ValueError`` naming both grids when the solution's grid is not the
    ensemble's."""
    require_grid(sol.grid, paths, "solution")
    times = sol.node_times()
    span = sol.Z.shape[1]
    profile = bmo_profile(sol.Z, paths, engine, k_lo=sol.k_lo) if span else np.array([])
    rows = []
    for j, t in enumerate(times):
        row = {"node": sol.k_lo + j, "time": float(t), "max_abs_y": float(np.abs(sol.Y[:, j]).max())}
        for i in range(sol.components):
            row[f"mean_abs_y{i}"] = float(np.abs(sol.Y[:, j, i]).mean())
        row["tail_qv"] = float(profile[j]) if j < len(profile) else 0.0
        rows.append(row)
    return rows


def export_csv(sol: Solution, paths: PathEnsemble, engine: RegressionEngine, path: str) -> None:
    """Write the :func:`summarize_nodes` rows to ``path`` as CSV."""
    import csv

    rows = summarize_nodes(sol, paths, engine)
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
    d = sol.Z.shape[3]
    with open(path, "wb") as fh:
        fh.write(_SOL_MAGIC)
        fh.write(struct.pack("<qqqqqq", n_part, kp1 - 1, n, d, sol.k_lo, sol.grid.steps))
        fh.write(struct.pack("<d", sol.grid.horizon))
        np.ascontiguousarray(sol.Y, dtype="<f8").tofile(fh)
        np.ascontiguousarray(sol.Z, dtype="<f8").tofile(fh)


def load_solution(path: str) -> Solution:
    """Read a file written by :func:`dump_solution`, checking the header
    (at least one particle, component and noise dimension, the span inside
    the grid, a finite positive horizon) and that the payload holds exactly
    the finite Y and Z it announces. The arrays are copied into node-major
    buffers, as the solvers store them."""
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
    sizes_ok = min(n_part, n, d) >= 1 and min(span, k_lo) >= 0 and k_lo + span <= steps
    if not (sizes_ok and math.isfinite(horizon) and horizon > 0.0):
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
    for name, values in (("Y", raw[:y_count]), ("Z", raw[y_count:])):
        if not np.isfinite(values).all():
            raise ValueError(f"solution payload holds a non-finite {name} value")
    grid = TimeGrid(horizon=horizon, steps=steps)
    y = np.ascontiguousarray(_by_particle(raw[:y_count].reshape(n_part, span + 1, n)), dtype=np.float64)
    z = np.ascontiguousarray(_by_particle(raw[y_count:].reshape(n_part, span, n, d)), dtype=np.float64)
    return Solution(Y=_by_particle(y), Z=_by_particle(z), grid=grid, k_lo=k_lo)
