"""Closed-form and high-resolution references the test suite checks against.

Three families: the exponential-transform value for the pure quadratic
driver (Gauss-Hermite or Monte Carlo), explicit solutions of the linear
mean-field driver, and a refined-grid re-solve with a bootstrap width for
cases with no closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .condexp import RegressionBasis, RegressionEngine
from .generators import FixtureBundle
from .measures import exp_moment
from .paths import TimeGrid, build_grid, is_count, sample_brownian
from .solvers import SolverOptions, run_scheme

TerminalFn = Callable[[np.ndarray], np.ndarray]

GAUSS_NODES = 64  # Gauss-Hermite nodes of cole_hopf; its half width compares them with 16 more
BOOTSTRAP_RESAMPLES = 20  # particle-index resamples behind dense_reference's width
REFINE_BUDGET = 2**23  # path nodes (particles x fine steps) dense_reference may sample


class OracleRefusal(ValueError):
    """The requested expectation fails the integrability screen."""


class OracleBudgetError(ValueError):
    """A refined re-solve would exceed the configured work budget."""


@dataclass
class OracleResult:
    value: float
    half_width: float
    method: str
    note: str = ""
    extras: dict = field(default_factory=dict, repr=False)


def _integrability_screen(terminal_fn: TerminalFn, gamma: float, horizon: float) -> None:
    """Refuse when exp(gamma * g(w)) is not Gaussian-integrable.

    The exponent gamma g(w) - w^2 / (2T) must fall by a safe margin over
    the far tail on both sides; quadratic growth at or above the Gaussian
    rate fails this and the quadrature value would be meaningless.
    """
    scale = math.sqrt(horizon)
    w = np.linspace(8.0 * scale, 40.0 * scale, 33)
    for sign in (1.0, -1.0):
        g = np.asarray(terminal_fn(sign * w), dtype=np.float64)
        s = gamma * g - w**2 / (2.0 * horizon)
        if s[-1] > s[0] - 1.0:
            raise OracleRefusal(
                "terminal grows too fast for the exponential moment: "
                f"tail exponent moves {s[-1] - s[0]:+.3g} instead of decaying"
            )


def _gauss_value(terminal_fn: TerminalFn, gamma: float, var: float, nodes: int) -> float:
    """log E[exp(gamma g(X))] for X ~ N(0, var) by Gauss-Hermite."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    pts = math.sqrt(2.0 * var) * x
    log_terms = np.log(w) + gamma * np.asarray(terminal_fn(pts), dtype=np.float64)
    m = float(np.max(log_terms))
    return m + math.log(float(np.sum(np.exp(log_terms - m)))) - 0.5 * math.log(math.pi)


def cole_hopf(
    terminal_fn: TerminalFn,
    gamma: float,
    horizon: float,
    method: str = "gauss",
    samples: int = 200_000,
    seed: int = 0,
) -> OracleResult:
    """Initial value of the scalar BSDE with driver (gamma/2) |z|^2 and
    terminal g(W_T): the exponential transform gives

        Y_0 = (1/gamma) log E[ exp(gamma g(W_T)) ].
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    _integrability_screen(terminal_fn, gamma, horizon)
    if method == "gauss":
        v1 = _gauss_value(terminal_fn, gamma, horizon, GAUSS_NODES)
        v2 = _gauss_value(terminal_fn, gamma, horizon, GAUSS_NODES + 16)
        value = v2 / gamma
        # node-doubling differences underestimate the error on kinked
        # terminals, hence the safety factor on the reported width
        return OracleResult(
            value=value,
            half_width=5.0 * abs(v2 - v1) / gamma + 1e-12,
            method=f"gauss-hermite-{GAUSS_NODES + 16}",
        )
    if method == "mc":
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xC01E)))
        x = math.sqrt(horizon) * rng.standard_normal(samples)
        log_terms = gamma * np.asarray(terminal_fn(x), dtype=np.float64)
        value = exp_moment(log_terms).log_value / gamma
        boots = np.empty(200)
        for b in range(200):
            idx = rng.integers(0, samples, samples)
            boots[b] = exp_moment(log_terms[idx]).log_value / gamma
        return OracleResult(
            value=value,
            half_width=3.0 * float(boots.std()),
            method=f"mc-{samples}",
            note="half width is three bootstrap standard errors",
        )
    raise ValueError(f"unknown method {method!r}")


def linear_mf_oracle(a: float, b: float, horizon: float, terminal: str = "const", value: float = 1.0) -> OracleResult:
    """Explicit solutions of the driver a y + b E[Y].

    A constant terminal c gives the deterministic pair
    Y_t = c exp((a + b)(T - t)), Z = 0; the Brownian terminal W_T gives
    Y_t = exp(a (T - t)) W_t with Z_t = exp(a (T - t)) and mean zero.
    """
    if terminal == "const":
        y0 = value * math.exp((a + b) * horizon)
        return OracleResult(
            value=y0,
            half_width=0.0,
            method="closed-form",
            extras={"z": lambda t: 0.0, "y": lambda t, w: value * math.exp((a + b) * (horizon - t))},
        )
    if terminal == "brownian":
        return OracleResult(
            value=0.0,
            half_width=0.0,
            method="closed-form",
            extras={
                "z": lambda t: math.exp(a * (horizon - t)),
                "y": lambda t, w: math.exp(a * (horizon - t)) * w,
            },
        )
    raise ValueError(f"no closed form for terminal {terminal!r}")


def refined_grid(base_grid: TimeGrid, particles: int, refine: int) -> TimeGrid:
    """The refine-times finer grid, checked: ``refine`` an int >= 1 and
    within ``REFINE_BUDGET`` (:class:`OracleBudgetError`)."""
    if not is_count(refine, 1):
        raise ValueError(f"refine must be an int >= 1, got {refine!r}")
    fine_steps = base_grid.steps * refine
    if particles * fine_steps > REFINE_BUDGET:
        raise OracleBudgetError(
            f"{particles} particles x {fine_steps} steps exceeds the budget of {REFINE_BUDGET} path nodes"
        )
    return build_grid(base_grid.horizon, fine_steps)


def dense_reference(
    bundle: FixtureBundle,
    base_grid: TimeGrid,
    particles: int,
    seed: int,
    refine: int = 4,
    scheme: str = "theta",
    engine: RegressionEngine = RegressionEngine(RegressionBasis()),
    opts: SolverOptions = SolverOptions(),
) -> OracleResult:
    """Reference Y_0 from a re-solve on a refine-times finer grid.

    The fine ensemble's seed is derived from (seed, refine) so coarse and
    fine runs never share a raw stream by accident; the half width is
    three standard errors of a particle-index bootstrap of the root-node
    average (the final projection conditions on a constant state, so the
    root fit is exactly that average).
    """
    fine_grid = refined_grid(base_grid, particles, refine)
    fine_seed = int(np.random.SeedSequence((int(seed), int(refine))).generate_state(1)[0])
    paths = sample_brownian(fine_grid, particles, bundle.spec.d, seed=fine_seed)
    sol, trace, _ = run_scheme(bundle, scheme, fine_grid, paths, engine, opts)
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0xB007)))
    boots = np.empty((BOOTSTRAP_RESAMPLES, sol.components))
    for r in range(BOOTSTRAP_RESAMPLES):
        idx = rng.integers(0, particles, particles)
        boots[r] = sol.Y[idx, 0, :].mean(axis=0)
    value = sol.y0()
    return OracleResult(
        value=float(value[0]) if sol.components == 1 else float(np.linalg.norm(value)),
        half_width=3.0 * float(boots.std(axis=0).max()),
        method=f"refine-{refine}",
        note="bootstrap covers the root-node averaging only",
        extras={"solution": sol, "paths": paths, "value_vector": value, "seed": fine_seed},
    )
