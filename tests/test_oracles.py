import math

import numpy as np
import pytest

from mfbsde.condexp import RegressionBasis, RegressionEngine
from mfbsde.generators import fixture
from mfbsde.measures import MeasureError
from mfbsde.oracles import (
    OracleBudgetError,
    OracleRefusal,
    cole_hopf,
    dense_reference,
    linear_mf_oracle,
)
from mfbsde.paths import build_grid
from mfbsde.solvers import SolverOptions


def test_identity_terminal_exact_half():
    # log E[exp(W_1)] = 1/2 by the Gaussian moment generating function
    r = cole_hopf(lambda w: w, 1.0, 1.0)
    assert r.value == pytest.approx(0.5, abs=1e-12)


def test_gamma_scaling():
    # log E[exp(g W_T)] / g = g T / 2
    r = cole_hopf(lambda w: w, 2.0, 0.5)
    assert r.value == pytest.approx(0.5, abs=1e-12)


def test_folded_normal_closed_form():
    # E[exp(|W_1|)] = 2 e^{1/2} Phi(1), with Phi from the error function
    phi1 = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    truth = math.log(2.0 * math.exp(0.5) * phi1)
    r = cole_hopf(np.abs, 1.0, 1.0)
    assert abs(r.value - truth) < 5e-3
    assert abs(r.value - truth) <= r.half_width


def test_subcritical_quadratic_terminal():
    # E[exp(W_1^2 / 4)] = sqrt(2) stays integrable and exact for the
    # quadrature up to machine precision
    r = cole_hopf(lambda w: w**2 / 4.0, 1.0, 1.0)
    assert r.value == pytest.approx(0.5 * math.log(2.0), abs=1e-12)


def test_quadrature_and_monte_carlo_agree():
    gh = cole_hopf(np.tanh, 1.0, 1.0)
    mc = cole_hopf(np.tanh, 1.0, 1.0, method="mc", samples=100_000, seed=7)
    assert abs(gh.value - mc.value) <= gh.half_width + mc.half_width
    assert mc.half_width > 0


def test_integrability_refusal():
    with pytest.raises(OracleRefusal):
        cole_hopf(lambda w: w**2, 1.0, 1.0)
    # borderline critical growth also refuses
    with pytest.raises(OracleRefusal):
        cole_hopf(lambda w: w**2 / 2.0, 1.0, 1.0)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        cole_hopf(lambda w: w, 0.0, 1.0)
    with pytest.raises(ValueError):
        cole_hopf(lambda w: w, 1.0, 1.0, method="magic")


def test_linear_oracle_const_terminal():
    r = linear_mf_oracle(0.25, 0.75, 2.0, terminal="const", value=3.0)
    assert r.value == pytest.approx(3.0 * math.exp(2.0))
    assert r.extras["y"](2.0, 0.0) == pytest.approx(3.0)
    assert r.extras["z"](0.5) == 0.0


def test_linear_oracle_brownian_terminal():
    r = linear_mf_oracle(0.5, 1.0, 1.0, terminal="brownian")
    assert r.value == 0.0
    assert r.extras["z"](0.0) == pytest.approx(math.exp(0.5))
    assert r.extras["y"](1.0, 1.3) == pytest.approx(1.3)
    with pytest.raises(ValueError):
        linear_mf_oracle(0.0, 0.0, 1.0, terminal="exotic")


def test_dense_reference_tracks_transform_value():
    bundle = fixture("pure_quadratic", gamma=1.0, terminal="brownian")
    base = build_grid(1.0, 16)
    ref = dense_reference(bundle, base, particles=4096, seed=31, refine=2, opts=SolverOptions(tol=1e-8))
    assert abs(ref.value - 0.5) < 0.05
    assert ref.half_width > 0
    assert ref.extras["solution"].grid.steps == 32
    # derived stream differs from the raw seed
    assert ref.extras["seed"] != 31


def test_dense_reference_budget_guard():
    bundle = fixture("pure_quadratic", gamma=1.0, terminal="brownian")
    base = build_grid(1.0, 1024)
    with pytest.raises(OracleBudgetError):
        dense_reference(bundle, base, particles=2**20, seed=1, refine=8)


def test_dense_reference_engine_passthrough():
    bundle = fixture("linear_mf", a=0.0, b=1.0, terminal="const", value=1.0)
    base = build_grid(1.0, 8)
    engine = RegressionEngine(RegressionBasis(degree=2))
    ref = dense_reference(
        bundle, base, particles=512, seed=5, refine=2, engine=engine,
        opts=SolverOptions(tol=1e-9, max_iter=60),
    )
    assert ref.value == pytest.approx(math.e, rel=0.01)


def test_monte_carlo_transform_refuses_a_non_finite_term():
    # the terminal is finite far out, so the integrability screen passes
    with pytest.raises(MeasureError, match="finite"):
        cole_hopf(lambda w: np.where(np.abs(w) < 0.5, np.nan, 0.0), 1.0, 1.0, method="mc", samples=1000)
