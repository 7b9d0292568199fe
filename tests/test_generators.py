import math

import numpy as np
import pytest

from mfbsde.generators import (
    CertificateConvex,
    CertificateError,
    CertificateGlobal,
    CertificateLocal,
    CertificateVolterra,
    FixtureError,
    MonomialFn,
    _no_stage,
    fixture,
    fixture_names,
)
from mfbsde.measures import MeasureView


def test_registry_contents():
    names = fixture_names()
    assert "pure_quadratic" in names
    assert "eq41" in names
    with pytest.raises(FixtureError):
        fixture("does_not_exist")


def test_monomial_fn():
    f = MonomialFn(1.0, 2.0, 3.0)
    assert f(2.0) == pytest.approx(17.0)
    with pytest.raises(CertificateError):
        MonomialFn(-1.0, 0.0, 1.0)
    with pytest.raises(CertificateError):
        MonomialFn(0.0, 1.0, 0.5)


@pytest.mark.parametrize("coefs", [(0.0, math.inf, 8.0), (0.0, math.nan, 8.0), (math.inf, 0.0, 1.0), (0.0, 1.0, math.inf)])
def test_monomial_fn_refuses_non_finite_values(coefs):
    with pytest.raises(CertificateError, match="finite reals"):
        MonomialFn(*coefs)


def test_monomial_fn_saturates_quietly_and_an_absent_term_stays_absent():
    assert MonomialFn(0.0, 1e305, 8.0)(10.0) == math.inf
    assert MonomialFn(2.0, 0.0, 3.0)(math.inf) == 2.0
    np.testing.assert_array_equal(MonomialFn(2.0, 0.0, 3.0)(np.array([0.0, 1e200, math.inf])), 2.0)


def test_certificate_validation():
    ok = CertificateLocal(gamma=1.0, lam=1.0, gamma0=0.0, alpha=0.5, M1=1.0, M2=0.0)
    assert ok.alpha == 0.5
    with pytest.raises(CertificateError):
        CertificateLocal(gamma=0.0, lam=1.0, gamma0=0.0, alpha=0.5, M1=1.0, M2=0.0)
    with pytest.raises(CertificateError):
        CertificateLocal(gamma=1.0, lam=1.0, gamma0=0.0, alpha=1.0, M1=1.0, M2=0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda g: CertificateLocal(gamma=g, lam=0.1, gamma0=0.0, alpha=0.0, M1=1.0, M2=0.0),
        lambda g: CertificateGlobal(L=1.0, gamma=g, M1=1.0, M3=0.0),
        lambda g: CertificateConvex(K=0.0, gamma=g),
        lambda g: CertificateVolterra(C=0.0, gamma=g),
    ],
    ids=["local", "global", "convex", "volterra"],
)
def test_certificates_refuse_a_non_finite_gamma(build):
    # an infinite gamma used to reach local_window as a bare "math domain
    # error", and the theta monitors as an overflow
    assert build(1.0).gamma == 1.0
    for gamma in (math.inf, math.nan, -math.inf):
        with pytest.raises(CertificateError, match="gamma must be positive and finite"):
            build(gamma)


@pytest.mark.parametrize("name", fixture_names())
def test_component_reads_own_row_from_z_and_the_others_from_others(name):
    spec = fixture(name).spec
    rng = np.random.default_rng(7)
    y = rng.standard_normal((50, spec.n))
    z = rng.standard_normal((50, spec.n, spec.d))
    others = rng.standard_normal((50, spec.n, spec.d))
    law = MeasureView(rng.standard_normal((50, spec.n)), rng.standard_normal((50, spec.n, spec.d)))
    values = spec.evaluate(0.2, y, law, spec.z_stage(z, law, others))
    assert values.shape == (50, spec.n)
    for i in range(spec.n):
        # the full driver at z with row i own and every other row from others
        z_i = others.copy()
        z_i[:, i] = z[:, i]
        np.testing.assert_allclose(values[:, i], spec(0.2, y, z_i, law)[:, i], rtol=1e-14)
        # row i of others and the other rows of z do not enter component i
        scrambled_z, scrambled_others = 3.0 * z, others.copy()
        scrambled_z[:, i], scrambled_others[:, i] = z[:, i], 5.0
        scrambled = spec.evaluate(0.2, y, law, spec.z_stage(scrambled_z, law, scrambled_others))
        assert np.array_equal(scrambled[:, i], values[:, i])


def _growth_violations(spec, cert, budget=4000, seed=20260814):
    """Samples where some |f^i| exceeds the certificate's growth bound, from 25
    batches of (t, y, z) on boxes of scale up to 5 around normal laws. None is
    evidence, not proof."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    bad = 0
    for _ in range(25):
        t, scale = gen.uniform(0.0, 1.0), gen.uniform(0.05, 5.0)
        y = gen.uniform(-scale, scale, size=(budget // 25, spec.n))
        z = gen.uniform(-scale, scale, size=(budget // 25, spec.n, spec.d))
        law = MeasureView(gen.normal(0.0, scale, size=(64, spec.n)), gen.normal(0.0, scale, size=(64, spec.n * spec.d)))
        rows, y_norm = np.linalg.norm(z, axis=2), np.linalg.norm(y, axis=1)[:, None]
        own = spec.zeta_level + 0.5 * cert.gamma * rows**2
        if isinstance(cert, CertificateLocal):  # the other rows enter as sum_{j != i} |z^j|^(1+alpha)
            powers = rows ** (1.0 + cert.alpha)
            cross = cert.lam * (powers.sum(axis=1, keepdims=True) - powers) + cert.gamma0 * law.w_z(2) ** (1.0 + cert.alpha)
            bound = own + cert.psi(y_norm) + cert.psi0(law.w_y(2)) + cross
        elif isinstance(cert, CertificateGlobal):
            bound = own + cert.L * (y_norm + law.w_y(2))
        else:  # a convex certificate bounds the law by its W1 distance
            bound = own + cert.K * (y_norm + law.w_y(1))
        bad += int((np.abs(spec(t, y, z, law)) > bound * (1.0 + 1e-12)).sum())
    return bad


# every (fixture, certificate) pair the registry builds, the bounded-terminal
# variants included; a Volterra certificate bounds the delayed term, not f
_AUDITED = [
    (name, params, kind)
    for name in fixture_names()
    for params in ([{}, {"terminal": "tanh"}] if name in ("pure_quadratic", "bounded_sine_mf") else [{}])
    for kind in ("local", "global_", "convex")
    if getattr(fixture(name, **params), kind) is not None
]


@pytest.mark.parametrize(
    "name, params, kind", _AUDITED, ids=[f"{n}{'-tanh' if p else ''}-{k.rstrip('_')}" for n, p, k in _AUDITED]
)
def test_growth_certificates_hold(name, params, kind):
    bundle = fixture(name, **params)
    assert _growth_violations(bundle.spec, getattr(bundle, kind)) == 0


def test_growth_detects_violation():
    # understate the quadratic coefficient and the audit must object
    bundle = fixture("pure_quadratic", gamma=2.0, terminal="tanh")
    weak = CertificateLocal(
        gamma=0.5, lam=0.1, gamma0=0.1, alpha=0.0, M1=1.0, M2=0.0,
        psi=bundle.local.psi, psi0=bundle.local.psi0,
    )
    assert _growth_violations(bundle.spec, weak, seed=1) > 0


def test_diagonal_fixtures_ignore_or_damp_other_rows():
    # pure quadratic: other rows never enter
    b1 = fixture("pure_quadratic")
    rng = np.random.default_rng(1)
    y = rng.standard_normal((30, 1))
    z = rng.standard_normal((30, 1, 1))
    f1 = b1.spec(0.0, y, z, None)
    f2 = b1.spec(0.0, y, 5.0 * z, None)
    # scaling the own row changes the value quadratically, as it should
    np.testing.assert_allclose(f2, 25.0 * f1, atol=1e-12)

    # eq41: a bump h on a foreign row moves component i by at most |h|
    b2 = fixture("eq41", n=2)
    y2 = rng.standard_normal((30, 2))
    z2 = rng.standard_normal((30, 2, 2))
    law = MeasureView(y2, z2)
    base = b2.spec(0.0, y2, z2, law)[:, 0]
    bumped = z2.copy()
    h = 0.7
    bumped[:, 1, :] += h / np.sqrt(2)
    moved = b2.spec(0.0, y2, bumped, law)[:, 0]
    assert np.abs(moved - base).max() <= h + 1e-12


def test_terminal_samplers_shapes():
    from mfbsde.paths import build_grid, sample_brownian

    grid = build_grid(1.0, 4)
    for name in fixture_names():
        bundle = fixture(name)
        paths = sample_brownian(grid, 16, bundle.spec.d, seed=2)
        term = np.asarray(bundle.terminal(paths))
        assert term.shape == (16, bundle.spec.n)
        assert np.isfinite(term).all()


def test_bounded_sine_law_coupling():
    # the driver must actually read the mean-field argument
    bundle = fixture("bounded_sine_mf", terminal="tanh")
    rng = np.random.default_rng(3)
    y = rng.standard_normal((20, 2))
    z = rng.standard_normal((20, 2, 2))
    near = MeasureView(np.zeros((20, 2)))
    far = MeasureView(np.full((20, 2), 1.0))
    f_near = bundle.spec(0.0, y, z, near)
    f_far = bundle.spec(0.0, y, z, far)
    assert np.abs(f_near - f_far).max() > 1e-3


# Reference drivers written with np.linalg.norm and numpy's axis sums, as the
# registry computed them before row norms became contractions. Law distances
# are the p-th moment roots of the clouds' row norms.


def _w(points, p):
    return float(np.mean(np.linalg.norm(points, axis=1) ** p) ** (1.0 / p))


def _reference_driver(name, params, y, z, law_y, law_z):
    rows = np.linalg.norm(z, axis=2)
    if name in ("pure_quadratic", "volterra_demo"):
        return 0.5 * params["gamma"] * rows**2
    if name == "linear_mf":
        return params["a"] * y + params["b"] * law_y.mean(axis=0)[0]
    if name == "bounded_sine_mf":
        return 0.5 * params["gamma"] * rows**2 + params["K"] * np.sin(_w(law_y, 1))
    w1, w2 = _w(law_y, 2), _w(law_z, 2)
    ynorm = np.linalg.norm(y, axis=1)[:, None]
    if name == "eq41":
        sins = np.sin(rows)
        cross = sins.sum(axis=1, keepdims=True) - sins
        return 1.0 + ynorm + rows**2 + cross + w1 * np.cos(w2)
    if name == "remark31":
        full = np.linalg.norm(z.reshape(z.shape[0], -1), axis=1)[:, None]
        coupling = w1**3 * np.cos(w2) + w2 ** (4.0 / 3.0)
        return (ynorm**2 + np.sin(rows)) * full + full ** (4.0 / 3.0) + rows**2 + coupling
    raise AssertionError(f"no reference driver for fixture {name}")


@pytest.mark.parametrize("name", fixture_names())
def test_drivers_match_norm_reference(name):
    bundle = fixture(name)
    spec = bundle.spec
    rng = np.random.default_rng(41)
    y = 1.5 * rng.standard_normal((257, spec.n))
    z = 1.5 * rng.standard_normal((257, spec.n, spec.d))
    law_y = rng.standard_normal((257, spec.n))
    law_z = rng.standard_normal((257, spec.n * spec.d))
    law = MeasureView(law_y, law_z)
    values = spec(0.4, y, z, law)
    reference = _reference_driver(name, bundle.params, y, z, law_y, law_z)
    assert values.shape == reference.shape == (257, spec.n)
    assert np.abs(values - reference).max() <= 1e-14 * np.abs(reference).max()


@pytest.mark.parametrize("name", fixture_names())
@pytest.mark.parametrize("with_others", [False, True])
def test_z_stage_is_read_in_place_of_the_z_arguments_bitwise(name, with_others):
    spec = fixture(name).spec
    rng = np.random.default_rng(13)
    y = rng.standard_normal((65, spec.n))
    z, moved = rng.standard_normal((2, 65, spec.n, spec.d))
    others = rng.standard_normal((65, spec.n, spec.d)) if with_others else z
    law_y, law_z = rng.standard_normal((65, spec.n)), rng.standard_normal((65, spec.n, spec.d))
    law = {"none": None, "y_only": MeasureView(law_y), "joint": MeasureView(law_y, law_z)}[spec.law_dependence]
    values = spec.evaluate(0.6, y, law, spec.z_stage(z, law, others))
    if not with_others:  # the full driver takes every row from z
        assert np.array_equal(spec(0.6, y, z, law), values)
    # Z reaches the values only through the stage, which only a driver that reads no Z leaves empty
    moved_values = spec.evaluate(0.6, y, law, spec.z_stage(moved, law, others))
    assert np.array_equal(moved_values, values) == (spec.z_stage is _no_stage)


_READS_NO_Y = [name for name in fixture_names() if not fixture(name).spec.reads_y]


def test_pure_quadratic_and_its_reusers_declare_they_read_no_y():
    assert _READS_NO_Y == ["pure_quadratic", "volterra_demo"]


@pytest.mark.parametrize("name", _READS_NO_Y)
def test_a_driver_declared_to_read_no_y_gives_the_same_values_for_any_y(name):
    spec = fixture(name).spec
    rng = np.random.default_rng(29)
    y, other_y = 4.0 * rng.standard_normal((2, 129, spec.n))
    z = rng.standard_normal((129, spec.n, spec.d))
    law_y, law_z = rng.standard_normal((129, spec.n)), rng.standard_normal((129, spec.n, spec.d))
    law = {"none": None, "y_only": MeasureView(law_y), "joint": MeasureView(law_y, law_z)}[spec.law_dependence]
    assert np.array_equal(spec(0.3, y, z, law), spec(0.3, other_y, z, law))
