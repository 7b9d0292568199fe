"""Driver specifications, growth certificates, and the fixture registry.

A driver evaluates vectorized over particles, all n components in one
call. Diagonal structure means component i is quadratic in its own Z row
only; certificates carry the constants that make that quantitative. Each
spec states its driver in one form: ``z_stage(z, law, others)`` computes
what the driver reads of Z, with component i's own row from ``z`` and every
other row from ``others``, and ``evaluate(t, y, law, stage)`` reads Z only
through that stage. ``spec(t, y, z, law)`` is the full driver. A caller
whose Z arguments stay fixed computes the stage once. :func:`fixture` fills
each bundle's ``name`` and ``params``; the builders state only the driver,
terminal and certificates.
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .measures import MeasureView, sum_squares
from .paths import is_count, is_finite_real


class FixtureError(ValueError):
    pass


class CertificateError(ValueError):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CertificateError(msg)


@dataclass(frozen=True)
class MonomialFn:
    """Increasing map x -> c0 + c1 * x**r on [0, inf), with c0, c1 >= 0."""

    c0: float = 0.0
    c1: float = 0.0
    r: float = 1.0

    def __post_init__(self) -> None:
        finite = all(is_finite_real(v) for v in (self.c0, self.c1, self.r))
        _require(finite, f"monomial values must be finite reals: {self!r}")
        _require(self.c0 >= 0 and self.c1 >= 0, "monomial coefficients must be nonnegative")
        _require(self.r >= 1, "monomial exponent must be >= 1")

    def __call__(self, x):
        """The value, inf past float64 range; c1 = 0 is absent at any x."""
        if self.c1 == 0:
            return self.c0 + np.zeros_like(x, dtype=np.float64)
        with np.errstate(over="ignore"):
            return self.c0 + self.c1 * np.abs(x) ** self.r


ZERO_FN = MonomialFn(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class CertificateLocal:
    """Growth budget for the small-window theory.

    |f^i| <= zeta_t + psi(|y|) + (gamma/2)|z^i|^2
             + lam * sum_{j != i} |z^j|^(1+alpha)
             + psi0(W2(mu1, d0)) + gamma0 * W2(mu2, d0)^(1+alpha),
    with ||xi||_inf <= M1 and ||int zeta dt||_inf <= M2.
    """

    gamma: float
    lam: float
    gamma0: float
    alpha: float
    M1: float
    M2: float
    psi: MonomialFn = ZERO_FN
    psi0: MonomialFn = ZERO_FN

    def __post_init__(self) -> None:
        _require(0 < self.gamma < math.inf, "gamma must be positive and finite")
        _require(self.lam >= 0 and self.gamma0 >= 0, "lam and gamma0 must be nonnegative")
        _require(0 <= self.alpha < 1, "alpha must lie in [0, 1)")
        _require(self.M1 >= 0 and self.M2 >= 0, "M1 and M2 must be nonnegative")


@dataclass(frozen=True)
class CertificateGlobal:
    """Linear-growth budget for terminal-restricted global solves.

    |f^i| <= zeta_t + L|y| + (gamma/2)|z^i|^2 + L * W2(mu1, d0),
    with ||xi||_inf <= M1 and ||int |zeta|^2 dt||_inf <= M3.
    """

    L: float
    gamma: float
    M1: float
    M3: float

    def __post_init__(self) -> None:
        _require(0 < self.gamma < math.inf, "gamma must be positive and finite")
        _require(self.L >= 0, "L must be nonnegative")
        _require(self.M1 >= 0 and self.M3 >= 0, "M1 and M3 must be nonnegative")


@dataclass(frozen=True)
class CertificateConvex:
    """Budget for the Picard scheme with unbounded terminals.

    |f^i| <= zeta_t + K|y| + (gamma/2)|z^i|^2 + K * W1(mu, d0), each f^i
    depending on its own Z row only, and convex or concave in it.
    """

    K: float
    gamma: float

    def __post_init__(self) -> None:
        _require(0 < self.gamma < math.inf, "gamma must be positive and finite")
        _require(self.K >= 0, "K must be nonnegative")


@dataclass(frozen=True)
class CertificateVolterra:
    """Budget for the delayed outer term g of a Volterra-type system."""

    C: float
    gamma: float

    def __post_init__(self) -> None:
        _require(self.C >= 0, "C must be nonnegative")
        _require(0 < self.gamma < math.inf, "gamma must be positive and finite")


@dataclass(frozen=True)
class GeneratorSpec:
    """Vectorized driver with structural metadata, in one form.

    ``z_stage(z, law, others)`` returns the tuple of arrays and scalars that
    the driver computes from Z (N, n, d): component i's own row from
    ``z[:, i]``, every row j != i from ``others[:, j]``, and the law's Z
    cloud. It takes no time and no Y, so calls with the same Z arguments
    share one stage whatever their time, Y or Y law; a driver that reads no
    Z uses :func:`_no_stage`. ``evaluate(t, y, law, stage)`` gives the
    values (N, n) of all n components at time t for Y (N, n), reading Z only
    through ``stage``. Calling the spec, ``spec(t, y, z, law)``, is the full
    driver: every row from ``z``.

    ``law_dependence`` is one of "joint" (needs Y and Z clouds), "y_only",
    or "none"; a driver reads only the law it declares. ``reads_y`` may be
    False only for a driver whose values are the same for every Y, bitwise,
    as ``pure_quadratic``'s: ``solve_theta`` settles each node of a driver
    that reads no Y and no law in one iteration (with inner sweeps, if
    n = 1). ``zeta_level`` is the pointwise bound of the absorbing process
    zeta_t used by growth audits; fixtures here model it constant.
    """

    n: int
    d: int
    evaluate: Callable[..., np.ndarray]
    z_stage: Callable[..., tuple]
    law_dependence: str = "joint"
    reads_y: bool = True
    zeta_level: float = 0.0

    def __post_init__(self) -> None:
        _require(self.n >= 1 and self.d >= 1, "n and d must be positive")
        _require(
            self.law_dependence in ("joint", "y_only", "none"),
            "law_dependence must be joint, y_only, or none",
        )

    def __call__(self, t: float, y: np.ndarray, z: np.ndarray, law: MeasureView | None) -> np.ndarray:
        return self.evaluate(t, y, law, self.z_stage(z, law, z))


# Delayed-term specification for Volterra-type systems: maps (node index,
# Y history (N, M+1, n), Z (N, M, n, d), law at that node) to (N, n).
GSpec = Callable[[int, np.ndarray, np.ndarray, MeasureView], np.ndarray]


@dataclass(frozen=True)
class FixtureBundle:
    """A registry fixture: driver, terminal sampler ``paths -> (N, n)``,
    certificates and oracle tag. :func:`fixture` sets ``name`` to the
    registry key and ``params`` to the builder's arguments, defaults
    included."""

    spec: GeneratorSpec
    terminal: Callable
    name: str = ""
    local: CertificateLocal | None = None
    global_: CertificateGlobal | None = None
    convex: CertificateConvex | None = None
    volterra: CertificateVolterra | None = None
    g: GSpec | None = None
    oracle: str | None = None
    params: dict = field(default_factory=dict)

    def certificate(self):
        """The certificate matching the fixture's primary scheme."""
        for cert in (self.local, self.global_, self.convex, self.volterra):
            if cert is not None:
                return cert
        raise CertificateError(f"fixture {self.name} carries no certificate")


# ---------------------------------------------------------------------------
# Fixture registry
# ---------------------------------------------------------------------------


def _others_sum(values: np.ndarray) -> np.ndarray:
    """Per-particle sums over the other rows, sum_{j != i} values[:, j], as
    one (N, n) @ (n, n) contraction."""
    n = values.shape[1]
    return values @ (np.ones((n, n)) - np.eye(n))


def _no_stage(z, law, others) -> tuple:
    """The Z stage of a driver that reads no Z."""
    return ()


def _rows_stage(z, law, others) -> tuple:
    """The Z stage of a driver that reads Z through its own row norms only."""
    return (sum_squares(z),)


# Terminal functions of W_T (N, d) by kind; ``level`` is M1 for "tanh" and
# the value for "const", and "brownian" ignores it.
TERMINALS: dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    "brownian": lambda w, level: w.copy(),
    "tanh": lambda w, level: level * np.tanh(w),
    "const": lambda w, level: np.full(w.shape, level),
}


def _sampler(kind: str, level: float = 0.0, takes=TERMINALS) -> Callable:
    """The terminal sampler ``paths -> TERMINALS[kind](W_T, level)`` of a
    builder that takes the terminal kinds ``takes``."""
    if kind not in takes:
        raise FixtureError(f"unknown terminal kind {kind!r}")
    return lambda paths: TERMINALS[kind](paths.terminal(), level)


def _fixture_pure_quadratic(
    gamma: float = 1.0,
    terminal: str = "brownian",
    M1: float = 1.0,
    lam: float = 0.1,
    gamma0: float = 0.1,
) -> FixtureBundle:
    """f(t, y, z, mu) = (gamma/2) |z|^2 in one dimension."""

    def evaluate(t, y, law, stage):
        (rows_sq,) = stage
        return 0.5 * gamma * rows_sq

    spec = GeneratorSpec(n=1, d=1, evaluate=evaluate, z_stage=_rows_stage, law_dependence="none", reads_y=False)
    term, local = _sampler(terminal, M1, ("brownian", "tanh")), None
    if terminal == "tanh":
        local = CertificateLocal(gamma=gamma, lam=lam, gamma0=gamma0, alpha=0.0, M1=M1, M2=0.0)
    convex = CertificateConvex(K=0.0, gamma=gamma)
    return FixtureBundle(spec=spec, terminal=term, local=local, convex=convex, oracle="cole_hopf")


def _fixture_linear_mf(a: float = 0.0, b: float = 1.0, terminal: str = "const", value: float = 1.0) -> FixtureBundle:
    """f = a y + b E[Y], scalar and z-free; matched by a closed-form ODE."""

    def evaluate(t, y, law, stage):
        return a * y + b * law.mean_y()[0]

    spec = GeneratorSpec(n=1, d=1, evaluate=evaluate, z_stage=_no_stage, law_dependence="y_only")
    big = max(abs(a), abs(b))
    convex = CertificateConvex(K=big, gamma=1.0)
    term, local = _sampler(terminal, value, ("const", "brownian")), None
    if terminal == "const":
        local = CertificateLocal(
            gamma=1.0,
            lam=0.0,
            gamma0=0.0,
            alpha=0.0,
            M1=abs(value),
            M2=0.0,
            psi=MonomialFn(0.0, abs(a), 1.0),
            psi0=MonomialFn(0.0, abs(b), 1.0),
        )
    return FixtureBundle(spec=spec, terminal=term, local=local, convex=convex, oracle="linear_mf")


def _fixture_remark31(n: int = 2, M1: float = 0.5, horizon: float = 0.25) -> FixtureBundle:
    """Fully coupled sub-quadratic driver with cubic law growth.

    f^i = (|y|^2 + sin|z^i|) |z| + |z|^(4/3) + |z^i|^2
          + W2(mu1, d0)^3 cos(W2(mu2, d0)) + W2(mu2, d0)^(4/3).

    Certificate constants follow from Young splits of the cross terms:
    gamma = 3 + 2 n^(1/3), lam = 3/4 + n^(1/3), alpha = 1/3,
    psi(x) = 2n + (2n - 1) x^8, psi0(x) = x^3, gamma0 = 1, zeta = n^(1/3).
    """

    def z_stage(z, law, others):
        rows_sq = sum_squares(z)  # (N, n)
        full = np.sqrt(rows_sq + _others_sum(sum_squares(others)))  # |z| for each component i
        return rows_sq, np.sin(np.sqrt(rows_sq)), full, full ** (4.0 / 3.0), law.w_z(2)

    def evaluate(t, y, law, stage):
        rows_sq, sin_rows, full, full_pow, w2 = stage
        ynorm_sq = sum_squares(y)[:, None]
        w1 = law.w_y(2)
        coupling = w1**3 * math.cos(w2) + w2 ** (4.0 / 3.0)
        return (ynorm_sq + sin_rows) * full + full_pow + rows_sq + coupling

    croot = n ** (1.0 / 3.0)
    spec = GeneratorSpec(n=n, d=n, evaluate=evaluate, z_stage=z_stage, law_dependence="joint", zeta_level=croot)
    local = CertificateLocal(
        gamma=3.0 + 2.0 * croot,
        lam=0.75 + croot,
        gamma0=1.0,
        alpha=1.0 / 3.0,
        M1=M1 * math.sqrt(n),
        M2=croot * horizon,
        psi=MonomialFn(2.0 * n, 2.0 * n - 1.0, 8.0),
        psi0=MonomialFn(0.0, 1.0, 3.0),
    )
    return FixtureBundle(spec=spec, terminal=_sampler("tanh", M1), local=local)


def _fixture_eq41(n: int = 2, M1: float = 1.0, horizon: float = 1.0) -> FixtureBundle:
    """Lipschitz-in-law driver with bounded cross rows.

    f^i = 1 + |y| + |z^i|^2 + sum_{j != i} sin|z^j| + W2(mu1, d0) cos(W2(mu2, d0)).
    """

    def z_stage(z, law, others):
        cross = _others_sum(np.sin(np.sqrt(sum_squares(others))))
        return sum_squares(z), cross, law.w_z(2)

    def evaluate(t, y, law, stage):
        rows_sq, cross, w2 = stage
        ynorm = np.sqrt(sum_squares(y))[:, None]
        return 1.0 + ynorm + rows_sq + cross + law.w_y(2) * math.cos(w2)

    spec = GeneratorSpec(n=n, d=n, evaluate=evaluate, z_stage=z_stage, law_dependence="joint", zeta_level=float(n))
    global_ = CertificateGlobal(
        L=1.0,
        gamma=2.0,
        M1=M1 * math.sqrt(n),
        M3=float(n) ** 2 * horizon,
    )
    local = CertificateLocal(
        gamma=2.0,
        lam=1.0,
        gamma0=0.0,
        alpha=0.0,
        M1=M1 * math.sqrt(n),
        M2=float(n) * horizon,
        psi=MonomialFn(0.0, 1.0, 1.0),
        psi0=MonomialFn(0.0, 1.0, 1.0),
    )
    return FixtureBundle(spec=spec, terminal=_sampler("tanh", M1), local=local, global_=global_)


def _fixture_bounded_sine_mf(
    n: int = 2,
    gamma: float = 1.0,
    K: float = 0.5,
    terminal: str = "brownian",
    M1: float = 1.0,
) -> FixtureBundle:
    """Diagonal quadratic rows plus a bounded sine of the mean-field size.

    f^i = (gamma/2)|z^i|^2 + K sin(W1(mu, d0)); the law enters only through
    the Y marginal, as the Picard scheme requires.
    """

    def evaluate(t, y, law, stage):
        (rows_sq,) = stage
        return 0.5 * gamma * rows_sq + K * math.sin(law.w_y(1))

    spec = GeneratorSpec(n=n, d=n, evaluate=evaluate, z_stage=_rows_stage, law_dependence="y_only")
    convex = CertificateConvex(K=K, gamma=gamma)
    term, local = _sampler(terminal, M1, ("brownian", "tanh")), None
    if terminal == "tanh":
        local = CertificateLocal(
            gamma=gamma,
            lam=0.0,
            gamma0=0.0,
            alpha=0.0,
            M1=M1 * math.sqrt(n),
            M2=0.0,
            psi0=MonomialFn(0.0, K, 1.0),
        )
    return FixtureBundle(spec=spec, terminal=term, convex=convex, local=local)


def _fixture_volterra_demo(gamma: float = 1.0, clamp: float = 10.0) -> FixtureBundle:
    """Inner quadratic driver plus a clamped delayed mean term.

    f = (gamma/2)|z|^2, the pure_quadratic driver, and
    g(s, y-history, z, mu) = clamp(E[Y_s], +-clamp).
    """

    def g(k, y_hist, z, law):
        mean = float(y_hist[:, k, 0].mean())
        return np.full((y_hist.shape[0], 1), np.clip(mean, -clamp, clamp))

    return FixtureBundle(
        spec=_fixture_pure_quadratic(gamma).spec,
        terminal=_sampler("brownian"),
        convex=CertificateConvex(K=0.0, gamma=gamma),
        volterra=CertificateVolterra(C=1.0, gamma=gamma),
        g=g,
    )


_REGISTRY: dict[str, Callable[..., FixtureBundle]] = {
    "pure_quadratic": _fixture_pure_quadratic,
    "linear_mf": _fixture_linear_mf,
    "remark31": _fixture_remark31,
    "eq41": _fixture_eq41,
    "bounded_sine_mf": _fixture_bounded_sine_mf,
    "volterra_demo": _fixture_volterra_demo,
}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def _param_ok(kind: type, value) -> bool:
    if kind is float:
        return is_finite_real(value)
    if kind is int:  # every int parameter is a component count
        return is_count(value, 1)
    return isinstance(value, kind)


def fixture(name: str, **params) -> FixtureBundle:
    """Build a registered fixture with certificate-compatible parameters.

    Each parameter must be one the builder takes, of the type its annotation
    names: a ``float`` parameter a finite real (an int will do, an int beyond
    float range will not), an ``int`` one an int >= 1, a ``str`` one a
    string; a bool is no number. Anything else raises :class:`FixtureError`
    naming the parameter and its value, and so does a parameter whose
    certificate constants overflow float64, naming the fixture and its
    parameters. The bundle's ``name`` is ``name`` and its ``params`` every
    builder argument, defaults included.
    """
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise FixtureError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")
    signature = inspect.signature(builder, eval_str=True)
    try:
        bound = signature.bind(**params)
    except TypeError as exc:
        raise FixtureError(f"fixture {name!r}: {exc}") from None
    for key, value in params.items():
        kind = signature.parameters[key].annotation
        if not _param_ok(kind, value):
            need = {float: "a finite float", int: "an int >= 1"}.get(kind, f"of type {kind.__name__}")
            raise FixtureError(f"fixture {name!r}: parameter {key!r} must be {need}, got {value!r}")
    bound.apply_defaults()
    try:
        bundle = builder(**bound.arguments)
    except OverflowError:
        raise FixtureError(f"fixture {name!r}: parameters {bound.arguments} overflow float64") from None
    return replace(bundle, name=name, params=bound.arguments)


# ---------------------------------------------------------------------------
# Growth audit
# ---------------------------------------------------------------------------

GROWTH_RADIUS = 5.0  # largest scale of the (y, z) samples and laws check_growth draws


@dataclass(frozen=True)
class GrowthViolation:
    where: dict
    lhs: float
    rhs: float


@dataclass(frozen=True)
class GrowthReport:
    checked: int
    violations: tuple[GrowthViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _certificate_bound(cert, z_rows: np.ndarray, y_norm: np.ndarray, component: int, w1: float, w2: float, zeta: float) -> np.ndarray:
    own = z_rows[:, component]
    if isinstance(cert, CertificateLocal):
        cross = _others_sum(z_rows ** (1.0 + cert.alpha))[:, component]
        return (
            zeta
            + cert.psi(y_norm)
            + 0.5 * cert.gamma * own**2
            + cert.lam * cross
            + cert.psi0(w1)
            + cert.gamma0 * w2 ** (1.0 + cert.alpha)
        )
    if isinstance(cert, CertificateGlobal):
        return zeta + cert.L * y_norm + 0.5 * cert.gamma * own**2 + cert.L * w1
    if isinstance(cert, CertificateConvex):
        return zeta + cert.K * y_norm + 0.5 * cert.gamma * own**2 + cert.K * w1
    raise CertificateError(f"no growth audit for certificate type {type(cert).__name__}")


def check_growth(
    spec: GeneratorSpec,
    cert,
    budget: int = 10_000,
    seed: int = 20260814,
) -> GrowthReport:
    """Random-sampling audit of the certificate's growth bound.

    Draws batches of (t, y, z) around synthetic particle laws of varying
    radius and checks |f^i| against the certified right side pointwise.
    An empty violation list is evidence, not proof.
    """
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    batches = 25
    per = max(1, budget // batches)
    checked = 0
    violations: list[GrowthViolation] = []
    w1_order = 1 if isinstance(cert, CertificateConvex) else 2
    for b in range(batches):
        t = float(gen.uniform(0.0, 1.0))
        scale = float(gen.uniform(0.05, GROWTH_RADIUS))
        y = gen.uniform(-scale, scale, size=(per, spec.n))
        z = gen.uniform(-scale, scale, size=(per, spec.n, spec.d))
        law_y = gen.normal(0.0, scale, size=(64, spec.n))
        law_z = gen.normal(0.0, scale, size=(64, spec.n * spec.d))
        law = MeasureView(law_y, law_z)
        vals = spec(t, y, z, law)
        z_rows = np.sqrt(sum_squares(z))
        y_norm = np.sqrt(sum_squares(y))
        w1 = law.w_y(w1_order)
        w2 = law.w_z(2)
        for i in range(spec.n):
            bound = _certificate_bound(cert, z_rows, y_norm, i, w1, w2, spec.zeta_level)
            bad = np.abs(vals[:, i]) > bound * (1.0 + 1e-12)
            checked += per
            for idx in np.flatnonzero(bad)[:3]:
                violations.append(
                    GrowthViolation(
                        where={"batch": b, "component": i, "t": t, "y": y[idx].tolist(), "z": z[idx].tolist()},
                        lhs=float(abs(vals[idx, i])),
                        rhs=float(bound[idx]),
                    )
                )
    return GrowthReport(checked=checked, violations=tuple(violations))
