"""Command line front end: solve, verify against references, report.

Reports are JSON on stdout with a fixed schema: ``schema_version``, the
echoed config, a ``results`` block, and wall-clock numbers isolated under
``timings`` so byte comparisons of reports can simply drop that key.

Exit codes: 0 success, 2 bad config or usage, 3 solver divergence,
4 reference mismatch. :func:`main` is the one exit-code map: it loads the
config, runs a subcommand that returns ``(exit code, results, timings)``,
prints the one report envelope, and turns :class:`SolverDivergence` into
the error report and exit 3 and a bad config, parameter or reference
request, an output it cannot write, or an allocation that fails (an
ensemble or grid too large for memory), into a message on stderr and exit 2.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from functools import partial

import numpy as np

from .condexp import RegressionBasis, RegressionEngine
from .constants import global_ode, local_window, theta_consts, volterra_weight
from .generators import TERMINALS, FixtureBundle, fixture, fixture_names
from .oracles import cole_hopf, linear_mf_oracle
from .paths import build_grid, is_finite_real, sample_brownian
from .solvers import (
    SolverDivergence,
    SolverOptions,
    dump_solution,
    export_csv,
    run_scheme,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_MISMATCH = 4

_SCHEMES = ("theta", "local", "global", "volterra")

_TOP_KEYS = {"fixture", "params", "scheme", "grid", "particles", "seed", "basis", "solver", "outputs"}
_REQUIRED = {"fixture", "scheme", "grid", "particles", "seed"}
_GRID_KEYS = {"horizon", "steps"}
_BASIS_KEYS = {f.name for f in dataclasses.fields(RegressionBasis)}
_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverOptions)}
_OUTPUT_KEYS = {"csv", "solution"}


class ConfigError(ValueError):
    pass


def _check_keys(block: dict, allowed: set, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    _check_keys(cfg, _TOP_KEYS, "config")
    missing = _REQUIRED - set(cfg)
    if missing:
        raise ConfigError(f"missing required key(s): {sorted(missing)}")
    _check_keys(cfg["grid"], _GRID_KEYS, "grid")
    if set(cfg["grid"]) != _GRID_KEYS:
        raise ConfigError("grid needs both horizon and steps")
    _check_keys(cfg.get("basis", {}), _BASIS_KEYS, "basis")
    _check_keys(cfg.get("solver", {}), _SOLVER_KEYS, "solver")
    _check_keys(cfg.get("outputs", {}), _OUTPUT_KEYS, "outputs")
    named = {os.path.realpath(path): "the config file"}
    for key, target in cfg.get("outputs", {}).items():
        if not isinstance(target, str) or not os.path.isdir(os.path.dirname(os.path.abspath(target))):
            raise ConfigError(f"outputs.{key} must be a file path in an existing directory, got {target!r}")
        real = os.path.realpath(target)
        if real in named:
            raise ConfigError(f"outputs.{key} names the same file as {named[real]}: {target!r}")
        named[real] = f"outputs.{key}"
    if not isinstance(cfg.get("params", {}), dict):
        raise ConfigError("params must be an object")
    if cfg["scheme"] not in _SCHEMES:
        raise ConfigError(f"scheme must be one of {_SCHEMES}")
    if cfg["fixture"] not in fixture_names():
        raise ConfigError(f"unknown fixture {cfg['fixture']!r}; have {fixture_names()}")
    return cfg


def _build(cfg: dict):
    bundle = fixture(cfg["fixture"], **cfg.get("params", {}))
    grid = build_grid(cfg["grid"]["horizon"], cfg["grid"]["steps"])
    basis = RegressionBasis(**cfg.get("basis", {}))
    opts = SolverOptions(**cfg.get("solver", {}))
    paths = sample_brownian(grid, cfg["particles"], bundle.spec.d, seed=cfg["seed"])
    return bundle, RegressionEngine(basis), paths, opts


def _solve_results(cfg: dict, bundle, engine, paths, opts) -> tuple[dict, dict]:
    t0 = time.perf_counter()
    sol, trace, extras = run_scheme(bundle, cfg["scheme"], paths.grid, paths, engine, opts)
    elapsed = time.perf_counter() - t0
    results = {
        "y0": sol.y0().tolist(),
        "max_abs_y": float(np.abs(sol.Y).max()),
        "clip_events": sol.clip_events,
        "components": sol.components,
    }
    if trace is not None:
        results["iterations"] = trace.iterations
        results["converged"] = trace.converged
        results["differences"] = trace.differences().tolist()
        last = trace.steps[-1]
        if last.in_ball_sup is not None:
            results["in_ball_sup"] = last.in_ball_sup
            results["in_ball_qv"] = last.in_ball_qv
    if "report" in extras:
        rep = extras["report"]
        results["windows"] = rep.window_count
        results["terminal_feasible"] = rep.terminal_feasible
        results["kappa"] = rep.constants.kappa
        results["delta_kappa"] = rep.constants.delta_kappa
    outputs = cfg.get("outputs", {})
    if "csv" in outputs:
        export_csv(sol, paths, engine, outputs["csv"])
        results["csv"] = outputs["csv"]
    if "solution" in outputs:
        dump_solution(sol, outputs["solution"])
        results["solution"] = outputs["solution"]
    return results, {"solve_seconds": elapsed}


def cmd_solve(cfg: dict, args) -> tuple[int, dict, dict]:
    return (EXIT_OK, *_solve_results(cfg, *_build(cfg)))


def _reference_for(bundle: FixtureBundle, horizon: float):
    """The closed form the fixture is tagged with, at its resolved parameters."""
    params = bundle.params
    if bundle.oracle == "cole_hopf":
        terminal = partial(TERMINALS[params["terminal"]], level=params["M1"])
        return cole_hopf(terminal, params["gamma"], horizon)
    if bundle.oracle == "linear_mf":
        return linear_mf_oracle(params["a"], params["b"], horizon, params["terminal"], params["value"])
    raise ConfigError(f"no closed-form reference for fixture {bundle.name!r}")


def cmd_verify(cfg: dict, args) -> tuple[int, dict, dict]:
    if not (is_finite_real(args.tolerance) and args.tolerance >= 0.0):
        raise ConfigError(f"--tolerance must be a finite number >= 0, got {args.tolerance!r}")
    bundle, engine, paths, opts = _build(cfg)
    reference = _reference_for(bundle, paths.grid.horizon)
    results, timings = _solve_results(cfg, bundle, engine, paths, opts)
    y0 = results["y0"][0]
    gap = abs(y0 - reference.value)
    allowed = args.tolerance * max(1.0, abs(reference.value)) + reference.half_width
    results.update(
        {
            "reference": reference.value,
            "reference_method": reference.method,
            "reference_half_width": reference.half_width,
            "gap": gap,
            "allowed": allowed,
            "match": bool(gap <= allowed),
        }
    )
    return (EXIT_OK if gap <= allowed else EXIT_MISMATCH), results, timings


def cmd_constants(cfg: None, args) -> tuple[int, dict, dict]:
    if not (is_finite_real(args.horizon) and args.horizon > 0.0):
        raise ConfigError(f"--horizon must be a finite number > 0, got {args.horizon!r}")
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    bundle = fixture(args.fixture, **params)
    n = bundle.spec.n
    results: dict = {"fixture": bundle.name, "components": n}
    if bundle.local is not None:
        win = local_window(bundle.local, n)
        results["local"] = {
            "K1": win.K1,
            "K2": win.K2 if math.isfinite(win.K2) else None,  # saturated: log_K2 holds it
            "log_K2": win.log_K2,
            "m": win.m_nla,
            "x1": win.x1,
            "x2": win.x2,
            "eps": win.eps,
            "residual_x1": win.residual_x1,
            "residual_x2": win.residual_x2,
        }
    if bundle.global_ is not None:
        g = global_ode(bundle.global_, n, args.horizon)
        results["global"] = {
            "c_tilde": g.c_tilde,
            "kappa": g.kappa,
            "delta_kappa": g.delta_kappa,
            "J1": g.J1,
            "log_J2": g.log_J2,
        }
    if bundle.convex is not None and bundle.convex.K > 0:
        t = theta_consts(bundle.convex.K, n, args.horizon)
        results["picard"] = {
            "R_q": t.R_q,
            "eps": t.eps,
            "m0": t.m0,
            "eps_star": t.eps_star,
            "n0": t.n0,
        }
    if bundle.volterra is not None:
        results["volterra_weight"] = volterra_weight(bundle.volterra.C, args.horizon)
    return EXIT_OK, results, {}


def cmd_refine(cfg: dict, args) -> tuple[int, dict, dict]:
    from .oracles import dense_reference, refined_grid

    bundle, engine, paths, opts = _build(cfg)
    refined_grid(paths.grid, cfg["particles"], args.factor)  # refuse a bad factor before the base solve
    t0 = time.perf_counter()
    sol, trace, extras = run_scheme(bundle, cfg["scheme"], paths.grid, paths, engine, opts)
    ref = dense_reference(
        bundle,
        paths.grid,
        cfg["particles"],
        cfg["seed"],
        refine=args.factor,
        scheme=cfg["scheme"],
        engine=engine,
        opts=opts,
    )
    elapsed = time.perf_counter() - t0
    base = sol.y0()
    fine = ref.extras["value_vector"]
    gap = float(np.abs(base - fine).max())
    results = {
        "y0": base.tolist(),
        "refined_y0": fine.tolist(),
        "gap": gap,
        "refine_factor": args.factor,
        "bootstrap_half_width": ref.half_width,
    }
    return EXIT_OK, results, {"seconds": elapsed}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfbsde",
        description="particle solvers for mean-field quadratic BSDE systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run a scheme from a JSON config")
    p_solve.add_argument("config")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="solve and compare with a closed-form reference")
    p_verify.add_argument("config")
    tolerance_help = "gap allowed beyond the reference width: tolerance * max(1, |reference|), absolute below 1"
    p_verify.add_argument("--tolerance", type=float, default=0.05, help=tolerance_help)
    p_verify.set_defaults(func=cmd_verify)

    p_const = sub.add_parser("constants", help="print certificate-derived constants for a fixture")
    p_const.add_argument("--fixture", required=True, choices=fixture_names())
    p_const.add_argument("--horizon", type=float, default=1.0)
    p_const.add_argument("--param", action="append", help="fixture parameter as key=value (value parsed as JSON)")
    p_const.set_defaults(func=cmd_constants)

    p_refine = sub.add_parser("refine", help="compare a solve against a finer-grid re-solve")
    p_refine.add_argument("config")
    p_refine.add_argument("--factor", type=int, default=2)
    p_refine.set_defaults(func=cmd_refine)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    report = {"schema_version": 1, "command": args.command, "config": None}
    try:
        if "config" in vars(args):  # every subcommand but constants reads one
            report["config"] = load_config(args.config)
        code, results, timings = args.func(report["config"], args)
    except SolverDivergence as exc:
        code, timings = EXIT_DIVERGED, {}
        results = {"converged": False} if args.command == "solve" else {}
        report["error"] = str(exc)
    except (ValueError, OSError) as exc:  # ConfigError, FixtureError, ...; OSError: an output write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # an ensemble, grid or solve buffer too large for memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report.update(results=results, timings=timings)
    print(json.dumps(report, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
