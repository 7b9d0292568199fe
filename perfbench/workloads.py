"""The benchmark workloads: inputs from a seed, one timed operation, checks.

Each workload also solves a pinned ensemble, drawn from the seed its
acceptance test uses. That solve is the untimed warm-up; y0_rel_err and the
traced layer counts come from it, so they repeat exactly from run to run,
while the timed solves run on the ensemble drawn from ``--seed``.
"""
from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from mfbsde import (
    RegressionBasis,
    RegressionEngine,
    SolverOptions,
    build_grid,
    check_envelope,
    fixture,
    load_solution,
    run_scheme,
    sample_brownian,
)
from mfbsde.cli import load_config

from tracing import Tracer, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ACCEPTANCE_SEED = 20260814
ENGINE = RegressionEngine(RegressionBasis(kind="polynomial", degree=3))
CHILD_TIMEOUT_S = 150.0


@dataclass
class Outcome:
    """What one operation returned, and how long it took."""

    seconds: float
    y0: np.ndarray
    iterations: int
    windows: int = 1
    halvings: int = 0
    rss_kb: int = 0  # peak resident size of the process that solved
    spans: list | None = None
    detail: object = None


@dataclass(frozen=True)
class Problem:
    fixture: str
    params: dict
    scheme: str
    particles: int
    steps: int
    tol: float
    max_iter: int = 40
    horizon: float = 1.0

    def build(self, seed: int):
        """(fixture bundle, grid, ensemble, seconds in sample_brownian)."""
        bundle = fixture(self.fixture, **self.params)
        grid = build_grid(self.horizon, self.steps)
        t0 = time.perf_counter()
        paths = sample_brownian(grid, self.particles, bundle.spec.d, seed=seed)
        sample_s = time.perf_counter() - t0
        paths.brownian_at(grid.steps)  # the path array is built on first use
        return bundle, grid, paths, sample_s

    def ensemble_bytes(self, d: int) -> int:
        """Computed: float64 increments (N, M, d) plus the paths (N, M+1, d)."""
        return 8 * self.particles * d * (2 * self.steps + 1)

    def options(self) -> SolverOptions:
        return SolverOptions(tol=self.tol, max_iter=self.max_iter)


def rel_err(y0: np.ndarray, reference: tuple[float, ...]) -> float:
    ref = np.asarray(reference, dtype=np.float64)
    return float(np.max(np.abs(np.asarray(y0) - ref) / np.abs(ref)))


@dataclass(frozen=True)
class LibraryWorkload:
    """``run_scheme`` called in this process on a prebuilt ensemble."""

    name: str
    problem: Problem
    seed: int
    reference: tuple[float, ...]
    y0_tol: float | None
    smoke_size: tuple[int, int]
    checks: Callable[[Outcome, tuple, "LibraryWorkload"], list[str]]

    def smoke(self) -> "LibraryWorkload":
        particles, steps = self.smoke_size
        return replace(self, problem=replace(self.problem, particles=particles, steps=steps))

    def setup(self, seed: int, scratch: Path):
        t0 = time.perf_counter()
        bundle, grid, paths, sample_s = self.problem.build(seed)
        setup_s = time.perf_counter() - t0
        return (bundle, grid, paths), setup_s, sample_s, self.problem.ensemble_bytes(paths.dimension)

    def solve(self, inputs, traced: bool = False, scratch: Path | None = None) -> Outcome:
        bundle, grid, paths = inputs
        opts = self.problem.options()
        tracer = Tracer() if traced else None
        if tracer is None:
            t0 = time.perf_counter()
            sol, trace, extras = run_scheme(bundle, self.problem.scheme, grid, paths, ENGINE, opts)
            seconds = time.perf_counter() - t0
        else:
            bundle = tracer.bundle(bundle)
            with tracer.installed():
                t0 = time.perf_counter()
                sol, trace, extras = tracer.call(
                    "solvers.run_scheme", run_scheme, bundle, self.problem.scheme, grid, paths, ENGINE, opts
                )
                seconds = time.perf_counter() - t0
        report = extras.get("report")
        if report is None:
            iterations, windows, halvings = trace.iterations, 1, 0
        else:
            iterations = sum(w.iterations for w in report.windows)
            windows = report.window_count
            halvings = sum(w.halvings for w in report.windows)
        return Outcome(
            seconds=seconds,
            y0=sol.y0(),
            iterations=iterations,
            windows=windows,
            halvings=halvings,
            rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            spans=tracer.spans if tracer else None,
            detail=(sol, trace, extras),
        )

    def check(self, out: Outcome, inputs, pinned: bool) -> list[str]:
        failures = []
        if pinned and self.y0_tol is not None and not rel_err(out.y0, self.reference) <= self.y0_tol:
            failures.append(f"y0 {out.y0.tolist()} is not within {self.y0_tol:g} of {self.reference}")
        return failures + self.checks(out, inputs, self)


def _check_theta_quadratic(out: Outcome, inputs, wl: LibraryWorkload) -> list[str]:
    """Converged, and y0 within 2% of the exponential transform of the
    ensemble's own terminal cloud; that transform is what the scheme
    approximates on any seed, free of the sampler noise in the closed form."""
    _, grid, paths = inputs
    _, trace, _ = out.detail
    gamma = wl.problem.params["gamma"]
    target = math.log(float(np.mean(np.exp(gamma * paths.terminal()[:, 0])))) / gamma
    failures = [] if trace.converged else ["theta sweeps did not converge"]
    if not abs(out.y0[0] - target) <= 0.02 * abs(target):
        failures.append(f"y0 {out.y0[0]!r} is not within 2% of the empirical transform {target!r}")
    return failures


def _check_global_eq41(out: Outcome, inputs, wl: LibraryWorkload) -> list[str]:
    """The acceptance invariants of global stitching (criterion 8)."""
    bundle, grid, paths = inputs
    sol, _, extras = out.detail
    report = extras["report"]
    cap = math.ceil(grid.horizon / report.constants.delta_kappa) + 6
    edges = sorted((w.k_lo, w.k_hi) for w in report.windows)
    tiled = edges[0][0] == 0 and edges[-1][1] == grid.steps and all(a[1] == b[0] for a, b in zip(edges, edges[1:]))
    checks = {
        "terminal feasible": report.terminal_feasible,
        f"window count {report.window_count} <= cap {cap}": report.window_count <= cap,
        "windows tile the grid": tiled,
        "seam exact": bool(np.array_equal(sol.Y[:, -1, :], bundle.terminal(paths))),
        "envelope holds": all(r.satisfied for r in check_envelope(sol, report.constants, bundle.spec.n)),
    }
    return [f"failed: {name}" for name, ok in checks.items() if not ok]


@dataclass(frozen=True)
class CliWorkload:
    """``mfbsde verify`` as a user runs it: a fresh interpreter per solve."""

    name: str
    problem: Problem
    seed: int
    reference: tuple[float, ...]
    y0_tol: float
    tolerance: float
    smoke_size: tuple[int, int]

    def smoke(self) -> "CliWorkload":
        particles, steps = self.smoke_size
        return replace(self, problem=replace(self.problem, particles=particles, steps=steps))

    def _config(self, seed: int, scratch: Path) -> Path:
        p = self.problem
        cfg = {
            "fixture": p.fixture,
            "params": p.params,
            "scheme": p.scheme,
            "grid": {"horizon": p.horizon, "steps": p.steps},
            "particles": p.particles,
            "seed": seed,
            "solver": {"tol": p.tol, "max_iter": p.max_iter},
            "outputs": {"csv": str(scratch / f"nodes-{seed}.csv"), "solution": str(scratch / f"solution-{seed}.bin")},
        }
        path = scratch / f"config-{seed}.json"
        path.write_text(json.dumps(cfg))
        return path

    def setup(self, seed: int, scratch: Path):
        """Writes the config, then times what the command builds from it."""
        path = self._config(seed, scratch)
        t0 = time.perf_counter()
        cfg = load_config(str(path))
        _, _, paths, sample_s = self.problem.build(cfg["seed"])
        setup_s = time.perf_counter() - t0
        return path, setup_s, sample_s, self.problem.ensemble_bytes(paths.dimension)

    def solve(self, config: Path, traced: bool = False, scratch: Path | None = None) -> Outcome:
        args = ["verify", str(config), "--tolerance", repr(self.tolerance)]
        spans_path = scratch / "cli-spans.jsonl"
        if traced:
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *args]
        else:
            cmd = [sys.executable, "-m", "mfbsde.cli", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        stdout, stderr = scratch / "cli-stdout.json", scratch / "cli-stderr.txt"
        spans_path.unlink(missing_ok=True)
        code, seconds, rss_kb = run_child(cmd, env, stdout, stderr)
        try:
            report = json.loads(stdout.read_text())
            results = report["results"]
        except (ValueError, KeyError) as exc:
            tail = stderr.read_text()[-400:]
            raise RuntimeError(f"exit {code}, unreadable report ({exc}): {tail}") from exc
        return Outcome(
            seconds=seconds,
            y0=np.asarray(results["y0"], dtype=np.float64),
            iterations=int(results.get("iterations", 0)),
            windows=int(results.get("windows", 1)),
            rss_kb=rss_kb,
            spans=read_spans(str(spans_path)) if traced else None,
            detail=(code, report),
        )

    def check(self, out: Outcome, config: Path, pinned: bool) -> list[str]:
        code, report = out.detail
        results = report["results"]
        failures = [] if code == 0 else [f"exit code {code}"]
        if results.get("match") is not True:
            failures.append(f"verify reports no match: gap {results.get('gap')} > {results.get('allowed')}")
        if pinned and not rel_err(out.y0, self.reference) <= self.y0_tol:
            failures.append(f"y0 {out.y0.tolist()} is not within {self.y0_tol:g} of {self.reference}")
        p = self.problem
        sol = load_solution(results["solution"])
        header = (sol.particles, sol.Y.shape[1] - 1, sol.components, sol.grid.steps, sol.grid.horizon)
        if header != (p.particles, p.steps, 1, p.steps, p.horizon):
            failures.append(f"solution file header {header} does not match the config")
        if not np.array_equal(sol.y0(), out.y0):
            failures.append(f"solution file y0 {sol.y0().tolist()} differs from the report's {out.y0.tolist()}")
        with open(results["csv"]) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != p.steps + 1:
            failures.append(f"csv has {rows} rows, expected {p.steps + 1}")
        return failures


def run_child(cmd: list[str], env: dict, stdout: Path, stderr: Path) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in KiB).

    The child is reaped with wait4 so its own peak resident size is known;
    a timer kills it if it outlives the timeout.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss


# Reference y0 of eq41 on the pinned ensemble: the same solve on 128 steps,
# over a Brownian-bridge refinement of that ensemble's own paths (so the
# difference is discretization error, not sampling noise). eq41 has no
# closed form; reference_eq41.py recomputes these values.
EQ41_REFINED_Y0 = (7.526281613107785, 7.51285751173028)

WORKLOADS = {
    wl.name: wl
    for wl in (
        # Largest ensemble, scalar driver, no law, no BMO; two sweeps, so each
        # node is regressed only 6 times: the side a projection cache bypasses.
        LibraryWorkload(
            name="theta_quadratic",
            problem=Problem("pure_quadratic", {"gamma": 1.0, "terminal": "brownian"}, "theta", 2**14, 64, 1e-8),
            seed=11,
            reference=(0.5,),  # Cole-Hopf: log E[exp(W_1)] = 1/2
            y0_tol=0.02,
            smoke_size=(2**13, 8),
            checks=_check_theta_quadratic,
        ),
        # Heaviest use of every solver layer: 64 stitched windows, two BMO
        # norms per Picard iteration, a two-component driver with a joint law.
        LibraryWorkload(
            name="global_eq41",
            problem=Problem("eq41", {"n": 2}, "global", 2**13, 64, 1e-7),
            seed=ACCEPTANCE_SEED,
            reference=EQ41_REFINED_Y0,
            y0_tol=None,
            smoke_size=(2**10, 16),
            checks=_check_global_eq41,
        ),
        # The user-facing path: cold interpreter, config parsing, a law query
        # per node, the oracle, and the CSV and binary solution writes.
        CliWorkload(
            name="cli_verify_linear_mf",
            problem=Problem(
                "linear_mf",
                {"a": 0.0, "b": 1.0, "terminal": "const", "value": 1.0},
                "theta",
                2**13,
                32,
                1e-10,
                max_iter=60,
            ),
            seed=ACCEPTANCE_SEED,
            reference=(math.e,),  # Y_0 = exp(b T) for the constant terminal 1
            y0_tol=0.01,
            tolerance=0.01,
            smoke_size=(2**10, 8),
        ),
    )
}
