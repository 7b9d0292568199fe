"""Recompute the reference y0 the global_eq41 workload measures against.

Usage, from the repository root: python3 perfbench/reference_eq41.py

eq41 has no closed form. The reference is the same global solve on twice
as many steps, over a Brownian-bridge refinement of the pinned acceptance
ensemble: every coarse increment is split at its midpoint by an independent
bridge draw, so the fine paths pass through the coarse paths at every coarse
node and the difference to the coarse solve is discretization error rather
than sampling noise. It takes about 20 s on one core; paste the printed
tuple into workloads.EQ41_REFINED_Y0.
"""
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src")]

import numpy as np  # noqa: E402

from mfbsde import PathEnsemble, build_grid, run_scheme  # noqa: E402

from workloads import ENGINE, WORKLOADS  # noqa: E402


def refined_y0() -> tuple[float, ...]:
    wl = WORKLOADS["global_eq41"]
    bundle, grid, paths, _ = wl.problem.build(wl.seed)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((wl.seed, 2))))
    coarse = paths.increments
    first = 0.5 * coarse + 0.5 * np.sqrt(grid.dt) * gen.standard_normal(coarse.shape)
    fine = np.empty((coarse.shape[0], 2 * grid.steps, coarse.shape[2]))
    fine[:, 0::2] = first
    fine[:, 1::2] = coarse - first
    fine_grid = build_grid(grid.horizon, 2 * grid.steps)
    sol, _, _ = run_scheme(bundle, "global", fine_grid, PathEnsemble(fine_grid, fine, wl.seed), ENGINE, wl.problem.options())
    return tuple(float(v) for v in sol.y0())


if __name__ == "__main__":
    print(refined_y0())
