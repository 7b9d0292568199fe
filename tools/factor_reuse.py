"""Print one line on how often the nodes of one ensemble are factored.

Usage: PYTHONPATH=src python3 tools/factor_reuse.py

Solves eq41 (n = 2) with the global scheme on a 2^10-particle, 16-step
ensemble, solves it again on the same ensemble and then takes the BMO norm
of the solution's Z, counting the calls of ``NodeFactor.of`` in each. An
ensemble keeps one factor table per basis, so the counts read K, 0 and 0
for K = 16 steps; a solve or diagnostic that factors its nodes afresh shows
as a count above 0.
"""
from __future__ import annotations

from mfbsde import RegressionBasis, RegressionEngine, build_grid, fixture, run_scheme, sample_brownian
from mfbsde.condexp import NodeFactor
from mfbsde.diagnostics import bmo_norm

STEPS = 16


def main() -> None:
    calls = []
    real_of = NodeFactor.of
    NodeFactor.of = lambda at, *args: calls.append(1) or real_of(at, *args)
    bundle = fixture("eq41", n=2)
    grid = build_grid(1.0, STEPS)
    paths = sample_brownian(grid, 2**10, bundle.spec.d, seed=9)
    engine = RegressionEngine(RegressionBasis())
    counts = []
    for _ in range(2):  # a first solve, then a re-solve on the same ensemble
        calls.clear()
        sol, _, _ = run_scheme(bundle, "global", grid, paths, engine)
        counts.append(len(calls))
    calls.clear()
    bmo_norm(sol.Z, paths, engine)
    counts.append(len(calls))
    print(
        f"NodeFactor.of calls on one {STEPS}-step ensemble: first solve {counts[0]}, "
        f"re-solve {counts[1]}, bmo_norm after the solve {counts[2]} (expected {STEPS}, 0, 0)"
    )


if __name__ == "__main__":
    main()
