"""The README's Python quick start runs as written and gives what it documents."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text()
    section = text.split("## Quick start (Python)", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert match, "no python block under the quick start heading"
    return match.group(1)


def test_quick_start_runs_and_matches_its_comments():
    namespace: dict = {}
    exec(compile(_quick_start(), str(README), "exec"), namespace)
    sol, grid, paths = namespace["sol"], namespace["grid"], namespace["paths"]
    assert abs(sol.y0()[0] - 0.5) <= 0.02 * 0.5  # "~0.507 (exact transform value: 0.5)"
    assert namespace["trace"].iterations == grid.steps  # "64: one iteration per node"
    n = sol.components
    # "(particles, steps + 1, components)" and "(particles, steps, components, noise_dim)"
    assert sol.Y.shape == (paths.particles, grid.steps + 1, n)
    assert sol.Z.shape == (paths.particles, grid.steps, n, paths.dimension)
