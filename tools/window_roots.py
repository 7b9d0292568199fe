"""Print one line on the roots of the window equations.

Usage: PYTHONPATH=src python3 tools/window_roots.py

Runs ``mfbsde constants`` on eq41 at n = 2 and n = 3 and prints the
stitching window length delta_kappa it reports at each, then runs it on
every fixture that carries a small-window certificate (``terminal=tanh``
where the default terminal carries none) and prints the worst
``residual_x1`` and ``residual_x2`` over those local windows. eq41's
kappa-window equation is linear, so delta_kappa should equal
(exp(2 g (M1 - K1)) / g + 1 + 2 M2) / (4 L K1) to rounding; a right side
that loses digits to cancellation shows as a move in its leading digits.
"""
from __future__ import annotations

import contextlib
import io
import json

from mfbsde.cli import main as cli_main
from mfbsde.generators import fixture_names

NEEDS_TANH = ("pure_quadratic", "bounded_sine_mf")


def constants(name: str, *params: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["constants", "--fixture", name, *(f"--param={p}" for p in params)])
    if code != 0:
        raise SystemExit(f"mfbsde constants --fixture {name} exited with {code}")
    return json.loads(out.getvalue())["results"]


def main() -> None:
    deltas = [constants("eq41", f"n={n}")["global"]["delta_kappa"] for n in (2, 3)]
    windows = []
    for name in fixture_names():
        results = constants(name, *(["terminal=tanh"] if name in NEEDS_TANH else []))
        if "local" in results:
            windows.append(results["local"])
    print(
        f"eq41 delta_kappa {deltas[0]!r} (n = 2), {deltas[1]!r} (n = 3); "
        f"worst residual_x1 {max(w['residual_x1'] for w in windows):.1e}, "
        f"residual_x2 {max(w['residual_x2'] for w in windows):.1e} over {len(windows)} local windows"
    )


if __name__ == "__main__":
    main()
