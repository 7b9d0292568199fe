"""Benchmark of mfbsde: one workload per run, closed loop, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Workloads (see workloads.py): theta_quadratic, global_eq41,
cli_verify_linear_mf. One operation runs at a time, and BLAS and OpenMP are
pinned to one thread. Before timing, the run builds its inputs several times
(``setup_s`` is the median) and solves the workload's pinned acceptance
ensemble once, untimed; that solve warms the process, and its y0 gives
``y0_rel_err``. Then it solves the ``--seed`` ensemble until the next solve
would end after ``--seconds``.

``--trace 0`` prints the end-to-end metrics: ``solve_s``, the median wall
time of a timed solve (for the CLI, of the whole child process);
``setup_s``; ``peak_rss_mb``, the highest peak resident size of a process
that ran a timed solve; and ``y0_rel_err``. ``--trace 1`` alternates
untraced and traced solves of the pinned ensemble and prints the per-layer
metrics, computed from the spans of the traced solves; it also checks that
tracing leaves y0 and the iteration counts bitwise unchanged. ``--smoke``
runs every workload at a small size.

Metric lines are printed by name with their units, followed by
``failed_frac``: operations that raised, exited non-zero or failed a check,
over those attempted (the warm-up solve included). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Run files (configs, solution files, spans) go to
``.perfbench_out/`` in the repository root.
"""
import os

# Before numpy loads its BLAS: every workload process runs on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import layer_metrics, write_spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 15

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def percentile_beyond_ten(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile (nearest rank) with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.messages: list[str] = []
        self.failed = 0

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures[:3])


def attempt(wl, inputs, tally: Tally, pinned: bool, traced: bool, scratch: Path, same_as=None):
    """One checked operation; (outcome or None, wall seconds).

    With ``same_as``, y0 and the iteration counts must also equal that
    outcome's bitwise.
    """
    t0 = time.perf_counter()
    try:
        out = wl.solve(inputs, traced, scratch)
        failures = wl.check(out, inputs, pinned)
        if same_as is not None and (out.y0.tobytes(), out.iterations, out.windows) != (
            same_as.y0.tobytes(),
            same_as.iterations,
            same_as.windows,
        ):
            failures.append(f"traced solve differs: y0 {out.y0.tolist()}, {out.iterations} iterations")
    except Exception as exc:  # a failing operation is counted, and the loop goes on
        tally.record([f"{type(exc).__name__}: {exc}"])
        return None, time.perf_counter() - t0
    tally.record(failures)
    return out, out.seconds


def measure(wl, seed: int, seconds: float, trace: bool, scratch: Path) -> tuple[Tally, dict, list[str]]:
    """Set up, solve the pinned ensemble once untimed, then run the timed loop."""
    from workloads import rel_err  # imports mfbsde, so only once src is on the path

    setup_s, sample_s = [], []
    for _ in range(SETUP_REPEATS):
        inputs = None  # one ensemble alive at a time
        inputs, t_setup, t_sample, ensemble_bytes = wl.setup(seed, scratch)
        setup_s.append(t_setup)
        sample_s.append(t_sample)
    pinned = inputs if seed == wl.seed else wl.setup(wl.seed, scratch)[0]
    tally = Tally()
    warm = wl.solve(pinned, False, scratch)  # a failure here ends the run
    tally.record(wl.check(warm, pinned, True))
    if trace:
        metrics, notes = traced_loop(wl, pinned, warm, seconds, tally, scratch)
        metrics = {
            "paths.sample_brownian.s": statistics.median(sample_s),
            "paths.ensemble_bytes": ensemble_bytes,
            **metrics,
        }
        return tally, metrics, notes

    times, rss = [], []
    start, walls = time.perf_counter(), []
    while True:
        out, wall = attempt(wl, inputs, tally, seed == wl.seed, False, scratch)
        walls.append(wall)
        if out is not None:
            times.append(out.seconds)
            rss.append(out.rss_kb)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    times = times or walls
    tail = percentile_beyond_ten(times)
    note = f"solve_s samples={len(times)} median={statistics.median(times):.6g} s " + (
        f"p{tail[0]}={tail[1]:.6g} s" if tail else "no percentile has ten samples beyond it"
    )
    metrics = {
        "solve_s": statistics.median(times),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": max(rss or [warm.rss_kb]) / 1024.0,
        "y0_rel_err": rel_err(warm.y0, wl.reference),
    }
    return tally, metrics, [note]


def traced_loop(wl, pinned, warm, seconds: float, tally: Tally, scratch: Path) -> tuple[dict, list[str]]:
    """Untraced and traced solves of the pinned ensemble, in pairs."""
    plain, traced, layers = [], [], []
    start, walls = time.perf_counter(), []
    while True:
        t0 = time.perf_counter()
        a, _ = attempt(wl, pinned, tally, True, False, scratch)
        b, _ = attempt(wl, pinned, tally, True, True, scratch, same_as=warm)
        walls.append(time.perf_counter() - t0)
        if a is not None and b is not None:
            plain.append(a.seconds)
            traced.append(b.seconds)
            layers.append(layer_metrics(b.spans))
            write_spans(b.spans, scratch / f"{wl.name}.trace.jsonl")
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    if not layers:
        raise RuntimeError("no traced solve succeeded: " + "; ".join(tally.messages[:3]))
    metrics = {
        **{k: statistics.median(m[k] for m in layers) for k in layers[0]},
        "solvers.picard_iterations": warm.iterations,
        "solvers.windows": warm.windows,
        "solvers.halvings": warm.halvings,
        "trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
    }
    base = statistics.median(plain)
    shares = [
        f"{k[:-2]} {metrics[k] / base:.1%}"
        for k in ("condexp.project.s", "diagnostics.bmo.s", "generators.evaluate.s", "measures.law_query.s", "solvers.io.s")
        if metrics[k]
    ]
    return metrics, [f"inclusive share of the untraced solve ({base:.4g} s, {len(layers)} pairs): " + ", ".join(shares)]


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas.get('name')} {blas.get('version')} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=None, help="ensemble seed (default: the acceptance-test seed)")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, for testing the benchmark itself")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mfbsde" / "__init__.py").is_file():
        print(f"error: no mfbsde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = wl.smoke()
    seed = wl.seed if args.seed is None else args.seed
    scratch = ROOT / ".perfbench_out" / wl.name
    scratch.mkdir(parents=True, exist_ok=True)

    tally, metrics, notes = measure(wl, seed, args.seconds, bool(args.trace), scratch)

    print(f"# {environment()}")
    print(f"# workload={wl.name} seed={seed} pinned_seed={wl.seed} seconds={args.seconds:g} trace={args.trace}")
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        print(f"{name:38s} {value:.6g} {UNITS[name]}")
    print(f"{'failed_frac':38s} {tally.failed / tally.attempted:.6g} ratio ({tally.failed} of {tally.attempted})")
    for msg in tally.messages[:5]:
        print(f"# failure: {msg}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
