"""Spans around the calls into each mfbsde module, recorded from outside it.

The tracer patches the names that callers actually look up. A
``from .x import y`` binds ``y`` in the importing module, so the wrapper
goes on that binding (``mfbsde.solvers.bmo_norm``, ``mfbsde.cli.export_csv``)
rather than on the defining module. Driver evaluation is wrapped per bundle,
through ``dataclasses.replace`` on its spec. Spans stay in memory until the
run writes them out; every original is restored when tracing ends.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement
from math import comb

# (module, attribute, span name); a class attribute is "module:Class".
TARGETS = (
    ("mfbsde.condexp", "project", "condexp.project"),
    ("mfbsde.condexp", "project_increment", "condexp.project_increment"),
    ("mfbsde.solvers", "solve_scalar", "solvers.solve_scalar"),
    ("mfbsde.solvers", "bmo_norm", "diagnostics.bmo"),
    ("mfbsde.solvers", "exp_moment", "measures.exp_moment"),
    ("mfbsde.solvers", "global_ode", "constants"),
    ("mfbsde.solvers", "kappa_local_certificate", "constants"),
    ("mfbsde.solvers", "local_window", "constants"),
    ("mfbsde.solvers", "local_radii", "constants"),
    ("mfbsde.solvers", "volterra_weight", "constants"),
    ("mfbsde.measures:MeasureView", "w_y", "measures.law_query"),
    ("mfbsde.measures:MeasureView", "w_z", "measures.law_query"),
    ("mfbsde.measures:MeasureView", "mean_y", "measures.law_query"),
    ("mfbsde.cli", "fixture", "generators.fixture"),
    ("mfbsde.cli", "run_scheme", "solvers.run_scheme"),
    ("mfbsde.cli", "export_csv", "solvers.io"),
    ("mfbsde.cli", "dump_solution", "solvers.io"),
    ("mfbsde.cli", "cole_hopf", "oracles.reference"),
    ("mfbsde.cli", "linear_mf_oracle", "oracles.reference"),
)


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _written_bytes(args, kwargs, result) -> int:
    path = kwargs.get("path", args[-1])
    return os.path.getsize(path)


def design_columns(basis, s: int) -> int:
    """Width of the regression design for an s-dimensional state."""
    if basis.kind == "polynomial":
        return comb(s + basis.degree, basis.degree)
    return basis.bins if s == 1 else 1 + s * basis.bins


def design_multiplies(basis, s: int) -> int:
    """Column products per particle that build a polynomial design."""
    if basis.kind != "polynomial":
        return 0
    return sum(
        deg * sum(1 for _ in combinations_with_replacement(range(s), deg))
        for deg in range(1, basis.degree + 1)
    )


class Tracer:
    """Records [id, parent, name, start, end, attrs] spans in call order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._nodes: dict[tuple, list] = {}

    def wrap(self, name: str, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def bundle(self, bundle):
        """The same fixture bundle with its driver evaluation traced."""
        spec = bundle.spec
        evaluate = self.wrap("generators.evaluate", spec.evaluate)
        return dataclasses.replace(bundle, spec=dataclasses.replace(spec, evaluate=evaluate))

    def _projection(self, args, kwargs, result) -> list:
        """[node, particles, design columns, columns kept, multiplies].

        A node is one conditioning state buffer; the solvers take every
        state as a view of the ensemble's path array, so the buffer address
        identifies the node.
        """
        state = kwargs.get("state", args[1])
        key = (state.__array_interface__["data"][0], state.shape, state.strides)
        if key not in self._nodes:
            basis = kwargs.get("basis", args[2])
            s = 1 if state.ndim == 1 else state.shape[1]
            cols = design_columns(basis, s)
            # columns without spread are dropped before the QR
            kept = cols if float(state.max()) > float(state.min()) else 1
            self._nodes[key] = [len(self._nodes), state.shape[0], cols, kept, design_multiplies(basis, s)]
        return self._nodes[key]

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        attrs = {"condexp.project": self._projection, "solvers.io": _written_bytes}
        undo, missing = [], []
        try:
            for target, attr, name in TARGETS:
                try:
                    owner = _resolve(target)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    missing.append(f"{target}.{attr}")
                    continue
                if name == "generators.fixture":
                    wrapped = functools.wraps(original)(lambda *a, _f=original, **k: self.bundle(_f(*a, **k)))
                else:
                    wrapped = self.wrap(name, original, attrs.get(name))
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, original))
            if missing:  # the layer's metrics then read zero
                print(f"trace: not found, not traced: {', '.join(missing)}", file=sys.stderr)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def write_spans(spans: list[list], path) -> None:
    with open(path, "w") as fh:
        for sid, parent, name, start, end, attrs in spans:
            rec = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
            if attrs is not None:
                rec["attrs"] = attrs
            fh.write(json.dumps(rec) + "\n")


def read_spans(path: str) -> list[list]:
    with open(path) as fh:
        return [
            [r["id"], r["parent"], r["name"], r["start"], r["end"], r.get("attrs")]
            for r in map(json.loads, fh)
        ]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Calls, inclusive and self seconds per layer, and computed work.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    dur = [end - start for _, _, _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for sid, parent, *_ in spans:
        if parent is not None:
            child[parent] += dur[sid]

    def total(names, self_time=False):
        return sum(dur[s[0]] - (child[s[0]] if self_time else 0.0) for s in spans if s[2] in names)

    def calls(name):
        return sum(1 for s in spans if s[2] == name)

    def under_bmo(sid):
        parent = spans[sid][1]
        while parent is not None:
            if spans[parent][2] == "diagnostics.bmo":
                return True
            parent = spans[parent][1]
        return False

    projects = [s for s in spans if s[2] == "condexp.project"]
    nodes = {s[5][0] for s in projects}
    flops = design_bytes = 0
    for *_, (_, n, cols, kept, mults) in projects:
        # design products, Householder QR, Q^T y and A c, back substitution
        flops += n * mults + 2 * n * kept**2 - (2 * kept**3) // 3 + 4 * n * kept + kept**2
        design_bytes += 8 * n * cols
    return {
        "condexp.project.calls": len(projects),
        "condexp.project.s": total({"condexp.project"}),
        "condexp.project.self_s": total({"condexp.project"}, True),
        "condexp.project_increment.calls": calls("condexp.project_increment"),
        "condexp.project_increment.s": total({"condexp.project_increment"}),
        "condexp.project.from_diagnostics.s": sum(dur[s[0]] for s in projects if under_bmo(s[0])),
        "condexp.fits_per_node": len(projects) / len(nodes) if nodes else 0.0,
        "condexp.flops_computed": flops,
        "condexp.design_bytes_computed": design_bytes,
        "generators.evaluate.calls": calls("generators.evaluate"),
        "generators.evaluate.s": total({"generators.evaluate"}),
        "generators.evaluate.self_s": total({"generators.evaluate"}, True),
        "measures.law_query.calls": calls("measures.law_query"),
        "measures.law_query.s": total({"measures.law_query"}),
        "measures.exp_moment.calls": calls("measures.exp_moment"),
        "measures.exp_moment.s": total({"measures.exp_moment"}),
        "diagnostics.bmo.calls": calls("diagnostics.bmo"),
        "diagnostics.bmo.s": total({"diagnostics.bmo"}),
        "diagnostics.bmo.self_s": total({"diagnostics.bmo"}, True),
        "constants.calls": calls("constants"),
        "constants.s": total({"constants"}),
        "solvers.solve_scalar.calls": calls("solvers.solve_scalar"),
        "solvers.self_s": total({"solvers.run_scheme", "solvers.solve_scalar"}, True),
        "solvers.io.s": total({"solvers.io"}),
        "solvers.io.bytes_written": sum(s[5] for s in spans if s[2] == "solvers.io"),
        "oracles.reference.s": total({"oracles.reference"}),
        "cli.main.s": total({"cli.main"}),
        "cli.self_s": total({"cli.main"}, True),
    }
