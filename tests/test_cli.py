import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import mfbsde
from mfbsde.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_MISMATCH,
    EXIT_OK,
    load_config,
    main,
)
from mfbsde.generators import fixture_names


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "fixture": "pure_quadratic",
        "params": {"gamma": 1.0, "terminal": "brownian"},
        "scheme": "theta",
        "grid": {"horizon": 1.0, "steps": 16},
        "particles": 1024,
        "seed": 20260814,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_happy_path(capsys, tmp_path):
    cfg = write_config(tmp_path)
    code, out, _ = run_cli(capsys, "solve", cfg)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["command"] == "solve"
    assert report["results"]["converged"]
    assert abs(report["results"]["y0"][0] - 0.5) < 0.05
    assert "solve_seconds" in report["timings"]
    # config echo matches the input file byte content
    assert report["config"] == json.loads(open(cfg).read())


def test_unknown_top_level_key_rejected(capsys, tmp_path):
    cfg = write_config(tmp_path, extra_knob=1)
    code, _, err = run_cli(capsys, "solve", cfg)
    assert code == EXIT_CONFIG
    assert "extra_knob" in err


def test_unknown_nested_key_rejected(capsys, tmp_path):
    cfg = write_config(tmp_path, solver={"tol": 1e-6, "warp": 9})
    code, _, err = run_cli(capsys, "solve", cfg)
    assert code == EXIT_CONFIG
    assert "warp" in err


def test_missing_required_key_rejected(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"fixture": "pure_quadratic", "scheme": "theta"}))
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == EXIT_CONFIG
    assert "missing" in err


def test_bad_scheme_and_grid_rejected(capsys, tmp_path):
    cfg = write_config(tmp_path, scheme="euler")
    assert run_cli(capsys, "solve", cfg)[0] == EXIT_CONFIG
    cfg2 = write_config(tmp_path, name="g.json", grid={"horizon": 1.0})
    assert run_cli(capsys, "solve", cfg2)[0] == EXIT_CONFIG


def test_malformed_json_rejected(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == EXIT_CONFIG


def test_load_config_direct_error():
    from mfbsde.cli import ConfigError

    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.json")


def test_divergence_exit_code(capsys, tmp_path):
    cfg = write_config(
        tmp_path,
        fixture="linear_mf",
        params={"a": 0.0, "b": 1.0, "terminal": "const", "value": 1.0},
        solver={"tol": 1e-12, "max_iter": 2},
    )
    code, out, _ = run_cli(capsys, "solve", cfg)
    assert code == EXIT_DIVERGED
    report = json.loads(out)
    assert report["results"]["converged"] is False
    assert "error" in report


def test_non_finite_solve_exits_diverged(capsys, tmp_path):
    # gamma = 80 overflows the quadratic driver; the kernel stops at the
    # first non-finite node instead of handing inf on as a bad config
    cfg = write_config(
        tmp_path,
        params={"gamma": 80.0, "terminal": "brownian"},
        seed=1,
    )
    code, out, _ = run_cli(capsys, "solve", cfg)
    assert code == EXIT_DIVERGED
    assert "non-finite" in json.loads(out)["error"]


def test_verify_match_and_mismatch(capsys, tmp_path):
    cfg = write_config(tmp_path, particles=2048)
    code, out, _ = run_cli(capsys, "verify", cfg)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["match"] is True
    assert report["results"]["reference"] == pytest.approx(0.5, abs=1e-10)

    # starving the sampler and tightening the gate forces a mismatch
    cfg2 = write_config(tmp_path, name="tiny.json", particles=32, seed=5)
    code2, out2, _ = run_cli(capsys, "verify", cfg2, "--tolerance", "1e-9")
    assert code2 == EXIT_MISMATCH
    assert json.loads(out2)["results"]["match"] is False


def test_verify_needs_known_reference(capsys, tmp_path):
    cfg = write_config(tmp_path, fixture="eq41", params={"n": 2}, scheme="global")
    code, _, err = run_cli(capsys, "verify", cfg)
    assert code == EXIT_CONFIG
    assert "reference" in err


def test_verify_names_the_fixture_error_before_the_reference(capsys, tmp_path):
    cfg = write_config(tmp_path, params={"terminal": "cubic"})
    code, _, err = run_cli(capsys, "verify", cfg)
    assert code == EXIT_CONFIG
    assert "unknown terminal kind 'cubic'" in err
    # the delay term has no exponential-transform closed form
    cfg2 = write_config(tmp_path, name="volterra.json", fixture="volterra_demo", params={})
    code2, _, err2 = run_cli(capsys, "verify", cfg2)
    assert code2 == EXIT_CONFIG
    assert "no closed-form reference" in err2


def test_unknown_fixture_parameter_rejected(capsys, tmp_path):
    cfg = write_config(tmp_path, fixture="eq41", params={"n": 2, "bogus": 1}, scheme="global")
    for argv in (("solve", cfg), ("verify", cfg), ("constants", "--fixture", "eq41", "--param", "bogus=1")):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert "bogus" in err


@pytest.mark.parametrize(
    "fixture_name, params",
    [
        ("pure_quadratic", {"gamma": "2"}),
        ("pure_quadratic", {"gamma": None}),
        ("pure_quadratic", {"gamma": [1]}),
        ("eq41", {"n": "2"}),
        ("pure_quadratic", {"gamma": 10**400}),
        ("pure_quadratic", {"gamma": float("inf")}),
        ("pure_quadratic", {"gamma": float("nan")}),
    ],
    ids=["gamma-str", "gamma-null", "gamma-list", "n-str", "gamma-10**400", "gamma-inf", "gamma-nan"],
)
def test_fixture_parameter_of_wrong_type_rejected(capsys, tmp_path, fixture_name, params):
    cfg = write_config(tmp_path, fixture=fixture_name, params=params)
    code, _, err = run_cli(capsys, "solve", cfg)
    assert code == EXIT_CONFIG
    assert repr(next(iter(params))) in err


def test_integer_for_a_float_parameter_solves(capsys, tmp_path):
    cfg = write_config(tmp_path, params={"gamma": 2, "terminal": "brownian"}, particles=256)
    code, out, _ = run_cli(capsys, "solve", cfg)
    assert code == EXIT_OK
    assert json.loads(out)["config"]["params"]["gamma"] == 2


_BAD_OPTIONS = [
    ("solver", {"z_clip": -1}),
    ("solver", {"z_clip": 0}),
    ("solver", {"max_iter": 0}),
    ("solver", {"max_iter": True}),
    ("solver", {"max_iter": 2.5}),
    ("solver", {"inner_sweeps": 0}),
    ("solver", {"law_refinements": -1}),
    ("solver", {"tol": "1e-6"}),
    ("solver", {"tol": -1e-6}),
    ("solver", {"tol": float("inf")}),
    ("solver", {"init_offset": "0.5"}),
    ("solver", {"tol": 10**400}),
    ("solver", {"init_offset": 10**400}),
    ("solver", {"z_clip": 10**400}),
    ("basis", {"degree": "3"}),
    ("basis", {"degree": 2.0}),
    ("basis", {"bins": True}),
]


@pytest.mark.parametrize(
    "block, values", _BAD_OPTIONS, ids=[f"{b}-{k}={v!r}" for b, o in _BAD_OPTIONS for k, v in o.items()]
)
def test_bad_solver_or_basis_option_exits_config(capsys, tmp_path, block, values):
    cfg = write_config(tmp_path, **{block: values})
    code, out, err = run_cli(capsys, "solve", cfg)
    assert code == EXIT_CONFIG and out == ""
    assert next(iter(values)) in err


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_verify_tolerance_must_be_finite_and_not_negative(capsys, tmp_path, tolerance):
    # nan and -1 used to report a mismatch, inf a match whatever y0 was
    cfg = write_config(tmp_path, particles=256, grid={"horizon": 1.0, "steps": 4})
    code, out, err = run_cli(capsys, "verify", cfg, "--tolerance", tolerance)
    assert code == EXIT_CONFIG and out == ""
    assert f"--tolerance must be a finite number >= 0, got {float(tolerance)!r}" in err
    assert "Traceback" not in err


_BAD_GRID_OR_ENSEMBLE = [
    ("steps", {"grid": {"horizon": 1.0, "steps": 16.7}}),
    ("horizon", {"grid": {"horizon": "1.0", "steps": "16"}}),
    ("horizon", {"grid": {"horizon": True, "steps": 16}}),
    ("seed", {"seed": True}),
    ("particles", {"particles": True}),
]


@pytest.mark.parametrize(
    "name, overrides", _BAD_GRID_OR_ENSEMBLE, ids=[f"{k}={v!r}" for _, o in _BAD_GRID_OR_ENSEMBLE for k, v in o.items()]
)
def test_uncoerced_grid_or_ensemble_value_exits_config(capsys, tmp_path, name, overrides):
    # config values are taken as written: no float(), int() or bool counts
    cfg = write_config(tmp_path, **overrides)
    code, out, err = run_cli(capsys, "solve", cfg)
    assert code == EXIT_CONFIG and out == ""
    assert name in err


def test_horizon_beyond_float_range_exits_config(capsys, tmp_path):
    cfg = write_config(tmp_path, grid={"horizon": 10**400, "steps": 4})
    code, out, err = run_cli(capsys, "solve", cfg)
    assert code == EXIT_CONFIG and out == ""
    assert "horizon" in err


def test_integers_for_float_solver_options_solve(capsys, tmp_path):
    cfg = write_config(tmp_path, particles=256, solver={"tol": 1, "z_clip": 5, "init_offset": 0})
    code, out, _ = run_cli(capsys, "solve", cfg)
    assert code == EXIT_OK
    assert json.loads(out)["results"]["converged"]


def test_solve_with_law_refinements(capsys, tmp_path):
    cfg = write_config(
        tmp_path,
        fixture="bounded_sine_mf",
        params={"terminal": "tanh"},
        scheme="local",
        grid={"horizon": 0.05, "steps": 8},
        seed=5,
        solver={"tol": 1e-8, "law_refinements": 1},
    )
    code, out, _ = run_cli(capsys, "solve", cfg)
    assert code == EXIT_OK
    assert json.loads(out)["results"]["converged"]


def test_constants_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "constants", "--fixture", "bounded_sine_mf", "--param", "terminal=tanh"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    local = report["results"]["local"]
    assert local["eps"] > 0
    assert local["residual_x1"] <= 1e-10
    assert report["results"]["picard"]["R_q"] == 16.0


def test_constants_rejects_bad_param(capsys):
    code, _, err = run_cli(capsys, "constants", "--fixture", "pure_quadratic", "--param", "oops")
    assert code == EXIT_CONFIG


def test_verify_factors_each_node_once(capsys, tmp_path, factor_calls):
    # theta factors each node once per solve, and the CSV's BMO profile
    # rebuilds its operators from the solve's factors
    cfg = write_config(
        tmp_path,
        fixture="linear_mf",
        params={"a": 0.0, "b": 1.0, "terminal": "const", "value": 1.0},
        grid={"horizon": 1.0, "steps": 8},
        solver={"tol": 1e-10, "max_iter": 60},
        outputs={"csv": str(tmp_path / "nodes.csv")},
    )
    code, out, _ = run_cli(capsys, "verify", cfg, "--tolerance", "0.05")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["iterations"] > 1
    assert len(factor_calls) == 8


@pytest.mark.parametrize(
    "scheme, overrides",
    [
        ("theta", {}),
        ("local", {"params": {"gamma": 1.0, "terminal": "tanh"}, "grid": {"horizon": 0.05, "steps": 8}}),
        ("global", {"fixture": "eq41", "params": {"n": 2}, "seed": 3}),
        ("volterra", {"fixture": "volterra_demo", "params": {}}),
    ],
)
def test_solve_with_a_csv_factors_each_node_once(capsys, tmp_path, factor_calls, scheme, overrides):
    # every scheme hands its solve's factor table to the CSV export, whose
    # BMO profile rebuilds each node's operator from the solve's factor
    overrides = {"grid": {"horizon": 1.0, "steps": 8}, **overrides}
    outputs = {"csv": str(tmp_path / "nodes.csv")}
    cfg = write_config(tmp_path, scheme=scheme, particles=512, outputs=outputs, **overrides)
    code, _, _ = run_cli(capsys, "solve", cfg)
    assert code == EXIT_OK
    assert len((tmp_path / "nodes.csv").read_text().splitlines()) == 1 + 9
    assert len(factor_calls) == 8


@pytest.mark.parametrize("case", ["dot", "symlink", "csv_is_config", "solution_is_config"])
def test_outputs_that_name_one_file_exit_config_before_the_solve(capsys, tmp_path, monkeypatch, case):
    # two outputs on one file used to exit 0, the solution file silently
    # overwriting the CSV; an output on the config file overwrote the config
    import mfbsde.cli

    solves = []
    monkeypatch.setattr(mfbsde.cli, "run_scheme", lambda *a, **kw: solves.append(1))
    (tmp_path / "d").mkdir()
    target = str(tmp_path / "d" / "out.bin")
    config = str(tmp_path / "cfg.json")
    outputs = {
        "dot": {"csv": target, "solution": str(tmp_path / "d" / "." / "out.bin")},
        "symlink": {"csv": target, "solution": str(tmp_path / "link" / "out.bin")},
        "csv_is_config": {"csv": config},
        "solution_is_config": {"solution": str(tmp_path / "d" / ".." / "cfg.json")},
    }[case]
    (tmp_path / "link").symlink_to(tmp_path / "d")
    cfg = write_config(tmp_path, particles=64, outputs=outputs)
    code, out, err = run_cli(capsys, "solve", cfg)
    assert (code, out, solves) == (EXIT_CONFIG, "", [])
    assert err.startswith("error: outputs.") and "names the same file as" in err and err.count("\n") == 1
    assert json.loads(open(cfg).read())["outputs"] == outputs


def _capped_solve(tmp_path, name, **overrides):
    """Exit code, stdout and stderr of ``mfbsde solve`` in a child process
    whose address space is capped at 2 GiB, so that an oversized allocation
    fails at once rather than on a machine that overcommits."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(mfbsde.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    cfg = write_config(tmp_path, name=name, **overrides)
    argv = [sys.executable, "-m", "mfbsde.cli", "solve", cfg]
    child = subprocess.run(argv, capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120)
    return child.returncode, child.stdout, child.stderr


@pytest.mark.parametrize(
    "overrides",
    [{"grid": {"horizon": 1.0, "steps": 10**12}}, {"particles": 10**12}],
    ids=["steps", "particles"],
)
def test_an_allocation_failure_exits_config(tmp_path, overrides):
    # such a config used to exit 1 with numpy's "Unable to allocate" traceback
    code, out, err = _capped_solve(tmp_path, "huge.json", **overrides)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    # the cap leaves room for a small solve
    code, out, _ = _capped_solve(tmp_path, "small.json", particles=256, grid={"horizon": 1.0, "steps": 8})
    assert code == EXIT_OK and json.loads(out)["results"]["converged"]


def test_outputs_written(capsys, tmp_path):
    csv_path = tmp_path / "nodes.csv"
    bin_path = tmp_path / "sol.bin"
    cfg = write_config(
        tmp_path, particles=256, outputs={"csv": str(csv_path), "solution": str(bin_path)}
    )
    code, out, _ = run_cli(capsys, "solve", cfg)
    assert code == EXIT_OK
    assert csv_path.exists() and bin_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert "time" in header and "max_abs_y" in header

    from mfbsde.solvers import load_solution

    sol = load_solution(str(bin_path))
    assert sol.Y.shape == (256, 17, 1)


def test_report_deterministic_modulo_timings(capsys, tmp_path):
    cfg = write_config(tmp_path, particles=512)
    _, out1, _ = run_cli(capsys, "solve", cfg)
    _, out2, _ = run_cli(capsys, "solve", cfg)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timings")
    r2.pop("timings")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_refine_subcommand(capsys, tmp_path):
    cfg = write_config(tmp_path, particles=512, grid={"horizon": 1.0, "steps": 8})
    code, out, _ = run_cli(capsys, "refine", cfg, "--factor", "2")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["results"]["refine_factor"] == 2
    assert report["results"]["gap"] < 0.1


@pytest.mark.parametrize("factor, message", [("0", "refine must be an int >= 1, got 0"), ("4096", "exceeds the budget")])
def test_refine_refuses_a_bad_factor_before_any_solve(capsys, tmp_path, monkeypatch, factor, message):
    # a bad factor used to be refused only after the base solve had run
    import mfbsde.cli
    import mfbsde.oracles

    calls = []

    def run_scheme(*args, **kwargs):
        calls.append(args)
        raise ValueError("solve stubbed out")

    for module in (mfbsde.cli, mfbsde.oracles):
        monkeypatch.setattr(module, "run_scheme", run_scheme)
    cfg = write_config(tmp_path, particles=4096, grid={"horizon": 1.0, "steps": 16})
    code, out, err = run_cli(capsys, "refine", cfg, "--factor", factor)
    assert code == EXIT_CONFIG and out == "" and message in err
    assert calls == []


@pytest.mark.parametrize("gamma", [20.0, 30.0])
def test_a_finite_theta_blow_up_exits_diverged(capsys, tmp_path, gamma):
    # a finite Y far beyond the a-priori estimate (max |Y| about 2e234 and
    # 2e305) is a divergence, not a bad config
    cfg = write_config(tmp_path, params={"gamma": gamma, "terminal": "brownian"}, seed=4, solver={"tol": 1e-7})
    code, out, _ = run_cli(capsys, "solve", cfg)
    assert code == EXIT_DIVERGED
    assert json.loads(out)["error"].startswith("a-priori estimate broken at node 0 (t=0) in component 0: ")


def test_theta_apriori_excess_refusal_exits_diverged(capsys, tmp_path):
    # the sweeps converge to y0 = 9.56e81 against a closed form of 2.5; the
    # parent exited 0 with that y0
    cfg = write_config(tmp_path, params={"gamma": 5.0, "terminal": "brownian"}, seed=5)
    code, out, _ = run_cli(capsys, "solve", cfg)
    report = json.loads(out)
    assert code == EXIT_DIVERGED and report["results"] == {"converged": False}
    assert report["error"] == "a-priori estimate broken at node 0 (t=0) in component 0: exponential-moment excess 4.78e+82 > 0.5"


def test_refine_on_a_diverging_solve_exits_diverged(capsys, tmp_path):
    cfg = write_config(tmp_path, params={"gamma": 30.0, "terminal": "brownian"}, seed=3, solver={"tol": 1e-7})
    code, out, _ = run_cli(capsys, "refine", cfg, "--factor", "2")
    assert code == EXIT_DIVERGED
    report = json.loads(out)
    assert report["command"] == "refine" and report["results"] == {}
    assert "non-finite Y at node 1" in report["error"]


def test_ensemble_smaller_than_its_basis_exits_config(capsys, tmp_path):
    cfg = write_config(
        tmp_path,
        fixture="bounded_sine_mf",
        params={"terminal": "tanh"},
        scheme="local",
        grid={"horizon": 0.05, "steps": 4},
        particles=5,
    )
    code, _, err = run_cli(capsys, "solve", cfg)
    assert code == EXIT_CONFIG
    assert "10 basis columns" in err and "5 particles" in err



def test_solve_global_reports_its_windows_and_envelope(capsys, tmp_path):
    cfg = write_config(
        tmp_path, fixture="eq41", params={"n": 2}, scheme="global", grid={"horizon": 1.0, "steps": 8}, particles=512, seed=3
    )
    code, out, _ = run_cli(capsys, "solve", cfg)
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert sorted(results) == [
        "clip_events", "components", "delta_kappa", "kappa", "max_abs_y", "terminal_feasible", "windows", "y0"
    ]
    assert results["windows"] == 8 and results["terminal_feasible"] is True
    assert results["kappa"] == 1.7236318993918118e25
    assert results["delta_kappa"] == 7.527101288716701e-14
    assert results["y0"] == pytest.approx([7.745838722885272, 7.698584786122009], rel=1e-9)


def test_verify_on_a_diverging_solve_exits_diverged(capsys, tmp_path):
    cfg = write_config(
        tmp_path,
        params={"gamma": 40.0, "terminal": "tanh", "M1": 5.0},
        grid={"horizon": 1.0, "steps": 8},
        particles=256,
        seed=4,
    )
    code, out, _ = run_cli(capsys, "verify", cfg)
    assert code == EXIT_DIVERGED
    report = json.loads(out)
    assert report["command"] == "verify" and report["results"] == {} and report["timings"] == {}
    assert report["error"] == "a-priori estimate broken at node 0 (t=0) in component 0: exponential-moment excess 9.08e+176 > 0.5"
    assert report["config"] == json.loads(open(cfg).read())


def test_constants_for_global_and_volterra_fixtures(capsys):
    code, out, _ = run_cli(capsys, "constants", "--fixture", "eq41")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["config"] is None and report["timings"] == {}
    assert report["results"]["global"] == {
        "J1": 4151664605181.6514,
        "c_tilde": 11.0,
        "delta_kappa": 7.527101288716701e-14,
        "kappa": 1.7236318993918118e25,
        "log_J2": 8303329210393.743,
    }
    code, out, _ = run_cli(capsys, "constants", "--fixture", "volterra_demo")
    assert code == EXIT_OK
    assert json.loads(out)["results"] == {"components": 1, "fixture": "volterra_demo", "volterra_weight": 32.0}


@pytest.mark.parametrize(
    "fixture_name, params, message",
    [
        ("pure_quadratic", ["gamma=1e400"], "parameter 'gamma' must be a finite float, got inf"),
        ("pure_quadratic", ['terminal="tanh"', "M1=1e200"], "window equation has no resolved root"),
        ("pure_quadratic", ['terminal="tanh"', "gamma=1e308"], "overflows float64"),
        ("eq41", ["M1=1e200"], "window equation has no resolved root"),
        ("bounded_sine_mf", ["K=1e308"], "theta_consts(1e+308, 2, 1.0) overflows float64"),
        ("remark31", ["n=10000000000000000000000000"], "overflows float64"),
    ],
    ids=["gamma-inf", "M1-1e200-hang", "gamma-1e308-overflow", "eq41-M1-1e200", "K-1e308-overflow", "n-1e25-overflow"],
)
def test_constants_of_an_out_of_range_certificate_exit_config(capsys, fixture_name, params, message):
    # M1 = 1e200 used to loop forever in the window-equation bracket,
    # gamma = 1e308 to crash with an OverflowError, and n = 1e25 to warn
    # and report an unresolved root after dropping an infinite drift term
    argv = ["constants", "--fixture", fixture_name]
    for item in params:
        argv += ["--param", item]
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG and out == ""
    assert message in err


@pytest.mark.parametrize(
    "fixture_name, n, scheme", [("eq41", 10**160, "global"), ("remark31", 10**400, "local")], ids=["eq41", "remark31"]
)
def test_a_fixture_whose_constants_overflow_exits_config(capsys, tmp_path, fixture_name, n, scheme):
    # the builders' float arithmetic used to escape as an OverflowError, exit 1
    message = f"error: fixture {fixture_name!r}: parameters {{'n': {n}"
    code, out, err = run_cli(capsys, "constants", "--fixture", fixture_name, "--param", f"n={n}")
    assert (code, out) == (EXIT_CONFIG, "") and err.startswith(message) and err.endswith("overflow float64\n")
    cfg = write_config(tmp_path, fixture=fixture_name, params={"n": n}, scheme=scheme, particles=64)
    code, out, err = run_cli(capsys, "solve", cfg)
    assert (code, out) == (EXIT_CONFIG, "") and err.startswith(message)


def test_a_fixture_error_prints_unquoted(capsys):
    # a FixtureError used to be a KeyError, whose message str() wraps in quotes
    code, out, err = run_cli(capsys, "constants", "--fixture", "pure_quadratic", "--param", "gamma=1e400")
    assert code == EXIT_CONFIG and out == ""
    assert err == "error: fixture 'pure_quadratic': parameter 'gamma' must be a finite float, got inf\n"


def test_an_infinite_volterra_weight_exits_config(capsys, tmp_path):
    # constants used to exit 0 with "volterra_weight": Infinity, and a solve
    # to diverge in the inner theta solve before the weight was formed
    message = "error: volterra weight 32 C^2 T is not finite for C=1.0, T=1e+308\n"
    code, out, err = run_cli(capsys, "constants", "--fixture", "volterra_demo", "--horizon", "1e308")
    assert (code, out, err) == (EXIT_CONFIG, "", message)
    cfg = write_config(
        tmp_path, fixture="volterra_demo", params={}, scheme="volterra", grid={"horizon": 1e308, "steps": 4}, particles=64
    )
    code, out, err = run_cli(capsys, "solve", cfg)
    assert (code, out, err) == (EXIT_CONFIG, "", message)


@pytest.mark.parametrize("horizon", ["nan", "inf", "0", "-1"])
def test_constants_horizon_must_be_finite_and_positive(capsys, horizon):
    # nan and inf used to reach the constants as a wrong certificate message
    # or an unconverted ValueError
    code, out, err = run_cli(capsys, "constants", "--fixture", "eq41", "--horizon", horizon)
    assert code == EXIT_CONFIG and out == ""
    assert f"--horizon must be a finite number > 0, got {float(horizon)!r}" in err


def test_an_infinite_envelope_level_exits_config_without_a_warning(capsys, tmp_path):
    # eq41 at T = 13 has C(2n+1)T = 55 * 13 = 715 > 709; constants and a
    # global solve used to print numpy's overflow warning and then blame the
    # window equation's coefficients
    message = "error: envelope level kappa = eta(0) is not finite for C=11.0, n=2, T=13.0 (C(2n+1)T = 715)\n"
    cfg = write_config(tmp_path, fixture="eq41", params={}, scheme="global", grid={"horizon": 13.0, "steps": 4}, particles=64)
    for argv in (("constants", "--fixture", "eq41", "--horizon", "13"), ("solve", cfg)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (EXIT_CONFIG, "", message)
        assert not caught


@pytest.mark.parametrize("key", ["csv", "solution"])
def test_an_output_in_a_missing_directory_exits_config_before_the_solve(capsys, tmp_path, monkeypatch, key):
    # such a config used to solve and then exit 1 with a FileNotFoundError
    import mfbsde.cli

    solves = []
    monkeypatch.setattr(mfbsde.cli, "run_scheme", lambda *a, **kw: solves.append(1))
    target = str(tmp_path / "missing" / "out")
    code, out, err = run_cli(capsys, "solve", write_config(tmp_path, particles=64, outputs={key: target}))
    assert (code, out, solves) == (EXIT_CONFIG, "", [])
    assert err == f"error: outputs.{key} must be a file path in an existing directory, got {target!r}\n"


@pytest.mark.parametrize("key", ["csv", "solution"])
def test_an_output_that_cannot_be_written_exits_config(capsys, tmp_path, key):
    # a path that is a directory passes the config check and fails the write
    code, out, err = run_cli(capsys, "solve", write_config(tmp_path, particles=64, outputs={key: str(tmp_path)}))
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _refuse_constant(token):
    raise ValueError(f"not JSON: {token}")


@pytest.mark.parametrize(
    "argv",
    [["--fixture", name] for name in fixture_names()]
    + [["--fixture", "pure_quadratic", "--param", 'terminal="tanh"', "--param", "lam=0", "--param", "M1=177"]],
    ids=[*fixture_names(), "pure_quadratic-M1-177"],
)
def test_every_constants_report_is_strict_json(capsys, argv):
    # M1 = 177 saturates K2, which used to print as the token Infinity
    code, out, _ = run_cli(capsys, "constants", *argv)
    assert code == EXIT_OK
    report = json.loads(out, parse_constant=_refuse_constant)
    local = report["results"].get("local")
    if "M1=177" in argv:
        assert local["K2"] is None and local["log_K2"] > 709.0


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"solver": [1e-6]}, "solver must be an object"),
        ({"grid": 1.0}, "grid must be an object"),
        ({"params": [1.0]}, "params must be an object"),
        ({"fixture": "no_such_fixture"}, "unknown fixture 'no_such_fixture'"),
    ],
    ids=["solver-block", "grid-block", "params", "fixture"],
)
def test_a_block_that_is_no_object_or_an_unknown_fixture_exits_config(capsys, tmp_path, overrides, message):
    code, out, err = run_cli(capsys, "solve", write_config(tmp_path, **overrides))
    assert code == EXIT_CONFIG and out == ""
    assert message in err
