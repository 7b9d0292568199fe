import json

import pytest

from mfbsde.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_MISMATCH,
    EXIT_OK,
    load_config,
    main,
)


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
    ],
    ids=["gamma-str", "gamma-null", "gamma-list", "n-str"],
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


def test_verify_factors_each_node_once(capsys, tmp_path, monkeypatch):
    # theta factors each node once per solve, and the CSV's BMO profile
    # rebuilds its operators from the solve's factors
    import numpy as np

    calls = []
    real_qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: calls.append(a.shape) or real_qr(a, *args, **kw))
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
    assert len(calls) == 8


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


@pytest.mark.parametrize("gamma", [20.0, 30.0])
def test_overflowing_theta_monitors_exit_diverged(capsys, tmp_path, gamma):
    # finite Y too large for the exponential-moment monitors is a divergence,
    # not a bad config
    cfg = write_config(tmp_path, params={"gamma": gamma, "terminal": "brownian"}, seed=4, solver={"tol": 1e-7})
    code, out, _ = run_cli(capsys, "solve", cfg)
    assert code == EXIT_DIVERGED
    assert "overflows the sweep monitors" in json.loads(out)["error"]


def test_refine_on_a_diverging_solve_exits_diverged(capsys, tmp_path):
    cfg = write_config(tmp_path, params={"gamma": 30.0, "terminal": "brownian"}, seed=3, solver={"tol": 1e-7})
    code, out, _ = run_cli(capsys, "refine", cfg, "--factor", "2")
    assert code == EXIT_DIVERGED
    report = json.loads(out)
    assert report["command"] == "refine" and report["results"] == {}
    assert "non-finite Y at node 1" in report["error"]
