import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fbscontrol as fc
from fbscontrol.cli import RunConfig, build_parser, config_from_args, main
from fbscontrol.errors import ConfigError


def run(args):
    return main([str(a) for a in args])


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy.linalg alone was most of a cold start
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import fbscontrol, fbscontrol.cli; "
             "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    src = str(Path(fc.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", probe, src], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_config_roundtrip():
    cfg = RunConfig.from_dict({"problem": {"name": "coupled_z", "alpha": 0.2},
                               "solver": {"steps": 32, "paths": 100},
                               "seed": 99})
    d = cfg.to_dict()
    cfg2 = RunConfig.from_dict(d)
    assert cfg2.to_dict() == d


def test_config_rejects_negative_steps(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"solver": {"steps": -4}}))
    rc = run(["solve", "--config", cfg])
    assert rc == 1
    assert "solver.steps" in capsys.readouterr().err


@pytest.mark.parametrize("raw, field", [
    ({"solver": {"steps": "64"}}, "solver.steps"),
    ({"solver": {"paths": 2.5}}, "solver.paths"),
    ({"experiment": {"beta": "2,4"}}, "experiment.beta"),
])
def test_config_rejects_mistyped_field(tmp_path, capsys, raw, field):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(raw))
    assert run(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err


def test_config_field_types():
    cfg = RunConfig.from_dict({"problem": {"x0": 2}, "experiment": {"control": -0.5},
                               "dump_panels": True})
    assert cfg.problem.x0 == 2 and cfg.experiment.control == -0.5
    for raw in ({"seed": True}, {"dump_panels": 1}, {"experiment": {"beta": [2, "4"]}}):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)


@pytest.mark.parametrize("mp_nodes", [0, -2])
def test_config_rejects_mp_nodes_below_one(tmp_path, capsys, mp_nodes):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": {"mp_nodes": mp_nodes},
                               "out_dir": str(tmp_path / "o")}))
    assert run(["mp-check", "--config", cfg]) == 1
    assert "experiment.mp_nodes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _rejected_solver_field(tmp_path, capsys, field, value):
    """Run ``solve`` on a config setting solver.<field>; returns its exit code
    and whether the error names the field and no output was written."""
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"problem": {"name": "coupled_z", "alpha": 1.0},
                               "solver": {"steps": 16, "paths": 50, field: value},
                               "out_dir": str(tmp_path / "o")}))
    rc = run(["solve", "--config", cfg])
    err = capsys.readouterr().err
    named = err.startswith(f"config error: config field 'solver.{field}'")
    return rc, named and not (tmp_path / "o").exists()


@pytest.mark.parametrize("degree", [-1, -3])
def test_config_rejects_negative_basis_degree(tmp_path, capsys, degree):
    # -1 used to run as degree 0 and record -1 in resolved_config.json
    assert _rejected_solver_field(tmp_path, capsys, "basis_degree", degree) == (1, True)


@pytest.mark.parametrize("sweeps", [0, -1])
def test_config_rejects_picard_max_below_one(tmp_path, capsys, sweeps):
    # 0 used to exit 2 with "no convergence ... (0 sweeps)"
    assert _rejected_solver_field(tmp_path, capsys, "picard_max", sweeps) == (1, True)


@pytest.mark.parametrize("c_min", [0, 0.0, -1.0, float("nan")])
def test_config_rejects_non_positive_c_min(tmp_path, capsys, c_min):
    # -1 (or NaN, which JSON allows) switched off the invertibility guard; with
    # alpha = 1, c_min = 0 died with a ZeroDivisionError traceback in
    # benchmark_coupled_z
    assert _rejected_solver_field(tmp_path, capsys, "c_min", c_min) == (1, True)


@pytest.mark.parametrize("field", ["T", "x0", "sigma0", "alpha"])
def test_config_rejects_non_finite_problem_field(tmp_path, capsys, field):
    # json.load accepts NaN, which every range check passed: the run wrote
    # resolved_config.json and then failed on a non-finite X
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"problem": {"name": "coupled_z", field: float("nan")},
                               "solver": {"steps": 16, "paths": 100},
                               "out_dir": str(tmp_path / "o")}))
    assert run(["solve", "--config", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"config error: config field 'problem.{field}'")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, field", [
    ([], "experiment.epsilon_ladder"),  # the default ladder reaches T 2^-8, under dt = T/16
    (["--epsilon-ladder", "0.25", "--spike-at", "0.875"], "experiment.epsilon_ladder"),
    (["--epsilon-ladder", "0,0.25"], "experiment.epsilon_ladder"),
    (["--epsilon-ladder", "0.25", "--spike-at", "0.3"], "experiment.spike_at"),
])
def test_spike_rejects_rungs_off_the_grid(tmp_path, capsys, flags, field):
    # each rung must be a positive multiple of dt whose window ends by T; a
    # misfit is a config error before any output, not a traceback mid-run
    assert run(["spike", "--paths", 50, "--steps", 16, "--out", tmp_path / "o"] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err
    if field == "experiment.epsilon_ladder":
        assert "dt=0.0625" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args", [["solve", "--bogus", 1], ["solve", "--steps", "abc"],
                                  ["bench", "--spike-at", 0.3]])
def test_usage_error_exits_1(args, capsys):
    # exit 2 is the no-convergence code, so a usage error must not use it
    with pytest.raises(SystemExit) as err:
        run(args)
    assert err.value.code == 1
    assert capsys.readouterr().err.startswith("usage: fbscontrol")


def test_flags_set_their_config_fields():
    args = build_parser().parse_args(
        ["spike", "--seed", "5", "--out", "o", "--problem", "coupled_z", "--paths", "9",
         "--steps", "8", "--control", "zero", "--epsilon-ladder", "0.25,0.125",
         "--beta", "2,4", "--spike-at", "0.5", "--spike-value", "-1"])
    cfg = config_from_args(args)
    assert (cfg.seed, cfg.out_dir, cfg.problem.name, cfg.solver.paths, cfg.solver.steps) == \
        (5, "o", "coupled_z", 9, 8)
    e = cfg.experiment
    assert (e.control, e.epsilon_ladder, e.beta, e.spike_at, e.spike_value) == \
        ("zero", [0.25, 0.125], [2.0, 4.0], 0.5, -1.0)
    dumps = config_from_args(build_parser().parse_args(["mp-check", "--dump-hamiltonian"]))
    assert (dumps.dump_panels, dumps.dump_hamiltonian) == (False, True)


def test_config_rejects_unknown_field():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({"solver": {"stepz": 12}})
    assert "solver.stepz" in str(err.value)


@pytest.mark.parametrize("raw, key", [({"solvr": {"paths": 5}}, "solvr"),
                                      ({"paths": 5}, "paths"), ({"out": "x"}, "out")])
def test_config_rejects_unknown_top_level_key(raw, key):
    # a misplaced or misspelt key must not load the defaults without a word
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict(raw)
    assert err.value.field == key and "unknown field" in str(err.value)


def test_resolved_config_reloads(tmp_path):
    # resolved_config.json adds a version key, which a reload accepts
    out = tmp_path / "o"
    assert run(["solve", "--problem", "coupled_z", "--paths", 50, "--steps", 8,
                "--seed", 4, "--out", out]) == 0
    raw = json.loads((out / "resolved_config.json").read_text())
    assert "version" in raw
    cfg = RunConfig.from_dict(raw)
    assert (cfg.problem.name, cfg.solver.paths, cfg.seed, cfg.out_dir) == \
        ("coupled_z", 50, 4, str(out))


def test_config_rejects_picard_tol(tmp_path, capsys):
    # Picard's stopping rule has no tolerance field; an old config says so
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"picard_tol": 1e-6}}))
    assert run(["solve", "--config", cfg]) == 1
    assert "'solver.picard_tol': unknown field" in capsys.readouterr().err


def test_config_rejects_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run(["solve", "--config", cfg]) == 1


def test_solve_lq(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run(["solve", "--problem", "lq", "--paths", 1500, "--steps", 128,
              "--seed", 7, "--out", out])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    oracle = fc.lq_value_rk4(1.0, 0.5, 1.0)
    tol = 3 * summary["value_stderr"] + 2.0 * oracle / 128
    assert abs(summary["value"] - oracle) <= tol
    assert (out / "resolved_config.json").exists()
    assert summary["version"] == fc.__version__
    # decoupled: Picard stops at sweep 2 on a zero residual, before any rate exists
    assert (summary["sweeps"], summary["residual_trace"]) == (2, [0.0])
    assert (summary["rho"], summary["change_bound"]) == (None, 0.0)


def test_solve_dump_panels(tmp_path):
    out = tmp_path / "out"
    rc = run(["solve", "--problem", "lq", "--paths", 200, "--steps", 16,
              "--seed", 3, "--out", out, "--dump-panels"])
    assert rc == 0
    assert (out / "panel_X.csv").exists()
    assert (out / "panel_P.csv").exists()


def test_exit_code_invertibility(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"name": "coupled_z", "alpha": 0.1},
        "solver": {"steps": 16, "paths": 100, "c_min": 0.95},
        "out_dir": str(tmp_path / "o")}))
    assert run(["solve", "--config", cfg]) == 3


def test_exit_code_no_convergence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"name": "coupled_z"},
        "solver": {"steps": 16, "paths": 150, "picard_max": 2},
        "out_dir": str(tmp_path / "o")}))
    assert run(["solve", "--config", cfg]) == 2


def test_mp_check_exit_codes(tmp_path):
    out1 = tmp_path / "pass"
    rc = run(["mp-check", "--problem", "lq", "--paths", 500, "--steps", 32,
              "--seed", 5, "--out", out1])
    assert rc == 0
    report = json.loads((out1 / "mp_report.json").read_text())
    assert report["verdict"] == "PASS"

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "problem": {"name": "lq", "sigma0": 0.0, "x0": 1.0},
        "solver": {"steps": 32, "paths": 64},
        "experiment": {"control": "zero"},
        "out_dir": str(tmp_path / "fail")}))
    rc = run(["mp-check", "--config", cfg, "--dump-hamiltonian"])
    assert rc == 4
    report = json.loads((tmp_path / "fail" / "mp_report.json").read_text())
    assert report["verdict"] == "FAIL"
    assert report["worst_gap"] < 0
    assert (tmp_path / "fail" / "hamiltonian_gaps.csv").exists()


def test_spike_artifacts(tmp_path):
    out = tmp_path / "spike"
    rc = run(["spike", "--problem", "lq", "--paths", 400, "--steps", 64,
              "--epsilon-ladder", "0.125,0.0625,0.03125", "--beta", "2",
              "--seed", 11, "--out", out])
    assert rc == 0
    lines = (out / "norms.csv").read_text().strip().splitlines()
    # 12 norm rows per rung + defect row per rung + header
    assert len(lines) == 1 + 3 * 12 + 3
    assert (out / "slopes.csv").exists()
    report = json.loads((out / "order_report.json").read_text())
    assert len(report["eps"]) == 3


def test_rerun_byte_identical(tmp_path):
    argsets = [
        ["solve", "--problem", "coupled_z", "--paths", 300, "--steps", 32,
         "--seed", 13, "--out", tmp_path / "r", "--dump-panels"],
        ["spike", "--problem", "lq", "--paths", 200, "--steps", 32,
         "--epsilon-ladder", "0.25,0.125", "--beta", "2",
         "--seed", 13, "--out", tmp_path / "r"],
    ]
    import shutil
    for args in argsets:
        assert run(args) == 0
        snap = {p.name: p.read_bytes() for p in (tmp_path / "r").iterdir()}
        shutil.rmtree(tmp_path / "r")
        assert run(args) == 0
        again = {p.name: p.read_bytes() for p in (tmp_path / "r").iterdir()}
        assert set(snap) == set(again)
        for name in snap:
            assert snap[name] == again[name], name
        shutil.rmtree(tmp_path / "r")
