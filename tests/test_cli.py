import json

import numpy as np
import pytest

import fbscontrol as fc
from fbscontrol.cli import RunConfig, main
from fbscontrol.errors import ConfigError


def run(args):
    return main([str(a) for a in args])


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


def test_config_rejects_unknown_field():
    with pytest.raises(ConfigError) as err:
        RunConfig.from_dict({"solver": {"stepz": 12}})
    assert "solver.stepz" in str(err.value)


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
        "solver": {"steps": 16, "paths": 150, "picard_max": 2, "picard_tol": 1e-14},
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
